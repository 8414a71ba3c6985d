//! The batched frontend: op-stream coalescing in front of the shards.
//!
//! Production register stores do not settle the network once per
//! operation; they accumulate a window of client operations, group them
//! by destination shard, and dispatch every group at once. The
//! [`BatchedFrontend`] is that window: [`submit`](BatchedFrontend::submit)
//! buffers operations from any number of simulated clients, and a flush
//! (explicit, or automatic when the window fills) routes the buffer and
//! drives the affected shards via [`ShardedStore::apply_batch`].

use crate::kv::KvOp;
use crate::shard::StoreError;
use crate::store::{BatchStats, ShardedStore};

/// Accumulated frontend counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Operations accepted.
    pub ops: u64,
    /// Flushes executed (auto + explicit, empty flushes excluded).
    pub flushes: u64,
    /// Largest single flush, in ops.
    pub max_flush_ops: u64,
    /// Non-empty per-shard sub-batches dispatched.
    pub shard_batches: u64,
    /// Settle waves run by the shards.
    pub waves: u64,
}

/// A batching window in front of a [`ShardedStore`].
///
/// # Examples
///
/// ```
/// use fastreg::config::ClusterConfig;
/// use fastreg_store::frontend::BatchedFrontend;
/// use fastreg_store::kv::KvOp;
/// use fastreg_store::store::StoreBuilder;
///
/// let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
/// let store = StoreBuilder::new(cfg).shards(4).build()?;
/// let mut fe = BatchedFrontend::new(store, 2 /* threads */, 8 /* window */);
/// for client in 0..6u32 {
///     fe.submit(KvOp::put(0, client as u64, client as u64 + 1))?;
///     fe.submit(KvOp::get(client, client as u64))?;
/// }
/// let (store, stats) = fe.finish()?;
/// assert_eq!(stats.ops, 12);
/// assert_eq!(store.ops_applied(), 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchedFrontend {
    store: ShardedStore,
    threads: usize,
    window: usize,
    pending: Vec<KvOp>,
    stats: FrontendStats,
}

impl BatchedFrontend {
    /// A frontend over `store`, flushing automatically once `window` ops
    /// are pending. Every flush goes to [`ShardedStore::apply_batch`]
    /// with `threads`, which flushes the shards on up to that many
    /// workers without changing any result.
    ///
    /// A zero `window` is treated as 1 (flush per op — the unbatched
    /// degenerate mode, useful as a baseline).
    pub fn new(store: ShardedStore, threads: usize, window: usize) -> Self {
        BatchedFrontend {
            store,
            threads,
            window: window.max(1),
            pending: Vec::new(),
            stats: FrontendStats::default(),
        }
    }

    /// The store behind the frontend (read access — mutate through
    /// operations).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Counters so far.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Operations buffered but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Accepts one operation, flushing if the window is full.
    ///
    /// # Errors
    ///
    /// Propagates a [`StoreError`] from an automatic flush.
    pub fn submit(&mut self, op: KvOp) -> Result<(), StoreError> {
        self.pending.push(op);
        self.stats.ops += 1;
        if self.pending.len() >= self.window {
            self.flush()?;
        }
        Ok(())
    }

    /// Dispatches everything pending (no-op when empty).
    ///
    /// # Errors
    ///
    /// Propagates the store's [`StoreError`] (first stalled shard, in
    /// shard order).
    pub fn flush(&mut self) -> Result<BatchStats, StoreError> {
        if self.pending.is_empty() {
            return Ok(BatchStats::default());
        }
        let batch = self.store.apply_batch(&self.pending, self.threads);
        self.pending.clear();
        let batch = batch?;
        self.stats.flushes += 1;
        self.stats.max_flush_ops = self.stats.max_flush_ops.max(batch.ops);
        self.stats.shard_batches += batch.shards_hit;
        self.stats.waves += batch.waves;
        Ok(batch)
    }

    /// Flushes the tail and hands the store back with the final
    /// counters.
    ///
    /// # Errors
    ///
    /// Propagates a [`StoreError`] from the final flush.
    pub fn finish(mut self) -> Result<(ShardedStore, FrontendStats), StoreError> {
        self.flush()?;
        Ok((self.store, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;

    use crate::store::StoreBuilder;

    fn frontend(window: usize) -> BatchedFrontend {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let store = StoreBuilder::new(cfg)
            .shards(4)
            .seed(5)
            .protocol(ProtocolId::FastCrash)
            .build()
            .unwrap();
        BatchedFrontend::new(store, 2, window)
    }

    #[test]
    fn window_fills_trigger_automatic_flushes() {
        let mut fe = frontend(4);
        for i in 0..10u64 {
            fe.submit(KvOp::put(0, i % 3, i + 1)).unwrap();
        }
        // 10 ops, window 4: two auto-flushes, 2 pending.
        assert_eq!(fe.stats().flushes, 2);
        assert_eq!(fe.pending(), 2);
        assert_eq!(fe.store().ops_applied(), 8);
        let (store, stats) = fe.finish().unwrap();
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.ops, 10);
        assert_eq!(stats.max_flush_ops, 4);
        assert!(stats.shard_batches >= stats.flushes);
        assert_eq!(store.ops_applied(), 10);
    }

    #[test]
    fn explicit_flush_and_empty_flush() {
        let mut fe = frontend(100);
        assert_eq!(fe.flush().unwrap(), BatchStats::default());
        fe.submit(KvOp::put(0, 1, 1)).unwrap();
        fe.submit(KvOp::get(0, 1)).unwrap();
        let batch = fe.flush().unwrap();
        assert_eq!(batch.ops, 2);
        assert_eq!(fe.pending(), 0);
        assert_eq!(fe.stats().flushes, 1);
    }

    #[test]
    fn zero_window_degenerates_to_flush_per_op() {
        let mut fe = frontend(0);
        for i in 0..3u64 {
            fe.submit(KvOp::put(0, i, i + 1)).unwrap();
        }
        assert_eq!(fe.stats().flushes, 3);
        assert_eq!(fe.pending(), 0);
    }

    #[test]
    fn batched_and_unbatched_agree_on_results() {
        // Batching changes *when* worlds settle, never per-key outcomes
        // visible to sequential clients: the same single-client op
        // sequence leaves both stores with every op completed and the
        // same per-key final values.

        let ops: Vec<KvOp> = (0..24u64)
            .map(|i| {
                if i % 4 == 0 {
                    KvOp::put(0, i % 6, i + 1)
                } else {
                    KvOp::get(0, i % 6)
                }
            })
            .collect();
        let run = |window: usize| {
            let mut fe = frontend(window);
            for &op in &ops {
                fe.submit(op).unwrap();
            }
            let (store, _) = fe.finish().unwrap();
            let global = store.global_history();
            global
                .keys()
                .into_iter()
                .map(|k| {
                    let h = global.project(k);
                    let last = h.writes().filter_map(|o| o.write_value()).last();
                    (k, h.complete_ops().count(), h.len(), last)
                })
                .collect::<Vec<_>>()
        };
        let unbatched = run(1);
        let batched = run(8);
        assert_eq!(unbatched, batched);
        for (_, complete, len, _) in &batched {
            assert_eq!(complete, len, "every op completed");
        }
    }
}
