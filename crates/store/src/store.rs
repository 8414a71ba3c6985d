//! The sharded store: routing, shard ownership, and batched application.

use std::fmt;

use fastreg::config::ClusterConfig;
use fastreg::harness::BuildError;
use fastreg::protocols::registry::ProtocolId;
use fastreg_auth::digest::DigestWriter;
use fastreg_rt::threaded::Crew;
use fastreg_simnet::runner::SimConfig;

use crate::checker::KvHistory;
use crate::kv::KvOp;
use crate::router::Router;
use crate::shard::{Shard, ShardBatch, StoreError};

/// Fluent assembly of a [`ShardedStore`].
///
/// Mirrors the cluster-level
/// [`ClusterBuilder`](fastreg::harness::ClusterBuilder): collect the
/// keyspace partitioning (shard count), the per-key register
/// configuration, the backend protocol(s) and the simulation settings,
/// then [`build`](StoreBuilder::build) — which validates every backend's
/// feasibility predicate *up front*, so no per-key register construction
/// can fail later.
///
/// # Examples
///
/// ```
/// use fastreg::config::ClusterConfig;
/// use fastreg::protocols::registry::ProtocolId;
/// use fastreg_store::store::StoreBuilder;
///
/// let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
/// let store = StoreBuilder::new(cfg)
///     .shards(4)
///     .seed(7)
///     .protocol(ProtocolId::FastCrash)
///     .build()?;
/// assert_eq!(store.shards().len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    cfg: ClusterConfig,
    shards: u32,
    backends: Vec<ProtocolId>,
    sim: SimConfig,
    seed: u64,
}

impl StoreBuilder {
    /// Starts a builder: 8 shards of [`ProtocolId::FastCrash`] over
    /// `cfg`, default simulation settings, seed 0.
    pub fn new(cfg: ClusterConfig) -> Self {
        StoreBuilder {
            cfg,
            shards: 8,
            backends: vec![ProtocolId::FastCrash],
            sim: SimConfig::default(),
            seed: 0,
        }
    }

    /// Sets the shard count (keyspace partitions).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the store seed (each shard's world and each key's register
    /// derive theirs from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the shards' simulation configuration (delay model, step
    /// budget per settle). The seed inside it is overridden per shard,
    /// and the trace capacity is forced to 0: a shard's world stores no
    /// events and digests every one, so the store fingerprint covers
    /// every key's whole run.
    #[cfg(test)]
    pub(crate) fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Backs every shard with `protocol`.
    pub fn protocol(mut self, protocol: ProtocolId) -> Self {
        self.backends = vec![protocol];
        self
    }

    /// Backs shard `i` with `backends[i % backends.len()]` — the
    /// heterogeneous ("multi-backend") deployment: different slices of
    /// the keyspace run different register protocols behind one router.
    ///
    /// An empty vector is ignored (the previous assignment stands).
    pub fn backends(mut self, backends: Vec<ProtocolId>) -> Self {
        if !backends.is_empty() {
            self.backends = backends;
        }
        self
    }

    /// Assembles the store.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Infeasible`] if any assigned backend's
    /// feasibility predicate rejects the cluster configuration — checked
    /// here, once, so lazy per-key register construction cannot fail.
    pub fn build(self) -> Result<ShardedStore, BuildError> {
        for &id in &self.backends {
            if !id.feasible(&self.cfg) {
                return Err(BuildError::Infeasible {
                    id,
                    cfg: self.cfg,
                    requirement: id.requirement(),
                });
            }
        }
        let shards = (0..self.shards)
            .map(|i| {
                let protocol = self.backends[i as usize % self.backends.len()];
                Shard::new(i, protocol, self.cfg, self.sim.clone(), self.seed)
            })
            .collect();
        Ok(ShardedStore {
            router: Router::new(self.shards),
            shards,
            cfg: self.cfg,
            crew: Crew::new(Shard::flush, fastreg_rt::available_cores()),
        })
    }
}

/// What one [`ShardedStore::apply_batch`] call did, summed over shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Operations applied.
    pub ops: u64,
    /// Shards that received a non-empty sub-batch.
    pub shards_hit: u64,
    /// Distinct `(shard, key)` groups driven.
    pub key_groups: u64,
    /// Settle waves run across all shards.
    pub waves: u64,
}

impl BatchStats {
    fn absorb(&mut self, b: &ShardBatch) {
        self.ops += b.ops;
        self.shards_hit += 1;
        self.key_groups += b.keys;
        self.waves += b.waves;
    }
}

/// A key–value store assembled from hash-partitioned shards of
/// single-register deployments.
///
/// * the [`Router`] maps each key to its owning shard (stable, pure);
/// * each [`Shard`] owns one simulated world of the shard's
///   [`ProtocolId`] backend, in which each key it serves is a register;
/// * [`apply_batch`](ShardedStore::apply_batch) routes a batch of
///   [`KvOp`]s and drives the affected shards, which share nothing, each
///   on its fixed worker thread — a thread count never changes results
///   (checked on [`fingerprint`](ShardedStore::fingerprint)s);
/// * [`global_history`](ShardedStore::global_history) snapshots each
///   key's recorded history for the
///   [`StoreChecker`](crate::checker::StoreChecker).
pub struct ShardedStore {
    router: Router,
    shards: Vec<Shard>,
    cfg: ClusterConfig,
    /// Flushes shard `i` on worker `i mod w`; its helpers live as long
    /// as the store.
    crew: Crew<Shard, Option<Result<ShardBatch, StoreError>>>,
}

impl ShardedStore {
    /// The store's router.
    pub fn router(&self) -> Router {
        self.router
    }

    /// The per-key cluster configuration.
    pub(crate) fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Operations applied over the store's lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.shards.iter().map(Shard::ops_applied).sum()
    }

    /// Distinct keys served so far.
    pub fn distinct_keys(&self) -> u64 {
        self.shards.iter().map(|s| s.key_count() as u64).sum()
    }

    /// Total messages sent in every shard's world.
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(Shard::messages_sent).sum()
    }

    /// An *in-process* identity of everything the store did: FNV-1a over
    /// the `Shard::fingerprint`s in shard order. Two runs of one process
    /// with equal fingerprints executed event-identical simulated
    /// histories — the value the "same results at any thread count"
    /// guarantee is checked on. Compare it, never persist it.
    pub fn fingerprint(&self) -> u64 {
        let mut digest = DigestWriter::new();
        for s in &self.shards {
            digest.write_u64(s.fingerprint());
        }
        digest.finish()
    }

    /// Applies one batch of operations.
    ///
    /// Ops are grouped per shard by the router, **preserving submission
    /// order within each shard**; each hit shard then applies its
    /// sub-batch in waves, at most one operation outstanding per process
    /// of each key's register and one settle of the shard's world per
    /// wave.
    ///
    /// The shards are flushed on `w = min(threads, cores, shards)`
    /// workers, with the host's cores read once per store: worker 0 is
    /// the calling thread, and workers `1..w` are threads the store
    /// spawns at its first flush and keeps for its life. Shard `i` is
    /// always flushed by worker `i mod w`, moved there for the flush and
    /// back. Shards share nothing, so the shards, the stats, the error,
    /// every key's history and the [`fingerprint`](Self::fingerprint)
    /// are the same at any `threads`; at `w = 1` (one core, or `threads
    /// ≤ 1`) nothing is spawned and the caller flushes every shard.
    ///
    /// # Errors
    ///
    /// Returns the first (by shard order) [`StoreError`] if any shard
    /// stalled; later shards of the same batch still ran.
    pub fn apply_batch(&mut self, ops: &[KvOp], threads: usize) -> Result<BatchStats, StoreError> {
        for op in ops {
            let shard = self.router.shard_of(op.key) as usize;
            self.shards[shard].staged.push(*op);
        }
        let (mut stats, mut stalled) = (BatchStats::default(), None);
        for flushed in self.crew.run(&mut self.shards, threads).flatten() {
            match flushed {
                Ok(batch) => stats.absorb(&batch),
                Err(e) => stalled = stalled.or(Some(e)),
            }
        }
        stalled.map_or(Ok(stats), Err)
    }

    /// Replaces the store's crew with one that believes the host has
    /// `cores` cores, so tests reach `w > 1` on any host.
    #[cfg(test)]
    pub(crate) fn claim_cores(&mut self, cores: usize) {
        self.crew = Crew::new(Shard::flush, cores);
    }

    /// Each key's recorded history in a [`KvHistory`], in key order —
    /// the input of the [`StoreChecker`](crate::checker::StoreChecker).
    /// The histories are shared with the keys' registers, not copied.
    pub fn global_history(&self) -> KvHistory {
        KvHistory::harvest(self)
    }
}

impl fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("cfg", &self.cfg)
            .field("distinct_keys", &self.distinct_keys())
            .field("ops_applied", &self.ops_applied())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Key, KvOp};

    fn small_store(shards: u32) -> ShardedStore {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        StoreBuilder::new(cfg)
            .shards(shards)
            .seed(11)
            .protocol(ProtocolId::FastCrash)
            .build()
            .unwrap()
    }

    fn mixed_ops(n: u64) -> Vec<KvOp> {
        (0..n)
            .map(|i| {
                let key = i % 13;
                if i % 3 == 0 {
                    KvOp::put(0, key, i + 1)
                } else {
                    KvOp::get((i % 2) as u32, key)
                }
            })
            .collect()
    }

    #[test]
    fn builder_validates_backends_up_front() {
        let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap(); // past the fast bound
        let err = StoreBuilder::new(cfg)
            .shards(2)
            .backends(vec![ProtocolId::Abd, ProtocolId::FastCrash])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("fast-crash"));
        // A feasible assignment builds.
        let store = StoreBuilder::new(cfg)
            .shards(2)
            .protocol(ProtocolId::Abd)
            .build()
            .unwrap();
        assert_eq!(store.shards().len(), 2);
    }

    #[test]
    fn heterogeneous_backends_round_robin() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let store = StoreBuilder::new(cfg)
            .shards(5)
            .backends(vec![ProtocolId::FastCrash, ProtocolId::Abd])
            .build()
            .unwrap();
        let got: Vec<ProtocolId> = store.shards().iter().map(Shard::protocol).collect();
        assert_eq!(
            got,
            vec![
                ProtocolId::FastCrash,
                ProtocolId::Abd,
                ProtocolId::FastCrash,
                ProtocolId::Abd,
                ProtocolId::FastCrash,
            ]
        );
        // Empty backend lists are ignored, not a panic-later.
        let store = StoreBuilder::new(cfg).backends(vec![]).build().unwrap();
        assert_eq!(store.shards()[0].protocol(), ProtocolId::FastCrash);
    }

    #[test]
    fn batches_route_and_apply() {
        let mut store = small_store(4);
        let stats = store.apply_batch(&mixed_ops(40), 2).unwrap();
        assert_eq!(stats.ops, 40);
        assert!(stats.shards_hit >= 2, "13 keys over 4 shards hit several");
        assert!(stats.key_groups >= 13, "every key formed a group");
        assert_eq!(store.ops_applied(), 40);
        assert_eq!(store.distinct_keys(), 13);
        assert!(store.messages_sent() > 0);
        assert!(format!("{store:?}").contains("distinct_keys"));
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        // Four claimed cores, so threads 2, 4 and 8 really spawn helpers
        // on any host (8 is clamped to w = 4).
        let ops = mixed_ops(120);
        let run = |threads: usize| {
            let mut store = small_store(8);
            store.claim_cores(4);
            let stats: Vec<BatchStats> = (ops.chunks(30))
                .map(|chunk| store.apply_batch(chunk, threads).unwrap())
                .collect();
            assert_eq!(store.crew.workers(), threads.min(4));
            let shards = store.shards();
            let per_shard: Vec<(u32, u64)> = (shards.iter())
                .map(|s| (s.index(), s.ops_applied()))
                .collect();
            let histories: Vec<(Key, String)> = (shards.iter())
                .flat_map(|s| {
                    s.keys()
                        .map(move |k| (k, s.key_history(k).unwrap().render()))
                })
                .collect();
            (stats, per_shard, histories, store.fingerprint())
        };
        let one = run(1);
        assert_eq!(one.2.len(), 13, "every key has a history");
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn a_stalled_batch_reports_the_first_shard_and_keeps_every_shard() {
        // A 1-step budget cannot settle any key, so every hit shard
        // stalls; the report must be the lowest-indexed one at any worker
        // count (four claimed cores: a stall on a helper's shard comes
        // back too), the later shards still ran, and nothing stays staged.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let ops = mixed_ops(40);
        let mut first = None;
        for threads in [1, 2, 4] {
            let mut store = StoreBuilder::new(cfg)
                .shards(8)
                .sim(SimConfig {
                    max_steps: 1,
                    ..SimConfig::default()
                })
                .build()
                .unwrap();
            store.claim_cores(4);
            let first_hit = (ops.iter().map(|op| store.router().shard_of(op.key)))
                .min()
                .unwrap();
            let err = store.apply_batch(&ops, threads).unwrap_err();
            assert_eq!(store.crew.workers(), threads);
            let StoreError::ShardStalled { shard, .. } = err;
            assert_eq!(shard, first_hit, "threads = {threads}");
            let shown = first.get_or_insert_with(|| err.to_string());
            assert_eq!(*shown, err.to_string(), "threads = {threads}");
            let order: Vec<u32> = store.shards().iter().map(Shard::index).collect();
            assert_eq!(order, (0..8).collect::<Vec<_>>(), "threads = {threads}");
            // Nothing is left staged: the next batch starts clean.
            assert_eq!(
                store.apply_batch(&[], threads).unwrap(),
                BatchStats::default()
            );
        }
    }

    #[test]
    fn empty_batches_are_free() {
        let mut store = small_store(2);
        let stats = store.apply_batch(&[], 4).unwrap();
        assert_eq!(stats, BatchStats::default());
        assert_eq!(store.ops_applied(), 0);
    }
}
