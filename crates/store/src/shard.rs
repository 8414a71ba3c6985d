//! One shard: an independent slice of the keyspace, one register
//! deployment per key.

use std::collections::BTreeMap;
use std::fmt;

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, DynCluster, RegisterOps};
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::history::History;
use fastreg_auth::digest::DigestWriter;
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::world::QuiescenceError;

use crate::kv::{Key, KvOp, KvOpKind};
use crate::router::mix64;

/// A store operation that could not complete.
#[derive(Clone, Debug)]
pub enum StoreError {
    /// A key's register deployment stopped making progress (step budget
    /// exhausted with messages still in transit).
    ShardStalled {
        /// The shard that stalled.
        shard: u32,
        /// The key whose register was being driven.
        key: Key,
        /// The scheduler's account of the stall.
        source: QuiescenceError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ShardStalled { shard, key, source } => {
                write!(f, "shard {shard} stalled driving key {key}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::ShardStalled { source, .. } => Some(source),
        }
    }
}

/// What one [`Shard::apply`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardBatch {
    /// Operations applied.
    pub ops: u64,
    /// Distinct keys the batch touched.
    pub keys: u64,
    /// Settle waves run (≥ `keys`; more when a batch carried conflicting
    /// ops by one client on one key).
    pub waves: u64,
}

/// One shard of a [`ShardedStore`](crate::store::ShardedStore): a
/// [`ProtocolId`] backend, a cluster configuration, and one independent
/// register deployment ([`DynCluster`]) per key it has served.
///
/// Registers are created lazily on first access, seeded from
/// `mix64(store seed, shard index, key)` so every key's simulated world
/// is deterministic and distinct. Every world runs with trace capacity 0:
/// it stores no events and digests each one as it is recorded, which is
/// all [`Shard::fingerprint`] reads. A shard is `Send` and owns all its
/// state, which is what lets the batched frontend drive disjoint shards
/// on worker threads without any locking.
pub struct Shard {
    index: u32,
    protocol: ProtocolId,
    cfg: ClusterConfig,
    sim: SimConfig,
    seed: u64,
    registers: BTreeMap<Key, DynCluster>,
    ops_applied: u64,
    /// The routed sub-batch `apply_staged` consumes; its capacity outlives the batch.
    pub(crate) staged: Vec<KvOp>,
    /// Client processes (by layout index) with an op in the current wave.
    busy: Vec<bool>,
}

impl Shard {
    /// A fresh shard. The caller (the store builder) has already
    /// validated that `protocol` is feasible at `cfg`. `sim`'s trace
    /// capacity is replaced by 0 (digest only).
    pub(crate) fn new(
        index: u32,
        protocol: ProtocolId,
        cfg: ClusterConfig,
        sim: SimConfig,
        seed: u64,
    ) -> Self {
        Shard {
            index,
            protocol,
            cfg,
            sim: sim.with_trace_capacity(0),
            seed,
            registers: BTreeMap::new(),
            ops_applied: 0,
            staged: Vec::new(),
            busy: vec![false; (cfg.w + cfg.r) as usize],
        }
    }

    /// The shard's position in the store.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The register protocol backing every key on this shard.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// The per-key cluster configuration.
    pub fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    /// Operations applied over the shard's lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Keys this shard has served, in key order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.registers.keys().copied()
    }

    /// Number of distinct keys served.
    pub fn key_count(&self) -> usize {
        self.registers.len()
    }

    /// Total messages sent across all of the shard's registers.
    pub fn messages_sent(&self) -> u64 {
        self.registers.values().map(|c| c.messages_sent()).sum()
    }

    /// Snapshot of one key's operation history (`None` if the key was
    /// never touched). Times are ticks of *that key's* simulated world —
    /// comparable within the key, not across keys.
    pub fn key_history(&self, key: Key) -> Option<History> {
        self.registers.get(&key).map(|c| c.snapshot())
    }

    /// An *in-process* identity of everything the shard's registers did:
    /// FNV-1a over `(key, trace digest)` in key order, where each key's
    /// digest covers every event of that key's whole run (its world's
    /// trace is digest-only, however hot the key). Within one process,
    /// event-identical shard executions have equal fingerprints and any
    /// others differ up to a 64-bit hash collision; the store's
    /// thread-independence guarantee is checked on these. It folds
    /// [`SimControl::trace_digest`](fastreg::harness::SimControl::trace_digest),
    /// not the rendered trace fingerprint: never write it to a file or a pin.
    pub fn fingerprint(&self) -> u64 {
        let mut digest = DigestWriter::new();
        for (key, cluster) in &self.registers {
            digest.write_u64(*key);
            let sim = cluster
                .sim_control_ref()
                .expect("store registers run on the simnet runtime");
            digest.write_u64(sim.trace_digest());
        }
        digest.finish()
    }

    /// Applies a batch of operations, all of which must route to this
    /// shard.
    ///
    /// Ops are grouped per key (preserving submission order within each
    /// key) and each key group is driven *concurrently inside its
    /// register's simulated world*: every op is injected asynchronously,
    /// in **waves** that keep at most one operation outstanding per
    /// process (puts at writer `client % W`, gets at reader
    /// `client % R`), then the world settles. Concurrent gets and puts on
    /// one key therefore genuinely overlap — this is where a fast-read
    /// backend earns its single round trip — while the recorded history
    /// stays well-formed for the checkers.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ShardStalled`] if any key's world exhausts
    /// its step budget before quiescing.
    pub fn apply(&mut self, ops: &[KvOp]) -> Result<ShardBatch, StoreError> {
        self.staged.extend_from_slice(ops);
        self.apply_staged()
    }

    /// [`apply_staged`](Shard::apply_staged) if anything is staged, and
    /// `None` otherwise: the step the store's crew runs on every shard
    /// of a flush.
    pub(crate) fn flush(&mut self) -> Option<Result<ShardBatch, StoreError>> {
        (!self.staged.is_empty()).then(|| self.apply_staged())
    }

    /// [`apply`](Shard::apply) to the staged sub-batch, which it empties.
    pub(crate) fn apply_staged(&mut self) -> Result<ShardBatch, StoreError> {
        // Stable: keys ascending, submission order within a key.
        self.staged.sort_by_key(|op| op.key);
        let result = self.drive();
        self.staged.clear();
        result
    }

    /// Drives the staged ops, sorted by key, one run of equal keys at a time.
    fn drive(&mut self) -> Result<ShardBatch, StoreError> {
        let (index, protocol, cfg, seed) = (self.index, self.protocol, self.cfg, self.seed);
        let mut batch = ShardBatch {
            ops: self.staged.len() as u64,
            keys: 0,
            waves: 0,
        };
        for kops in self.staged.chunk_by(|a, b| a.key == b.key) {
            let key = kops[0].key;
            batch.keys += 1;
            let cluster = self.registers.entry(key).or_insert_with(|| {
                ClusterBuilder::new(cfg)
                    .sim(self.sim.clone())
                    // Created on first access; this seed wins over `sim.seed`.
                    .seed(mix64(seed ^ mix64(key ^ ((index as u64) << 32))))
                    .build(protocol)
                    .expect("the store builder validated feasibility")
            });
            let settle = |cluster: &mut DynCluster| {
                cluster
                    .try_settle()
                    .map_err(|source| StoreError::ShardStalled {
                        shard: index,
                        key,
                        source,
                    })
            };
            self.busy.fill(false);
            for op in kops {
                let proc = match op.kind {
                    KvOpKind::Put { .. } => op.client % cfg.w,
                    KvOpKind::Get => cfg.w + op.client % cfg.r,
                } as usize;
                if self.busy[proc] {
                    // This process already has an op in flight: close the
                    // wave so the history stays well-formed.
                    settle(cluster)?;
                    batch.waves += 1;
                    self.busy.fill(false);
                }
                self.busy[proc] = true;
                match op.kind {
                    KvOpKind::Put { value } => cluster.write_by(op.client % cfg.w, value),
                    KvOpKind::Get => cluster.read_async(op.client % cfg.r),
                }
            }
            settle(cluster)?;
            batch.waves += 1;
        }
        self.ops_applied += batch.ops;
        Ok(batch)
    }
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("protocol", &self.protocol)
            .field("keys", &self.registers.len())
            .field("ops_applied", &self.ops_applied)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg_atomicity::history::RegValue;

    fn shard() -> Shard {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        Shard::new(0, ProtocolId::FastCrash, cfg, SimConfig::default(), 7)
    }

    #[test]
    fn lazy_registers_and_counters() {
        let mut s = shard();
        assert_eq!(s.key_count(), 0);
        s.apply(&[KvOp::put(0, 10, 1), KvOp::put(0, 20, 1), KvOp::get(1, 10)])
            .unwrap();
        assert_eq!(s.key_count(), 2);
        assert_eq!(s.ops_applied(), 3);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![10, 20]);
        assert!(s.messages_sent() > 0);
        assert!(s.key_history(10).is_some());
        assert!(s.key_history(99).is_none());
        assert!(format!("{s:?}").contains("fast-crash") || format!("{s:?}").contains("FastCrash"));
    }

    #[test]
    fn keys_are_isolated_registers() {
        let mut s = shard();
        s.apply(&[KvOp::put(0, 1, 11), KvOp::put(0, 2, 22)])
            .unwrap();
        s.apply(&[KvOp::get(0, 1), KvOp::get(1, 2)]).unwrap();
        let read_of = |h: &History| {
            h.reads()
                .filter_map(|o| o.returned)
                .last()
                .expect("one read per key")
        };
        assert_eq!(read_of(&s.key_history(1).unwrap()), RegValue::Val(11));
        assert_eq!(read_of(&s.key_history(2).unwrap()), RegValue::Val(22));
    }

    #[test]
    fn same_client_same_key_conflicts_split_into_waves() {
        let mut s = shard();
        // Client 0 puts twice to one key: two waves; the interleaved get
        // by client 1 shares the first wave.
        let b = s
            .apply(&[KvOp::put(0, 5, 1), KvOp::get(1, 5), KvOp::put(0, 5, 2)])
            .unwrap();
        assert_eq!(b.ops, 3);
        assert_eq!(b.keys, 1);
        assert_eq!(b.waves, 2);
        let h = s.key_history(5).unwrap();
        assert_eq!(h.writes().count(), 2);
        assert_eq!(h.reads().count(), 1);
        assert!(h.complete_ops().count() == 3, "every op completed");
    }

    #[test]
    fn apply_is_deterministic() {
        let run = || {
            let mut s = shard();
            s.apply(&[
                KvOp::put(0, 3, 1),
                KvOp::get(0, 3),
                KvOp::get(1, 3),
                KvOp::put(0, 9, 5),
            ])
            .unwrap();
            (
                s.fingerprint(),
                s.key_history(3).unwrap().render(),
                s.key_history(9).unwrap().render(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distinct_seeds_give_distinct_worlds() {
        // Under a randomized delay model the store seed must reach each
        // key's world (at constant delay the timed schedule is the same
        // for every seed, so a constant-delay variant would be vacuous).
        use fastreg_simnet::delay::DelayModel;
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let sim = SimConfig::default().with_delay(DelayModel::Uniform { lo: 1, hi: 50 });
        let fp = |seed: u64| {
            let mut s = Shard::new(0, ProtocolId::FastCrash, cfg, sim.clone(), seed);
            s.apply(&[KvOp::put(0, 1, 1), KvOp::get(0, 1)]).unwrap();
            s.fingerprint()
        };
        assert_eq!(fp(1), fp(1), "same seed, same world");
        assert_ne!(fp(1), fp(2), "the store seed reaches the registers");
    }

    #[test]
    fn the_fingerprint_sees_every_event_of_a_hot_key() {
        // Far past the 100 000 entries a default trace stores: only the
        // last put differs, so a digest of a stored prefix would miss it.
        let run = |last: u64| {
            let mut s = shard();
            let puts: Vec<KvOp> = (1..=6_000).map(|v| KvOp::put(0, 1, v)).collect();
            s.apply(&puts).unwrap();
            s.apply(&[KvOp::put(0, 1, last)]).unwrap();
            s.fingerprint()
        };
        assert_eq!(run(6_001), run(6_001), "same seed, same run");
        assert_ne!(
            run(6_001),
            run(6_002),
            "the last put reaches the fingerprint"
        );
    }

    #[test]
    fn stalls_surface_as_typed_errors() {
        // A starvation-level step budget: the settle after injecting the
        // put cannot drain the write broadcast.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let sim = SimConfig::default().with_max_steps(1);
        let mut s = Shard::new(3, ProtocolId::FastCrash, cfg, sim, 1);
        let err = s
            .apply(&[KvOp::put(0, 42, 1)])
            .expect_err("a 1-step budget cannot settle a write broadcast");
        let StoreError::ShardStalled { shard, key, .. } = &err;
        assert_eq!((*shard, *key), (3, 42));
        let msg = err.to_string();
        assert!(msg.contains("shard 3") && msg.contains("key 42"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
