//! One shard: an independent slice of the keyspace, one simulated world
//! in which each key it has served is a register.

use std::collections::BTreeMap;
use std::fmt;

use fastreg::config::ClusterConfig;
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::history::History;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::world::QuiescenceError;

use crate::kv::{Key, KvOp, KvOpKind};
use crate::router::mix64;
use crate::world::{shard_world, Register, ShardWorld};

/// A store operation that could not complete.
#[derive(Clone, Debug)]
pub enum StoreError {
    /// A shard's world stopped making progress (step budget exhausted
    /// with messages still in transit) while it settled a wave.
    ShardStalled {
        /// The shard that stalled.
        shard: u32,
        /// The first key, in key order, with an operation still
        /// outstanding when the world gave up (the first key of the
        /// stalled wave, if only late replies were left in transit).
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
pub(crate) struct ShardBatch {
    /// Operations applied.
    pub ops: u64,
    /// Distinct keys the batch touched.
    pub keys: u64,
    /// Settle waves run: one per wave of the batch's most-split key (a
    /// key's ops split when one client has two ops on it).
    pub waves: u64,
}

/// The seed of `key`'s register on shard `index` of a store seeded with
/// `seed`: what builds its protocol context (the Byzantine protocol's
/// keys).
pub(crate) fn key_seed(seed: u64, index: u32, key: Key) -> u64 {
    mix64(seed ^ mix64(key ^ ((index as u64) << 32)))
}

/// One shard of a [`ShardedStore`](crate::store::ShardedStore): a
/// [`ProtocolId`] backend, a cluster configuration, and one simulated
/// world in which every key the shard has served is a register.
///
/// The world is built on the shard's first operation, and a key's
/// register on the key's first operation: its `W + R + S` automata join
/// the world as one block of actors, built from the seed
/// `mix64(store seed, shard index, key)` and recording into a history of
/// the key's own, which [`Shard::key_history`] and the store's harvest
/// share rather than copy. The world runs with trace capacity 0: it stores no
/// events and digests each one as it is recorded, which is all
/// `Shard::fingerprint` reads. A shard is `Send` and owns all its state,
/// which is what lets the store flush disjoint shards on worker threads
/// without any locking.
pub struct Shard {
    index: u32,
    protocol: ProtocolId,
    cfg: ClusterConfig,
    sim: SimConfig,
    seed: u64,
    world: Option<Box<dyn ShardWorld>>,
    registers: BTreeMap<Key, Register>,
    ops_applied: u64,
    /// The routed sub-batch `apply_staged` consumes; its capacity outlives the batch.
    pub(crate) staged: Vec<KvOp>,
    /// The staged ops tagged with their wave and the client process
    /// that runs them, in injection order; its capacity outlives the
    /// batch.
    waves: Vec<(u32, ProcessId, KvOp)>,
    /// Client processes (by layout index) with an op in the current wave
    /// of the key being split.
    busy: Vec<bool>,
}

impl Shard {
    /// A fresh shard. The caller (the store builder) has already
    /// validated that `protocol` is feasible at `cfg`. `sim`'s trace
    /// capacity is replaced by 0 (digest only), and its seed by one
    /// drawn from `seed` and `index`.
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
            sim: sim
                .with_trace_capacity(0)
                .with_seed(mix64(seed ^ ((index as u64) << 32))),
            seed,
            world: None,
            registers: BTreeMap::new(),
            ops_applied: 0,
            staged: Vec::new(),
            waves: Vec::new(),
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

    /// Total messages sent in the shard's world, by every key's register.
    pub fn messages_sent(&self) -> u64 {
        self.world.as_ref().map_or(0, |w| w.messages_sent())
    }

    /// Snapshot of one key's operation history (`None` if the key was
    /// never touched). Times are ticks of the shard's world: comparable
    /// across the keys of this shard, not across shards. The snapshot
    /// shares the key's recorded operations
    /// ([`SharedHistory::snapshot`](fastreg_atomicity::history::SharedHistory::snapshot)):
    /// no copy, and a later op on the key copies them once only while
    /// the snapshot is still held.
    pub fn key_history(&self, key: Key) -> Option<History> {
        self.registers.get(&key).map(|r| r.history.snapshot())
    }

    /// Every key's history snapshot, in key order, as
    /// [`key_history`](Self::key_history) takes it.
    pub(crate) fn histories(&self) -> impl Iterator<Item = (Key, History)> + '_ {
        (self.registers.iter()).map(|(&key, r)| (key, r.history.snapshot()))
    }

    /// An *in-process* identity of everything the shard's registers did:
    /// its world's trace digest, which covers every event of the whole
    /// run (the trace is digest-only, however hot a key). Within one
    /// process, event-identical shard executions have equal fingerprints
    /// and any others differ up to a 64-bit hash collision; the store's
    /// thread-independence guarantee is checked on these. It is the
    /// structural [`Trace::digest`](fastreg_simnet::trace::Trace::digest),
    /// not the rendered trace fingerprint: never write it to a file or a
    /// pin. A shard that never ran reads 0.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.world.as_ref().map_or(0, |w| w.trace_digest())
    }

    /// Stages `ops`, all of which must route to this shard, and applies
    /// them.
    #[cfg(test)]
    pub(crate) fn apply(&mut self, ops: &[KvOp]) -> Result<ShardBatch, StoreError> {
        self.staged.extend_from_slice(ops);
        self.apply_staged()
    }

    /// [`apply_staged`](Shard::apply_staged) if anything is staged, and
    /// `None` otherwise: the step the store's crew runs on every shard
    /// of a flush.
    pub(crate) fn flush(&mut self) -> Option<Result<ShardBatch, StoreError>> {
        (!self.staged.is_empty()).then(|| self.apply_staged())
    }

    /// Applies the staged sub-batch, which it empties.
    ///
    /// Ops are grouped per key (preserving submission order within each
    /// key), and each key's group is split into **waves** that keep at
    /// most one operation outstanding per process (puts at writer
    /// `client % W`, gets at reader `client % R`): an op whose process
    /// already has one in the key's current wave opens the key's next
    /// wave. Then wave 0 of every key is injected and the shard's world
    /// settles once, then wave 1, and so on. Concurrent gets and puts on
    /// one key therefore genuinely overlap — this is where a fast-read
    /// backend earns its single round trip — while every key's recorded
    /// history stays well-formed for the checkers.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ShardStalled`] if the world exhausts its
    /// step budget before quiescing.
    pub(crate) fn apply_staged(&mut self) -> Result<ShardBatch, StoreError> {
        // Stable: keys ascending, submission order within a key.
        self.staged.sort_by_key(|op| op.key);
        let result = self.drive();
        self.staged.clear();
        self.waves.clear();
        result
    }

    /// Drives the staged ops, sorted by key: builds the registers of new
    /// keys, tags every op with its wave, then injects and settles one
    /// wave at a time.
    fn drive(&mut self) -> Result<ShardBatch, StoreError> {
        let (index, cfg, seed) = (self.index, self.cfg, self.seed);
        let world = self
            .world
            .get_or_insert_with(|| shard_world(self.protocol, self.sim.clone()));
        let mut batch = ShardBatch {
            ops: self.staged.len() as u64,
            keys: 0,
            waves: 0,
        };
        for kops in self.staged.chunk_by(|a, b| a.key == b.key) {
            let key = kops[0].key;
            batch.keys += 1;
            let layout = (self.registers.entry(key))
                .or_insert_with(|| world.add_register(&cfg, key_seed(seed, index, key)))
                .layout;
            self.busy.fill(false);
            let mut wave = 0;
            for op in kops {
                // The client process that runs `op`: its layout index,
                // and its address in the world.
                let (proc, at) = match op.kind {
                    KvOpKind::Put { .. } => {
                        let i = op.client % cfg.w;
                        (i, layout.writer(i))
                    }
                    KvOpKind::Get => {
                        let i = op.client % cfg.r;
                        (cfg.w + i, layout.reader(i))
                    }
                };
                let proc = proc as usize;
                if self.busy[proc] {
                    // This process already has an op in this wave: the
                    // key's next wave, so its history stays well-formed.
                    wave += 1;
                    self.busy.fill(false);
                }
                self.busy[proc] = true;
                self.waves.push((wave, at, *op));
            }
        }
        // Stable: wave by wave, keys ascending and submission order
        // within each.
        self.waves.sort_by_key(|&(wave, ..)| wave);
        for wave in self.waves.chunk_by(|a, b| a.0 == b.0) {
            for &(_, at, op) in wave {
                match op.kind {
                    KvOpKind::Put { value } => world.invoke_write(at, value),
                    KvOpKind::Get => world.invoke_read(at),
                }
            }
            world.settle().map_err(|source| StoreError::ShardStalled {
                shard: index,
                key: first_outstanding(&self.registers, &cfg).unwrap_or(wave[0].2.key),
                source,
            })?;
            batch.waves += 1;
        }
        self.ops_applied += batch.ops;
        Ok(batch)
    }
}

/// The first key, in key order, whose register has an operation
/// outstanding (none, if only late replies were left in transit).
fn first_outstanding(registers: &BTreeMap<Key, Register>, cfg: &ClusterConfig) -> Option<Key> {
    let outstanding = |r: &Register| (0..cfg.w + cfg.r).any(|p| r.history.client_busy(p));
    (registers.iter())
        .find(|(_, r)| outstanding(r))
        .map(|(&key, _)| key)
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

        // Two keys split into two waves each share the world's two
        // settles; a third key's one wave rides in the first.
        let b = s
            .apply(&[
                KvOp::put(0, 7, 3),
                KvOp::put(0, 8, 4),
                KvOp::put(0, 7, 5),
                KvOp::get(0, 9),
                KvOp::put(0, 8, 6),
            ])
            .unwrap();
        assert_eq!((b.ops, b.keys, b.waves), (5, 3, 2));
        for (key, ops) in [(7, 2), (8, 2), (9, 1)] {
            let h = s.key_history(key).unwrap();
            assert_eq!(h.complete_ops().count(), ops, "key {key}");
        }
        // Ticks are the shard world's: key 8's second put starts where
        // key 7's does, once the first wave settled.
        let second_put = |key| s.key_history(key).unwrap().ops()[1].invoked_at;
        assert_eq!(second_put(7), second_put(8));
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
        // Under a randomized delay model the store seed must reach the
        // shard's world (at constant delay the timed schedule is the same
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
        let sim = SimConfig {
            max_steps: 1,
            ..SimConfig::default()
        };
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
