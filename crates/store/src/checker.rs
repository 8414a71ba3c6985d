//! Per-key contract checking: each key's recorded history, graded by the
//! register checker for its shard's contract.
//!
//! The store's correctness claim is *per key*: every key is one atomic
//! (or regular) register, whatever the interleaving of operations across
//! keys. Each key's register records its own [`History`], and the
//! [`KvHistory`] holds those histories as they were recorded. The
//! [`StoreChecker`] grades each one with the [`OnlineChecker`] for the
//! [`Spec`](fastreg_atomicity::streaming::Spec) its shard's protocol
//! promised ([`Contract::spec`]), in the stable [`Verdict`] codes of
//! `fastreg_atomicity::verdict`.

use fastreg::protocols::registry::{Contract, ProtocolId};
use fastreg_atomicity::history::{History, OpKind, Operation};
use fastreg_atomicity::streaming::OnlineChecker;
use fastreg_atomicity::verdict::Verdict;
use fastreg_rt::threaded::map_ordered;

use crate::kv::Key;
use crate::store::ShardedStore;

/// The store's operation history: each key's recorded register
/// [`History`], in key order.
///
/// Harvested by [`ShardedStore::global_history`]: each key's history is
/// a [`SharedHistory::snapshot`](fastreg_atomicity::history::SharedHistory::snapshot)
/// of its register's, which shares the recorded operations instead of
/// copying them.
/// Times are ticks of the key's shard's world: they compare across the
/// keys of one shard, not across shards. A consistency checker takes one
/// key's history at a time.
#[derive(Clone, Debug, Default)]
pub struct KvHistory {
    per_key: Vec<(Key, History)>,
}

impl KvHistory {
    /// Every key's history through
    /// [`Shard::histories`](crate::shard::Shard::histories), sorted by
    /// key.
    pub(crate) fn harvest(store: &ShardedStore) -> Self {
        let mut per_key = Vec::with_capacity(store.distinct_keys() as usize);
        for shard in store.shards() {
            per_key.extend(shard.histories());
        }
        per_key.sort_unstable_by_key(|&(key, _)| key);
        KvHistory { per_key }
    }

    /// Each key's history, in key order.
    pub fn histories(&self) -> impl Iterator<Item = (Key, &History)> {
        self.per_key.iter().map(|(key, h)| (*key, h))
    }

    /// Every recorded operation, key by key (times compare within a
    /// shard only).
    pub fn ops(&self) -> impl Iterator<Item = &Operation> {
        self.per_key.iter().flat_map(|(_, h)| h.ops())
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.per_key.iter().map(|(_, h)| h.len()).sum()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.per_key.iter().all(|(_, h)| h.is_empty())
    }

    /// Flattens every operation of every key into one register
    /// [`History`] for **latency accounting only**: the per-op intervals
    /// are valid (each comes from its key's shard's world), cross-shard
    /// times are not, and ops of different keys do not form one register
    /// — never feed the result to a consistency checker.
    pub fn latency_history(&self) -> History {
        rebuild(self.ops())
    }
}

/// Rebuilds recorded operations into a register [`History`] (invocation
/// order restored by sorting on the interval endpoints).
fn rebuild<'a>(ops: impl Iterator<Item = &'a Operation>) -> History {
    let mut ops: Vec<&Operation> = ops.collect();
    ops.sort_by_key(|op| (op.invoked_at, op.responded_at));
    let mut h = History::new();
    for op in ops {
        let id = match op.kind {
            OpKind::Write { value } => h.invoke_write(op.proc, value, op.invoked_at),
            OpKind::Read => h.invoke_read(op.proc, op.invoked_at),
        };
        if let Some(at) = op.responded_at {
            h.respond(id, op.returned, at);
        }
    }
    h
}

/// The verdict of checking one key's history against its shard's
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyVerdict {
    /// The key.
    pub key: Key,
    /// The shard owning it.
    pub shard: u32,
    /// The backend protocol serving it.
    pub protocol: ProtocolId,
    /// The contract checked (the protocol's declared contract).
    pub contract: Contract,
    /// The checker's verdict, in the stable `verdict.rs` codes.
    pub verdict: Verdict,
}

impl KeyVerdict {
    /// A violation on a *sound* backend is a genuine protocol (or store)
    /// bug; on an [`Contract::Unsound`] backend it is the sought
    /// counterexample — mirroring the exploration engine's
    /// expected/unexpected split.
    pub(crate) fn is_unexpected(&self) -> bool {
        self.verdict.is_proven_violation() && self.contract != Contract::Unsound
    }
}

/// What checking a whole store produced: one verdict per key.
#[derive(Clone, Debug, Default)]
pub struct StoreCheckReport {
    /// Per-key verdicts, in key order.
    pub per_key: Vec<KeyVerdict>,
}

impl StoreCheckReport {
    /// Keys whose history satisfied their contract.
    pub fn clean_count(&self) -> usize {
        self.per_key.iter().filter(|k| k.verdict.is_clean()).count()
    }

    /// The verdicts that are proven violations.
    pub fn violations(&self) -> impl Iterator<Item = &KeyVerdict> {
        self.per_key
            .iter()
            .filter(|k| k.verdict.is_proven_violation())
    }

    /// Violations on sound backends — real bugs.
    pub fn unexpected(&self) -> impl Iterator<Item = &KeyVerdict> {
        self.per_key.iter().filter(|k| k.is_unexpected())
    }

    /// Returns `true` when every key is clean.
    pub fn is_clean(&self) -> bool {
        self.clean_count() == self.per_key.len()
    }
}

/// Checks every key of a store against its shard's declared contract.
///
/// A zero-sized namespace.
pub struct StoreChecker;

impl StoreChecker {
    /// Harvests the store's per-key histories and checks each one:
    /// `check_streaming(store, &store.global_history(), 1)`.
    pub fn check(store: &ShardedStore) -> StoreCheckReport {
        Self::check_streaming(store, &store.global_history(), 1)
    }

    /// Checks each key's history in `history` against the contract of
    /// the shard (of `store`) owning that key, fanning the keys across
    /// `threads` [`map_ordered`] workers. The report is identical at any
    /// `threads` value.
    ///
    /// Taking the history as an argument lets tests feed doctored
    /// histories through the very same path.
    pub fn check_streaming(
        store: &ShardedStore,
        history: &KvHistory,
        threads: usize,
    ) -> StoreCheckReport {
        let router = store.router();
        let w = store.cfg().w;
        // Resolve shard/contract metadata up front so the workers only
        // touch plain data, not the store.
        let items: Vec<(KeyVerdict, &History)> = history
            .histories()
            .map(|(key, h)| {
                let shard_index = router.shard_of(key);
                let shard = &store.shards()[shard_index as usize];
                let seed = KeyVerdict {
                    key,
                    shard: shard_index,
                    protocol: shard.protocol(),
                    contract: shard.protocol().contract(),
                    verdict: Verdict::Clean,
                };
                (seed, h)
            })
            .collect();
        let per_key = map_ordered(items, threads, move |_, (seed, h)| KeyVerdict {
            verdict: OnlineChecker::check(seed.contract.spec(w), h),
            ..seed
        });
        StoreCheckReport { per_key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg_atomicity::history::RegValue;
    use fastreg_atomicity::regularity::check_swmr_regularity;
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_atomicity::verdict::ViolationKind;

    use crate::kv::KvOp;
    use crate::store::StoreBuilder;

    fn driven_store() -> ShardedStore {
        driven_store_with(4, vec![ProtocolId::FastCrash, ProtocolId::Abd])
    }

    /// `shards` shards cycling `backends`, driven by 60 ops over 9 keys.
    fn driven_store_with(shards: u32, backends: Vec<ProtocolId>) -> ShardedStore {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut store = StoreBuilder::new(cfg)
            .shards(shards)
            .seed(3)
            .backends(backends)
            .build()
            .unwrap();
        let ops: Vec<KvOp> = (0..60)
            .map(|i| {
                let key = i % 9;
                if i % 3 == 0 {
                    KvOp::put(0, key, i + 1)
                } else {
                    KvOp::get((i % 2) as u32, key)
                }
            })
            .collect();
        for chunk in ops.chunks(15) {
            store.apply_batch(chunk, 2).unwrap();
        }
        store
    }

    fn keys(history: &KvHistory) -> Vec<Key> {
        history.histories().map(|(key, _)| key).collect()
    }

    /// `h` with its first completed read rebuilt to return `value`, or
    /// `None` if no read completed.
    fn doctor(h: &History, value: u64) -> Option<History> {
        let mut ops = h.ops().to_vec();
        let read = ops
            .iter_mut()
            .find(|op| op.kind == OpKind::Read && op.responded_at.is_some())?;
        read.returned = Some(RegValue::Val(value));
        Some(rebuild(ops.iter()))
    }

    #[test]
    fn projection_partitions_the_global_history() {
        let store = driven_store();
        let global = store.global_history();
        assert_eq!(global.len(), 60);
        assert_eq!(global.per_key.capacity(), 9, "reserved once, exactly");
        assert!(!global.is_empty());
        assert_eq!(keys(&global), (0..9).collect::<Vec<_>>());
        let per_key_total: usize = global.histories().map(|(_, h)| h.len()).sum();
        assert_eq!(per_key_total, global.len(), "the harvest loses nothing");
        assert_eq!(global.ops().count(), global.len());
        // Each key's history is the shard's own record.
        for (key, h) in global.histories() {
            let shard = &store.shards()[store.router().shard_of(key) as usize];
            assert_eq!(
                h.render(),
                shard.key_history(key).unwrap().render(),
                "key {key}"
            );
        }
        assert!(!keys(&global).contains(&999), "unknown keys are absent");
    }

    #[test]
    fn every_key_of_a_sound_store_is_clean() {
        let store = driven_store();
        let report = StoreChecker::check(&store);
        assert_eq!(report.per_key.len(), 9);
        assert!(
            report.is_clean(),
            "violations: {:?}",
            report.violations().collect::<Vec<_>>()
        );
        assert_eq!(report.clean_count(), 9);
        assert_eq!(report.unexpected().count(), 0);
        // The streaming verdicts agree with running the batch oracle on
        // each live register's own record (every backend here is
        // single-writer atomic).
        for kv in &report.per_key {
            let shard = &store.shards()[kv.shard as usize];
            let h = shard.key_history(kv.key).unwrap();
            assert_eq!(kv.verdict, batch_atomic(&h), "key {}", kv.key);
        }
    }

    /// The §3.1 batch oracle, as a verdict — what every key of
    /// `driven_store` (fast-crash and abd shards) is held to.
    fn batch_atomic(h: &History) -> Verdict {
        Verdict::from_atomicity(&check_swmr_atomicity(h))
    }

    /// The batch oracle of a single-writer `contract`.
    fn batch_oracle(contract: Contract, h: &History) -> Verdict {
        match contract {
            Contract::Atomic => batch_atomic(h),
            Contract::Regular => Verdict::from_regularity(&check_swmr_regularity(h)),
            Contract::Unsound => unreachable!("no unsound backend here"),
        }
    }

    #[test]
    fn verdict_for_dispatches_per_contract() {
        // One shard per contract; each hand-built history is recorded
        // on one key of every shard.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let store = StoreBuilder::new(cfg)
            .shards(3)
            .backends(vec![
                ProtocolId::FastCrash,
                ProtocolId::FastRegular,
                ProtocolId::MwmrNaiveFast,
            ])
            .build()
            .unwrap();
        let verdicts = |h: &History| {
            let mut per_key: Vec<(Key, History)> = (0..3)
                .map(|shard| {
                    let key = (0..).find(|&k| store.router().shard_of(k) == shard);
                    (key.expect("every shard owns some key"), h.clone())
                })
                .collect();
            per_key.sort_unstable_by_key(|&(key, _)| key);
            let report = StoreChecker::check_streaming(&store, &KvHistory { per_key }, 1);
            let of = |c| report.per_key.iter().find(|kv| kv.contract == c).unwrap();
            [Contract::Atomic, Contract::Regular, Contract::Unsound].map(|c| of(c).verdict)
        };

        // A stale read: the write completes, a later read misses it.
        let mut h = History::new();
        let w = h.invoke_write(0, 7, 0);
        h.respond(w, None, 10);
        let r1 = h.invoke_read(1, 11);
        h.respond(r1, Some(RegValue::Val(7)), 12);
        let r2 = h.invoke_read(2, 13);
        h.respond(r2, Some(RegValue::Bottom), 14);
        let [atomic, regular, unsound] = verdicts(&h);
        assert!(!atomic.is_clean());
        assert!(!regular.is_clean());
        assert_eq!(unsound, Verdict::Violation(ViolationKind::NotLinearizable));

        // A new/old inversion across an incomplete write: exactly what
        // regularity permits and atomicity forbids.
        let mut h = History::new();
        h.invoke_write(0, 1, 0);
        let r1 = h.invoke_read(1, 2);
        h.respond(r1, Some(RegValue::Val(1)), 4);
        let r2 = h.invoke_read(2, 5);
        h.respond(r2, Some(RegValue::Bottom), 7);
        let [atomic, regular, unsound] = verdicts(&h);
        assert_eq!(atomic, Verdict::Violation(ViolationKind::NewOldInversion));
        assert_eq!(regular, Verdict::Clean);
        assert_eq!(unsound, Verdict::Violation(ViolationKind::NotLinearizable));

        // A clean sequential history is clean under every contract.
        let mut ok = History::new();
        let w = ok.invoke_write(0, 1, 0);
        ok.respond(w, None, 2);
        let r = ok.invoke_read(1, 3);
        ok.respond(r, Some(RegValue::Val(1)), 4);
        assert_eq!(verdicts(&ok), [Verdict::Clean; 3]);
    }

    #[test]
    fn streaming_check_agrees_with_batch_at_any_thread_count() {
        let store = driven_store();
        let global = store.global_history();
        // And on a doctored (violating) history too.
        let mut doctored = global.clone();
        let (_, h) = doctored
            .per_key
            .iter_mut()
            .find(|(_, h)| h.complete_ops().any(|op| op.kind == OpKind::Read))
            .expect("some key has a completed read");
        *h = doctor(h, 424_242).unwrap();
        for (history, clean) in [(&global, true), (&doctored, false)] {
            let batch: Vec<Verdict> = history.histories().map(|(_, h)| batch_atomic(h)).collect();
            assert_eq!(batch.iter().all(|v| v.is_clean()), clean);
            for threads in [1, 2, 4] {
                let streamed = StoreChecker::check_streaming(&store, history, threads);
                let verdicts: Vec<Verdict> = streamed.per_key.iter().map(|kv| kv.verdict).collect();
                assert_eq!(verdicts, batch, "threads = {threads}");
            }
        }

        // Regular and Byzantine shards: each key is graded by its own
        // contract, and doctoring one key per shard flips exactly those.
        let store = driven_store_with(2, vec![ProtocolId::FastRegular, ProtocolId::FastByz]);
        let global = store.global_history();
        let mut doctored = global.clone();
        let mut victims = Vec::new();
        for shard in store.shards() {
            let (key, h) = doctored
                .per_key
                .iter_mut()
                .filter(|(key, _)| store.router().shard_of(*key) == shard.index())
                .find(|(_, h)| h.complete_ops().any(|op| op.kind == OpKind::Read))
                .expect("every shard serves a key with a completed read");
            *h = doctor(h, 424_242).unwrap();
            victims.push(*key);
        }
        victims.sort_unstable();
        assert_eq!(victims.len(), 2);
        for threads in [1, 2, 4] {
            let clean = StoreChecker::check_streaming(&store, &global, threads);
            for kv in &clean.per_key {
                let shard = &store.shards()[kv.shard as usize];
                let h = shard.key_history(kv.key).unwrap();
                assert_eq!(kv.verdict, batch_oracle(kv.contract, &h), "key {}", kv.key);
                assert!(kv.verdict.is_clean(), "key {}", kv.key);
            }
            let contracts: Vec<Contract> = clean.per_key.iter().map(|kv| kv.contract).collect();
            assert!(
                contracts.contains(&Contract::Regular) && contracts.contains(&Contract::Atomic)
            );

            let report = StoreChecker::check_streaming(&store, &doctored, threads);
            let oracle: Vec<Verdict> = report
                .per_key
                .iter()
                .zip(doctored.histories())
                .map(|(kv, (_, h))| batch_oracle(kv.contract, h))
                .collect();
            let verdicts: Vec<Verdict> = report.per_key.iter().map(|kv| kv.verdict).collect();
            assert_eq!(verdicts, oracle, "threads = {threads}");
            let flipped: Vec<Key> = report.violations().map(|kv| kv.key).collect();
            assert_eq!(flipped, victims, "threads = {threads}");
        }
    }

    #[test]
    fn doctored_histories_surface_per_key_violations() {
        // Take a real store, then check a *doctored* history in which
        // one key's read returns a never-written value: only that key's
        // verdict flips, and it is flagged unexpected (sound backend).
        let store = driven_store();
        let mut global = store.global_history();
        // Key 1 receives only gets in `driven_store` (every i ≡ 1 mod 9
        // has i % 3 ≠ 0), so a doctored unwritten return is unambiguous.
        let victim = 1;
        assert!(keys(&global).contains(&victim));
        let (_, h) = global
            .per_key
            .iter_mut()
            .find(|(key, _)| *key == victim)
            .unwrap();
        *h = doctor(h, 999_999).expect("found a completed read to doctor");
        let report = StoreChecker::check_streaming(&store, &global, 1);
        let bad: Vec<_> = report.violations().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, victim);
        assert!(bad[0].is_unexpected());
        assert!(!report.is_clean());
        assert_eq!(report.clean_count(), report.per_key.len() - 1);
    }
}
