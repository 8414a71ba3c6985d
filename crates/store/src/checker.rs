//! Per-key contract checking: projecting the store's global history onto
//! per-key sub-histories and running the register checker on each.
//!
//! The store's correctness claim is *per key*: every key is one atomic
//! (or regular) register, whatever the interleaving of operations across
//! keys. The [`StoreChecker`] makes that checkable with the machinery
//! the repository already trusts: it projects the key-tagged
//! [`KvHistory`] onto one [`History`] per key and grades each with the
//! [`OnlineChecker`] for the [`Spec`](fastreg_atomicity::streaming::Spec)
//! its shard's protocol promised ([`Contract::spec`]), in the stable
//! [`Verdict`] codes of `fastreg_atomicity::verdict`.

use std::collections::{BTreeMap, BTreeSet};

use fastreg::protocols::registry::{Contract, ProtocolId};
use fastreg_atomicity::history::{History, OpKind, Operation};
use fastreg_atomicity::streaming::OnlineChecker;
use fastreg_atomicity::verdict::Verdict;
use fastreg_rt::threaded::map_ordered;

use crate::kv::Key;
use crate::store::ShardedStore;

/// One recorded operation, tagged with the key it addressed.
#[derive(Clone, Debug)]
pub struct KvRecord {
    /// The key.
    pub key: Key,
    /// The recorded register operation (times are ticks of the key's own
    /// simulated world — comparable within the key only).
    pub op: Operation,
}

/// The store's global operation history: every register operation of
/// every key, tagged with its key.
///
/// Assembled by [`ShardedStore::global_history`]. Cross-key timestamps
/// are **not** comparable (each key runs in its own simulated world), so
/// the only meaningful consumers are per-key: [`KvHistory::project`]
/// rebuilds the checkable [`History`] of one key.
#[derive(Clone, Debug, Default)]
pub struct KvHistory {
    records: Vec<KvRecord>,
}

impl KvHistory {
    /// Harvests the global history of `store`.
    pub(crate) fn harvest(store: &ShardedStore) -> Self {
        let mut records = Vec::new();
        for shard in store.shards() {
            for key in shard.keys() {
                let h = shard.key_history(key).expect("key listed by the shard");
                records.extend(h.ops().iter().map(|op| KvRecord {
                    key,
                    op: op.clone(),
                }));
            }
        }
        KvHistory { records }
    }

    /// All records, in `(shard, key, invocation)` order.
    pub fn records(&self) -> &[KvRecord] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The distinct keys appearing in the history, in key order.
    pub fn keys(&self) -> Vec<Key> {
        self.records
            .iter()
            .map(|r| r.key)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// Projects the sub-history of `key`: the register [`History`]
    /// containing exactly the operations that addressed `key`, in
    /// invocation order — the input the per-register checkers expect.
    pub fn project(&self, key: Key) -> History {
        rebuild(self.records.iter().filter(|r| r.key == key).map(|r| &r.op))
    }

    /// Groups the records per key in **one pass** — the bulk form of
    /// [`project`](KvHistory::project) the checker uses, linear in the
    /// record count instead of `O(keys × records)`.
    fn per_key_ops(&self) -> BTreeMap<Key, Vec<&Operation>> {
        let mut groups: BTreeMap<Key, Vec<&Operation>> = BTreeMap::new();
        for r in &self.records {
            groups.entry(r.key).or_default().push(&r.op);
        }
        groups
    }

    /// Flattens every record of every key into one register [`History`]
    /// for **latency accounting only**: the per-op intervals are valid
    /// (each comes from its own key's world), cross-key times are not —
    /// never feed the result to a consistency checker; that is what
    /// [`project`](KvHistory::project) is for.
    pub fn latency_history(&self) -> History {
        rebuild(self.records.iter().map(|r| &r.op))
    }
}

/// Rebuilds recorded operations into a register [`History`] (invocation
/// order restored by sorting on the interval endpoints) — the one
/// shared invoke/respond loop behind [`KvHistory::project`] and
/// [`KvHistory::latency_history`].
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

/// The verdict of checking one key's sub-history against its shard's
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
    pub fn is_unexpected(&self) -> bool {
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
    /// Keys whose sub-history satisfied their contract.
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
    /// Harvests the store's global history and checks every key's
    /// sub-history: `check_streaming(store, &store.global_history(), 1)`.
    pub fn check(store: &ShardedStore) -> StoreCheckReport {
        Self::check_streaming(store, &store.global_history(), 1)
    }

    /// Projects `history` per key and checks each sub-history against
    /// the contract of the shard (of `store`) owning that key, fanning
    /// the keys across `threads` [`map_ordered`] workers. The report is
    /// identical at any `threads` value.
    ///
    /// Taking the history as an argument lets tests feed hand-built
    /// histories through the very same projection path.
    pub fn check_streaming(
        store: &ShardedStore,
        history: &KvHistory,
        threads: usize,
    ) -> StoreCheckReport {
        let router = store.router();
        let w = store.cfg().w;
        // Resolve shard/contract metadata up front so the workers only
        // touch plain data, not the store; each job rebuilds its own
        // key's history, so no more than one per worker is alive at once.
        let items: Vec<(KeyVerdict, Vec<&Operation>)> = history
            .per_key_ops()
            .into_iter()
            .map(|(key, ops)| {
                let shard_index = router.shard_of(key);
                let shard = &store.shards()[shard_index as usize];
                let contract = shard.protocol().contract();
                let seed = KeyVerdict {
                    key,
                    shard: shard_index,
                    protocol: shard.protocol(),
                    contract,
                    verdict: Verdict::Clean,
                };
                (seed, ops)
            })
            .collect();
        let per_key = map_ordered(items, threads, move |_, (seed, ops)| KeyVerdict {
            verdict: OnlineChecker::check(seed.contract.spec(w), &rebuild(ops.into_iter())),
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
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_atomicity::verdict::ViolationKind;

    use crate::kv::KvOp;
    use crate::store::StoreBuilder;

    fn driven_store() -> ShardedStore {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut store = StoreBuilder::new(cfg)
            .shards(4)
            .seed(3)
            .backends(vec![ProtocolId::FastCrash, ProtocolId::Abd])
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

    #[test]
    fn projection_partitions_the_global_history() {
        let store = driven_store();
        let global = store.global_history();
        assert_eq!(global.len(), 60);
        assert!(!global.is_empty());
        let keys = global.keys();
        assert_eq!(keys, (0..9).collect::<Vec<_>>());
        let per_key_total: usize = keys.iter().map(|&k| global.project(k).len()).sum();
        assert_eq!(per_key_total, global.len(), "projection loses nothing");
        // A projected sub-history matches the shard's own record.
        for &key in &keys {
            let shard = &store.shards()[store.router().shard_of(key) as usize];
            assert_eq!(
                global.project(key).render(),
                shard.key_history(key).unwrap().render(),
                "key {key}"
            );
        }
        assert_eq!(global.project(999).len(), 0, "unknown keys are empty");
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
        // The projection-based verdicts agree with running the batch
        // oracle on each live register's own record (every backend here
        // is single-writer atomic).
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

    #[test]
    fn verdict_for_dispatches_per_contract() {
        // One shard per contract; each hand-built history is replayed
        // onto one key of every shard.
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
            let mut records = Vec::new();
            for shard in 0..3 {
                let key = (0..).find(|&k| store.router().shard_of(k) == shard);
                let key = key.expect("every shard owns some key");
                let tagged = h.ops().iter().map(|op| KvRecord {
                    key,
                    op: op.clone(),
                });
                records.extend(tagged);
            }
            let report = StoreChecker::check_streaming(&store, &KvHistory { records }, 1);
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
        for r in &mut doctored.records {
            if r.op.kind == OpKind::Read && r.op.responded_at.is_some() {
                r.op.returned = Some(RegValue::Val(424_242));
                break;
            }
        }
        for (history, clean) in [(&global, true), (&doctored, false)] {
            let batch: Vec<Verdict> = history
                .keys()
                .iter()
                .map(|&key| batch_atomic(&history.project(key)))
                .collect();
            assert_eq!(batch.iter().all(|v| v.is_clean()), clean);
            for threads in [1, 2, 4] {
                let streamed = StoreChecker::check_streaming(&store, history, threads);
                let verdicts: Vec<Verdict> = streamed.per_key.iter().map(|kv| kv.verdict).collect();
                assert_eq!(verdicts, batch, "threads = {threads}");
            }
        }
    }

    #[test]
    fn doctored_histories_surface_per_key_violations() {
        // Take a real store, then check a *doctored* global history in
        // which one key's read returns a never-written value: only that
        // key's verdict flips, and it is flagged unexpected (sound
        // backend).
        let store = driven_store();
        let mut global = store.global_history();
        // Key 1 receives only gets in `driven_store` (every i ≡ 1 mod 9
        // has i % 3 ≠ 0), so a doctored unwritten return is unambiguous.
        let victim = 1;
        assert!(global.keys().contains(&victim));
        let mut doctored = false;
        for r in &mut global.records {
            if r.key == victim
                && r.op.kind == OpKind::Read
                && r.op.responded_at.is_some()
                && !doctored
            {
                r.op.returned = Some(RegValue::Val(999_999));
                doctored = true;
            }
        }
        assert!(doctored, "found a completed read to doctor");
        let report = StoreChecker::check_streaming(&store, &global, 1);
        let bad: Vec<_> = report.violations().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, victim);
        assert!(bad[0].is_unexpected());
        assert!(!report.is_clean());
        assert_eq!(report.clean_count(), report.per_key.len() - 1);
    }
}
