//! The indexed event queue behind the timed scheduler.
//!
//! A [`World`](super::World) keeps the authoritative in-transit set
//! `mset` (a send-ordered window of envelopes with O(1) lookup by id)
//! because scripted/adversarial delivery must be able to address *any*
//! message — that is the power the paper's lower-bound adversary has. The *timed* scheduler, on the
//! other hand, only ever needs the earliest deliverable envelope.
//!
//! ## The window is the run; the [`ReadyQueue`] holds the rest
//!
//! A send whose `(ready_at, MsgId)` key is greater than the newest key
//! on the window's FIFO run joins that run (every send under
//! `DelayModel::Constant`) and is indexed nowhere else: the window
//! already stores it in send order, which is then ready order (see the
//! `mset` module). The [`ReadyQueue`] holds only what is out of order:
//! a shorter delay that lands before an earlier send, a `heal`
//! re-push, or an entry parked on a blocked link. A timed step takes the
//! smaller of the run's first live envelope and the heap's top. Keys
//! are unique (ids are never reused), so the pop order is the one a
//! single heap over every send would give, and an in-order schedule
//! costs O(1) per send and step with no heap and no id lookup.
//!
//! ## Lazy invalidation
//!
//! Heap and parked entries are never removed eagerly; each is validated
//! when it is popped:
//!
//! * **Scripted removals** ([`deliver`](super::World::deliver),
//!   [`drop_matching`](super::World::drop_matching), …) take the
//!   envelope out of `mset` and leave any heap entry behind; a popped
//!   entry whose id is no longer in `mset` is stale and is discarded. A
//!   removed run envelope is a tombstone the run skips.
//! * **Crashed receivers** are handled by the popping scheduler itself:
//!   the envelope is dropped from `mset` with a trace entry, exactly as
//!   the linear scan used to do.
//! * **Blocked links** park the popped entry (from the run or the heap)
//!   in the per-link side table; `ReadyQueue::heal` re-pushes everything
//!   parked on a link into the heap when it is unblocked. A parked entry
//!   can itself go stale (scripted delivery outranks blocks), so
//!   re-pushed entries are re-validated on their next pop.
//!
//! `ready_at` is immutable per envelope and [`MsgId`]s are never reused,
//! so "id still live in `mset`" is a complete validity check: a removed
//! message is a tombstone or gone from the window altogether (trimmed
//! off its front, or squeezed out by a compaction), and a lookup answers
//! "not in transit" for all three alike. Every envelope in `mset` is on
//! the run or indexed by exactly one live heap or parked entry, which
//! makes a timed step O(1) when sends are ready in send order and
//! O(log n) amortized otherwise, instead of an O(n) scan per delivery.
//! The test-only linear scan this replaced survives as the oracle of
//! the scheduler-equivalence suite.

use std::cmp::Reverse;
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap}; // fastreg-lint: allow(nondet-order): parking table, keyed access only
use std::fmt;

use crate::envelope::MsgId;
use crate::id::ProcessId;
use crate::time::SimTime;

/// A directed link `from → to`.
pub(crate) type Link = (ProcessId, ProcessId);

/// One ready-queue entry: the earliest delivery time of a message plus
/// its id as the (send-order) tie-breaker.
pub(crate) type ReadyEntry = (SimTime, MsgId);

/// Deterministic counters over the timed scheduler's lifetime, harvested
/// by the observability layer. Every field is driven by scheduler
/// operations — which on simnet are a pure function of the seed — so
/// the snapshot is identical across runs and worker counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries scheduled: every send (onto the window's run or into the
    /// heap) and every re-push from `ReadyQueue::heal`.
    pub pushed: u64,
    /// Entries taken off the schedule: run envelopes and heap entries
    /// popped for delivery, a crashed-receiver drop or parking, and
    /// stale heap entries. A run envelope removed by scripted delivery
    /// is skipped, not popped.
    pub popped: u64,
    /// Entries parked on a blocked link.
    pub parked: u64,
    /// Entries released back into the heap by `ReadyQueue::heal`.
    pub healed: u64,
    /// High-water mark of the scheduled depth — run envelopes plus heap
    /// entries, parked entries excluded (not exact queue depth: stale
    /// heap entries count until skimmed).
    pub heap_high_water: u64,
    /// Entries the heap took: out-of-order sends and heal re-pushes
    /// (0 for a run under a constant delay with no heal).
    pub heap_pushed: u64,
}

/// The timed scheduler's index of what the window's run does not hold:
/// a min-heap keyed by `(ready_at, MsgId)`, with a parking table for
/// blocked links.
///
/// See the [module docs](self) for the push rule and the invalidation
/// rules.
#[derive(Debug, Default)]
#[allow(clippy::disallowed_types)]
pub struct ReadyQueue {
    heap: BinaryHeap<Reverse<ReadyEntry>>,
    // Keyed entry/remove only — never iterated. Entries released by
    // `heal` re-enter the heap, whose (ready_at, MsgId) keys are unique,
    // so the pop order is independent of this map's internal order.
    // fastreg-lint: allow(nondet-order): per-link parking table, keyed access only, never iterated
    parked: HashMap<Link, Vec<ReadyEntry>>,
    stats: SchedStats,
}

impl ReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a (new or re-validated) in-transit message in the heap.
    pub fn push(&mut self, ready_at: SimTime, id: MsgId) {
        self.schedule((ready_at, id), false, 0);
    }

    /// Counts a send, and indexes it unless it joined the window's run;
    /// `run_len` is the run's live length after the send.
    pub(crate) fn schedule(&mut self, entry: ReadyEntry, on_run: bool, run_len: usize) {
        if !on_run {
            self.heap.push(Reverse(entry));
            self.stats.heap_pushed += 1;
        }
        self.stats.pushed += 1;
        self.note_depth(run_len);
    }

    fn note_depth(&mut self, run_len: usize) {
        let depth = (run_len + self.heap.len()) as u64;
        self.stats.heap_high_water = self.stats.heap_high_water.max(depth);
    }

    /// Pops the heap's smallest `(ready_at, id)`, stale entries included
    /// — the caller validates against `mset`.
    pub fn pop(&mut self) -> Option<ReadyEntry> {
        let entry = self.heap.pop().map(|Reverse(entry)| entry);
        if entry.is_some() {
            self.stats.popped += 1;
        }
        entry
    }

    /// The entry [`pop`](Self::pop) would return, without removing it.
    /// The same caveat applies: the entry may be stale.
    pub(crate) fn peek(&self) -> Option<ReadyEntry> {
        self.heap.peek().map(|&Reverse(entry)| entry)
    }

    /// Counts a run envelope taken off the schedule.
    pub(crate) fn count_run_pop(&mut self) {
        self.stats.popped += 1;
    }

    /// Parks an entry popped while its link was blocked; it stays out of
    /// the schedule until [`heal`](Self::heal) releases the link.
    pub(crate) fn park(&mut self, link: Link, entry: ReadyEntry) {
        self.parked.entry(link).or_default().push(entry);
        self.stats.parked += 1;
    }

    /// Re-indexes everything parked on `link` into the heap (no-op if
    /// nothing is); `run_len` is the window run's live length.
    pub(crate) fn heal(&mut self, link: Link, run_len: usize) {
        if let Some(entries) = self.parked.remove(&link) {
            for entry in entries {
                self.stats.healed += 1;
                self.schedule(entry, false, run_len);
            }
        }
    }

    /// The lifetime counters (see [`SchedStats`]).
    pub(crate) fn stats(&self) -> SchedStats {
        self.stats
    }
}

/// Budget exhaustion in
/// [`run_until_quiescent`](super::World::run_until_quiescent): the step
/// budget ([`SimConfig::max_steps`](crate::runner::SimConfig::max_steps))
/// ran out while messages remained deliverable, which indicates a
/// protocol that never quiesces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuiescenceError {
    /// Steps taken before giving up (the configured budget).
    pub steps: u64,
    /// Messages still in transit when the budget ran out.
    pub in_transit: usize,
}

impl fmt::Display for QuiescenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation did not quiesce within {} steps ({} messages in transit)",
            self.steps, self.in_transit
        )
    }
}

impl std::error::Error for QuiescenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, id: u64) -> ReadyEntry {
        (SimTime::from_ticks(t), MsgId(id))
    }

    #[test]
    fn pops_in_ready_then_send_order() {
        let mut q = ReadyQueue::new();
        q.push(SimTime::from_ticks(5), MsgId(2));
        q.push(SimTime::from_ticks(3), MsgId(9));
        q.push(SimTime::from_ticks(5), MsgId(1));
        assert_eq!(q.pop(), Some(entry(3, 9)));
        assert_eq!(q.pop(), Some(entry(5, 1)));
        assert_eq!(q.pop(), Some(entry(5, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop_without_removing() {
        let mut q = ReadyQueue::new();
        assert_eq!(q.peek(), None);
        q.push(SimTime::from_ticks(5), MsgId(2));
        q.push(SimTime::from_ticks(3), MsgId(9));
        assert_eq!(q.peek(), Some(entry(3, 9)));
        assert_eq!(q.peek(), Some(entry(3, 9)), "peek does not remove");
        assert_eq!(q.pop(), Some(entry(3, 9)));
        assert_eq!(q.peek(), Some(entry(5, 2)));
    }

    #[test]
    fn heal_reindexes_parked_entries() {
        let mut q = ReadyQueue::new();
        let link = (ProcessId::new(0), ProcessId::new(1));
        q.park(link, entry(4, 7));
        q.park(link, entry(2, 8));
        assert_eq!(q.pop(), None, "parked entries are out of the heap");
        q.heal(link, 0);
        assert_eq!(q.pop(), Some(entry(2, 8)));
        assert_eq!(q.pop(), Some(entry(4, 7)));
        // Healing an unknown link is a no-op.
        q.heal((ProcessId::new(5), ProcessId::new(6)), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stats_count_every_scheduler_operation() {
        let mut q = ReadyQueue::new();
        let link = (ProcessId::new(0), ProcessId::new(1));
        q.push(SimTime::from_ticks(1), MsgId(1));
        q.push(SimTime::from_ticks(2), MsgId(2));
        assert_eq!(q.stats().heap_high_water, 2);
        let popped = q.pop().unwrap();
        q.park(link, popped);
        q.heal(link, 0);
        q.pop();
        q.pop();
        assert_eq!(
            q.stats(),
            SchedStats {
                pushed: 3, // 2 pushes + 1 heal re-push
                popped: 3,
                parked: 1,
                healed: 1,
                heap_high_water: 2,
                heap_pushed: 3,
            }
        );
        // Pop on an empty heap is not an operation.
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().popped, 3);
    }

    #[test]
    fn a_send_on_the_run_is_counted_but_not_indexed() {
        let mut q = ReadyQueue::new();
        q.schedule(entry(1, 1), true, 1);
        q.schedule(entry(2, 2), true, 2);
        q.schedule(entry(1, 3), false, 2);
        assert_eq!(q.pop(), Some(entry(1, 3)), "only the heap entry");
        assert_eq!(q.pop(), None);
        q.count_run_pop();
        assert_eq!(
            q.stats(),
            SchedStats {
                pushed: 3,
                popped: 2,
                parked: 0,
                healed: 0,
                heap_high_water: 3, // two on the run, one in the heap
                heap_pushed: 1,
            }
        );
    }

    /// One step of the differential test below.
    #[derive(Clone, Debug)]
    enum Op {
        /// Pushes a fresh id ready at this tick.
        Push(u64),
        Pop,
        Peek,
        /// Pops, and parks the entry on link `(0, k)`.
        PopPark(u8),
        /// Heals link `(0, k)`.
        Heal(u8),
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0u64..24).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Peek),
            (0u8..3).prop_map(Op::PopPark),
            (0u8..3).prop_map(Op::Heal),
        ]
    }

    proptest::proptest! {
        /// The queue against a plain `BinaryHeap` oracle with its own
        /// parking table: every pop and peek answers the same entry, and
        /// the stats (the high-water mark as the oracle's heap length)
        /// agree after every operation.
        #[test]
        fn ready_queue_matches_a_binary_heap_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            use std::collections::BTreeMap;

            let mut q = ReadyQueue::new();
            let mut heap: BinaryHeap<Reverse<ReadyEntry>> = BinaryHeap::new();
            let mut parked: BTreeMap<u8, Vec<ReadyEntry>> = BTreeMap::new();
            let mut want = SchedStats::default();
            let mut next_id = 0;
            for op in &ops {
                match *op {
                    Op::Push(at) => {
                        next_id += 1;
                        q.push(SimTime::from_ticks(at), MsgId(next_id));
                        heap.push(Reverse(entry(at, next_id)));
                        want.pushed += 1;
                        want.heap_pushed += 1;
                    }
                    Op::Pop => {
                        let got = heap.pop().map(|Reverse(e)| e);
                        want.popped += u64::from(got.is_some());
                        proptest::prop_assert_eq!(q.pop(), got);
                    }
                    Op::Peek => {
                        proptest::prop_assert_eq!(q.peek(), heap.peek().map(|&Reverse(e)| e));
                    }
                    Op::PopPark(k) => {
                        let got = heap.pop().map(|Reverse(e)| e);
                        proptest::prop_assert_eq!(q.pop(), got);
                        if let Some(e) = got {
                            want.popped += 1;
                            want.parked += 1;
                            parked.entry(k).or_default().push(e);
                            q.park((ProcessId::new(0), ProcessId::new(k as u32)), e);
                        }
                    }
                    Op::Heal(k) => {
                        for e in parked.remove(&k).unwrap_or_default() {
                            heap.push(Reverse(e));
                            want.pushed += 1;
                            want.healed += 1;
                            want.heap_pushed += 1;
                        }
                        q.heal((ProcessId::new(0), ProcessId::new(k as u32)), 0);
                    }
                }
                want.heap_high_water = want.heap_high_water.max(heap.len() as u64);
                proptest::prop_assert_eq!(q.stats(), want, "after {:?}", op);
            }
            while let Some(Reverse(e)) = heap.pop() {
                proptest::prop_assert_eq!(q.pop(), Some(e));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn quiescence_error_renders() {
        let e = QuiescenceError {
            steps: 100,
            in_transit: 3,
        };
        let s = e.to_string();
        assert!(s.contains("did not quiesce"));
        assert!(s.contains("100"));
        assert!(s.contains("3 messages"));
    }
}
