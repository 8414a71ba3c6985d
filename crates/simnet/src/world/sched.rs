//! The indexed event queue behind the timed scheduler.
//!
//! A [`World`](super::World) keeps the authoritative in-transit set
//! `mset` (a send-ordered window of envelopes with O(1) lookup by id)
//! because scripted/adversarial delivery must be able to address *any*
//! message — that is the power the paper's lower-bound adversary has. The *timed* scheduler, on the
//! other hand, only ever needs the earliest deliverable envelope, so the
//! world additionally maintains a [`ReadyQueue`]: an index of
//! `(ready_at, MsgId)` entries plus a per-link parking table for blocked
//! links.
//!
//! ## A FIFO run beside a heap
//!
//! The index is two ordered containers. An entry greater than every
//! entry pushed before it (the common case: under
//! `DelayModel::Constant` every send is ready in send order) goes to the
//! back of a `VecDeque` *run*, which stays sorted by construction; any
//! other entry — a non-constant delay that lands before an earlier send,
//! a `heal` re-push, a re-queue after a peek — goes
//! to a binary min-heap. [`pop`](ReadyQueue::pop) and
//! `peek` take the smaller of the run's front and
//! the heap's top. Keys are unique (ids are never reused), so the pop
//! order is the one a single heap would give, and an in-order schedule
//! costs O(1) per push and pop.
//!
//! ## Lazy invalidation
//!
//! Index entries are never removed eagerly; each entry is validated when
//! it is popped:
//!
//! * **Scripted removals** ([`deliver`](super::World::deliver),
//!   [`drop_matching`](super::World::drop_matching), …) take the
//!   envelope out of `mset` and leave the index entry behind; a popped
//!   entry whose id is no longer in `mset` is stale and is discarded.
//! * **Crashed receivers** are handled by the popping scheduler itself:
//!   the envelope is dropped from `mset` with a trace entry, exactly as
//!   the linear scan used to do.
//! * **Blocked links** park the popped entry in the per-link side
//!   table; `ReadyQueue::heal` re-pushes everything parked on a link
//!   when it is unblocked. A parked entry can itself go stale (scripted
//!   delivery outranks blocks), so re-pushed entries are re-validated on
//!   their next pop.
//!
//! `ready_at` is immutable per envelope and [`MsgId`]s are never reused,
//! so "id still live in `mset`" is a complete validity check: a removed
//! message is a tombstone or gone from the window altogether (trimmed
//! off its front, or squeezed out by a compaction), and a lookup answers
//! "not in transit" for all three alike. Every envelope in `mset` is
//! indexed by exactly one live run, heap or parked entry, which makes a
//! timed step O(1) when sends are ready in send order and O(log n)
//! amortized otherwise, instead of an O(n) scan per delivery.
//!
//! The index is maintained on *every* send, including in runs driven
//! purely by scripted or random delivery that never pop it — a small
//! constant cost per message (a push, plus one stale pop if a timed
//! step later skims the entry). fastbench's `simnet.readyqueue_ns` row
//! measures that constant (one push + pop) at each workload's pool
//! depth, and the test-only linear scan the index replaced survives as
//! the oracle of the scheduler-equivalence suite.

use std::cmp::Reverse;
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap, VecDeque}; // fastreg-lint: allow(nondet-order): parking table, keyed access only
use std::fmt;

use crate::envelope::MsgId;
use crate::id::ProcessId;
use crate::time::SimTime;

/// A directed link `from → to`.
pub(crate) type Link = (ProcessId, ProcessId);

/// One ready-queue entry: the earliest delivery time of a message plus
/// its id as the (send-order) tie-breaker.
pub(crate) type ReadyEntry = (SimTime, MsgId);

/// Deterministic counters over a [`ReadyQueue`]'s lifetime, harvested
/// by the observability layer. Every field is driven by scheduler
/// operations — which on simnet are a pure function of the seed — so
/// the snapshot is identical across runs and worker counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries indexed ([`ReadyQueue::push`]), re-pushes from
    /// `ReadyQueue::heal` included.
    pub pushed: u64,
    /// Entries popped for validation (stale entries included).
    pub popped: u64,
    /// Entries parked on a blocked link.
    pub parked: u64,
    /// Entries released back into the index by `ReadyQueue::heal`.
    pub healed: u64,
    /// High-water mark of the index depth — run plus heap, parked
    /// entries excluded (not exact queue depth: stale entries count
    /// until skimmed).
    pub heap_high_water: u64,
}

/// The timed scheduler's index over `mset`: a sorted FIFO run and a
/// min-heap, both keyed by `(ready_at, MsgId)`, with a parking table for
/// blocked links.
///
/// See the [module docs](self) for the push rule and the invalidation
/// rules.
#[derive(Debug, Default)]
#[allow(clippy::disallowed_types)]
pub struct ReadyQueue {
    /// Entries pushed in increasing key order; strictly increasing.
    run: VecDeque<ReadyEntry>,
    /// Every other entry.
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

    /// Indexes a (new or re-validated) in-transit message.
    pub fn push(&mut self, ready_at: SimTime, id: MsgId) {
        let entry = (ready_at, id);
        if self.run.back().is_none_or(|&last| last < entry) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
        self.stats.pushed += 1;
        let depth = (self.run.len() + self.heap.len()) as u64;
        self.stats.heap_high_water = self.stats.heap_high_water.max(depth);
    }

    /// Pops the entry with the smallest `(ready_at, id)`, stale entries
    /// included — the caller validates against `mset`.
    pub fn pop(&mut self) -> Option<ReadyEntry> {
        let entry = if self.run_first() {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(entry)| entry)
        };
        if entry.is_some() {
            self.stats.popped += 1;
        }
        entry
    }

    /// The entry [`pop`](Self::pop) would return, without removing it.
    /// The same caveat applies: the entry may be stale.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<ReadyEntry> {
        if self.run_first() {
            self.run.front().copied()
        } else {
            self.heap.peek().map(|&Reverse(entry)| entry)
        }
    }

    /// Whether the smallest entry is the run's front (`false` when the
    /// run is empty).
    fn run_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        }
    }

    /// Parks an entry popped while its link was blocked; it stays out of
    /// the index until [`heal`](Self::heal) releases the link.
    pub(crate) fn park(&mut self, link: Link, entry: ReadyEntry) {
        self.parked.entry(link).or_default().push(entry);
        self.stats.parked += 1;
    }

    /// Re-indexes everything parked on `link` (no-op if nothing is).
    pub(crate) fn heal(&mut self, link: Link) {
        if let Some(entries) = self.parked.remove(&link) {
            for entry in entries {
                self.stats.healed += 1;
                // Via `push` so re-indexing counts and the high-water
                // mark stays accurate.
                self.push(entry.0, entry.1);
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
        q.heal(link);
        assert_eq!(q.pop(), Some(entry(2, 8)));
        assert_eq!(q.pop(), Some(entry(4, 7)));
        // Healing an unknown link is a no-op.
        q.heal((ProcessId::new(5), ProcessId::new(6)));
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
        q.heal(link);
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
            }
        );
        // Pop on an empty heap is not an operation.
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().popped, 3);
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
        /// The run-plus-heap queue against a plain `BinaryHeap` oracle
        /// with its own parking table: every pop and peek answers the
        /// same entry, and the stats (the high-water mark as the
        /// oracle's heap length) agree after every operation.
        #[test]
        fn ready_queue_matches_a_binary_heap_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..120),
            ticks_grow in proptest::prelude::any::<bool>(),
        ) {
            use std::collections::BTreeMap;

            let mut q = ReadyQueue::new();
            let mut heap: BinaryHeap<Reverse<ReadyEntry>> = BinaryHeap::new();
            let mut parked: BTreeMap<u8, Vec<ReadyEntry>> = BTreeMap::new();
            let mut want = SchedStats::default();
            let mut next_id = 0;
            let mut base = 0;
            for op in &ops {
                match *op {
                    Op::Push(t) => {
                        // Growing ticks keep every push in order, as a
                        // constant delay does; only heals reach the heap.
                        let at = if ticks_grow { base + t / 8 } else { t };
                        base = at;
                        next_id += 1;
                        q.push(SimTime::from_ticks(at), MsgId(next_id));
                        heap.push(Reverse(entry(at, next_id)));
                        want.pushed += 1;
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
                        }
                        q.heal((ProcessId::new(0), ProcessId::new(k as u32)));
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
