//! The indexed event queue behind the timed scheduler.
//!
//! A [`World`](super::World) keeps the authoritative in-transit set
//! `mset` (a send-ordered window of envelopes with O(1) lookup by id)
//! because scripted/adversarial delivery must be able to address *any*
//! message — that is the power the paper's lower-bound adversary has. The *timed* scheduler, on the
//! other hand, only ever needs the earliest deliverable envelope, so the
//! world additionally maintains a [`ReadyQueue`]: a binary min-heap of
//! `(ready_at, MsgId)` entries plus a per-link parking table for blocked
//! links.
//!
//! ## Lazy invalidation
//!
//! Heap entries are never removed eagerly; each entry is validated when
//! it reaches the top of the heap:
//!
//! * **Scripted removals** ([`deliver`](super::World::deliver),
//!   [`deliver_set`](super::World::deliver_set),
//!   [`drop_matching`](super::World::drop_matching), …) take the
//!   envelope out of `mset` and leave the heap entry behind; a popped
//!   entry whose id is no longer in `mset` is stale and is discarded.
//! * **Crashed receivers** are handled by the popping scheduler itself:
//!   the envelope is dropped from `mset` with a trace entry, exactly as
//!   the linear scan used to do.
//! * **Blocked links** park the popped entry in the per-link side
//!   table; [`ReadyQueue::heal`] re-pushes everything parked on a link
//!   when it is unblocked. A parked entry can itself go stale (scripted
//!   delivery outranks blocks), so re-pushed entries are re-validated on
//!   their next pop.
//!
//! `ready_at` is immutable per envelope and [`MsgId`]s are never reused,
//! so "id still live in `mset`" is a complete validity check: a removed
//! message is a tombstone or gone from the window altogether (trimmed
//! off its front, or squeezed out by a compaction), and a lookup answers
//! "not in transit" for all three alike. Every envelope in `mset` is
//! indexed by exactly one live heap or parked entry, which makes a
//! timed step O(log n) amortized instead of an O(n) scan per delivery.
//!
//! The index is maintained on *every* send, including in runs driven
//! purely by scripted or random delivery that never pop it — a small
//! constant cost per message (a heap push, plus one stale pop if a
//! timed step later skims the entry). Tiny worlds with in-transit pools
//! of a dozen envelopes pay that constant without the asymptotic
//! benefit; the `simnet_scheduler` bench in `fastreg-bench` quantifies
//! both sides of the trade (at 10⁴ pooled envelopes a timed step is
//! ~100× cheaper than the linear scan).

use std::cmp::Reverse;
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap}; // fastreg-lint: allow(nondet-order): parking table, keyed access only
use std::fmt;

use crate::envelope::MsgId;
use crate::id::ProcessId;
use crate::time::SimTime;

/// A directed link `from → to`.
pub type Link = (ProcessId, ProcessId);

/// One ready-queue entry: the earliest delivery time of a message plus
/// its id as the (send-order) tie-breaker.
pub type ReadyEntry = (SimTime, MsgId);

/// Deterministic counters over a [`ReadyQueue`]'s lifetime, harvested
/// by the observability layer. Every field is driven by scheduler
/// operations — which on simnet are a pure function of the seed — so
/// the snapshot is identical across runs and worker counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries indexed ([`ReadyQueue::push`]), re-pushes from
    /// [`ReadyQueue::heal`] included.
    pub pushed: u64,
    /// Entries popped for validation (stale entries included).
    pub popped: u64,
    /// Entries parked on a blocked link.
    pub parked: u64,
    /// Entries released back into the heap by [`ReadyQueue::heal`].
    pub healed: u64,
    /// High-water mark of the heap length (index depth, not exact
    /// queue depth: stale entries count until skimmed).
    pub heap_high_water: u64,
}

/// The timed scheduler's index over `mset`: a min-heap keyed by
/// `(ready_at, MsgId)` with a parking table for blocked links.
///
/// See the [module docs](self) for the invalidation rules.
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

    /// Indexes a (new or re-validated) in-transit message.
    pub fn push(&mut self, ready_at: SimTime, id: MsgId) {
        self.heap.push(Reverse((ready_at, id)));
        self.stats.pushed += 1;
        self.stats.heap_high_water = self.stats.heap_high_water.max(self.heap.len() as u64);
    }

    /// Pops the entry with the smallest `(ready_at, id)`, stale entries
    /// included — the caller validates against `mset`.
    pub fn pop(&mut self) -> Option<ReadyEntry> {
        let entry = self.heap.pop().map(|Reverse(entry)| entry);
        if entry.is_some() {
            self.stats.popped += 1;
        }
        entry
    }

    /// The entry [`pop`](Self::pop) would return, without removing it.
    /// The same caveat applies: the entry may be stale.
    pub fn peek(&self) -> Option<ReadyEntry> {
        self.heap.peek().map(|&Reverse(entry)| entry)
    }

    /// Parks an entry popped while its link was blocked; it stays out of
    /// the heap until [`heal`](Self::heal) releases the link.
    pub fn park(&mut self, link: Link, entry: ReadyEntry) {
        self.parked.entry(link).or_default().push(entry);
        self.stats.parked += 1;
    }

    /// Re-indexes everything parked on `link` (no-op if nothing is).
    pub fn heal(&mut self, link: Link) {
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
    pub fn stats(&self) -> SchedStats {
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
