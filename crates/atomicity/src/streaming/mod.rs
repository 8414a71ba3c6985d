//! The online verdict path: one checker, fed events, bounded memory.
//!
//! The batch checkers ([`swmr`](crate::swmr),
//! [`regularity`](crate::regularity),
//! [`linearizability`](crate::linearizability)) consume a complete
//! [`History`] and return typed witnesses; they are the *oracle*. Every
//! production verdict — the workload driver's, the store's per-key
//! check, the explorer's — comes from the one [`OnlineChecker`] here,
//! which replays a recorded history's `HistoryEvent`s in tick order
//! ([`OnlineChecker::on_history`]), keeps only the *frontier* resident,
//! and answers with the same stable [`Verdict`] codes (pinned equal to
//! the oracle by the 256-case `tests/streaming_equivalence.rs` suite).
//!
//! An [`OnlineChecker`] is built from a [`Spec`] — the consistency
//! condition to grade against — and wraps one of two engines:
//!
//! * [`online`] — [`StreamingChecker`], the incremental SWMR checker
//!   (§3.1 atomicity or §8 regularity): pending operations plus the
//!   undominated settled suffix stay resident, everything behind the
//!   frontier is pruned.
//! * [`lin`] — [`StreamingLinChecker`], linearizability for any number
//!   of writers (§7). This is where the *precedence-closed cut* lives:
//!   whenever every buffered operation has responded strictly before the
//!   next invocation, the buffer is an epoch no later operation overlaps;
//!   it is searched once, reduced to the set of values it can end on, and
//!   dropped.
//!
//! Use the batch checkers when a failure report needs the typed payload
//! (operation ids, indices); use [`OnlineChecker`] for the verdict.

pub mod lin;
pub mod online;

pub use lin::StreamingLinChecker;
pub use online::{replay_events, StreamingChecker};

use crate::history::History;
use crate::verdict::Verdict;
use online::for_each_event;

/// The consistency condition an [`OnlineChecker`] grades a history
/// against — each defined once in the paper, each checked by one engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Spec {
    /// The four conditions of §3.1 (single writer).
    SwmrAtomic,
    /// Lamport regularity, §8 (single writer).
    SwmrRegular,
    /// Linearizability of a read/write register, §7 (any writers).
    Linearizable,
}

/// The online checker: history events in, stable [`Verdict`] out.
///
/// Feed it a recorded history with [`on_history`](OnlineChecker::on_history),
/// or events in nondecreasing tick order with
/// `on_events`, and read the
/// [`verdict`](OnlineChecker::verdict) at any point; it treats the events
/// so far as the complete history and carries the code the batch checker
/// for the same [`Spec`] would emit.
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::streaming::{OnlineChecker, Spec};
/// use fastreg_atomicity::verdict::{Verdict, ViolationKind};
///
/// // A new/old inversion across an incomplete write (the paper's prC).
/// let mut h = History::new();
/// h.invoke_write(0, 1, 0);
/// let r1 = h.invoke_read(1, 2);
/// h.respond(r1, Some(RegValue::Val(1)), 4);
/// let r2 = h.invoke_read(2, 5);
/// h.respond(r2, Some(RegValue::Bottom), 7);
///
/// let inversion = Verdict::Violation(ViolationKind::NewOldInversion);
/// assert_eq!(OnlineChecker::check(Spec::SwmrAtomic, &h), inversion);
/// // ...which regularity allows: both reads overlap the open write.
/// assert_eq!(OnlineChecker::check(Spec::SwmrRegular, &h), Verdict::Clean);
/// assert!(!OnlineChecker::check(Spec::Linearizable, &h).is_clean());
/// ```
#[derive(Clone, Debug)]
pub struct OnlineChecker(Engine);

#[derive(Clone, Debug)]
enum Engine {
    // Boxed: the SWMR engine is an order of magnitude larger than the
    // linearizability one.
    Swmr(Box<StreamingChecker>),
    Lin(StreamingLinChecker),
}

impl OnlineChecker {
    /// Creates the checker for `spec`.
    pub fn new(spec: Spec) -> Self {
        OnlineChecker(match spec {
            Spec::SwmrAtomic => Engine::Swmr(Box::new(StreamingChecker::new_atomic())),
            Spec::SwmrRegular => Engine::Swmr(Box::new(StreamingChecker::new_regular())),
            Spec::Linearizable => Engine::Lin(StreamingLinChecker::new()),
        })
    }

    /// Checks a recorded history in one shot: replays its events through
    /// a fresh checker for `spec`.
    pub fn check(spec: Spec, history: &History) -> Verdict {
        let mut checker = OnlineChecker::new(spec);
        checker.on_history(history);
        checker.verdict()
    }

    /// Feeds a recorded history's events one at a time, in
    /// [`replay_events`] order, without collecting them: the only memory
    /// the replay adds is its heap of pending responses. The SWMR
    /// checker's value index is sized from the history's write count
    /// first, so while the written values ascend it never grows.
    pub fn on_history(&mut self, history: &History) {
        match &mut self.0 {
            Engine::Swmr(c) => {
                c.reserve_writes(history.writes().count());
                for_each_event(history, |e| c.on_event(&e));
            }
            Engine::Lin(c) => for_each_event(history, |e| c.on_event(&e)),
        }
    }

    /// Feeds a batch of events.
    ///
    /// # Panics
    ///
    /// Panics if an event's tick precedes an already-seen event's, or on
    /// a response for an operation whose invocation was never fed.
    #[cfg(test)]
    pub(crate) fn on_events(&mut self, events: &[crate::history::HistoryEvent]) {
        match &mut self.0 {
            Engine::Swmr(c) => c.on_events(events),
            Engine::Lin(c) => c.on_events(events),
        }
    }

    /// The verdict for the events seen so far, treated as the complete
    /// history.
    pub fn verdict(&self) -> Verdict {
        match &self.0 {
            Engine::Swmr(c) => c.verdict(),
            Engine::Lin(c) => c.verdict(),
        }
    }

    /// The most operations (and per-operation summary entries) the
    /// checker ever held resident — bounded by concurrency, not by
    /// history length.
    pub fn high_water_mark(&self) -> usize {
        match &self.0 {
            Engine::Swmr(c) => c.high_water_mark(),
            Engine::Lin(c) => c.high_water_mark(),
        }
    }
}
