//! Streaming linearizability: epoch-chained Wing–Gong search.
//!
//! The batch oracle ([`check_linearizable`](crate::linearizability))
//! explores one 64-bit mask over the whole history. The streaming form
//! cuts the event stream into precedence-closed *epochs*: once every
//! buffered operation has responded and a new invocation starts strictly
//! after the latest response, the buffered prefix is an epoch no later
//! operation overlaps.
//! The checker then computes the *set of register values* the epoch can
//! end on (seeded from the values the previous epochs could end on),
//! drops the buffer, and carries only that value set forward — memory is
//! O(largest epoch), not O(history).
//!
//! On histories of at most 63 operations the verdict code is identical to
//! the batch oracle's. Longer histories whose epochs all stay at 63
//! operations or fewer get an *exact* clean/not-linearizable verdict where
//! the batch oracle gives up with [`Verdict::Inconclusive`]; only an
//! individual epoch exceeding 63 operations makes the streaming checker
//! give up the same way.

use std::collections::{BTreeMap, BTreeSet};

use crate::history::{HistoryEvent, OpKind, RegValue, Tick};
use crate::verdict::{Verdict, ViolationKind};

/// A buffered operation, as reconstructed from events.
#[derive(Clone, Copy, Debug)]
struct LiteOp {
    kind: OpKind,
    inv: Tick,
    resp: Option<Tick>,
    returned: Option<RegValue>,
}

impl LiteOp {
    fn precedes(&self, other: &LiteOp) -> bool {
        match self.resp {
            Some(r) => r < other.inv,
            None => false,
        }
    }
}

/// An incremental linearizability checker for register histories (any
/// number of writers).
///
/// Feed events in nondecreasing tick order; read the verdict at any point
/// with [`verdict`](StreamingLinChecker::verdict) (the events so far are
/// treated as the complete history).
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::streaming::{replay_events, StreamingLinChecker};
/// use fastreg_atomicity::verdict::Verdict;
///
/// let mut h = History::new();
/// let w = h.invoke_write(0, 1, 0);
/// h.respond(w, None, 1);
/// let r = h.invoke_read(1, 2);
/// h.respond(r, Some(RegValue::Val(1)), 3);
///
/// let mut c = StreamingLinChecker::new();
/// c.on_events(&replay_events(&h));
/// assert_eq!(c.verdict(), Verdict::Clean);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingLinChecker {
    last_tick: Tick,
    /// Ops of the still-open epoch, keyed by record id.
    buffer: BTreeMap<usize, LiteOp>,
    /// Buffered ops that have not responded yet.
    open: usize,
    /// Latest response among buffered ops.
    max_resp: Tick,
    /// Register values the settled epochs can end on.
    in_set: BTreeSet<RegValue>,
    /// Sticky outcome: the history is proven non-linearizable, or an
    /// epoch outgrew the 64-bit search mask.
    terminal: Option<Verdict>,
    hwm: usize,
}

impl Default for StreamingLinChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingLinChecker {
    /// Creates a checker; the register starts at `⊥`.
    pub fn new() -> Self {
        let mut in_set = BTreeSet::new();
        in_set.insert(RegValue::Bottom);
        StreamingLinChecker {
            last_tick: 0,
            buffer: BTreeMap::new(),
            open: 0,
            max_resp: 0,
            in_set,
            terminal: None,
            hwm: 0,
        }
    }

    pub(crate) fn on_event(&mut self, event: &HistoryEvent) {
        let at = match event {
            HistoryEvent::Invoked { at, .. } | HistoryEvent::Responded { at, .. } => *at,
        };
        assert!(
            at >= self.last_tick,
            "event at tick {at} after tick {} — streaming checkers need tick order",
            self.last_tick
        );
        self.last_tick = at;
        match *event {
            HistoryEvent::Invoked { id, kind, at, .. } => {
                if self.terminal.is_some() {
                    return;
                }
                // A quiescent point strictly before this invocation seals
                // the buffer as one epoch.
                if self.open == 0 && !self.buffer.is_empty() && self.max_resp < at {
                    self.close_epoch();
                }
                if self.terminal.is_some() {
                    return;
                }
                self.buffer.insert(
                    id.0,
                    LiteOp {
                        kind,
                        inv: at,
                        resp: None,
                        returned: None,
                    },
                );
                self.open += 1;
                if self.buffer.len() >= 64 {
                    // Same budget as the batch oracle's 64-bit mask.
                    self.terminal = Some(Verdict::Inconclusive);
                    self.buffer.clear();
                    self.open = 0;
                }
                self.hwm = self.hwm.max(self.buffer.len());
            }
            HistoryEvent::Responded { id, returned, at } => {
                if self.terminal.is_some() {
                    return;
                }
                let op = self
                    .buffer
                    .get_mut(&id.0)
                    .unwrap_or_else(|| panic!("response for op{} never fed", id.0));
                op.resp = Some(at);
                op.returned = returned;
                self.open -= 1;
                self.max_resp = self.max_resp.max(at);
            }
        }
    }

    /// Feeds a batch of events (same contract as
    /// [`StreamingChecker::on_events`](crate::streaming::online::StreamingChecker::on_events)).
    ///
    /// # Panics
    ///
    /// Panics on tick-order regressions and on responses for operations
    /// never fed.
    pub fn on_events(&mut self, events: &[HistoryEvent]) {
        for e in events {
            self.on_event(e);
        }
    }

    /// Seals the buffer (every op complete) as an epoch: the values the
    /// run can end on become the next epoch's seeds.
    fn close_epoch(&mut self) {
        let ops: Vec<LiteOp> = self.buffer.values().copied().collect();
        let out = epoch_out_values(&ops, &self.in_set);
        if out.is_empty() {
            self.terminal = Some(Verdict::Violation(ViolationKind::NotLinearizable));
        } else {
            self.in_set = out;
        }
        self.buffer.clear();
        self.max_resp = 0;
    }

    /// The most operations the open epoch has buffered at once.
    pub(crate) fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// The verdict for the events seen so far, treated as the complete
    /// history. Identical in code to
    /// [`Verdict::from_linearizable`](crate::verdict::Verdict::from_linearizable)
    /// of the batch oracle on histories the oracle can hold (at most 63
    /// operations).
    pub fn verdict(&self) -> Verdict {
        if let Some(verdict) = self.terminal {
            return verdict;
        }
        if self.buffer.is_empty() {
            return Verdict::Clean;
        }
        // Final epoch: incomplete ops may be dropped (they never took
        // effect), so feasibility only requires covering the complete ones.
        let ops: Vec<LiteOp> = self.buffer.values().copied().collect();
        if final_epoch_feasible(&ops, &self.in_set) {
            Verdict::Clean
        } else {
            Verdict::Violation(ViolationKind::NotLinearizable)
        }
    }
}

/// All register values a fully-complete epoch can end on, starting from
/// any seed value. Empty means no linearization exists.
fn epoch_out_values(ops: &[LiteOp], seeds: &BTreeSet<RegValue>) -> BTreeSet<RegValue> {
    let full: u64 = if ops.len() >= 64 {
        unreachable!("epochs are capped at 63 ops before closing")
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut out = BTreeSet::new();
    search(
        ops,
        seeds,
        full,
        |mask, value, out: &mut BTreeSet<RegValue>| {
            if mask == full {
                out.insert(value);
            }
            false // keep exploring: we want every reachable end value
        },
        &mut out,
    );
    out
}

/// Whether the (possibly incomplete) final epoch admits a linearization
/// covering every complete operation.
fn final_epoch_feasible(ops: &[LiteOp], seeds: &BTreeSet<RegValue>) -> bool {
    let complete_mask: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.resp.is_some())
        .fold(0, |m, (i, _)| m | (1 << i));
    let mut found = false;
    search(
        ops,
        seeds,
        complete_mask,
        |mask, _, found: &mut bool| {
            if mask & complete_mask == complete_mask {
                *found = true;
                return true; // stop: feasibility proven
            }
            false
        },
        &mut found,
    );
    found
}

/// Shared DFS over `(linearized mask, register value)` states, seeded
/// from each value in `seeds`, memoized across seeds. `visit` returns
/// `true` to stop the search.
fn search<T>(
    ops: &[LiteOp],
    seeds: &BTreeSet<RegValue>,
    _target: u64,
    mut visit: impl FnMut(u64, RegValue, &mut T) -> bool,
    acc: &mut T,
) {
    let n = ops.len();
    let mut preds: Vec<u64> = vec![0; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && ops[i].precedes(&ops[j]) {
                preds[j] |= 1 << i;
            }
        }
    }
    let mut seen: BTreeSet<(u64, RegValue)> = BTreeSet::new();
    let mut stack: Vec<(u64, RegValue)> = seeds.iter().map(|&v| (0, v)).collect();
    while let Some((mask, value)) = stack.pop() {
        if !seen.insert((mask, value)) {
            continue;
        }
        if visit(mask, value, acc) {
            return;
        }
        for i in 0..n {
            let bit = 1u64 << i;
            if mask & bit != 0 || preds[i] & !mask != 0 {
                continue;
            }
            match ops[i].kind {
                OpKind::Write { value: v } => stack.push((mask | bit, RegValue::Val(v))),
                OpKind::Read => match ops[i].returned {
                    Some(ret) if ops[i].resp.is_some() => {
                        if ret == value {
                            stack.push((mask | bit, value));
                        }
                    }
                    _ => stack.push((mask | bit, value)),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::linearizability::check_linearizable;
    use crate::streaming::{OnlineChecker, Spec};

    fn online_lin(h: &History) -> Verdict {
        OnlineChecker::check(Spec::Linearizable, h)
    }

    fn batch(h: &History) -> Verdict {
        Verdict::from_linearizable(&check_linearizable(h))
    }

    fn w(h: &mut History, proc: u32, v: u64, inv: Tick, resp: Tick) {
        let id = h.invoke_write(proc, v, inv);
        h.respond(id, None, resp);
    }

    fn r(h: &mut History, proc: u32, ret: RegValue, inv: Tick, resp: Tick) {
        let id = h.invoke_read(proc, inv);
        h.respond(id, Some(ret), resp);
    }

    #[test]
    fn empty_is_clean() {
        assert_eq!(online_lin(&History::new()), Verdict::Clean);
    }

    #[test]
    fn matches_batch_on_small_histories() {
        // Clean MWMR interleaving.
        let mut h = History::new();
        let w1 = h.invoke_write(0, 1, 0);
        let w2 = h.invoke_write(1, 2, 0);
        h.respond(w1, None, 10);
        h.respond(w2, None, 10);
        r(&mut h, 2, RegValue::Val(1), 11, 12);
        assert_eq!(online_lin(&h), batch(&h));
        assert_eq!(online_lin(&h), Verdict::Clean);

        // Stale read.
        let mut h = History::new();
        w(&mut h, 0, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3);
        assert_eq!(online_lin(&h), batch(&h));
        assert_eq!(
            online_lin(&h),
            Verdict::Violation(ViolationKind::NotLinearizable)
        );

        // New/old inversion on an incomplete write.
        let mut h = History::new();
        h.invoke_write(0, 1, 0);
        r(&mut h, 1, RegValue::Val(1), 2, 4);
        r(&mut h, 2, RegValue::Bottom, 5, 7);
        assert_eq!(online_lin(&h), batch(&h));
    }

    #[test]
    fn value_set_chains_across_epochs() {
        // Epoch 1 ends ambiguously (read overlaps the write: register may
        // be ⊥ or 5 when it closes... the write is complete, so it ends
        // at 5 regardless of what the read saw). A later epoch that reads
        // ⊥ is not linearizable.
        let mut h = History::new();
        w(&mut h, 0, 5, 0, 3);
        r(&mut h, 1, RegValue::Bottom, 1, 2); // fine: concurrent with the write
        r(&mut h, 2, RegValue::Bottom, 10, 11); // stale: epoch 1 ended at 5
        assert_eq!(online_lin(&h), batch(&h));
        assert_eq!(
            online_lin(&h),
            Verdict::Violation(ViolationKind::NotLinearizable)
        );
    }

    #[test]
    fn ambiguous_epoch_end_keeps_both_values() {
        // The incomplete write may or may not have taken effect — but an
        // incomplete op keeps the epoch open, so this all stays one final
        // epoch and both outcomes are feasible.
        let mut h = History::new();
        h.invoke_write(0, 5, 0); // never completes
        r(&mut h, 1, RegValue::Val(5), 10, 11);
        assert_eq!(online_lin(&h), batch(&h));
        assert_eq!(online_lin(&h), Verdict::Clean);
    }

    #[test]
    fn long_multi_epoch_history_is_exact_past_the_batch_limit() {
        // 300 sequential ops: far beyond the batch 63-op budget, but each
        // epoch is tiny, so streaming stays exact.
        let mut h = History::new();
        let mut t = 0;
        for i in 1..=100u64 {
            w(&mut h, 0, i, t, t + 1);
            r(&mut h, 1, RegValue::Val(i), t + 2, t + 3);
            r(&mut h, 2, RegValue::Val(i), t + 4, t + 5);
            t += 6;
        }
        assert_eq!(
            batch(&h),
            Verdict::Inconclusive,
            "precondition: batch oracle must be over budget"
        );
        assert_eq!(online_lin(&h), Verdict::Clean);

        // And a violation deep in the tail is still found.
        r(&mut h, 3, RegValue::Val(7), t, t + 1);
        assert_eq!(
            online_lin(&h),
            Verdict::Violation(ViolationKind::NotLinearizable)
        );
    }

    #[test]
    fn memory_stays_bounded_across_epochs() {
        let mut c = StreamingLinChecker::new();
        let mut h = History::new();
        let mut t = 0;
        for i in 1..=200u64 {
            w(&mut h, 0, i, t, t + 1);
            r(&mut h, 1, RegValue::Val(i), t + 2, t + 3);
            t += 4;
        }
        c.on_events(&crate::streaming::online::replay_events(&h));
        assert_eq!(c.verdict(), Verdict::Clean);
        assert!(
            c.high_water_mark() <= 4,
            "epoch buffer grew: hwm = {}",
            c.high_water_mark()
        );
    }

    #[test]
    fn oversized_epoch_is_inconclusive() {
        // 64 mutually-overlapping ops: one epoch the mask cannot hold.
        let mut h = History::new();
        let ids: Vec<_> = (0..64).map(|i| h.invoke_write(i, i as u64, 0)).collect();
        for id in ids {
            h.respond(id, None, 100);
        }
        assert_eq!(online_lin(&h), batch(&h));
        assert_eq!(online_lin(&h), Verdict::Inconclusive);
        // The terminal outcome is sticky: a later, sequential write
        // does not clear it.
        let late = h.invoke_write(0, 99, 200);
        h.respond(late, None, 201);
        let mut c = StreamingLinChecker::new();
        c.on_events(&crate::streaming::online::replay_events(&h));
        assert_eq!(c.verdict(), Verdict::Inconclusive);
    }
}
