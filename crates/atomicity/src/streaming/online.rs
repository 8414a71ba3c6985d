//! The incremental SWMR checker: batch verdicts from an event stream,
//! with memory bounded by the frontier.
//!
//! [`StreamingChecker`] consumes [`HistoryEvent`]s in nondecreasing tick
//! order and maintains just enough state to emit, at any point, the exact
//! verdict code the batch checker would emit on the history seen so far:
//!
//! * the *frontier*: open writes, pending reads, and reads *parked* on a
//!   value that has not been written yet;
//! * a bounded *settled summary*: a staircase of undominated
//!   `(response, write-index)` pairs for new/old-inversion detection, a
//!   deque of recent write response ticks for the latest-preceding-write
//!   count, and (only while reads are parked) the resolved reads a parked
//!   read could still invert against.
//!
//! Everything behind the frontier is pruned, so peak resident *operation*
//! count is O(frontier), not O(history). The one intentionally unbounded
//! piece of state is the value→write-index map: any future read may return
//! any past value, so the map must cover all writes — it holds two words
//! per write, not operations.

use std::cmp::Reverse;
#[allow(clippy::disallowed_types)]
use std::collections::HashMap; // fastreg-lint: allow(nondet-order): keyed lookups (value -> write index, value -> parked reads); min-reductions only, never order-dependent
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::history::{History, HistoryEvent, OpKind, RegValue, Tick};
use crate::verdict::{Verdict, ViolationKind};

/// Which contract the checker enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// The paper's four-condition SWMR atomicity (§3.1).
    Atomic,
    /// Lamport regularity (§8): no condition linking different reads.
    Regular,
}

/// A write that has been invoked but not yet responded.
#[derive(Clone, Copy, Debug)]
struct OpenWrite {
    /// If a later write was invoked while this one was open, this write
    /// must respond at or before that tick (the batch checker's
    /// `a.resp <= b.inv` sequentiality rule) — or the writes are
    /// malformed.
    bound: Option<Tick>,
}

/// A completed read whose returned value has not been written yet.
#[derive(Clone, Copy, Debug)]
struct ParkedRead {
    id: usize,
    inv: Tick,
    resp: Tick,
}

/// A tick multiset with O(log n) insert/remove and O(log n) minimum,
/// used for the frontier thresholds (minimum pending-read invocation,
/// minimum parked-read invocation/response).
#[derive(Clone, Debug, Default)]
struct TickBag {
    counts: BTreeMap<Tick, usize>,
}

impl TickBag {
    fn add(&mut self, t: Tick) {
        *self.counts.entry(t).or_insert(0) += 1;
    }

    fn remove(&mut self, t: Tick) {
        match self.counts.entry(t) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            std::collections::btree_map::Entry::Vacant(_) => {
                unreachable!("removing a tick that was never added")
            }
        }
    }

    fn min(&self) -> Option<Tick> {
        self.counts.keys().next().copied()
    }
}

/// An incremental SWMR atomicity / regularity checker.
///
/// Feed it the history's events in nondecreasing tick order (a recorded
/// history replays as [`replay_events`]); ask for the verdict at any
/// point with [`verdict`](StreamingChecker::verdict). The
/// verdict treats the events seen so far as the complete history and is
/// byte-identical in code to running the corresponding batch checker
/// ([`check_swmr_atomicity`](crate::swmr::check_swmr_atomicity) /
/// [`check_swmr_regularity`](crate::regularity::check_swmr_regularity)) on
/// it.
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::streaming::{replay_events, StreamingChecker};
/// use fastreg_atomicity::verdict::Verdict;
///
/// let mut h = History::new();
/// let w = h.invoke_write(0, 1, 0);
/// h.respond(w, None, 2);
/// let r = h.invoke_read(1, 3);
/// h.respond(r, Some(RegValue::Val(1)), 4);
///
/// let mut c = StreamingChecker::new_atomic();
/// c.on_events(&replay_events(&h));
/// assert_eq!(c.verdict(), Verdict::Clean);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingChecker {
    mode: Mode,
    /// Tick of the last event seen; events must not go backwards.
    last_tick: Tick,

    // -- writer state ----------------------------------------------------
    writer_proc: Option<u32>,
    writes_invoked: usize,
    /// `id` of the most recently invoked write (bound target for the
    /// sequentiality check).
    last_write: Option<usize>,
    open_writes: BTreeMap<usize, OpenWrite>,
    /// value → 1-based write index, over *all* writes seen. Deliberately
    /// unpruned (see module docs).
    #[allow(clippy::disallowed_types)]
    // fastreg-lint: allow(nondet-order): pure keyed lookup (value -> write index), never iterated
    value_index: HashMap<u64, usize>,
    /// Response ticks of completed writes still needed by the
    /// latest-preceding-write count, oldest first; nondecreasing.
    write_resps: VecDeque<Tick>,
    /// Completed writes whose response ticks were pruned off the front of
    /// `write_resps` (they precede every read that can still resolve).
    write_resps_pruned: usize,

    // -- reader state ----------------------------------------------------
    /// Pending reads: id → invocation tick.
    pending_reads: BTreeMap<usize, Tick>,
    pending_invs: TickBag,
    /// Completed reads parked on a not-yet-written value, keyed by value.
    #[allow(clippy::disallowed_types)]
    // fastreg-lint: allow(nondet-order): keyed lookup at write-invocation time; the only iteration is a min-by-OpId reduction
    parked: HashMap<u64, Vec<ParkedRead>>,
    parked_count: usize,
    parked_invs: TickBag,
    parked_resps: TickBag,

    // -- condition-4 summary (atomic mode only) --------------------------
    /// Undominated `(response tick, write index)` pairs of resolved reads,
    /// ascending in both components.
    staircase: Vec<(Tick, usize)>,
    /// Maximum write index folded off the staircase front (entries that
    /// precede every read that can still resolve).
    base_max: Option<usize>,
    /// Resolved reads a still-parked read could yet invert against:
    /// `(invocation tick, write index)`, kept only while reads are parked.
    retained: Vec<(Tick, usize)>,

    // -- outcome ---------------------------------------------------------
    malformed: bool,
    duplicate: bool,
    unwritten: bool,
    missed: bool,
    future: bool,
    inversion: bool,
    /// Regular mode: the minimum-OpId bad read seen so far (batch
    /// regularity reports the first bad read in record order).
    first_bad: Option<(usize, ViolationKind)>,

    /// High-water mark of `resident_ops`.
    hwm: usize,
}

impl StreamingChecker {
    /// Creates a checker for the paper's SWMR *atomicity* conditions.
    pub fn new_atomic() -> Self {
        Self::new(Mode::Atomic)
    }

    /// Creates a checker for Lamport *regularity*.
    pub fn new_regular() -> Self {
        Self::new(Mode::Regular)
    }

    // The two HashMap constructions mirror the annotated field types.
    #[allow(clippy::disallowed_types)]
    fn new(mode: Mode) -> Self {
        StreamingChecker {
            mode,
            last_tick: 0,
            writer_proc: None,
            writes_invoked: 0,
            last_write: None,
            open_writes: BTreeMap::new(),
            // fastreg-lint: allow(nondet-order): empty constructor for the field annotated above
            value_index: HashMap::new(),
            write_resps: VecDeque::new(),
            write_resps_pruned: 0,
            pending_reads: BTreeMap::new(),
            pending_invs: TickBag::default(),
            // fastreg-lint: allow(nondet-order): empty constructor for the field annotated above
            parked: HashMap::new(),
            parked_count: 0,
            parked_invs: TickBag::default(),
            parked_resps: TickBag::default(),
            staircase: Vec::new(),
            base_max: None,
            retained: Vec::new(),
            malformed: false,
            duplicate: false,
            unwritten: false,
            missed: false,
            future: false,
            inversion: false,
            first_bad: None,
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
            HistoryEvent::Invoked { id, proc, kind, at } => match kind {
                OpKind::Write { value } => self.on_write_invoked(id.0, proc, value, at),
                OpKind::Read => self.on_read_invoked(id.0, at),
            },
            HistoryEvent::Responded { id, returned, at } => self.on_responded(id.0, returned, at),
        }
        self.prune();
        self.hwm = self.hwm.max(self.resident_ops());
    }

    /// Feeds a batch of events. Events must arrive in nondecreasing tick
    /// order (the order [`replay_events`] produces).
    ///
    /// # Panics
    ///
    /// Panics if an event's tick precedes an already-seen event's, or on
    /// a response for an operation whose invocation was never fed.
    pub fn on_events(&mut self, events: &[HistoryEvent]) {
        for e in events {
            self.on_event(e);
        }
    }

    fn on_write_invoked(&mut self, id: usize, proc: u32, value: u64, at: Tick) {
        if self.malformed {
            return;
        }
        match self.writer_proc {
            None => self.writer_proc = Some(proc),
            Some(p) if p != proc => {
                self.malformed = true;
                return;
            }
            Some(_) => {}
        }
        // Sequentiality: the previous write must respond at or before this
        // invocation. If it is still open, bound it (first bound wins: the
        // batch rule compares adjacent writes).
        if let Some(prev) = self.last_write {
            if let Some(open) = self.open_writes.get_mut(&prev) {
                if open.bound.is_none() {
                    open.bound = Some(at);
                }
            }
        }
        self.writes_invoked += 1;
        let k = self.writes_invoked;
        if self.value_index.insert(value, k).is_some() {
            self.duplicate = true;
        }
        self.open_writes.insert(id, OpenWrite { bound: None });
        self.last_write = Some(id);
        // This write's value may resolve parked reads — but not below the
        // duplicate flag (the value→index map is ambiguous from here on).
        if !self.duplicate {
            if let Some(parked) = self.parked.remove(&value) {
                for p in parked {
                    self.parked_count -= 1;
                    self.parked_invs.remove(p.inv);
                    self.parked_resps.remove(p.resp);
                    self.resolve_parked(p, k, at);
                }
                self.after_parked_change();
            }
        }
    }

    fn on_read_invoked(&mut self, id: usize, at: Tick) {
        if self.malformed || self.duplicate {
            return;
        }
        self.pending_reads.insert(id, at);
        self.pending_invs.add(at);
    }

    fn on_responded(&mut self, id: usize, returned: Option<RegValue>, at: Tick) {
        if self.malformed {
            return;
        }
        if let Some(open) = self.open_writes.remove(&id) {
            if let Some(b) = open.bound {
                if at > b {
                    self.malformed = true;
                    return;
                }
            }
            self.write_resps.push_back(at);
            return;
        }
        let Some(inv) = self.pending_reads.remove(&id) else {
            assert!(
                self.duplicate,
                "response for op{id} whose invocation was never fed"
            );
            return;
        };
        self.pending_invs.remove(inv);
        if self.duplicate {
            return;
        }
        let k = match returned {
            // Batch atomicity flags a complete read with no recorded value
            // as condition (1); batch regularity reads it as ⊥.
            None => match self.mode {
                Mode::Atomic => {
                    self.unwritten = true;
                    return;
                }
                Mode::Regular => 0,
            },
            Some(RegValue::Bottom) => 0,
            Some(RegValue::Val(v)) => match self.value_index.get(&v) {
                Some(&k) => k,
                None => {
                    // Park: the value may be written later; if it never is,
                    // the verdict reports it as unwritten.
                    self.parked
                        .entry(v)
                        .or_default()
                        .push(ParkedRead { id, inv, resp: at });
                    self.parked_count += 1;
                    self.parked_invs.add(inv);
                    self.parked_resps.add(at);
                    return;
                }
            },
        };
        self.resolve_immediate(id, inv, at, k);
    }

    /// A read resolved at its own response: the write it returned was
    /// invoked at or before this tick, so the read can never precede it
    /// (no condition-3 check needed here).
    fn resolve_immediate(&mut self, id: usize, inv: Tick, resp: Tick, k: usize) {
        let lp = self.latest_preceding(inv);
        match self.mode {
            Mode::Atomic => {
                if k < lp {
                    self.missed = true;
                }
                if let Some(q) = self.stair_query(inv) {
                    if q > k {
                        self.inversion = true;
                    }
                }
                if k >= 1 {
                    self.stair_insert(resp, k);
                }
                self.retain_for_parked(inv, k);
            }
            Mode::Regular => {
                // Legal iff k is the last preceding write, or ⊥ with no
                // preceding write, or a concurrent write — for a read
                // resolved at its own response, that reduces to k >= lp.
                if k < lp {
                    self.note_bad(id, ViolationKind::NotRegular);
                }
            }
        }
    }

    /// A parked read resolved by the invocation (at `t_w`) of the write
    /// whose value it returned — necessarily the newest write, index `k`.
    /// Such a read can never miss a preceding write (`k` exceeds every
    /// write that precedes it), but it *precedes the write* — condition
    /// (3) — whenever it responded strictly before `t_w`.
    fn resolve_parked(&mut self, p: ParkedRead, k: usize, t_w: Tick) {
        match self.mode {
            Mode::Atomic => {
                if p.resp < t_w {
                    self.future = true;
                }
                if let Some(q) = self.stair_query(p.inv) {
                    if q > k {
                        self.inversion = true;
                    }
                }
                // Reads resolved after this one parked may be inversion
                // partners in the other direction: rd2 invoked after this
                // read's response, returning an older index.
                if self
                    .retained
                    .iter()
                    .any(|&(inv2, k2)| inv2 > p.resp && k2 < k)
                {
                    self.inversion = true;
                }
                self.stair_insert(p.resp, k);
                self.retain_for_parked(p.inv, k);
            }
            Mode::Regular => {
                if p.resp < t_w {
                    self.note_bad(p.id, ViolationKind::NotRegular);
                }
            }
        }
    }

    /// Number of writes whose response precedes `inv` — the batch
    /// checker's `latest_preceding` index (write responses are
    /// nondecreasing for well-formed histories, so count = max index).
    fn latest_preceding(&self, inv: Tick) -> usize {
        self.write_resps_pruned + self.write_resps.partition_point(|&r| r < inv)
    }

    fn note_bad(&mut self, id: usize, kind: ViolationKind) {
        match self.first_bad {
            Some((prev, _)) if prev <= id => {}
            _ => self.first_bad = Some((id, kind)),
        }
    }

    /// Records a resolved read for the forward inversion check while any
    /// read is parked (a parked read `p` only pairs with reads invoked
    /// strictly after `p`'s response).
    fn retain_for_parked(&mut self, inv: Tick, k: usize) {
        if let Some(min_resp) = self.parked_resps.min() {
            if inv > min_resp {
                self.retained.push((inv, k));
            }
        }
    }

    fn after_parked_change(&mut self) {
        match self.parked_resps.min() {
            None => self.retained.clear(),
            Some(min_resp) => self.retained.retain(|&(inv, _)| inv > min_resp),
        }
    }

    /// Maximum write index among resolved reads whose response precedes
    /// `inv` (condition-4 staircase query).
    fn stair_query(&self, inv: Tick) -> Option<usize> {
        let mut best = self.base_max;
        let idx = self.staircase.partition_point(|&(resp, _)| resp < inv);
        if idx > 0 {
            let k = self.staircase[idx - 1].1;
            best = Some(best.map_or(k, |b| b.max(k)));
        }
        best
    }

    fn stair_insert(&mut self, resp: Tick, k: usize) {
        if self.base_max.is_some_and(|b| b >= k) {
            return;
        }
        let idx = self.staircase.partition_point(|&(r, _)| r <= resp);
        if idx > 0 && self.staircase[idx - 1].1 >= k {
            return; // dominated: earlier response, same-or-newer index
        }
        let mut end = idx;
        while end < self.staircase.len() && self.staircase[end].1 <= k {
            end += 1; // those entries respond later and are not newer
        }
        self.staircase.splice(idx..end, [(resp, k)]);
    }

    /// Drops summary state that no read — present or future — can still
    /// observe. Future events carry ticks >= `last_tick`, pending reads
    /// resolve with their recorded invocation, parked reads with theirs:
    /// the minimum of those bounds every query tick still to come.
    fn prune(&mut self) {
        let pending_min = self.pending_invs.min().unwrap_or(Tick::MAX);
        let resp_threshold = self.last_tick.min(pending_min);
        while self
            .write_resps
            .front()
            .is_some_and(|&r| r < resp_threshold)
        {
            self.write_resps.pop_front();
            self.write_resps_pruned += 1;
        }
        if self.mode == Mode::Atomic {
            let stair_threshold = resp_threshold.min(self.parked_invs.min().unwrap_or(Tick::MAX));
            let idx = self
                .staircase
                .partition_point(|&(r, _)| r < stair_threshold);
            if idx > 0 {
                let k = self.staircase[idx - 1].1;
                self.base_max = Some(self.base_max.map_or(k, |b| b.max(k)));
                self.staircase.drain(..idx);
            }
        }
    }

    /// Operations (and per-operation summary entries) currently resident.
    /// This is what the frontier bounds; see the module docs for the one
    /// deliberate exception (the value→index map).
    pub fn resident_ops(&self) -> usize {
        self.open_writes.len()
            + self.pending_reads.len()
            + self.parked_count
            + self.staircase.len()
            + self.retained.len()
            + self.write_resps.len()
    }

    /// The highest value [`resident_ops`](StreamingChecker::resident_ops)
    /// has reached.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// The violation *proven so far*, if any — the early-exit signal.
    ///
    /// Unlike [`verdict`](StreamingChecker::verdict) this never counts a
    /// still-parked read (its value may yet be written), so a `Some` here
    /// is final: no further events can clean it. The kind may still be
    /// *upgraded* by later events (e.g. a duplicate overtaken by a
    /// malformed-writes discovery), so prefix kinds can differ from the
    /// full-history verdict.
    pub fn violation(&self) -> Option<ViolationKind> {
        if self.malformed {
            Some(ViolationKind::MalformedWrites)
        } else if self.duplicate {
            Some(ViolationKind::DuplicateWrittenValue)
        } else if self.unwritten {
            Some(ViolationKind::UnwrittenValue)
        } else if self.missed {
            Some(ViolationKind::MissedPrecedingWrite)
        } else if self.future {
            Some(ViolationKind::ReadFromFuture)
        } else if self.inversion {
            Some(ViolationKind::NewOldInversion)
        } else {
            match self.mode {
                Mode::Atomic => None,
                Mode::Regular => self.first_bad.map(|(_, kind)| kind),
            }
        }
    }

    /// The verdict for the events seen so far, treated as the complete
    /// history — byte-identical in code to the batch checker's.
    pub fn verdict(&self) -> Verdict {
        // An open write bounded by a later write's invocation can no
        // longer respond in time: the batch sequentiality check fails.
        let malformed =
            self.malformed || self.open_writes.values().any(|open| open.bound.is_some());
        if malformed {
            return Verdict::Violation(ViolationKind::MalformedWrites);
        }
        if self.duplicate {
            return Verdict::Violation(ViolationKind::DuplicateWrittenValue);
        }
        match self.mode {
            Mode::Atomic => {
                if self.unwritten || self.parked_count > 0 {
                    Verdict::Violation(ViolationKind::UnwrittenValue)
                } else if self.missed {
                    Verdict::Violation(ViolationKind::MissedPrecedingWrite)
                } else if self.future {
                    Verdict::Violation(ViolationKind::ReadFromFuture)
                } else if self.inversion {
                    Verdict::Violation(ViolationKind::NewOldInversion)
                } else {
                    Verdict::Clean
                }
            }
            Mode::Regular => {
                // Batch regularity reports the first bad read in record
                // order; a still-parked read is bad (unwritten value).
                let mut cand = self.first_bad;
                let parked_min = self.parked.values().flatten().map(|p| p.id).min();
                if let Some(id) = parked_min {
                    match cand {
                        Some((prev, _)) if prev <= id => {}
                        _ => cand = Some((id, ViolationKind::UnwrittenValue)),
                    }
                }
                match cand {
                    Some((_, kind)) => Verdict::Violation(kind),
                    None => Verdict::Clean,
                }
            }
        }
    }
}

/// Rebuilds the event stream of a recorded history, in nondecreasing tick
/// order: invocations before responses at equal ticks, each in record
/// order. This is the order [`OnlineChecker::on_history`] feeds, collected.
///
/// [`OnlineChecker::on_history`]: crate::streaming::OnlineChecker::on_history
pub fn replay_events(history: &History) -> Vec<HistoryEvent> {
    let mut events = Vec::with_capacity(history.len() + history.completed_len());
    for_each_event(history, |e| events.push(e));
    events
}

/// Calls `f` on each event of `history` in [`replay_events`] order.
///
/// One merge: invocations are walked in record order (through a sorted
/// index only when they are out of tick order, which concurrent
/// recording threads can produce), and a min-heap of pending responses
/// keyed `(tick, id)` releases each response before the first invocation
/// at a later tick. Beyond that index the only memory is the heap,
/// O(concurrency).
pub(crate) fn for_each_event(history: &History, mut f: impl FnMut(HistoryEvent)) {
    let ops = history.ops();
    let by_tick = (!ops.windows(2).all(|w| w[0].invoked_at <= w[1].invoked_at)).then(|| {
        // Stable: equal ticks stay in record order.
        let mut index: Vec<usize> = (0..ops.len()).collect();
        index.sort_by_key(|&i| ops[i].invoked_at);
        index
    });
    let mut responses: BinaryHeap<Reverse<(Tick, usize)>> = BinaryHeap::new();
    for n in 0..=ops.len() {
        let next = (n < ops.len()).then(|| &ops[by_tick.as_ref().map_or(n, |index| index[n])]);
        while let Some(&Reverse((at, i))) = responses.peek() {
            if next.is_some_and(|op| at >= op.invoked_at) {
                break;
            }
            responses.pop();
            let (id, returned) = (ops[i].id, ops[i].returned);
            f(HistoryEvent::Responded { id, returned, at });
        }
        let Some(op) = next else { break };
        f(HistoryEvent::Invoked {
            id: op.id,
            proc: op.proc,
            kind: op.kind,
            at: op.invoked_at,
        });
        if let Some(at) = op.responded_at {
            responses.push(Reverse((at, op.id.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regularity::check_swmr_regularity;
    use crate::streaming::{OnlineChecker, Spec};
    use crate::swmr::check_swmr_atomicity;

    fn online_atomic(h: &History) -> Verdict {
        OnlineChecker::check(Spec::SwmrAtomic, h)
    }

    fn online_regular(h: &History) -> Verdict {
        OnlineChecker::check(Spec::SwmrRegular, h)
    }

    fn batch_atomic(h: &History) -> Verdict {
        Verdict::from_atomicity(&check_swmr_atomicity(h))
    }

    fn batch_regular(h: &History) -> Verdict {
        Verdict::from_regularity(&check_swmr_regularity(h))
    }

    fn assert_matches_batch(h: &History) {
        assert_eq!(
            online_atomic(h),
            batch_atomic(h),
            "atomic mismatch on:\n{}",
            h.render()
        );
        assert_eq!(
            online_regular(h),
            batch_regular(h),
            "regular mismatch on:\n{}",
            h.render()
        );
    }

    fn w(h: &mut History, v: u64, inv: Tick, resp: Tick) {
        let id = h.invoke_write(0, v, inv);
        h.respond(id, None, resp);
    }

    fn r(h: &mut History, proc: u32, ret: RegValue, inv: Tick, resp: Tick) {
        let id = h.invoke_read(proc, inv);
        h.respond(id, Some(ret), resp);
    }

    #[test]
    fn empty_history_is_clean() {
        assert_eq!(online_atomic(&History::new()), Verdict::Clean);
        assert_eq!(online_regular(&History::new()), Verdict::Clean);
    }

    #[test]
    fn clean_sequential_history() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Val(1), 2, 3);
        w(&mut h, 2, 4, 5);
        r(&mut h, 2, RegValue::Val(2), 6, 7);
        assert_matches_batch(&h);
        assert_eq!(online_atomic(&h), Verdict::Clean);
    }

    #[test]
    fn each_violation_kind_matches_batch() {
        // unwritten
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Val(42), 2, 3);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::UnwrittenValue)
        );

        // missed preceding write
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::MissedPrecedingWrite)
        );
        assert_eq!(
            online_regular(&h),
            Verdict::Violation(ViolationKind::NotRegular)
        );

        // read from the future
        let mut h = History::new();
        r(&mut h, 1, RegValue::Val(1), 0, 1);
        w(&mut h, 1, 5, 6);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::ReadFromFuture)
        );

        // new/old inversion (the paper's prC counterexample shape)
        let mut h = History::new();
        h.invoke_write(0, 1, 0); // incomplete write(1)
        r(&mut h, 1, RegValue::Val(1), 2, 4);
        r(&mut h, 2, RegValue::Bottom, 5, 7);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::NewOldInversion)
        );
        // ...which is regular: both reads overlap the open write.
        assert_eq!(online_regular(&h), Verdict::Clean);

        // duplicate written value
        let mut h = History::new();
        w(&mut h, 5, 0, 1);
        w(&mut h, 5, 2, 3);
        assert_matches_batch(&h);

        // malformed: overlapping writes
        let mut h = History::new();
        let a = h.invoke_write(0, 1, 0);
        h.invoke_write(0, 2, 5);
        h.respond(a, None, 10);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::MalformedWrites)
        );

        // malformed: incomplete write that is not last
        let mut h = History::new();
        h.invoke_write(0, 1, 0);
        w(&mut h, 2, 5, 6);
        assert_matches_batch(&h);

        // malformed: multiple writer processes
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        let b = h.invoke_write(3, 2, 2);
        h.respond(b, None, 3);
        assert_matches_batch(&h);
    }

    #[test]
    fn parked_read_resolving_late_is_future_or_concurrent() {
        // Read returns v before write(v) is invoked: future.
        let mut h = History::new();
        r(&mut h, 1, RegValue::Val(9), 0, 2);
        w(&mut h, 9, 5, 6);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::ReadFromFuture)
        );
        // Read still open when the write is invoked: concurrent, clean.
        let mut h = History::new();
        let rd = h.invoke_read(1, 0);
        let wr = h.invoke_write(0, 9, 3);
        h.respond(rd, Some(RegValue::Val(9)), 4);
        h.respond(wr, None, 5);
        assert_matches_batch(&h);
        assert_eq!(online_atomic(&h), Verdict::Clean);
    }

    #[test]
    fn inversion_between_two_parked_reads() {
        // p1 returns the *newer* value and responds before p2 is invoked;
        // both park (their values are written only later). The pair is a
        // new/old inversion — but a parked read's write is by definition
        // invoked strictly after the read responded, so both reads are
        // also future reads, and the batch code priority puts future
        // ahead of inversion. Both checkers must agree on that code.
        let mut h = History::new();
        let p1 = h.invoke_read(1, 0);
        h.respond(p1, Some(RegValue::Val(2)), 1);
        let p2 = h.invoke_read(2, 2);
        h.respond(p2, Some(RegValue::Val(1)), 3);
        let w1 = h.invoke_write(0, 1, 5);
        h.respond(w1, None, 6);
        let w2 = h.invoke_write(0, 2, 7);
        h.respond(w2, None, 8);
        assert_matches_batch(&h);
        assert_eq!(
            online_atomic(&h),
            Verdict::Violation(ViolationKind::ReadFromFuture)
        );
    }

    #[test]
    fn regular_reports_first_bad_read_in_record_order() {
        // Read op1 (not regular: stale ⊥) comes before read op2 (unwritten
        // value). Batch reports op1 → not-regular; streaming must agree
        // even though the unwritten read is discovered "harder".
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3); // stale: write 1 precedes
        r(&mut h, 2, RegValue::Val(42), 4, 5); // unwritten
        assert_matches_batch(&h);
        assert_eq!(
            online_regular(&h),
            Verdict::Violation(ViolationKind::NotRegular)
        );

        // Swapped order: unwritten read first.
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Val(42), 2, 3); // unwritten
        r(&mut h, 2, RegValue::Bottom, 4, 5); // stale
        assert_matches_batch(&h);
        assert_eq!(
            online_regular(&h),
            Verdict::Violation(ViolationKind::UnwrittenValue)
        );
    }

    #[test]
    fn violation_is_none_while_only_parked() {
        let mut c = StreamingChecker::new_atomic();
        let mut h = History::new();
        let rd = h.invoke_read(1, 0);
        h.respond(rd, Some(RegValue::Val(7)), 1);
        c.on_events(&replay_events(&h));
        // Parked, not proven: the write may still arrive.
        assert_eq!(c.violation(), None);
        // But the verdict (history-complete reading) says unwritten.
        assert_eq!(
            c.verdict(),
            Verdict::Violation(ViolationKind::UnwrittenValue)
        );
        // The write arrives concurrently — clean after all.
        c.on_event(&HistoryEvent::Invoked {
            id: crate::history::OpId(1),
            proc: 0,
            kind: OpKind::Write { value: 7 },
            at: 1,
        });
        c.on_event(&HistoryEvent::Responded {
            id: crate::history::OpId(1),
            returned: None,
            at: 2,
        });
        assert_eq!(c.violation(), None);
        assert_eq!(c.verdict(), Verdict::Clean);
    }

    #[test]
    fn early_exit_fires_on_proven_violation() {
        let mut c = StreamingChecker::new_atomic();
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3);
        c.on_events(&replay_events(&h));
        assert_eq!(c.violation(), Some(ViolationKind::MissedPrecedingWrite));
    }

    #[test]
    fn memory_stays_bounded_on_long_clean_history() {
        let mut c = StreamingChecker::new_atomic();
        let mut t = 0;
        for i in 0..10_000u64 {
            let w_id = crate::history::OpId((i * 3) as usize);
            c.on_event(&HistoryEvent::Invoked {
                id: w_id,
                proc: 0,
                kind: OpKind::Write { value: i + 1 },
                at: t,
            });
            c.on_event(&HistoryEvent::Responded {
                id: w_id,
                returned: None,
                at: t + 1,
            });
            for j in 0..2u64 {
                let r_id = crate::history::OpId((i * 3 + 1 + j) as usize);
                c.on_event(&HistoryEvent::Invoked {
                    id: r_id,
                    proc: 1 + j as u32,
                    kind: OpKind::Read,
                    at: t + 2 + j,
                });
                c.on_event(&HistoryEvent::Responded {
                    id: r_id,
                    returned: Some(RegValue::Val(i + 1)),
                    at: t + 3 + j,
                });
            }
            t += 6;
        }
        assert_eq!(c.verdict(), Verdict::Clean);
        assert!(
            c.high_water_mark() <= 8,
            "resident ops grew with history: hwm = {}",
            c.high_water_mark()
        );
    }

    /// The `(tick, rank, id)` sort `replay_events` is pinned to:
    /// invocations rank before responses at equal ticks.
    fn sorted_events(history: &History) -> Vec<HistoryEvent> {
        let mut events: Vec<(Tick, u8, usize, HistoryEvent)> = Vec::new();
        for op in history.ops() {
            let (id, at) = (op.id, op.invoked_at);
            let (proc, kind) = (op.proc, op.kind);
            events.push((at, 0, id.0, HistoryEvent::Invoked { id, proc, kind, at }));
            if let Some(at) = op.responded_at {
                let returned = op.returned;
                events.push((at, 1, id.0, HistoryEvent::Responded { id, returned, at }));
            }
        }
        events.sort_by_key(|&(tick, rank, id, _)| (tick, rank, id));
        events.into_iter().map(|(_, _, _, e)| e).collect()
    }

    /// One generated op: `(proc, is_write, invoked_at, duration,
    /// completes, returned)`. Ticks are drawn from a small range, so many
    /// events share a tick.
    type GenOp = (u32, bool, u64, u64, bool, u64);

    fn gen_ops() -> impl proptest::strategy::Strategy<Value = (Vec<GenOp>, bool)> {
        use proptest::prelude::*;
        (
            proptest::collection::vec(
                (
                    0u32..4,
                    any::<bool>(),
                    0u64..8,
                    0u64..4,
                    any::<bool>(),
                    0u64..4,
                ),
                0..24,
            ),
            any::<bool>(),
        )
    }

    /// Records `ops` in list order, invocation ticks sorted first when
    /// `in_tick_order` (the simulator's case) and left as drawn otherwise
    /// (concurrent recording threads' case). Writes carry distinct values.
    fn gen_history((mut ops, in_tick_order): (Vec<GenOp>, bool)) -> History {
        if in_tick_order {
            ops.sort_by_key(|op| op.2);
        }
        let mut h = History::new();
        let ids: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(i, &(proc, write, at, ..))| match write {
                true => h.invoke_write(proc, i as u64 + 1, at),
                false => h.invoke_read(proc, at),
            })
            .collect();
        // Respond in reverse record order: the history must not care.
        for (&id, &(_, write, at, dur, completes, ret)) in ids.iter().zip(&ops).rev() {
            let returned = match (write, ret) {
                (true, _) => None,
                (false, 0) => Some(RegValue::Bottom),
                (false, v) => Some(RegValue::Val(v)),
            };
            if completes {
                h.respond(id, returned, at + dur);
            }
        }
        h
    }

    proptest::proptest! {
        #[test]
        fn replay_is_the_tick_rank_id_sort(ops in gen_ops()) {
            let h = gen_history(ops);
            proptest::prop_assert_eq!(replay_events(&h), sorted_events(&h), "{}", h.render());
        }

        #[test]
        fn on_history_agrees_with_on_events_of_the_replay(ops in gen_ops()) {
            let h = gen_history(ops);
            for spec in [Spec::SwmrAtomic, Spec::SwmrRegular, Spec::Linearizable] {
                let mut streamed = OnlineChecker::new(spec);
                streamed.on_history(&h);
                let mut replayed = OnlineChecker::new(spec);
                replayed.on_events(&replay_events(&h));
                proptest::prop_assert_eq!(streamed.verdict(), replayed.verdict());
                proptest::prop_assert_eq!(
                    streamed.high_water_mark(),
                    replayed.high_water_mark()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tick order")]
    fn out_of_order_events_panic() {
        let mut c = StreamingChecker::new_atomic();
        c.on_event(&HistoryEvent::Invoked {
            id: crate::history::OpId(0),
            proc: 0,
            kind: OpKind::Read,
            at: 5,
        });
        c.on_event(&HistoryEvent::Invoked {
            id: crate::history::OpId(1),
            proc: 1,
            kind: OpKind::Read,
            at: 4,
        });
    }
}
