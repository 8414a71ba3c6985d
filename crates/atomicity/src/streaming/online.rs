//! The incremental SWMR checker: batch verdicts from an event stream,
//! with memory bounded by the frontier.
//!
//! [`StreamingChecker`] consumes [`HistoryEvent`]s in nondecreasing tick
//! order and maintains just enough state to emit, at any point, the exact
//! verdict code the batch checker would emit on the history seen so far:
//!
//! * the *frontier*: open writes, pending reads, and reads *parked* on a
//!   value that has not been written yet — each a small vector searched
//!   by linear scan, since it holds at most one operation per client
//!   (plus the rare parked read);
//! * a bounded *settled summary*: a staircase of undominated
//!   `(response, write-index)` pairs for new/old-inversion detection, and
//!   a deque of recent write response ticks for the latest-preceding-write
//!   count.
//!
//! Everything behind the frontier is pruned, so peak resident *operation*
//! count is O(frontier), not O(history). The one intentionally unbounded
//! piece of state is the value→write-index map: any future read may return
//! any past value, so the map must cover all writes — it holds two words
//! per write, not operations.

use std::cmp::Reverse;
#[allow(clippy::disallowed_types)]
use std::collections::HashMap; // fastreg-lint: allow(nondet-order): keyed lookup (value -> write index), never iterated
use std::collections::{BinaryHeap, VecDeque};

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
    id: usize,
    /// If a later write was invoked while this one was open, this write
    /// must respond at or before that tick (the batch checker's
    /// `a.resp <= b.inv` sequentiality rule) — or the writes are
    /// malformed.
    bound: Option<Tick>,
}

/// A completed read whose returned value has not been written yet.
#[derive(Clone, Copy, Debug)]
struct ParkedRead {
    value: u64,
    id: usize,
    inv: Tick,
    resp: Tick,
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
    /// In invocation order (one entry unless the writes are malformed).
    open_writes: Vec<OpenWrite>,
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
    /// Pending reads `(id, invocation tick)` in invocation order, so the
    /// first holds the minimum invocation tick (removals keep the order).
    pending_reads: Vec<(usize, Tick)>,
    /// Completed reads parked on a not-yet-written value, in response
    /// order, so the first holds the minimum response tick (removals
    /// keep the order).
    parked: Vec<ParkedRead>,

    // -- condition-4 summary (atomic mode only) --------------------------
    /// Undominated `(response tick, write index)` pairs of resolved reads,
    /// ascending in both components.
    staircase: Vec<(Tick, usize)>,
    /// Maximum write index folded off the staircase front (entries that
    /// precede every read that can still resolve).
    base_max: Option<usize>,

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

    // The HashMap construction mirrors the annotated field type.
    #[allow(clippy::disallowed_types)]
    fn new(mode: Mode) -> Self {
        StreamingChecker {
            mode,
            last_tick: 0,
            writer_proc: None,
            writes_invoked: 0,
            last_write: None,
            open_writes: Vec::new(),
            // fastreg-lint: allow(nondet-order): empty constructor for the field annotated above
            value_index: HashMap::new(),
            write_resps: VecDeque::new(),
            write_resps_pruned: 0,
            pending_reads: Vec::new(),
            parked: Vec::new(),
            staircase: Vec::new(),
            base_max: None,
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
            if let Some(open) = self.open_writes.iter_mut().find(|open| open.id == prev) {
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
        self.open_writes.push(OpenWrite { id, bound: None });
        self.last_write = Some(id);
        // This write's value may resolve parked reads — but not below the
        // duplicate flag (the value→index map is ambiguous from here on).
        // Each leaves the frontier just before it resolves, in park order.
        if !self.duplicate {
            while let Some(i) = self.parked.iter().position(|p| p.value == value) {
                let p = self.parked.remove(i);
                self.resolve_parked(p, k, at);
            }
        }
    }

    fn on_read_invoked(&mut self, id: usize, at: Tick) {
        if self.malformed || self.duplicate {
            return;
        }
        self.pending_reads.push((id, at));
    }

    fn on_responded(&mut self, id: usize, returned: Option<RegValue>, at: Tick) {
        if self.malformed {
            return;
        }
        if let Some(i) = self.open_writes.iter().position(|open| open.id == id) {
            if let Some(b) = self.open_writes.remove(i).bound {
                if at > b {
                    self.malformed = true;
                    return;
                }
            }
            self.write_resps.push_back(at);
            return;
        }
        let Some(i) = self.pending_reads.iter().position(|&(read, _)| read == id) else {
            assert!(
                self.duplicate,
                "response for op{id} whose invocation was never fed"
            );
            return;
        };
        let (_, inv) = self.pending_reads.remove(i);
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
                    self.parked.push(ParkedRead {
                        value: v,
                        id,
                        inv,
                        resp: at,
                    });
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
    ///
    /// It needs no inversion check of its own. No read can have
    /// returned an index newer than `k`, the newest write. A later read
    /// it could invert against was invoked after its response, so if
    /// that read was fed before `t_w`, the read responded before `t_w`:
    /// `future` is set, and it outranks `inversion`. Reads fed after
    /// `t_w` meet this one on the staircase.
    fn resolve_parked(&mut self, p: ParkedRead, k: usize, t_w: Tick) {
        match self.mode {
            Mode::Atomic => {
                if p.resp < t_w {
                    self.future = true;
                }
                self.stair_insert(p.resp, k);
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
        let pending_min = self
            .pending_reads
            .first()
            .map_or(Tick::MAX, |&(_, inv)| inv);
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
            let parked_min = self.parked.iter().map(|p| p.inv).min();
            let stair_threshold = resp_threshold.min(parked_min.unwrap_or(Tick::MAX));
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
            + self.parked.len()
            + self.staircase.len()
            + self.write_resps.len()
    }

    /// The highest value [`resident_ops`](StreamingChecker::resident_ops)
    /// has reached.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// The verdict for the events seen so far, treated as the complete
    /// history — byte-identical in code to the batch checker's.
    pub fn verdict(&self) -> Verdict {
        // An open write bounded by a later write's invocation can no
        // longer respond in time: the batch sequentiality check fails.
        let malformed = self.malformed || self.open_writes.iter().any(|open| open.bound.is_some());
        if malformed {
            return Verdict::Violation(ViolationKind::MalformedWrites);
        }
        if self.duplicate {
            return Verdict::Violation(ViolationKind::DuplicateWrittenValue);
        }
        match self.mode {
            Mode::Atomic => {
                if self.unwritten || !self.parked.is_empty() {
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
                let parked_min = self.parked.iter().map(|p| p.id).min();
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
    fn a_parked_read_resolved_at_its_response_tick_joins_the_staircase() {
        // Fed with the read's response before the write invoked at the
        // same tick: the parked read resolves at `p.resp == t_w`, which
        // is concurrent, not a future read. A later read that returns
        // the older value is a new/old inversion, and only the resolved
        // read's staircase entry can show it.
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        let rd1 = h.invoke_read(1, 2);
        h.respond(rd1, Some(RegValue::Val(2)), 5);
        let w2 = h.invoke_write(0, 2, 5);
        r(&mut h, 2, RegValue::Val(1), 6, 7);
        h.respond(w2, None, 10);
        assert_eq!(
            batch_atomic(&h),
            Verdict::Violation(ViolationKind::NewOldInversion)
        );
        let mut events = replay_events(&h);
        // Replay order puts the invocation at tick 5 first; swap it
        // behind the response.
        let at_5: Vec<usize> = (0..events.len())
            .filter(|&i| match events[i] {
                HistoryEvent::Invoked { at, .. } | HistoryEvent::Responded { at, .. } => at == 5,
            })
            .collect();
        assert!(matches!(events[at_5[0]], HistoryEvent::Invoked { .. }));
        events.swap(at_5[0], at_5[1]);
        let mut c = StreamingChecker::new_atomic();
        c.on_events(&events);
        assert_eq!(
            c.verdict(),
            Verdict::Violation(ViolationKind::NewOldInversion)
        );
        assert_eq!(c.verdict(), batch_atomic(&h));
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
        // Read as a complete history, the parked read is unwritten.
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
        assert_eq!(c.verdict(), Verdict::Clean);
    }

    #[test]
    fn a_read_missing_a_completed_write_is_a_proven_violation() {
        let mut c = StreamingChecker::new_atomic();
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3);
        c.on_events(&replay_events(&h));
        assert_eq!(
            c.verdict(),
            Verdict::Violation(ViolationKind::MissedPrecedingWrite)
        );
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

    /// The most operations the SWMR checker held resident on `h`.
    fn atomic_high_water(h: &History) -> usize {
        let mut c = StreamingChecker::new_atomic();
        c.on_events(&replay_events(h));
        c.high_water_mark()
    }

    /// 120 reads, all pairwise concurrent, responding in reverse order
    /// around an open write: the frontier holds every one of them, so
    /// its linear scans run at far more than a workload's concurrency.
    #[test]
    fn hundreds_of_overlapping_reads_match_batch() {
        const READS: u64 = 120;
        // (write 2 completes, the odd read's return, a late read's
        // invocation and return): clean, missed, unwritten, inversion.
        let variants = [
            (true, None, None),
            (true, Some(RegValue::Bottom), None),
            (true, Some(RegValue::Val(99)), None),
            (false, None, Some((300, RegValue::Val(1)))),
        ];
        let mut seen = Vec::new();
        for (w2_completes, odd, late) in variants {
            let mut h = History::new();
            w(&mut h, 1, 0, 1);
            let mut reads = Vec::new();
            let mut w2 = None;
            for i in 0..READS {
                let at = 2 + i / 2;
                if at == 30 && w2.is_none() {
                    w2 = Some(h.invoke_write(0, 2, 30));
                }
                reads.push(h.invoke_read(1 + i as u32, at));
            }
            for (i, &rd) in reads.iter().enumerate().rev() {
                let ret = match (i, odd) {
                    (60, Some(odd)) => odd,
                    _ => RegValue::Val(1 + i as u64 % 2),
                };
                h.respond(rd, Some(ret), 300 - i as u64);
            }
            if w2_completes {
                h.respond(w2.expect("invoked"), None, 200);
            }
            if let Some((at, ret)) = late {
                r(&mut h, 0xFFFF, ret, at, at + 1);
            }
            assert_matches_batch(&h);
            assert!(atomic_high_water(&h) >= READS as usize);
            seen.push(online_atomic(&h));
        }
        use ViolationKind::*;
        let want = [
            Verdict::Clean,
            Verdict::Violation(MissedPrecedingWrite),
            Verdict::Violation(UnwrittenValue),
            Verdict::Violation(NewOldInversion),
        ];
        assert_eq!(seen, want);
    }

    /// 100 reads that return values not yet written park, and the
    /// writes that resolve them arrive late and in several steps, so
    /// parked reads sit beside resolved ones the inversion check keeps.
    #[test]
    fn reads_parked_then_resolved_late_match_batch() {
        const READS: u64 = 100;
        for (writes, pending) in [(10, 0), (10, 40), (7, 0), (7, 40)] {
            let mut h = History::new();
            w(&mut h, 100, 0, 1);
            let ids: Vec<_> = (0..READS)
                .map(|i| h.invoke_read(1 + i as u32, 2 + i))
                .collect();
            // All but the last `pending` reads respond before any write
            // of their value: they park. Values 1..=10, so with only 7
            // writes some never resolve.
            let (early, late) = ids.split_at((READS - pending) as usize);
            for (i, &rd) in early.iter().enumerate() {
                let v = 1 + i as u64 % 10;
                h.respond(rd, Some(RegValue::Val(v)), 200 + i as u64);
            }
            let mut t = 400;
            for v in 1..=writes {
                w(&mut h, v, t, t + 1);
                t += 10;
            }
            // The still-pending reads return the newest value.
            for &rd in late {
                h.respond(rd, Some(RegValue::Val(writes)), t);
                t += 1;
            }
            assert_matches_batch(&h);
            assert!(atomic_high_water(&h) >= early.len());
            let want = match (writes, pending) {
                (7, _) => ViolationKind::UnwrittenValue,
                _ => ViolationKind::ReadFromFuture,
            };
            assert_eq!(online_atomic(&h), Verdict::Violation(want));
        }
    }

    /// An open write bounded by the next write's invocation, with 110
    /// reads pending across the bound: responding at the bound is well
    /// formed, after it or never is not.
    #[test]
    fn bounded_open_write_under_many_pending_reads_matches_batch() {
        const READS: u64 = 110;
        for w1_resp in [Some(120), Some(121), None] {
            let mut h = History::new();
            let w1 = h.invoke_write(0, 1, 0);
            let reads: Vec<_> = (0..READS)
                .map(|i| h.invoke_read(1 + i as u32, 1 + i))
                .collect();
            let w2 = h.invoke_write(0, 2, 120);
            if let Some(at) = w1_resp {
                h.respond(w1, None, at);
            }
            for (i, &rd) in reads.iter().enumerate() {
                let ret = [RegValue::Bottom, RegValue::Val(1), RegValue::Val(2)][i % 3];
                h.respond(rd, Some(ret), 130 + i as u64);
            }
            h.respond(w2, None, 300);
            assert_matches_batch(&h);
            assert!(atomic_high_water(&h) >= READS as usize);
            let want = match w1_resp {
                Some(120) => Verdict::Clean,
                _ => Verdict::Violation(ViolationKind::MalformedWrites),
            };
            assert_eq!(online_atomic(&h), want);
            assert_eq!(online_regular(&h), want);
        }
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

    /// One read of [`high_concurrency_history`]: `(invoked_at, duration,
    /// completes, choice)`. `choice` picks the value relative to `k`, the
    /// newest write invoked by the read's response: `k` itself (always
    /// legal) below 12, then `k − 1` (stale unless write `k` overlaps),
    /// `k + 1` (not written yet, while `k < 5`) and ⊥. Only every
    /// `stride`-th read makes the choice; the others return `k`.
    type GenRead = (u64, u64, bool, u64);

    /// Five sequential writes of values 1..=5, one every 12 ticks (each
    /// may overrun the next invocation), and 100+ reads from distinct
    /// clients over the same 60 ticks, most of them long enough to
    /// overlap one another.
    fn high_concurrency_history(writes: &[u64], reads: &[GenRead], stride: usize) -> History {
        let mut h = History::new();
        let mut events: Vec<(u64, Option<usize>)> = (0..writes.len())
            .map(|j| (j as u64 * 12, None))
            .chain(reads.iter().enumerate().map(|(i, r)| (r.0, Some(i))))
            .collect();
        events.sort_by_key(|&(at, _)| at);
        for (at, read) in events {
            match read {
                None => {
                    let j = (at / 12) as usize;
                    let id = h.invoke_write(0, j as u64 + 1, at);
                    h.respond(id, None, at + writes[j]);
                }
                Some(i) => {
                    let (_, dur, completes, choice) = reads[i];
                    let id = h.invoke_read(1 + i as u32, at);
                    let newest = writes.len() as u64;
                    let k = ((at + dur) / 12 + 1).min(newest);
                    let choice = if i % stride == 0 { choice } else { 0 };
                    let returned = match choice {
                        12..14 if k > 1 => RegValue::Val(k - 1),
                        14 if k < newest => RegValue::Val(k + 1),
                        15 => RegValue::Bottom,
                        _ => RegValue::Val(k),
                    };
                    if completes {
                        h.respond(id, Some(returned), at + dur);
                    }
                }
            }
        }
        h
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The online checker against both batch checkers where its
        /// frontier vectors are longest.
        #[test]
        fn high_concurrency_histories_match_batch(
            writes in proptest::collection::vec(1u64..14, 5..=5),
            reads in proptest::collection::vec(
                (0u64..60, 0u64..80, proptest::prelude::any::<bool>(), 0u64..16),
                100..160,
            ),
            stride in 1usize..80,
        ) {
            let h = high_concurrency_history(&writes, &reads, stride);
            proptest::prop_assert_eq!(online_atomic(&h), batch_atomic(&h));
            proptest::prop_assert_eq!(online_regular(&h), batch_regular(&h));
        }
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
