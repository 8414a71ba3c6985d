//! Operation histories.
//!
//! A history is the sequence of invocation and response events of read and
//! write operations, in run order (§3 of the paper). Clients record into a
//! [`History`] (usually through the thread-safe [`SharedHistory`] handle)
//! while a run executes; checkers consume it afterwards.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Ticks of the run clock (virtual or wall-clock microseconds).
pub type Tick = u64;

/// A register value: the initial `⊥` or a written value.
///
/// The paper fixes the initial value to a special `⊥` that is not a valid
/// input of any write; modelling it as a distinct variant keeps that
/// distinction type-level.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegValue {
    /// The initial value `⊥`.
    #[default]
    Bottom,
    /// A written value.
    Val(u64),
}

impl fmt::Debug for RegValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegValue::Bottom => write!(f, "⊥"),
            RegValue::Val(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for RegValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for RegValue {
    fn from(v: u64) -> Self {
        RegValue::Val(v)
    }
}

/// What an operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `write(v)`.
    Write {
        /// The value being written.
        value: u64,
    },
    /// `read()`.
    Read,
}

/// Identifies an operation within one history.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub usize);

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// One read or write operation with its interval and outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// The operation's id within the history.
    pub id: OpId,
    /// The invoking client (abstract process number; the recording layer
    /// decides the numbering).
    pub proc: u32,
    /// Read or write.
    pub kind: OpKind,
    /// When the operation was invoked.
    pub invoked_at: Tick,
    /// When it responded; `None` while pending / if it never completed.
    pub responded_at: Option<Tick>,
    /// For completed reads: the value returned.
    pub returned: Option<RegValue>,
}

impl Operation {
    /// Returns `true` if the operation completed.
    pub fn is_complete(&self) -> bool {
        self.responded_at.is_some()
    }

    /// Returns `true` if `self` precedes `other`: `self`'s response is
    /// before `other`'s invocation (§3.1).
    pub fn precedes(&self, other: &Operation) -> bool {
        match self.responded_at {
            Some(r) => r < other.invoked_at,
            None => false,
        }
    }

    /// Returns `true` if the operations are concurrent (neither precedes
    /// the other).
    pub fn concurrent_with(&self, other: &Operation) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }

    /// The written value, if this is a write.
    pub fn write_value(&self) -> Option<u64> {
        match self.kind {
            OpKind::Write { value } => Some(value),
            OpKind::Read => None,
        }
    }
}

/// One invocation or response event, as recorded into a [`History`].
///
/// Histories can journal their events (see
/// [`enable_journal`](History::enable_journal)) so a streaming checker can
/// consume the run *as it happens* instead of snapshotting the full
/// operation list at the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryEvent {
    /// An operation was invoked.
    Invoked {
        /// The new operation's id.
        id: OpId,
        /// The invoking client.
        proc: u32,
        /// Read or write.
        kind: OpKind,
        /// Invocation tick.
        at: Tick,
    },
    /// An operation responded.
    Responded {
        /// The responding operation's id.
        id: OpId,
        /// For reads: the value returned.
        returned: Option<RegValue>,
        /// Response tick.
        at: Tick,
    },
}

/// A recorded history of operations, in invocation order.
///
/// Alongside the operation list, the history keeps an O(1) completion
/// count ([`completed_len`](History::completed_len)). Per-client counts
/// live on the [`SharedHistory`] handle, where a driver reads them
/// without locking.
///
/// See the crate-level example for typical use.
#[derive(Clone, Debug, Default)]
pub struct History {
    ops: Vec<Operation>,
    /// Number of completed operations (maintained by `respond`).
    completed: usize,
    /// When `Some`, every invoke/respond is also appended here, for
    /// streaming consumers. `None` (the default) costs nothing.
    journal: Option<Vec<HistoryEvent>>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates an empty history with room for `n_ops` operations, so
    /// large closed-loop runs record without reallocating mid-flight.
    pub fn with_capacity(n_ops: usize) -> Self {
        History {
            ops: Vec::with_capacity(n_ops),
            ..History::default()
        }
    }

    /// Reserves room for at least `additional` more operations.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve(additional);
    }

    /// Turns on event journalling: from now on every invoke/respond is
    /// also appended to an internal event list that
    /// [`drain_journal`](History::drain_journal) hands out. Idempotent.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Takes the journalled events accumulated since the last drain.
    /// Returns an empty vec when journalling was never enabled.
    pub fn drain_journal(&mut self) -> Vec<HistoryEvent> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Moves the journalled events accumulated since the last drain onto
    /// the end of `into`. Unlike [`drain_journal`](History::drain_journal)
    /// both buffers keep their capacity, so a caller that polls with one
    /// reused buffer stops allocating once the two have grown to the
    /// burst size.
    pub fn drain_journal_into(&mut self, into: &mut Vec<HistoryEvent>) {
        if let Some(j) = &mut self.journal {
            into.append(j);
        }
    }

    /// Records the invocation of `write(value)` by `proc` at `at`.
    pub fn invoke_write(&mut self, proc: u32, value: u64, at: Tick) -> OpId {
        self.invoke(proc, OpKind::Write { value }, at)
    }

    /// Records the invocation of `read()` by `proc` at `at`.
    pub fn invoke_read(&mut self, proc: u32, at: Tick) -> OpId {
        self.invoke(proc, OpKind::Read, at)
    }

    /// Records an invocation.
    pub fn invoke(&mut self, proc: u32, kind: OpKind, at: Tick) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(Operation {
            id,
            proc,
            kind,
            invoked_at: at,
            responded_at: None,
            returned: None,
        });
        if let Some(j) = &mut self.journal {
            j.push(HistoryEvent::Invoked { id, proc, kind, at });
        }
        id
    }

    /// Records the response of `id` at `at`, with `returned` carrying the
    /// value for reads (`None` for writes).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, the operation already responded, or the
    /// response time precedes the invocation.
    pub fn respond(&mut self, id: OpId, returned: Option<RegValue>, at: Tick) {
        let op = &mut self.ops[id.0];
        assert!(op.responded_at.is_none(), "double response for {id:?}");
        assert!(
            at >= op.invoked_at,
            "response at {at} precedes invocation at {}",
            op.invoked_at
        );
        op.responded_at = Some(at);
        op.returned = returned;
        self.completed += 1;
        if let Some(j) = &mut self.journal {
            j.push(HistoryEvent::Responded { id, returned, at });
        }
    }

    /// All operations, in invocation order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Looks up one operation.
    pub fn get(&self, id: OpId) -> Option<&Operation> {
        self.ops.get(id.0)
    }

    /// Number of operations (complete and incomplete).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of completed operations, in O(1).
    pub fn completed_len(&self) -> usize {
        self.completed
    }

    /// Number of operations still pending (invoked, not responded), in
    /// O(1).
    pub fn pending_len(&self) -> usize {
        self.ops.len() - self.completed
    }

    /// What the `nth` (0-based, in invocation order) completed read of
    /// client `proc` returned; `None` if it has completed fewer reads.
    pub fn nth_completed_read(&self, proc: u32, nth: usize) -> Option<RegValue> {
        self.reads()
            .filter(|op| op.proc == proc && op.is_complete())
            .nth(nth)
            .and_then(|op| op.returned)
    }

    /// Iterator over completed operations.
    pub fn complete_ops(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// Iterator over all writes, in invocation order.
    pub fn writes(&self) -> impl Iterator<Item = &Operation> {
        self.ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Write { .. }))
    }

    /// Iterator over all reads, in invocation order.
    pub fn reads(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().filter(|o| matches!(o.kind, OpKind::Read))
    }

    /// Renders the history one operation per line (for failure reports).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for op in &self.ops {
            let interval = match op.responded_at {
                Some(r) => format!("[{}, {}]", op.invoked_at, r),
                None => format!("[{}, …)", op.invoked_at),
            };
            match op.kind {
                OpKind::Write { value } => {
                    let _ = writeln!(s, "{:?} p{} write({value}) {interval}", op.id, op.proc);
                }
                OpKind::Read => {
                    let ret = match op.returned {
                        Some(v) => format!("-> {v}"),
                        None => "-> ?".to_string(),
                    };
                    let _ = writeln!(s, "{:?} p{} read() {ret} {interval}", op.id, op.proc);
                }
            }
        }
        s
    }
}

/// A cloneable, thread-safe handle to a [`History`] under construction.
///
/// Client automata (which run on simulator steps or on OS threads) each
/// hold a clone and record through it. Recording takes a lock; the
/// questions a driver asks while operations are in flight do not. Each
/// client the handle counts has an `(invoked, completed)` counter pair,
/// bumped after its record is written and the lock released, so
/// [`client_busy`](Self::client_busy), [`completed_by`](Self::completed_by)
/// and [`completed_count`](Self::completed_count) are plain loads. The
/// bumps release and the loads acquire: a driver that sees a client's
/// completed count move finds that operation in the history.
#[derive(Clone, Debug)]
pub struct SharedHistory {
    history: Arc<Mutex<History>>,
    /// Invocations recorded per counted client, indexed by `proc`.
    invoked: Arc<[Counter]>,
    /// Responses recorded per counted client, indexed by `proc`.
    completed: Arc<[Counter]>,
}

/// One client's count. The client's thread bumps it and the driver polls
/// it, so each count has a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Counter(AtomicU64);

impl Counter {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

impl SharedHistory {
    /// Creates an empty shared history that counts clients
    /// `0..clients`. A proc at or beyond `clients` is recorded but not
    /// counted: it never reads busy and completes nothing.
    pub fn new(clients: u32) -> Self {
        SharedHistory {
            history: Arc::default(),
            invoked: (0..clients).map(|_| Counter::default()).collect(),
            completed: (0..clients).map(|_| Counter::default()).collect(),
        }
    }

    /// Creates an empty shared history with room for `n_ops` operations.
    /// It counts no clients.
    pub fn with_capacity(n_ops: usize) -> Self {
        let history = Self::new(0);
        history.reserve(n_ops);
        history
    }

    /// Reserves room for at least `additional` more operations.
    pub fn reserve(&self, additional: usize) {
        self.history.lock().reserve(additional);
    }

    /// Turns on event journalling (see [`History::enable_journal`]).
    pub fn enable_journal(&self) {
        self.history.lock().enable_journal();
    }

    /// Takes the journalled events accumulated since the last drain (see
    /// [`History::drain_journal`]).
    pub fn drain_journal(&self) -> Vec<HistoryEvent> {
        self.history.lock().drain_journal()
    }

    /// Moves the journalled events accumulated since the last drain onto
    /// the end of `into` (see [`History::drain_journal_into`]).
    pub fn drain_journal_into(&self, into: &mut Vec<HistoryEvent>) {
        self.history.lock().drain_journal_into(into)
    }

    /// Records a `write` invocation.
    pub fn invoke_write(&self, proc: u32, value: u64, at: Tick) -> OpId {
        self.invoke(proc, OpKind::Write { value }, at)
    }

    /// Records a `read` invocation.
    pub fn invoke_read(&self, proc: u32, at: Tick) -> OpId {
        self.invoke(proc, OpKind::Read, at)
    }

    fn invoke(&self, proc: u32, kind: OpKind, at: Tick) -> OpId {
        let id = self.history.lock().invoke(proc, kind, at);
        if let Some(c) = self.invoked.get(proc as usize) {
            c.bump();
        }
        id
    }

    /// Records a response.
    pub fn respond(&self, id: OpId, returned: Option<RegValue>, at: Tick) {
        let mut h = self.history.lock();
        h.respond(id, returned, at);
        let proc = h.ops[id.0].proc as usize;
        drop(h);
        if let Some(c) = self.completed.get(proc) {
            c.bump();
        }
    }

    /// Takes a snapshot of the history so far.
    pub fn snapshot(&self) -> History {
        self.history.lock().clone()
    }

    /// Number of operations recorded so far (complete and pending).
    pub fn recorded_count(&self) -> usize {
        self.history.lock().len()
    }

    /// What the `nth` completed read of client `proc` returned (see
    /// [`History::nth_completed_read`]), looked up in place.
    pub fn nth_completed_read(&self, proc: u32, nth: usize) -> Option<RegValue> {
        self.history.lock().nth_completed_read(proc, nth)
    }

    /// Number of operations the counted clients have completed.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().map(Counter::get).sum::<u64>() as usize
    }

    /// Returns `true` while client `proc` has an operation outstanding:
    /// it recorded an invocation that has not responded yet.
    pub fn client_busy(&self, proc: u32) -> bool {
        // Completed is loaded first, so it never reads ahead of invoked.
        self.completed_by(proc) < self.invoked.get(proc as usize).map_or(0, Counter::get)
    }

    /// Number of operations client `proc` has completed. It only grows,
    /// so a wall-clock driver, for which an injected invocation is
    /// outstanding before the client records it, compares its own issue
    /// count against this instead of asking
    /// [`client_busy`](Self::client_busy).
    pub fn completed_by(&self, proc: u32) -> u64 {
        self.completed.get(proc as usize).map_or(0, Counter::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_respond_roundtrip() {
        let mut h = History::new();
        let w = h.invoke_write(0, 5, 1);
        h.respond(w, None, 3);
        let r = h.invoke_read(1, 4);
        h.respond(r, Some(RegValue::Val(5)), 6);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(w).unwrap().write_value(), Some(5));
        assert_eq!(h.get(r).unwrap().returned, Some(RegValue::Val(5)));
        assert_eq!(h.complete_ops().count(), 2);
    }

    #[test]
    fn nth_completed_read_counts_one_clients_completed_reads() {
        let mut h = History::new();
        let other = h.invoke_read(2, 0);
        h.respond(other, Some(RegValue::Val(9)), 1);
        let first = h.invoke_read(1, 2);
        h.respond(first, Some(RegValue::Bottom), 3);
        let second = h.invoke_read(1, 4);
        assert_eq!(h.nth_completed_read(1, 0), Some(RegValue::Bottom));
        // The second read is pending: it is not "the second completed".
        assert_eq!(h.nth_completed_read(1, 1), None);
        h.respond(second, Some(RegValue::Val(7)), 5);
        assert_eq!(h.nth_completed_read(1, 1), Some(RegValue::Val(7)));
        assert_eq!(h.nth_completed_read(3, 0), None);
    }

    #[test]
    fn precedes_and_concurrency() {
        let mut h = History::new();
        let a = h.invoke_write(0, 1, 0);
        h.respond(a, None, 5);
        let b = h.invoke_read(1, 6);
        h.respond(b, Some(RegValue::Val(1)), 8);
        let c = h.invoke_read(2, 7);
        // c is pending.
        let (a, b, c) = (
            h.get(a).unwrap().clone(),
            h.get(b).unwrap().clone(),
            h.get(c).unwrap().clone(),
        );
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(b.concurrent_with(&c));
        // Pending op never precedes anything.
        assert!(!c.precedes(&b));
        assert!(a.precedes(&c));
    }

    #[test]
    fn adjacent_intervals_are_concurrent() {
        // Response at t and invocation at t are concurrent (precedes is
        // strict <).
        let mut h = History::new();
        let a = h.invoke_read(0, 0);
        h.respond(a, Some(RegValue::Bottom), 5);
        let b = h.invoke_read(1, 5);
        h.respond(b, Some(RegValue::Bottom), 6);
        let (a, b) = (h.get(a).unwrap().clone(), h.get(b).unwrap().clone());
        assert!(!a.precedes(&b));
        assert!(a.concurrent_with(&b));
    }

    #[test]
    #[should_panic(expected = "double response")]
    fn double_response_panics() {
        let mut h = History::new();
        let r = h.invoke_read(0, 0);
        h.respond(r, Some(RegValue::Bottom), 1);
        h.respond(r, Some(RegValue::Bottom), 2);
    }

    #[test]
    #[should_panic(expected = "precedes invocation")]
    fn response_before_invocation_panics() {
        let mut h = History::new();
        let r = h.invoke_read(0, 10);
        h.respond(r, Some(RegValue::Bottom), 5);
    }

    #[test]
    fn iterators_partition_ops() {
        let mut h = History::new();
        h.invoke_write(0, 1, 0);
        h.invoke_read(1, 1);
        h.invoke_write(0, 2, 2);
        assert_eq!(h.writes().count(), 2);
        assert_eq!(h.reads().count(), 1);
        assert_eq!(h.complete_ops().count(), 0);
    }

    #[test]
    fn incremental_counters_track_invoke_and_respond() {
        let mut h = History::new();
        assert_eq!(h.completed_len(), 0);
        assert_eq!(h.pending_len(), 0);
        let w = h.invoke_write(0, 1, 0);
        let r = h.invoke_read(1, 0);
        assert_eq!(h.pending_len(), 2);
        h.respond(w, None, 2);
        assert_eq!(h.completed_len(), 1);
        h.respond(r, Some(RegValue::Val(1)), 3);
        assert_eq!(h.completed_len(), 2);
        assert_eq!(h.pending_len(), 0);
        // The counters agree with the scan they replace.
        assert_eq!(h.completed_len(), h.complete_ops().count());
    }

    #[test]
    fn shared_history_incremental_queries() {
        let sh = SharedHistory::new(5);
        assert!(!sh.client_busy(0));
        let w = sh.invoke_write(0, 1, 0);
        let r = sh.invoke_read(1, 0);
        assert!(sh.client_busy(0));
        assert!(sh.client_busy(1));
        assert!(!sh.client_busy(4));
        assert_eq!(sh.recorded_count(), 2);
        assert_eq!(sh.completed_count(), 0);
        sh.respond(w, None, 2);
        assert!(!sh.client_busy(0));
        assert!(sh.client_busy(1));
        assert_eq!((sh.completed_by(0), sh.completed_by(1)), (1, 0));
        assert_eq!(sh.completed_count(), 1);
        sh.respond(r, Some(RegValue::Val(1)), 3);
        assert!(!sh.client_busy(1));
        assert_eq!(sh.completed_count(), 2);
        assert_eq!(sh.nth_completed_read(1, 0), Some(RegValue::Val(1)));
    }

    #[test]
    fn procs_past_the_counted_clients_are_recorded_not_counted() {
        let sh = SharedHistory::new(2);
        let op = sh.invoke_read(2, 0);
        assert!(!sh.client_busy(2));
        sh.respond(op, Some(RegValue::Bottom), 1);
        assert_eq!(sh.completed_by(2), 0);
        assert_eq!(sh.completed_count(), 0);
        let snap = sh.snapshot();
        assert_eq!(snap.completed_len(), 1);
        assert_eq!(snap.get(op).unwrap().proc, 2);
        assert_eq!(sh.nth_completed_read(2, 0), Some(RegValue::Bottom));
    }

    #[test]
    fn clients_on_their_own_threads_are_each_counted_once() {
        const K: u32 = 4;
        const M: u64 = 500;
        let sh = SharedHistory::new(K);
        // All clients start together, so their records contend.
        let start = std::sync::Barrier::new(K as usize);
        std::thread::scope(|s| {
            for proc in 0..K {
                let (sh, start) = (sh.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..M {
                        let op = sh.invoke_write(proc, i, 2 * i);
                        assert!(sh.client_busy(proc), "busy between invoke and respond");
                        assert_eq!(sh.completed_by(proc), i);
                        sh.respond(op, None, 2 * i + 1);
                        assert!(!sh.client_busy(proc));
                    }
                });
            }
        });
        for proc in 0..K {
            assert_eq!(sh.completed_by(proc), M);
            assert!(!sh.client_busy(proc));
        }
        assert_eq!(sh.completed_count(), (K as u64 * M) as usize);
        let snap = sh.snapshot();
        assert_eq!(snap.len(), (K as u64 * M) as usize);
        assert_eq!(snap.complete_ops().count(), snap.len());
    }

    #[test]
    fn shared_history_records_from_clones() {
        let sh = SharedHistory::new(1);
        let sh2 = sh.clone();
        let w = sh.invoke_write(0, 9, 1);
        sh2.respond(w, None, 2);
        let snap = sh.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap.get(w).unwrap().is_complete());
    }

    #[test]
    fn journal_captures_events_in_order_and_drains() {
        let mut h = History::new();
        // Events before enabling are not journalled.
        let w0 = h.invoke_write(0, 1, 0);
        h.respond(w0, None, 1);
        h.enable_journal();
        let w = h.invoke_write(0, 5, 2);
        let r = h.invoke_read(1, 3);
        h.respond(w, None, 4);
        let events = h.drain_journal();
        assert_eq!(
            events,
            vec![
                HistoryEvent::Invoked {
                    id: w,
                    proc: 0,
                    kind: OpKind::Write { value: 5 },
                    at: 2
                },
                HistoryEvent::Invoked {
                    id: r,
                    proc: 1,
                    kind: OpKind::Read,
                    at: 3
                },
                HistoryEvent::Responded {
                    id: w,
                    returned: None,
                    at: 4
                },
            ]
        );
        // Drained; the next drain only sees new events.
        h.respond(r, Some(RegValue::Val(5)), 5);
        let events = h.drain_journal();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], HistoryEvent::Responded { id, .. } if id == r));
    }

    #[test]
    fn drain_without_journal_is_empty() {
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0);
        h.respond(w, None, 1);
        assert_eq!(h.drain_journal(), vec![]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let h = History::with_capacity(1024);
        assert!(h.is_empty());
        let sh = SharedHistory::with_capacity(1024);
        assert_eq!(sh.recorded_count(), 0);
        sh.reserve(16);
        sh.enable_journal();
        let w = sh.invoke_write(0, 1, 0);
        sh.respond(w, None, 1);
        assert_eq!(sh.drain_journal().len(), 2);
    }

    #[test]
    fn regvalue_display() {
        assert_eq!(format!("{}", RegValue::Bottom), "⊥");
        assert_eq!(format!("{}", RegValue::Val(3)), "3");
        assert_eq!(RegValue::from(3u64), RegValue::Val(3));
    }

    #[test]
    fn render_shows_pending_and_complete() {
        let mut h = History::new();
        let w = h.invoke_write(0, 5, 1);
        h.respond(w, None, 2);
        h.invoke_read(1, 3);
        let s = h.render();
        assert!(s.contains("write(5) [1, 2]"));
        assert!(s.contains("read() -> ? [3, …)"));
    }
}
