//! Operation histories.
//!
//! A history is the sequence of invocation and response events of read and
//! write operations, in run order (§3 of the paper). Clients record into a
//! [`History`] (usually through the thread-safe [`SharedHistory`] handle)
//! while a run executes; checkers consume it afterwards, from a
//! [`snapshot`](SharedHistory::snapshot) that shares the recorded
//! operations rather than copying them. Each operation is recorded as
//! one 32-byte record and read back as an [`Operation`] view.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Ticks of the run clock (virtual or wall-clock microseconds).
pub(crate) type Tick = u64;

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
///
/// A [`History`] does not store `Operation`s: it stores a 32-byte record
/// per operation, and [`History::ops`] builds this view from each record
/// as it is read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// The operation's id within the history: its place in invocation
    /// order.
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
    pub(crate) fn precedes(&self, other: &Operation) -> bool {
        match self.responded_at {
            Some(r) => r < other.invoked_at,
            None => false,
        }
    }

    /// Returns `true` if the operations are concurrent (neither precedes
    /// the other).
    pub(crate) fn concurrent_with(&self, other: &Operation) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// One invocation or response event of a [`History`].
///
/// A recorded history is replayed as its events, in tick order, into
/// the streaming checkers (see
/// [`OnlineChecker::on_history`](crate::streaming::OnlineChecker::on_history)).
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

/// How a [`History`] stores one operation: 32 bytes, where an
/// [`Operation`] takes 72. The id is the record's index, and one value
/// word holds a write's value or a read's returned value (an operation
/// has at most one of them).
#[derive(Clone, Copy)]
pub(crate) struct Record {
    /// When the operation was invoked.
    pub(crate) invoked_at: Tick,
    /// When it responded, or [`PENDING`].
    responded_at: Tick,
    /// A write's value, or the value a read returned when
    /// [`RETURNED_VALUE`] is set.
    value: u64,
    /// The invoking client.
    pub(crate) proc: u32,
    /// [`WRITE`], [`RETURNED_BOTTOM`], [`RETURNED_VALUE`].
    flags: u32,
}

/// `Record::responded_at` of an operation that has not responded.
const PENDING: Tick = Tick::MAX;
/// `Record::flags`: the operation is a write (else a read).
const WRITE: u32 = 1;
/// `Record::flags`: the read returned ⊥.
const RETURNED_BOTTOM: u32 = 1 << 1;
/// `Record::flags`: the read returned `Record::value`.
const RETURNED_VALUE: u32 = 1 << 2;

impl Record {
    /// Read or write.
    #[inline]
    pub(crate) fn kind(&self) -> OpKind {
        if self.flags & WRITE != 0 {
            OpKind::Write { value: self.value }
        } else {
            OpKind::Read
        }
    }

    /// When the operation responded; `None` while it is pending.
    #[inline]
    pub(crate) fn responded_at(&self) -> Option<Tick> {
        (self.responded_at != PENDING).then_some(self.responded_at)
    }

    /// What a read returned; `None` for a write, a pending read, or a
    /// read that responded with no value.
    #[inline]
    pub(crate) fn returned(&self) -> Option<RegValue> {
        if self.flags & RETURNED_VALUE != 0 {
            Some(RegValue::Val(self.value))
        } else if self.flags & RETURNED_BOTTOM != 0 {
            Some(RegValue::Bottom)
        } else {
            None
        }
    }

    /// The record as the public view of operation `id`.
    #[inline]
    fn view(&self, id: usize) -> Operation {
        Operation {
            id: OpId(id),
            proc: self.proc,
            kind: self.kind(),
            invoked_at: self.invoked_at,
            responded_at: self.responded_at(),
            returned: self.returned(),
        }
    }
}

/// A recorded history of operations, in invocation order.
///
/// Each operation is one 32-byte record in a single `Vec`; an
/// operation's id is its record's index. [`ops`](Self::ops) and the
/// filtered iterators read the records as [`Operation`] views, built by
/// value as they are read, so reading allocates nothing. Alongside the
/// records, the history keeps an O(1) completion count
/// (`completed_len`). Per-client counts live on the [`SharedHistory`]
/// handle, where a driver reads them without locking.
///
/// The records are either owned or shared. A
/// [`SharedHistory::snapshot`] shares them with the handle it was taken
/// from, so a run's recorded computation is kept once however many
/// snapshots read it, and `clone` of a shared history copies nothing.
/// The next record into a shared list takes it back: by a move if no
/// other history shares it any more, by one copy otherwise, which
/// leaves the other holders' operations as they were. Recording into an
/// owned list is a plain push, with no reference count touched.
///
/// See the crate-level example for typical use.
#[derive(Clone, Default)]
pub struct History {
    ops: Ops,
    /// Number of completed operations (maintained by `respond`).
    completed: usize,
}

/// Where a [`History`] keeps its records.
#[derive(Clone)]
enum Ops {
    /// Recording: only this history holds them.
    Owned(Vec<Record>),
    /// Shared with the snapshots taken since the last record.
    Shared(Arc<Vec<Record>>),
}

impl Default for Ops {
    fn default() -> Self {
        Ops::Owned(Vec::new())
    }
}

impl Ops {
    fn as_slice(&self) -> &[Record] {
        match self {
            Ops::Owned(ops) => ops,
            Ops::Shared(ops) => ops,
        }
    }

    /// The records, owned: a shared list is taken back first.
    #[inline]
    fn owned(&mut self) -> &mut Vec<Record> {
        if let Ops::Shared(_) = self {
            self.take_back();
        }
        match self {
            Ops::Owned(ops) => ops,
            Ops::Shared(_) => unreachable!("taken back above"),
        }
    }

    /// Turns a shared list owned again: moved out if nothing else holds
    /// it, else copied once, with the same spare room for recording.
    #[cold]
    #[inline(never)]
    fn take_back(&mut self) {
        if let Ops::Shared(shared) = std::mem::take(self) {
            *self = Ops::Owned(Arc::try_unwrap(shared).unwrap_or_else(|shared| {
                let mut ops = Vec::with_capacity(shared.capacity());
                ops.extend_from_slice(&shared);
                ops
            }));
        }
    }

    /// Another handle on the list, which is shared from now on.
    fn share(&mut self) -> Ops {
        if let Ops::Owned(ops) = self {
            *self = Ops::Shared(Arc::new(std::mem::take(ops)));
        }
        self.clone()
    }
}

/// The derived form, as if the history held a plain list of
/// [`Operation`]s: neither the records nor their sharing show.
impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The views, printed as a slice of them would be.
        struct Views<'a>(&'a History);

        impl fmt::Debug for Views<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.ops()).finish()
            }
        }

        f.debug_struct("History")
            .field("ops", &Views(self))
            .field("completed", &self.completed)
            .finish()
    }
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
            ops: Ops::Owned(Vec::with_capacity(n_ops)),
            ..History::default()
        }
    }

    /// Reserves room for at least `additional` more operations.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ops.owned().reserve(additional);
    }

    /// A history with the same operations that shares them with `self`
    /// instead of copying them (see [`History`]).
    fn share(&mut self) -> History {
        History {
            ops: self.ops.share(),
            completed: self.completed,
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
    pub(crate) fn invoke(&mut self, proc: u32, kind: OpKind, at: Tick) -> OpId {
        let (flags, value) = match kind {
            OpKind::Write { value } => (WRITE, value),
            OpKind::Read => (0, 0),
        };
        let ops = self.ops.owned();
        let id = OpId(ops.len());
        ops.push(Record {
            invoked_at: at,
            responded_at: PENDING,
            value,
            proc,
            flags,
        });
        id
    }

    /// Records the response of `id` at `at`, with `returned` carrying the
    /// value for reads (`None` for writes).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, the operation already responded, the
    /// response time precedes the invocation or is `Tick::MAX`, or a
    /// write responds with a value.
    pub fn respond(&mut self, id: OpId, returned: Option<RegValue>, at: Tick) {
        let op = &mut self.ops.owned()[id.0];
        assert!(op.responded_at == PENDING, "double response for {id:?}");
        assert!(
            at >= op.invoked_at,
            "response at {at} precedes invocation at {}",
            op.invoked_at
        );
        assert!(at != PENDING, "response at {at}, the pending mark");
        match returned {
            None => {}
            Some(_) if op.flags & WRITE != 0 => {
                panic!("{id:?} is a write: a write responds with no value")
            }
            Some(RegValue::Bottom) => op.flags |= RETURNED_BOTTOM,
            Some(RegValue::Val(v)) => {
                op.flags |= RETURNED_VALUE;
                op.value = v;
            }
        }
        op.responded_at = at;
        self.completed += 1;
    }

    /// The records, in invocation order: operation `i` is `records()[i]`.
    pub(crate) fn records(&self) -> &[Record] {
        self.ops.as_slice()
    }

    /// All operations, in invocation order, as views built by value from
    /// their records (see [`History`]); reading allocates nothing.
    pub fn ops(
        &self,
    ) -> impl ExactSizeIterator<Item = Operation> + DoubleEndedIterator + Clone + '_ {
        self.records()
            .iter()
            .enumerate()
            .map(|(id, record)| record.view(id))
    }

    /// Looks up one operation.
    #[cfg(test)]
    pub(crate) fn get(&self, id: OpId) -> Option<Operation> {
        self.records().get(id.0).map(|record| record.view(id.0))
    }

    /// Number of operations (complete and incomplete).
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Returns `true` if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.records().is_empty()
    }

    /// Number of completed operations, in O(1).
    pub(crate) fn completed_len(&self) -> usize {
        self.completed
    }

    /// What the `nth` (0-based, in invocation order) completed read of
    /// client `proc` returned; `None` if it has completed fewer reads.
    pub fn nth_completed_read(&self, proc: u32, nth: usize) -> Option<RegValue> {
        self.records()
            .iter()
            .filter(|op| op.proc == proc && op.flags & WRITE == 0 && op.responded_at != PENDING)
            .nth(nth)
            .and_then(Record::returned)
    }

    /// Iterator over completed operations.
    pub fn complete_ops(&self) -> impl Iterator<Item = Operation> + '_ {
        self.ops().filter(Operation::is_complete)
    }

    /// Iterator over all writes, in invocation order.
    pub fn writes(&self) -> impl Iterator<Item = Operation> + '_ {
        self.ops()
            .filter(|o| matches!(o.kind, OpKind::Write { .. }))
    }

    /// Iterator over all reads, in invocation order.
    pub fn reads(&self) -> impl Iterator<Item = Operation> + '_ {
        self.ops().filter(|o| matches!(o.kind, OpKind::Read))
    }

    /// Renders the history one operation per line (for failure reports).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for op in self.ops() {
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
/// client the handle counts has an `(invoked, completed)` count pair,
/// bumped after its record is written and the lock released, so
/// [`client_busy`](Self::client_busy), [`completed_by`](Self::completed_by)
/// and [`completed_count`](Self::completed_count) are plain loads. The
/// bumps release and the loads acquire: a driver that sees a client's
/// completed count move finds that operation in the history.
///
/// An invoke is one push of a 32-byte record, and a respond one
/// in-place update of it, both under the lock. A
/// [`snapshot`](Self::snapshot) copies nothing: it shares the records,
/// and the next record copies them once only if that snapshot is still
/// alive (see [`History`]).
#[derive(Clone, Debug)]
pub struct SharedHistory {
    history: Arc<Mutex<History>>,
    /// Invocations and responses recorded per counted client, indexed
    /// by `proc`.
    counts: Arc<[Counts]>,
}

/// One client's counts. The client's thread bumps both and the driver
/// polls them, so each client has a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Counts {
    invoked: AtomicU64,
    completed: AtomicU64,
}

fn bump(count: &AtomicU64) {
    count.fetch_add(1, Ordering::Release);
}

fn get(count: &AtomicU64) -> u64 {
    count.load(Ordering::Acquire)
}

impl SharedHistory {
    /// Creates an empty shared history that counts clients
    /// `0..clients`. A proc at or beyond `clients` is recorded but not
    /// counted: it never reads busy and completes nothing.
    pub fn new(clients: u32) -> Self {
        SharedHistory {
            history: Arc::default(),
            counts: (0..clients).map(|_| Counts::default()).collect(),
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
        self.lock().reserve(additional);
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
        let id = self.lock().invoke(proc, kind, at);
        if let Some(c) = self.counts(proc) {
            bump(&c.invoked);
        }
        id
    }

    /// Records a response.
    pub fn respond(&self, id: OpId, returned: Option<RegValue>, at: Tick) {
        let mut h = self.lock();
        h.respond(id, returned, at);
        let proc = h.records()[id.0].proc;
        drop(h);
        if let Some(c) = self.counts(proc) {
            bump(&c.completed);
        }
    }

    /// The history so far, sharing its operations with this handle
    /// rather than copying them: the next record into the handle copies
    /// them once if the snapshot is still alive by then, and moves them
    /// back otherwise.
    pub fn snapshot(&self) -> History {
        self.lock().share()
    }

    /// Runs `f` on the history so far, in place, under its lock: a
    /// reader that leaves the operations owned, where a
    /// [`snapshot`](Self::snapshot) shares them until the next record.
    /// `f` must not record into this history.
    pub fn inspect<R>(&self, f: impl FnOnce(&History) -> R) -> R {
        f(&self.lock())
    }

    /// Number of operations the counted clients have completed.
    pub fn completed_count(&self) -> usize {
        self.counts.iter().map(|c| get(&c.completed)).sum::<u64>() as usize
    }

    /// Returns `true` while client `proc` has an operation outstanding:
    /// it recorded an invocation that has not responded yet.
    pub fn client_busy(&self, proc: u32) -> bool {
        // Completed is loaded first, so it never reads ahead of invoked.
        self.completed_by(proc) < self.counts(proc).map_or(0, |c| get(&c.invoked))
    }

    /// Number of operations client `proc` has completed. It only grows,
    /// so a wall-clock driver, for which an injected invocation is
    /// outstanding before the client records it, compares its own issue
    /// count against this instead of asking
    /// [`client_busy`](Self::client_busy).
    pub fn completed_by(&self, proc: u32) -> u64 {
        self.counts(proc).map_or(0, |c| get(&c.completed))
    }

    /// The recorded history, locked. Poisoning is ignored: a record
    /// panics before it writes or not at all (an invoke is one push, a
    /// respond checks before it stores), so a client that panicked while
    /// recording leaves a valid history and does not stop the others.
    fn lock(&self) -> MutexGuard<'_, History> {
        self.history.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Client `proc`'s counts; `None` for a proc the handle does not
    /// count.
    fn counts(&self, proc: u32) -> Option<&Counts> {
        self.counts.get(proc as usize)
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
        assert_eq!(h.get(w).unwrap().kind, OpKind::Write { value: 5 });
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
        let (a, b, c) = (h.get(a).unwrap(), h.get(b).unwrap(), h.get(c).unwrap());
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
        let (a, b) = (h.get(a).unwrap(), h.get(b).unwrap());
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
        let w = h.invoke_write(0, 1, 0);
        let r = h.invoke_read(1, 0);
        h.respond(w, None, 2);
        assert_eq!(h.completed_len(), 1);
        h.respond(r, Some(RegValue::Val(1)), 3);
        assert_eq!(h.completed_len(), 2);
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
        assert_eq!(sh.inspect(History::len), 2);
        assert_eq!(sh.completed_count(), 0);
        sh.respond(w, None, 2);
        assert!(!sh.client_busy(0));
        assert!(sh.client_busy(1));
        assert_eq!((sh.completed_by(0), sh.completed_by(1)), (1, 0));
        assert_eq!(sh.completed_count(), 1);
        sh.respond(r, Some(RegValue::Val(1)), 3);
        assert!(!sh.client_busy(1));
        assert_eq!(sh.completed_count(), 2);
        assert_eq!(
            sh.inspect(|h| h.nth_completed_read(1, 0)),
            Some(RegValue::Val(1))
        );
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
        assert_eq!(
            sh.inspect(|h| h.nth_completed_read(2, 0)),
            Some(RegValue::Bottom)
        );
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

    /// Where `sh`'s recorded operations live.
    fn live_ops(sh: &SharedHistory) -> *const Record {
        sh.inspect(|h| h.records().as_ptr())
    }

    #[test]
    fn a_snapshot_shares_the_recorded_operations() {
        let sh = SharedHistory::new(1);
        sh.reserve(8);
        let w = sh.invoke_write(0, 9, 1);
        sh.respond(w, None, 2);
        let at = live_ops(&sh);
        let snap = sh.snapshot();
        assert_eq!(snap.records().as_ptr(), at, "shared, not copied");
        assert_eq!(
            sh.snapshot().records().as_ptr(),
            at,
            "a second snapshot shares too"
        );
        assert_eq!(
            snap.clone().records().as_ptr(),
            at,
            "so does a clone of one"
        );
        assert_eq!(live_ops(&sh), at, "reading records nothing");
        assert_eq!((snap.len(), snap.completed_len()), (1, 1));
    }

    #[test]
    fn a_record_under_a_live_snapshot_copies_once_and_leaves_it_as_it_was() {
        let sh = SharedHistory::new(1);
        sh.reserve(8);
        let w = sh.invoke_write(0, 9, 1);
        sh.respond(w, None, 2);
        let snap = sh.snapshot();
        let shared = snap.records().as_ptr();
        let before = snap.render();

        let r = sh.invoke_read(0, 3);
        let copy = live_ops(&sh);
        assert_ne!(copy, shared, "the record went into a copy");
        sh.respond(r, Some(RegValue::Val(9)), 4);
        sh.invoke_read(0, 5);
        assert_eq!(live_ops(&sh), copy, "one copy, with the room reserved");
        assert_eq!(sh.inspect(History::len), 3);
        assert_eq!(
            sh.inspect(|h| h.nth_completed_read(0, 0)),
            Some(RegValue::Val(9))
        );

        assert_eq!(snap.records().as_ptr(), shared);
        assert_eq!(
            (snap.render(), snap.len(), snap.completed_len()),
            (before, 1, 1)
        );
    }

    #[test]
    fn a_record_after_the_snapshot_is_dropped_copies_nothing() {
        let sh = SharedHistory::new(1);
        sh.reserve(8);
        let w = sh.invoke_write(0, 9, 1);
        sh.respond(w, None, 2);
        let at = live_ops(&sh);
        drop(sh.snapshot());
        sh.invoke_read(0, 3);
        assert_eq!(live_ops(&sh), at, "moved back, not copied");
        assert_eq!(sh.inspect(History::len), 2);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let h = History::with_capacity(1024);
        assert!(h.is_empty());
        let sh = SharedHistory::with_capacity(1024);
        assert_eq!(sh.inspect(History::len), 0);
        sh.reserve(16);
        let w = sh.invoke_write(0, 1, 0);
        sh.respond(w, None, 1);
        assert_eq!(sh.inspect(History::len), 1);
    }

    #[test]
    fn regvalue_display() {
        assert_eq!(format!("{}", RegValue::Bottom), "⊥");
        assert_eq!(format!("{}", RegValue::Val(3)), "3");
        assert_eq!(RegValue::from(3u64), RegValue::Val(3));
    }

    #[test]
    fn a_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn a_write_reads_back_its_value_through_its_view() {
        let mut h = History::new();
        let w = h.invoke_write(3, 41, 1);
        let pending = h.get(w).unwrap();
        assert_eq!(pending.kind, OpKind::Write { value: 41 });
        assert_eq!((pending.responded_at, pending.returned), (None, None));
        h.respond(w, None, 2);
        let done = h.get(w).unwrap();
        assert_eq!(
            done,
            Operation {
                id: w,
                proc: 3,
                kind: OpKind::Write { value: 41 },
                invoked_at: 1,
                responded_at: Some(2),
                returned: None,
            }
        );
    }

    #[test]
    fn a_bottom_return_is_not_a_missing_one() {
        let mut h = History::new();
        let bottom = h.invoke_read(1, 0);
        let nothing = h.invoke_read(2, 0);
        let zero = h.invoke_read(1, 0);
        h.respond(bottom, Some(RegValue::Bottom), 1);
        h.respond(nothing, None, 1);
        h.respond(zero, Some(RegValue::Val(0)), 2);
        let returned: Vec<_> = h.ops().map(|op| op.returned).collect();
        assert_eq!(
            returned,
            [Some(RegValue::Bottom), None, Some(RegValue::Val(0))]
        );
        assert_eq!(h.nth_completed_read(1, 0), Some(RegValue::Bottom));
        assert_eq!(h.nth_completed_read(1, 1), Some(RegValue::Val(0)));
        assert_eq!(h.nth_completed_read(2, 0), None);
        assert!(h.get(nothing).unwrap().is_complete());
    }

    #[test]
    fn a_pending_read_has_no_response_and_no_value() {
        let mut h = History::new();
        let r = h.invoke_read(0, 7);
        let op = h.get(r).unwrap();
        assert_eq!((op.kind, op.invoked_at), (OpKind::Read, 7));
        assert_eq!((op.responded_at, op.returned), (None, None));
        assert!(!op.is_complete());
        assert_eq!(h.complete_ops().count(), 0);
        assert_eq!(h.nth_completed_read(0, 0), None);
        h.respond(r, Some(RegValue::Val(5)), 9);
        let op = h.get(r).unwrap();
        assert_eq!(
            (op.responded_at, op.returned),
            (Some(9), Some(RegValue::Val(5)))
        );
    }

    #[test]
    fn views_count_both_ways() {
        let mut h = History::new();
        let ids: Vec<_> = (0..5).map(|i| h.invoke_read(i, u64::from(i))).collect();
        let ops = h.ops();
        assert_eq!(ops.len(), 5);
        let backwards: Vec<_> = ops.rev().map(|op| op.id).collect();
        assert_eq!(backwards, ids.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn views_under_a_live_snapshot_stay_as_they_were() {
        let sh = SharedHistory::new(2);
        let w = sh.invoke_write(0, 9, 1);
        let r = sh.invoke_read(1, 2);
        let snap = sh.snapshot();
        let before: Vec<_> = snap.ops().collect();
        sh.respond(w, None, 3);
        sh.respond(r, Some(RegValue::Val(9)), 4);
        sh.invoke_read(1, 5);
        assert_eq!(
            snap.ops().collect::<Vec<_>>(),
            before,
            "the snapshot's views"
        );
        assert!(before.iter().all(|op| !op.is_complete()));
        let live = sh.snapshot();
        let live: Vec<_> = live.ops().collect();
        assert_eq!(live.len(), 3);
        assert_eq!(live[0].responded_at, Some(3));
        assert_eq!(live[1].returned, Some(RegValue::Val(9)));
        assert_eq!(live[2].responded_at, None);
    }

    #[test]
    fn debug_prints_the_views_as_a_list_of_operations() {
        let mut h = History::new();
        let w = h.invoke_write(0, 5, 1);
        h.respond(w, None, 2);
        h.invoke_read(1, 3);
        let ops: Vec<Operation> = h.ops().collect();
        assert_eq!(
            format!("{h:?}"),
            format!("History {{ ops: {ops:?}, completed: 1 }}")
        );
        assert!(format!("{h:?}").starts_with(
            "History { ops: [Operation { id: op0, proc: 0, kind: Write { value: 5 }, \
             invoked_at: 1, responded_at: Some(2), returned: None }"
        ));
    }

    #[test]
    #[should_panic(expected = "a write responds with no value")]
    fn a_write_responding_with_a_value_panics() {
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0);
        h.respond(w, Some(RegValue::Val(1)), 1);
    }

    /// `(proc, is_write, invoked_at, duration, response)`: response 0
    /// leaves the op pending; for a read 1 returns nothing, 2 returns
    /// ⊥ and `v ≥ 3` returns `v − 3`.
    type GenOp = (u32, bool, u64, u64, u64);

    proptest::proptest! {
        #[test]
        fn a_history_rebuilt_from_its_views_renders_the_same(
            ops in proptest::collection::vec(
                (0u32..4, proptest::prelude::any::<bool>(), 0u64..50, 0u64..20, 0u64..8),
                0..40,
            ),
        ) {
            let ops: Vec<GenOp> = ops;
            let mut original = History::new();
            for (i, &(proc, write, at, dur, response)) in ops.iter().enumerate() {
                let id = if write {
                    original.invoke_write(proc, i as u64, at)
                } else {
                    original.invoke_read(proc, at)
                };
                let returned = match response {
                    0 => continue,
                    _ if write => None,
                    1 => None,
                    2 => Some(RegValue::Bottom),
                    v => Some(RegValue::Val(v - 3)),
                };
                original.respond(id, returned, at + dur);
            }
            let mut rebuilt = History::new();
            for op in original.ops() {
                let id = match op.kind {
                    OpKind::Write { value } => rebuilt.invoke_write(op.proc, value, op.invoked_at),
                    OpKind::Read => rebuilt.invoke_read(op.proc, op.invoked_at),
                };
                proptest::prop_assert_eq!(id, op.id);
                if let Some(at) = op.responded_at {
                    rebuilt.respond(id, op.returned, at);
                }
            }
            proptest::prop_assert_eq!(rebuilt.render(), original.render());
            proptest::prop_assert_eq!(format!("{rebuilt:?}"), format!("{original:?}"));
            proptest::prop_assert_eq!(format!("{rebuilt:#?}"), format!("{original:#?}"));
        }
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
