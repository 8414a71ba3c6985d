//! Structured run traces.
//!
//! Every world records (bounded) structured events: sends, deliveries,
//! injections, crashes, drops. Traces serve three purposes: debugging
//! protocol code, rendering the lower-bound proof constructions in the
//! `lower_bound_gallery` example, and asserting simulator determinism (two
//! runs with the same seed produce byte-identical traces).
//!
//! ## Render on read
//!
//! A recorded computation is an input consumed *after* the run, so
//! recording costs a move and rendering is paid by whoever reads. A
//! stored `Send` / `Inject` keeps a clone of the message itself in a side
//! table — one slot per payload-carrying entry, in entry order, so the
//! payload-free [`TraceEntry`] stays small and `Copy` — and `Debug` runs
//! only in the readers: [`Line`]'s `Display`, [`Trace::render`] and
//! [`Trace::fingerprint`]. An entry that will not be stored (trace full,
//! or capacity 0) is counted and its message is never cloned.
//!
//! ## Two identities
//!
//! [`Trace::fingerprint`] hashes the rendered text: a stable format, the
//! only identity that may be written to a file or pinned in a test.
//! [`Trace::digest`] hashes the entries and messages themselves through
//! [`std::hash::Hash`] — linear in the events, not in their text, and
//! valid only for comparing traces inside one process.
//!
//! A bounded trace digests what it stored, after the run. A trace of
//! capacity 0 stores nothing and digests *every*
//! event instead: each entry and each message is folded into a running
//! FNV-1a state as it is recorded — no allocation, no clone, no `Debug`
//! — so its digest identifies the whole run however long it is. A
//! bounded trace that fills up only counts the rest, and its digest
//! covers the stored prefix plus that count.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::envelope::MsgId;
use crate::id::ProcessId;
use crate::time::SimTime;

/// One recorded simulator event. The message of a `Send` / `Inject` is
/// kept by the owning [`Trace`]; [`Trace::lines`] pairs the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEntry {
    /// A message entered the in-transit set.
    Send {
        /// When the sender's step completed.
        at: SimTime,
        /// Message id.
        id: MsgId,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
    },
    /// A message was delivered in a step of `to`.
    Deliver {
        /// Delivery time.
        at: SimTime,
        /// Message id.
        id: MsgId,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
    },
    /// The environment injected a message (operation invocation) into `to`.
    Inject {
        /// Injection time.
        at: SimTime,
        /// Target process.
        to: ProcessId,
    },
    /// A process crashed.
    Crash {
        /// Crash time.
        at: SimTime,
        /// The crashed process.
        process: ProcessId,
        /// Number of messages of the in-progress step that were still sent
        /// (only meaningful for mid-broadcast crashes).
        sent_before_crash: usize,
    },
    /// A message was explicitly dropped (scripted or Byzantine-network
    /// action) or was addressed to a crashed process.
    Drop {
        /// Drop time.
        at: SimTime,
        /// Message id.
        id: MsgId,
        /// Why it was dropped.
        reason: DropReason,
    },
}

/// Why a message left the in-transit set without being delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The test driver or adversary discarded it.
    Scripted,
    /// The receiver had crashed; equivalent to leaving the message in
    /// transit forever.
    ReceiverCrashed,
}

impl TraceEntry {
    /// The time at which this event occurred.
    #[cfg(test)]
    pub(crate) fn at(&self) -> SimTime {
        match self {
            TraceEntry::Send { at, .. }
            | TraceEntry::Deliver { at, .. }
            | TraceEntry::Inject { at, .. }
            | TraceEntry::Crash { at, .. }
            | TraceEntry::Drop { at, .. } => *at,
        }
    }

    /// Whether the owning [`Trace`] keeps a message for this entry.
    fn carries_payload(&self) -> bool {
        matches!(self, TraceEntry::Send { .. } | TraceEntry::Inject { .. })
    }
}

/// One stored entry paired with its message: what [`Trace::lines`]
/// yields. Its `Display` is the one place a payload's `Debug` runs.
#[derive(Debug)]
pub struct Line<'a, M> {
    /// The event.
    pub entry: TraceEntry,
    /// The message of a `Send` / `Inject`; `None` for the other kinds.
    pub payload: Option<&'a M>,
}

impl<M: fmt::Debug> fmt::Display for Line<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.entry {
            TraceEntry::Send { at, id, from, to } => {
                write!(f, "[{at:>6}] send    {id} {from} -> {to}: ")?;
            }
            TraceEntry::Deliver { at, id, from, to } => {
                write!(f, "[{at:>6}] deliver {id} {from} -> {to}")?;
            }
            TraceEntry::Inject { at, to } => write!(f, "[{at:>6}] inject  -> {to}: ")?,
            TraceEntry::Crash {
                at,
                process,
                sent_before_crash,
            } => write!(
                f,
                "[{at:>6}] crash   {process} (sent {sent_before_crash} of step)"
            )?,
            TraceEntry::Drop { at, id, reason } => {
                write!(f, "[{at:>6}] drop    {id} ({reason:?})")?;
            }
        }
        // Through `write!`, not `Debug::fmt`, so the caller's width and
        // `#` flags never reach the payload.
        self.payload.map_or(Ok(()), |m| write!(f, "{m:?}"))
    }
}

/// FNV-1a as a `fmt::Write` sink — rendered text is hashed as it is
/// produced instead of being collected into a `String` first — and as a
/// [`Hasher`] for [`Trace::digest`].
#[derive(Clone, Debug)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: Fnv1a = Fnv1a(0xcbf2_9ce4_8422_2325);
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// Integers are folded a word at a time (one multiply each, not one per
/// byte): derived `Hash` impls feed fixed-width fields, and which width
/// arrives where is fixed by the hashed type. A multiply only carries a
/// difference upward, so each word ends with an xor-shift that brings
/// the high half back down — without it, two consecutive fields that
/// differ only in their top bit would cancel exactly.
impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.eat(bytes);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(Self::PRIME);
        self.0 = h ^ (h >> 32);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A bounded event log.
///
/// Once `capacity` entries have been recorded, further entries are counted
/// but not stored, so long random runs cannot exhaust memory. At capacity
/// 0 nothing is stored and every event is digested as it is recorded
/// (see [`Trace::digest`]).
#[derive(Clone, Debug)]
pub struct Trace<M> {
    entries: Vec<TraceEntry>,
    /// The message of every stored `Send` / `Inject`, in entry order.
    payloads: Vec<M>,
    capacity: usize,
    suppressed: u64,
    /// Capacity 0 only: every entry and message recorded so far, folded.
    running: Fnv1a,
}

impl<M> Trace<M> {
    /// Creates a trace that stores at most `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Trace {
            entries: Vec::new(),
            payloads: Vec::new(),
            capacity,
            suppressed: 0,
            running: Fnv1a::OFFSET_BASIS,
        }
    }

    /// Stores `entry` if there is room, otherwise counts it as suppressed;
    /// returns whether it was stored.
    fn push(&mut self, entry: TraceEntry) -> bool {
        let room = self.entries.len() < self.capacity;
        if room {
            self.entries.push(entry);
        } else {
            self.suppressed += 1;
        }
        room
    }

    /// Folds an unstored event into a digest-only trace's running state.
    /// Out of line and cold so that a bounded trace's callers, which
    /// never reach it, keep their hot path as it was.
    #[cold]
    #[inline(never)]
    fn fold<T: Hash>(&mut self, event: T) {
        event.hash(&mut self.running);
    }

    /// Records a `Send` / `Inject` entry with its message: a stored entry
    /// keeps a clone, a digest-only trace folds both, a full one drops
    /// the message.
    #[inline]
    fn push_with(&mut self, entry: TraceEntry, msg: &M)
    where
        M: Clone + Hash,
    {
        if self.push(entry) {
            self.payloads.push(msg.clone());
        } else if self.capacity == 0 {
            self.fold((entry, msg));
        }
    }

    /// Records a payload-free entry (or counts it as suppressed when
    /// full). `Send` and `Inject` go through `Trace::record_send` and
    /// `Trace::record_inject`, which keep the message.
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        debug_assert!(!entry.carries_payload(), "{entry:?} needs its message");
        if !self.push(entry) && self.capacity == 0 {
            self.fold(entry);
        }
    }

    /// Records a send; `msg` is cloned only if the entry is stored, and
    /// hashed only if the trace is digest-only.
    pub(crate) fn record_send(
        &mut self,
        at: SimTime,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
    ) where
        M: Clone + Hash,
    {
        self.push_with(TraceEntry::Send { at, id, from, to }, msg);
    }

    /// Records an injection; `msg` is cloned only if the entry is stored,
    /// and hashed only if the trace is digest-only.
    pub(crate) fn record_inject(&mut self, at: SimTime, to: ProcessId, msg: &M)
    where
        M: Clone + Hash,
    {
        self.push_with(TraceEntry::Inject { at, to }, msg);
    }

    /// The stored entries, in order (without their messages; see
    /// [`Trace::lines`]).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The stored entries, each paired with its message, in order.
    pub fn lines(&self) -> impl Iterator<Item = Line<'_, M>> {
        let mut payloads = self.payloads.iter();
        self.entries.iter().map(move |&entry| Line {
            entry,
            payload: if entry.carries_payload() {
                payloads.next()
            } else {
                None
            },
        })
    }

    /// Number of entries that were recorded but not stored.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// A stable 64-bit fingerprint of the trace: FNV-1a over the rendered
    /// entries plus the suppressed count, streamed — no line is ever
    /// materialised.
    ///
    /// Two runs have equal fingerprints iff their stored traces render
    /// identically — the compact form of the scheduler-equivalence
    /// "byte-identical traces" check, used by replayable counterexample
    /// files to assert that a replay reproduced the original run
    /// event-for-event without embedding the whole trace.
    pub fn fingerprint(&self) -> u64
    where
        M: fmt::Debug,
    {
        use std::fmt::Write as _;
        let mut h = Fnv1a::OFFSET_BASIS;
        for line in self.lines() {
            let _ = writeln!(h, "{line}");
        }
        h.eat(&self.suppressed.to_le_bytes());
        h.0
    }

    /// An *in-process* 64-bit identity of the trace: the stored entries,
    /// their messages and the suppressed count through
    /// [`std::hash::Hash`], no rendering. At capacity 0 it is instead the
    /// running fold of every entry and message ever recorded, in order —
    /// the identity of the whole run, computed while it ran.
    ///
    /// Within one process (same build), equal traces have equal digests,
    /// and unequal traces collide only with the negligible probability
    /// of a 64-bit hash — the same guarantee
    /// [`fingerprint`](Trace::fingerprint) gives, without the render. It
    /// is the cheap witness for "these two runs were event-identical".
    /// The byte stream a derived `Hash` feeds is not a stable format, so
    /// the value must never be written to a file or pinned in a test;
    /// persist the fingerprint instead.
    pub fn digest(&self) -> u64
    where
        M: Hash,
    {
        if self.capacity == 0 {
            return self.running.finish();
        }
        let mut h = Fnv1a::OFFSET_BASIS;
        self.entries.hash(&mut h);
        self.payloads.hash(&mut h);
        h.write_u64(self.suppressed);
        h.finish()
    }

    /// The maximum message-reorder depth observed in the stored entries.
    ///
    /// For each delivery, the depth is the number of messages to the
    /// *same receiver* that were sent earlier and were still in flight
    /// (neither delivered nor dropped) when this one arrived — i.e. how
    /// many older messages this delivery overtook. A FIFO run scores 0;
    /// the adversarial schedules the lower-bound constructions need
    /// score high. Coverage-guided exploration uses the depth as a
    /// schedule-shape signal.
    ///
    /// Computed over the *stored* entries only: a trace that hit its
    /// capacity reports the depth of the recorded prefix.
    pub fn max_reorder_depth(&self) -> u64 {
        use std::collections::BTreeMap;
        // Per-receiver in-flight message ids, in send order.
        let mut inflight: BTreeMap<ProcessId, Vec<MsgId>> = BTreeMap::new();
        // Receiver of each in-flight message (drops name only the id).
        let mut dest: BTreeMap<MsgId, ProcessId> = BTreeMap::new();
        let mut max_depth = 0u64;
        for e in &self.entries {
            match e {
                TraceEntry::Send { id, to, .. } => {
                    inflight.entry(*to).or_default().push(*id);
                    dest.insert(*id, *to);
                }
                TraceEntry::Deliver { id, to, .. } => {
                    if let Some(queue) = inflight.get_mut(to) {
                        if let Some(pos) = queue.iter().position(|m| m == id) {
                            max_depth = max_depth.max(pos as u64);
                            queue.remove(pos);
                            dest.remove(id);
                        }
                    }
                }
                TraceEntry::Drop { id, .. } => {
                    if let Some(to) = dest.remove(id) {
                        if let Some(queue) = inflight.get_mut(&to) {
                            queue.retain(|m| m != id);
                        }
                    }
                }
                TraceEntry::Inject { .. } | TraceEntry::Crash { .. } => {}
            }
        }
        max_depth
    }

    /// Renders the stored entries, one per line.
    pub fn render(&self) -> String
    where
        M: fmt::Debug,
    {
        use std::fmt::Write as _;
        let mut s = String::new();
        for line in self.lines() {
            let _ = writeln!(s, "{line}");
        }
        if self.suppressed > 0 {
            let _ = writeln!(s, "... and {} suppressed entries", self.suppressed);
        }
        s
    }
}

/// The number of entries a trace stores unless its world asks for
/// another bound: [`Trace::default`] and `SimConfig::default()`'s
/// `trace_capacity`. Far above the longest run anything renders whole
/// (a 64-op pinned closed loop stays under 3 000 events), and small
/// enough that a long benchmark run stores a short prefix, not a clone
/// of every message it sent.
pub(crate) const DEFAULT_CAPACITY: usize = 16_384;

impl<M> Default for Trace<M> {
    /// A trace bounded at 16 384 entries: room for the unit tests, the
    /// pinned runs and the gallery example.
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a send of `"x"` at `tick` (m1, p0 → p1).
    fn record_send(t: &mut Trace<&'static str>, tick: u64) {
        t.record_send(
            SimTime::from_ticks(tick),
            MsgId(1),
            ProcessId::new(0),
            ProcessId::new(1),
            &"x",
        );
    }

    #[test]
    fn records_until_capacity_then_counts() {
        let mut t = Trace::with_capacity(2);
        record_send(&mut t, 1);
        record_send(&mut t, 2);
        record_send(&mut t, 3);
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.suppressed(), 1);
        assert_eq!(t.lines().filter_map(|l| l.payload).count(), 2);
    }

    #[test]
    fn disabled_stores_nothing() {
        let mut t = Trace::with_capacity(0);
        record_send(&mut t, 1);
        t.record_inject(SimTime::ZERO, ProcessId::new(0), &"op");
        assert!(t.entries().is_empty());
        assert_eq!(t.lines().count(), 0);
        assert_eq!(t.suppressed(), 2);
    }

    #[test]
    fn entry_time_accessor() {
        let mut t = Trace::default();
        record_send(&mut t, 9);
        assert_eq!(t.entries()[0].at(), SimTime::from_ticks(9));
        let crash = TraceEntry::Crash {
            at: SimTime::from_ticks(3),
            process: ProcessId::new(1),
            sent_before_crash: 0,
        };
        assert_eq!(crash.at(), SimTime::from_ticks(3));
    }

    #[test]
    fn payload_free_entries_are_smaller_than_the_eagerly_rendered_ones() {
        // 48 bytes when `Send` / `Inject` carried a `String`.
        assert!(std::mem::size_of::<TraceEntry>() <= 32);
    }

    /// Both identities of `t`: they must agree on every comparison below.
    fn identities<M: fmt::Debug + Hash>(t: &Trace<M>) -> (u64, u64) {
        (t.fingerprint(), t.digest())
    }

    #[test]
    fn fingerprint_tracks_render() {
        let mut a = Trace::with_capacity(10);
        let mut b = Trace::with_capacity(10);
        record_send(&mut a, 1);
        record_send(&mut b, 1);
        assert_eq!(identities(&a), identities(&b));
        record_send(&mut b, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.digest(), b.digest());
        // Suppression is part of the identity: a full trace that dropped
        // different numbers of entries is a different run.
        let mut c = Trace::with_capacity(1);
        let mut d = Trace::with_capacity(1);
        record_send(&mut c, 1);
        record_send(&mut d, 1);
        record_send(&mut d, 2);
        assert_ne!(c.fingerprint(), d.fingerprint());
        assert_ne!(c.digest(), d.digest());
        // So is every field of a payload, and of a payload-free entry.
        let inject = |payload: (u8, u64)| {
            let mut t = Trace::with_capacity(10);
            t.record_inject(SimTime::ZERO, ProcessId::new(0), &payload);
            t
        };
        assert_eq!(identities(&inject((1, 7))), identities(&inject((1, 7))));
        assert_ne!(inject((1, 7)).fingerprint(), inject((1, 8)).fingerprint());
        assert_ne!(inject((1, 7)).digest(), inject((1, 8)).digest());
        // Two consecutive words differing only in their top bit: the pair
        // a multiply-only word fold cancels.
        let words = |payload: (u64, u64)| {
            let mut t = Trace::with_capacity(10);
            t.record_inject(SimTime::ZERO, ProcessId::new(0), &payload);
            t
        };
        assert_ne!(words((0, 0)).digest(), words((1 << 63, 1 << 63)).digest());
        let dropped = |reason| {
            let mut t = Trace::<()>::with_capacity(10);
            t.record(TraceEntry::Drop {
                at: SimTime::ZERO,
                id: MsgId(1),
                reason,
            });
            t
        };
        let (scripted, crashed) = (
            dropped(DropReason::Scripted),
            dropped(DropReason::ReceiverCrashed),
        );
        assert_ne!(scripted.fingerprint(), crashed.fingerprint());
        assert_ne!(scripted.digest(), crashed.digest());
    }

    #[test]
    fn a_disabled_trace_digests_every_event_and_stores_none() {
        // Sends of `(tick, payload)`, then one delivery at `last`.
        let run = |sends: &[(u64, u64)], last: u64| {
            let mut t = Trace::with_capacity(0);
            for (i, &(tick, payload)) in sends.iter().enumerate() {
                let (at, id) = (SimTime::from_ticks(tick), MsgId(i as u64));
                t.record_send(at, id, ProcessId::new(0), ProcessId::new(1), &payload);
            }
            t.record(TraceEntry::Deliver {
                at: SimTime::from_ticks(last),
                id: MsgId(0),
                from: ProcessId::new(0),
                to: ProcessId::new(1),
            });
            t
        };
        let sends = [(1, 10), (1, 11), (2, 12)];
        let base = run(&sends, 5);
        assert!(base.entries().is_empty());
        assert_eq!(base.suppressed(), 4);
        assert_eq!(base.digest(), run(&sends, 5).digest());
        assert_ne!(base.digest(), run(&sends, 6).digest(), "last entry's time");
        let one_payload = [(1, 10), (1, 99), (2, 12)];
        assert_ne!(base.digest(), run(&one_payload, 5).digest(), "one payload");
        assert_ne!(
            base.digest(),
            run(&sends[..2], 5).digest(),
            "one send fewer"
        );
        assert_ne!(base.digest(), Trace::<u64>::with_capacity(0).digest());
    }

    #[test]
    fn a_bounded_digest_hashes_entries_then_payloads_then_the_suppressed_count() {
        let mut t = Trace::with_capacity(3);
        record_send(&mut t, 1);
        t.record(TraceEntry::Crash {
            at: SimTime::from_ticks(2),
            process: ProcessId::new(2),
            sent_before_crash: 0,
        });
        t.record_inject(SimTime::from_ticks(3), ProcessId::new(1), &"op");
        record_send(&mut t, 4);
        assert_eq!(t.suppressed(), 1);
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        t.entries().hash(&mut h);
        vec!["x", "op"].hash(&mut h);
        h.write_u64(1);
        assert_eq!(t.digest(), h.finish());
    }

    /// Records `id`'s send to `to` and returns its delivery entry.
    fn wire(t: &mut Trace<&'static str>, id: u64, to: u32) -> TraceEntry {
        let (from, to) = (ProcessId::new(0), ProcessId::new(to));
        t.record_send(SimTime::from_ticks(id), MsgId(id), from, to, &"x");
        TraceEntry::Deliver {
            at: SimTime::from_ticks(id + 100),
            id: MsgId(id),
            from,
            to,
        }
    }

    #[test]
    fn fifo_delivery_has_zero_reorder_depth() {
        let mut t = Trace::default();
        let d1 = wire(&mut t, 1, 1);
        let d2 = wire(&mut t, 2, 1);
        t.record(d1);
        t.record(d2);
        assert_eq!(t.max_reorder_depth(), 0);
    }

    #[test]
    fn overtaking_counts_per_receiver() {
        // m1..m3 sent to receiver 1; m3 delivered first (overtakes two),
        // then m1, m2 (in order among what remains).
        let mut t = Trace::default();
        let d1 = wire(&mut t, 1, 1);
        let d2 = wire(&mut t, 2, 1);
        let d3 = wire(&mut t, 3, 1);
        for e in [d3, d1, d2] {
            t.record(e);
        }
        assert_eq!(t.max_reorder_depth(), 2);

        // The same sends split across two receivers never overtake:
        // reordering is per receiver, not global.
        let mut t = Trace::default();
        let d1 = wire(&mut t, 1, 1);
        let d2 = wire(&mut t, 2, 2);
        t.record(d2);
        t.record(d1);
        assert_eq!(t.max_reorder_depth(), 0);
    }

    #[test]
    fn drops_leave_the_inflight_window() {
        // m1 is dropped before m2 arrives: m2 overtakes nothing.
        let mut t = Trace::default();
        wire(&mut t, 1, 1);
        let d2 = wire(&mut t, 2, 1);
        t.record(TraceEntry::Drop {
            at: SimTime::from_ticks(50),
            id: MsgId(1),
            reason: DropReason::Scripted,
        });
        t.record(d2);
        assert_eq!(t.max_reorder_depth(), 0);
    }

    #[test]
    fn render_mentions_suppressed() {
        let mut t = Trace::with_capacity(1);
        record_send(&mut t, 1);
        record_send(&mut t, 2);
        let s = t.render();
        assert!(s.contains("send"));
        assert!(s.contains("suppressed"));
    }

    #[test]
    fn display_formats_each_kind() {
        let mut t = Trace::default();
        record_send(&mut t, 1);
        t.record(TraceEntry::Deliver {
            at: SimTime::ZERO,
            id: MsgId(0),
            from: ProcessId::new(0),
            to: ProcessId::new(1),
        });
        t.record_inject(SimTime::ZERO, ProcessId::new(1), &"op");
        t.record(TraceEntry::Crash {
            at: SimTime::ZERO,
            process: ProcessId::new(2),
            sent_before_crash: 1,
        });
        t.record(TraceEntry::Drop {
            at: SimTime::ZERO,
            id: MsgId(4),
            reason: DropReason::Scripted,
        });
        let payloads: Vec<Option<&&str>> = t.lines().map(|l| l.payload).collect();
        assert_eq!(payloads, [Some(&"x"), None, Some(&"op"), None, None]);
        assert_eq!(
            t.render(),
            "[1] send    m1 p0 -> p1: \"x\"\n\
             [0] deliver m0 p0 -> p1\n\
             [0] inject  -> p1: \"op\"\n\
             [0] crash   p2 (sent 1 of step)\n\
             [0] drop    m4 (Scripted)\n"
        );
        // A caller's format flags never reach the payload.
        let first = t.lines().next().unwrap();
        assert_eq!(format!("{first:#}"), "[1] send    m1 p0 -> p1: \"x\"");
    }
}
