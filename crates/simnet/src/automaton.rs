//! The per-process automaton trait and its output collector.
//!
//! An [`Automaton`] is the code `A_p` the paper assigns to process `p` (§2.2).
//! A step `<p, M>` delivers a message set `M`; the automaton atomically
//! updates its state and emits output messages through an [`Outbox`]. The
//! same automaton type runs unchanged under the discrete-event
//! [`World`](crate::world::World) and the wall-clock threads runtime
//! (`fastreg_rt`).

use std::any::Any;
use std::cell::Cell;
use std::fmt;

use crate::id::ProcessId;
use crate::time::SimTime;

/// Blanket downcast support so a [`World`](crate::world::World) can hand
/// tests a typed view of an actor's state via
/// [`World::with_actor`](crate::world::World::with_actor).
pub trait Downcast: Any {
    /// Borrows `self` as [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// Mutably borrows `self` as [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> Downcast for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A deterministic message-driven state machine: the paper's automaton `A_p`.
///
/// Implementations must be deterministic functions of `(state, from, msg)`:
/// all nondeterminism in a run comes from the scheduler, never from the
/// automaton. This is what makes simulated runs reproducible and the paper's
/// indistinguishability arguments (two runs delivering the same messages to
/// `p` leave `p` in the same state) directly executable.
///
/// # Examples
///
/// ```
/// use fastreg_simnet::automaton::{Automaton, Outbox};
/// use fastreg_simnet::id::ProcessId;
///
/// /// Echoes every message back to its sender.
/// struct Echo;
///
/// impl Automaton for Echo {
///     type Msg = String;
///     fn on_message(&mut self, from: ProcessId, msg: String, out: &mut Outbox<String>) {
///         out.send(from, msg);
///     }
/// }
/// ```
pub trait Automaton: Downcast + Send {
    /// The message alphabet of this automaton.
    type Msg: Clone + std::fmt::Debug + Send + 'static;

    /// Called once when the world starts, before any message is delivered.
    ///
    /// The default does nothing; override to send initial messages.
    fn on_start(&mut self, out: &mut Outbox<'_, Self::Msg>) {
        let _ = out;
    }

    /// Handles one delivered message. Corresponds to a step `<p, {m}>`.
    ///
    /// Messages injected by the environment (operation invocations) arrive
    /// with `from == ProcessId::EXTERNAL`.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<'_, Self::Msg>);
}

/// A step's time read from a clock at most once: the first
/// [`Outbox::now`] of the step reads it, and every later call — on the
/// step's outbox or on any [`Outbox::scratch`] of it — returns that
/// reading. A wall-clock runtime builds one per step, so a step that
/// never asks for the time never reads the clock, and asks
/// [`LazyNow::reading`] afterwards whether it did.
pub struct LazyNow<'c> {
    clock: &'c dyn Fn() -> SimTime,
    reading: Cell<Option<SimTime>>,
}

impl<'c> LazyNow<'c> {
    /// A step time that `clock` will supply when first asked.
    pub fn new(clock: &'c dyn Fn() -> SimTime) -> Self {
        LazyNow {
            clock,
            reading: Cell::new(None),
        }
    }

    /// The step's time: the clock's reading, taken now if this is the
    /// first ask.
    fn get(&self) -> SimTime {
        self.reading.get().unwrap_or_else(|| {
            let now = (self.clock)();
            self.reading.set(Some(now));
            now
        })
    }

    /// The reading, if the step has asked for the time.
    pub fn reading(&self) -> Option<SimTime> {
        self.reading.get()
    }
}

impl fmt::Debug for LazyNow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyNow")
            .field("reading", &self.reading.get())
            .finish_non_exhaustive()
    }
}

/// Where a step's time comes from.
#[derive(Clone, Copy, Debug)]
enum StepTime<'t> {
    /// Virtual time: a plain value, fixed before the step.
    At(SimTime),
    /// Wall-clock time, read when the step first asks.
    Lazy(&'t LazyNow<'t>),
}

/// Collects the messages an automaton emits during one step, and exposes the
/// current time to the automaton.
///
/// The runtime moves the collected messages into the in-transit set after the
/// step completes — mirroring the paper's atomic step semantics, with one
/// deliberate exception: a crash fault may be injected *after a prefix of the
/// sends* ([`CrashState::Armed`](crate::fault::CrashState::Armed)),
/// because the paper requires algorithms to tolerate a process crashing
/// mid-broadcast.
///
/// `'t` is the lifetime of the step's [`LazyNow`] on a wall-clock runtime;
/// an outbox with a fixed time is `Outbox<'static, M>`.
#[derive(Debug)]
pub struct Outbox<'t, M> {
    time: StepTime<'t>,
    this: ProcessId,
    msgs: Vec<(ProcessId, M)>,
}

impl<M> Outbox<'static, M> {
    /// Creates an outbox for a step taken by `this` at time `now`.
    pub fn new(this: ProcessId, now: SimTime) -> Self {
        Self::with_buffer(this, now, Vec::new())
    }

    /// [`Outbox::new`] over a caller-owned buffer, so a runtime that takes
    /// one step at a time can lend the same allocation to every step and
    /// get it back from [`Outbox::into_messages`]. Anything still in the
    /// buffer is discarded: an outbox starts its step empty.
    pub fn with_buffer(this: ProcessId, now: SimTime, msgs: Vec<(ProcessId, M)>) -> Self {
        Outbox::starting(this, StepTime::At(now), msgs)
    }
}

impl<'t, M> Outbox<'t, M> {
    /// [`Outbox::with_buffer`] for a step whose time is read from a clock
    /// only if the step asks for it ([`Outbox::now`]).
    pub fn with_lazy_now(this: ProcessId, now: &'t LazyNow<'t>, msgs: Vec<(ProcessId, M)>) -> Self {
        Outbox::starting(this, StepTime::Lazy(now), msgs)
    }

    fn starting(this: ProcessId, time: StepTime<'t>, mut msgs: Vec<(ProcessId, M)>) -> Self {
        msgs.clear();
        Outbox { time, this, msgs }
    }

    /// An empty outbox for the same step: same process, same time. A
    /// wrapper runs an inner automaton into it and forwards what it
    /// sends; the step still reads a wall clock at most once, and not at
    /// all if neither asks.
    pub fn scratch(&self) -> Self {
        Outbox {
            time: self.time,
            this: self.this,
            msgs: Vec::new(),
        }
    }

    /// The current time: virtual under simulation; under the threaded
    /// runtime, wall-clock ticks read the first time the step asks.
    pub fn now(&self) -> SimTime {
        match self.time {
            StepTime::At(now) => now,
            StepTime::Lazy(now) => now.get(),
        }
    }

    /// The id of the process taking this step.
    pub fn this(&self) -> ProcessId {
        self.this
    }

    /// Queues a message to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues the same message to every id in `targets`, in order.
    ///
    /// Order matters: crash injection can cut a broadcast after any prefix.
    pub fn broadcast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for to in targets {
            self.msgs.push((to, msg.clone()));
        }
    }

    /// Number of messages queued so far in this step.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Returns `true` if no messages have been queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Consumes the outbox, returning the queued `(to, msg)` pairs in send
    /// order.
    pub fn into_messages(self) -> Vec<(ProcessId, M)> {
        self.msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<u32> = Outbox::new(ProcessId::new(0), SimTime::ZERO);
        out.send(ProcessId::new(1), 10);
        out.send(ProcessId::new(2), 20);
        assert_eq!(out.len(), 2);
        let msgs = out.into_messages();
        assert_eq!(msgs, vec![(ProcessId::new(1), 10), (ProcessId::new(2), 20)]);
    }

    #[test]
    fn broadcast_clones_to_each_target() {
        let mut out: Outbox<&'static str> = Outbox::new(ProcessId::new(0), SimTime::ZERO);
        out.broadcast((1..4).map(ProcessId::new), "hi");
        let msgs = out.into_messages();
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().all(|(_, m)| *m == "hi"));
        assert_eq!(msgs[0].0, ProcessId::new(1));
        assert_eq!(msgs[2].0, ProcessId::new(3));
    }

    #[test]
    fn outbox_reports_time_and_self() {
        let out: Outbox<u32> = Outbox::new(ProcessId::new(9), SimTime::from_ticks(77));
        assert_eq!(out.now().ticks(), 77);
        assert_eq!(out.this(), ProcessId::new(9));
        assert!(out.is_empty());
    }

    /// A clock that counts its reads and answers 10, 20, 30, …
    fn counting_clock(reads: &Cell<u64>) -> impl Fn() -> SimTime + '_ {
        move || {
            reads.set(reads.get() + 1);
            SimTime::from_ticks(10 * reads.get())
        }
    }

    #[test]
    fn a_lazy_outbox_reads_its_clock_once_and_only_when_asked() {
        let reads = Cell::new(0);
        let clock = counting_clock(&reads);
        let now = LazyNow::new(&clock);
        let mut out = Outbox::with_lazy_now(ProcessId::new(3), &now, vec![(ProcessId::new(1), 5)]);
        assert!(out.is_empty(), "a lent buffer starts empty");
        out.send(ProcessId::new(2), 6);
        assert_eq!((reads.get(), now.reading()), (0, None), "not asked yet");
        assert_eq!(out.now().ticks(), 10);
        assert_eq!(out.now().ticks(), 10, "the same step, the same reading");
        assert_eq!(
            (reads.get(), now.reading()),
            (1, Some(SimTime::from_ticks(10)))
        );
        assert_eq!(out.into_messages(), vec![(ProcessId::new(2), 6)]);
    }

    #[test]
    fn a_scratch_outbox_shares_its_steps_time() {
        let reads = Cell::new(0);
        let clock = counting_clock(&reads);
        let now = LazyNow::new(&clock);
        let mut out = Outbox::with_lazy_now(ProcessId::new(4), &now, Vec::new());
        let mut inner = out.scratch();
        assert_eq!(inner.this(), ProcessId::new(4));
        inner.send(ProcessId::new(1), 7);
        assert_eq!(reads.get(), 0, "making and filling a scratch reads nothing");
        assert_eq!(inner.now().ticks(), 10);
        for (to, msg) in inner.into_messages() {
            out.send(to, msg);
        }
        assert_eq!(
            out.now().ticks(),
            10,
            "the outer outbox sees the inner reading"
        );
        assert_eq!(reads.get(), 1);
        assert_eq!(out.into_messages(), vec![(ProcessId::new(1), 7)]);

        let fixed: Outbox<u8> = Outbox::new(ProcessId::new(0), SimTime::from_ticks(5));
        assert_eq!(fixed.scratch().now().ticks(), 5);
    }

    #[test]
    fn downcast_blanket_impl() {
        struct S(u8);
        impl Automaton for S {
            type Msg = ();
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Outbox<()>) {}
        }
        let mut d: Box<dyn Automaton<Msg = ()>> = Box::new(S(5));
        assert_eq!((*d).as_any().downcast_ref::<S>().unwrap().0, 5);
        (*d).as_any_mut().downcast_mut::<S>().unwrap().0 = 6;
        assert_eq!((*d).as_any().downcast_ref::<S>().unwrap().0, 6);
    }
}
