//! The simulated world: actors, the in-transit message set, and steps.
//!
//! Delivery is organized around two data structures: the authoritative
//! in-transit set `mset` (every envelope, addressable by id — the
//! scripted/adversarial API works on this; a send-ordered window, see
//! the `mset` module) and the [`sched::ReadyQueue`]. The window is also
//! the *timed* scheduler's FIFO run: a send ready after every earlier
//! one on the run (all of them under a constant delay) is only appended
//! to the window, O(1) per step; the queue's heap holds the rest,
//! O(log n). Both driving styles funnel into one internal delivery path,
//! so traces, statistics and actor steps are identical whichever style
//! (or mix) drives a run.
//!
//! One timed delivery of an in-order send costs a look at the run's
//! front and the heap's top, taking the envelope out of its window slot
//! (no id lookup), a 32-byte trace entry and the receiver's step; each
//! message the step emits costs a delay sample, a window push and —
//! while the trace has room — one clone into the trace (a digest-only
//! trace, capacity 0, hashes the entry and message instead). An
//! out-of-order send adds a heap push and, when popped, one O(1) id
//! lookup. While some link is blocked, the popped envelope's link is
//! checked too. No message is formatted on this path: payloads are
//! rendered by whoever reads the [`Trace`] (see [`crate::trace`]), and
//! the step's outbox is one buffer lent out again and again.

mod mset;
pub mod sched;

use std::fmt;
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::SeedableRng;

use crate::automaton::{Automaton, Outbox};
use crate::envelope::{Envelope, MsgId};
use crate::fault::CrashState;
use crate::id::ProcessId;
use crate::runner::SimConfig;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::trace::{DropReason, Trace, TraceEntry};

use mset::InTransit;
use sched::ReadyQueue;
pub use sched::{QuiescenceError, SchedStats};

/// Error returned by scripted delivery operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverError {
    /// No in-transit message has the requested id.
    UnknownMessage(MsgId),
    /// The receiver has crashed and cannot take a step.
    ReceiverCrashed(ProcessId),
}

impl fmt::Display for DeliverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliverError::UnknownMessage(id) => write!(f, "no in-transit message {id}"),
            DeliverError::ReceiverCrashed(p) => write!(f, "receiver {p} has crashed"),
        }
    }
}

impl std::error::Error for DeliverError {}

struct Slot<M> {
    automaton: Box<dyn Automaton<Msg = M>>,
    crash: CrashState,
}

/// The paper's system (§2.2) made executable: a set of automata, the
/// in-transit message set `mset`, and a clock.
///
/// A `World` supports two driving styles, freely mixable in one run:
///
/// * **Timed**: [`World::run_until_quiescent`] and [`World::step_timed`]
///   deliver messages in virtual-time order according to the configured
///   [`DelayModel`](crate::delay::DelayModel), taking the earlier of
///   the in-transit window's FIFO run and the [`sched::ReadyQueue`].
/// * **Scripted**: [`World::deliver`] and [`World::deliver_matching`]
///   give a driver complete control over which messages are delivered
///   and which stay in transit — exactly the power the paper's
///   lower-bound adversary has. Scripted removals leave any heap
///   entries behind; the timed scheduler discards them lazily (see the
///   [`sched`] docs for the invalidation rules).
///
/// See the crate-level docs for an end-to-end example.
pub struct World<M> {
    slots: Vec<Slot<M>>,
    mset: InTransit<M>,
    /// The timed scheduler's index of what `mset`'s run does not hold
    /// (lazy invalidation).
    ready: ReadyQueue,
    /// The one outbox buffer: lent to each actor step, drained into
    /// `mset`, and taken back with its capacity.
    outbox_buf: Vec<(ProcessId, M)>,
    next_msg_id: u64,
    now: SimTime,
    rng: StdRng,
    config: SimConfig,
    trace: Trace<M>,
    stats: NetStats,
    /// Directed links currently blocked: messages on them stay in transit
    /// for the timed and random schedulers (scripted delivery can still
    /// force them through — the adversary outranks the network).
    /// Insert/remove/contains only — never iterated, so its internal
    /// order cannot reach a trace or verdict.
    #[allow(clippy::disallowed_types)]
    // fastreg-lint: allow(nondet-order): membership set, insert/remove/contains only, never iterated
    blocked_links: std::collections::HashSet<(ProcessId, ProcessId)>,
}

impl<M: Clone + fmt::Debug + Hash + Send + 'static> World<M> {
    /// Creates an empty world with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        World {
            slots: Vec::new(),
            mset: InTransit::new(),
            ready: ReadyQueue::new(),
            outbox_buf: Vec::new(),
            next_msg_id: 0,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            trace: Trace::with_capacity(config.trace_capacity),
            stats: NetStats::new(),
            config,
            // fastreg-lint: allow(nondet-order): same membership set as the field above
            #[allow(clippy::disallowed_types)]
            blocked_links: std::collections::HashSet::new(),
        }
    }

    /// Adds an actor and runs its `on_start` hook at the current time.
    ///
    /// Returns the id assigned to the actor (dense, in insertion order).
    pub fn add_actor(&mut self, automaton: Box<dyn Automaton<Msg = M>>) -> ProcessId {
        let id = ProcessId::new(self.slots.len() as u32);
        self.slots.push(Slot {
            automaton,
            crash: CrashState::Up,
        });
        let mut out = self.lend_outbox(id);
        self.slots[id.index() as usize].automaton.on_start(&mut out);
        self.absorb_outbox(id, out);
        id
    }

    /// All actor ids, in insertion order.
    pub fn actor_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.slots.len() as u32).map(ProcessId::new)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run trace so far.
    pub fn trace(&self) -> &Trace<M> {
        &self.trace
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Lifetime counters of the timed scheduler (pushes, pops, parks,
    /// heals, high-water, heap pushes).
    pub fn sched_stats(&self) -> sched::SchedStats {
        self.ready.stats()
    }

    /// Borrows the typed state of actor `p`, if it is a `T`.
    ///
    /// Returns `None` if the id is out of range or the actor is not a `T`.
    pub fn with_actor<T: 'static, R, F: FnOnce(&T) -> R>(&self, p: ProcessId, f: F) -> Option<R> {
        self.slots
            .get(p.index() as usize)
            .and_then(|s| s.automaton.as_any().downcast_ref::<T>())
            .map(f)
    }

    // ---------------------------------------------------------------- faults

    /// Crashes `p` immediately. Messages already in transit from `p` stay in
    /// transit; `p` takes no further steps.
    pub fn crash(&mut self, p: ProcessId) {
        if let Some(slot) = self.slots.get_mut(p.index() as usize) {
            if slot.crash.is_up() {
                slot.crash = CrashState::Down(self.now);
                self.trace.record(TraceEntry::Crash {
                    at: self.now,
                    process: p,
                    sent_before_crash: 0,
                });
            }
        }
    }

    /// Arms a mid-broadcast crash: during `p`'s next step, only the first
    /// `k` messages it emits are sent; then `p` crashes.
    pub fn arm_crash_after_sends(&mut self, p: ProcessId, k: usize) {
        if let Some(slot) = self.slots.get_mut(p.index() as usize) {
            if slot.crash.is_up() {
                slot.crash = CrashState::Armed(k);
            }
        }
    }

    /// Returns `true` if `p` has crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.slots
            .get(p.index() as usize)
            .map(|s| !s.crash.is_up())
            .unwrap_or(false)
    }

    // ------------------------------------------------------------ partitions

    /// Blocks the directed link `from → to`: messages on it (current and
    /// future) stay in transit under the timed and random schedulers until
    /// [`World::heal_link`] — the paper's "in transit" made persistent.
    /// Scripted delivery ignores blocks.
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked_links.insert((from, to));
    }

    /// Unblocks a directed link; messages parked on it become deliverable
    /// again (their entries are re-queued in the heap).
    pub fn heal_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked_links.remove(&(from, to));
        self.ready.heal((from, to), self.mset.run_len());
    }

    // ----------------------------------------------------------- injections

    /// Injects a message from the environment into `to`, executing one step
    /// of `to` immediately at the current time.
    ///
    /// This is how operation invocations reach client automata. The message
    /// arrives with `from == ProcessId::EXTERNAL`. If `to` has crashed the
    /// injection is ignored.
    pub fn inject(&mut self, to: ProcessId, msg: M) {
        if self.is_crashed(to) {
            return;
        }
        self.trace.record_inject(self.now, to, &msg);
        self.stats.record_injection();
        self.step_actor(to, ProcessId::EXTERNAL, msg);
    }

    /// Places an envelope in transit from `from` to `to` without `from`
    /// taking a step. Useful for tests that need hand-crafted traffic.
    pub fn send_from_external(&mut self, from: ProcessId, to: ProcessId, msg: M) -> MsgId {
        self.enqueue(from, to, msg)
    }

    // ----------------------------------------------------- scripted control

    /// All in-transit envelopes, in send order.
    pub fn pending(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.mset.iter()
    }

    /// Number of in-transit messages.
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.mset.len()
    }

    /// Ids of in-transit envelopes satisfying `pred`, in send order.
    pub fn pending_ids_matching<F: Fn(&Envelope<M>) -> bool>(&self, pred: F) -> Vec<MsgId> {
        self.mset.iter().filter(|e| pred(e)).map(|e| e.id).collect()
    }

    /// Delivers one in-transit message as a step `<to, {m}>` of its
    /// receiver, at the current time.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown or the receiver has crashed (a crashed
    /// process takes no steps; the message would stay in transit).
    pub fn deliver(&mut self, id: MsgId) -> Result<(), DeliverError> {
        let slot = self
            .mset
            .slot_of(id)
            .ok_or(DeliverError::UnknownMessage(id))?;
        let to = self.mset.at(slot).to;
        if self.is_crashed(to) {
            return Err(DeliverError::ReceiverCrashed(to));
        }
        let env = self.mset.take(slot);
        self.deliver_env(env);
        Ok(())
    }

    /// Delivers every currently in-transit message matching `pred`, in send
    /// order, skipping messages to crashed receivers. Messages *sent as a
    /// consequence* of these deliveries are not themselves delivered.
    ///
    /// Returns the number of messages delivered.
    pub fn deliver_matching<F: Fn(&Envelope<M>) -> bool>(&mut self, pred: F) -> usize {
        let ids = self.pending_ids_matching(pred);
        let mut delivered = 0;
        for id in ids {
            if self.deliver(id).is_ok() {
                delivered += 1;
            }
        }
        delivered
    }

    /// Delivers every in-transit message addressed to `to` (snapshot).
    pub fn deliver_all_to(&mut self, to: ProcessId) -> usize {
        self.deliver_matching(|e| e.to == to)
    }

    /// Drops (discards) every in-transit message matching `pred`.
    ///
    /// Reliable channels never lose messages on their own; this exists for
    /// adversarial scripts. Returns the number dropped.
    pub fn drop_matching<F: Fn(&Envelope<M>) -> bool>(&mut self, pred: F) -> usize {
        let ids = self.pending_ids_matching(pred);
        for id in &ids {
            self.mset.remove(*id);
            self.trace.record(TraceEntry::Drop {
                at: self.now,
                id: *id,
                reason: DropReason::Scripted,
            });
            self.stats.record_drop();
        }
        ids.len()
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Does nothing if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    // -------------------------------------------------------- timed running

    /// Takes the next entry off the schedule — the smaller of the run's
    /// first envelope and the heap's top — and returns its `mset` slot.
    /// Stale heap entries (scripted removals, drops) are discarded, and
    /// entries on blocked links are parked until [`World::heal_link`],
    /// so the slot holds an in-transit envelope on an open link.
    fn next_unblocked(&mut self) -> Option<usize> {
        loop {
            let run = self
                .mset
                .run_front()
                .filter(|&(_, key)| self.ready.peek().is_none_or(|top| key < top));
            let slot = if let Some((slot, _)) = run {
                self.ready.count_run_pop();
                slot
            } else {
                let (_, id) = self.ready.pop()?;
                match self.mset.slot_of(id) {
                    Some(slot) => slot,
                    None => continue, // stale: already delivered or dropped
                }
            };
            if !self.blocked_links.is_empty() {
                let env = self.mset.at(slot);
                let (link, entry) = ((env.from, env.to), (env.ready_at, env.id));
                if self.blocked_links.contains(&link) {
                    self.mset.leave_run(slot);
                    self.ready.park(link, entry);
                    continue;
                }
            }
            return Some(slot);
        }
    }

    /// Delivers the next message in virtual-time order, advancing the clock
    /// to its ready time. Messages to crashed receivers are dropped (they
    /// would never be consumed).
    ///
    /// Returns `false` if nothing was deliverable.
    ///
    /// This takes the earlier of the in-transit window's run front and
    /// the [`sched::ReadyQueue`]'s heap top — O(1) when messages are
    /// ready in send order, O(log n) in the in-transit pool size
    /// otherwise — rather than scanning `mset`. A run envelope comes out
    /// of its slot with no id lookup; a heap entry costs one.
    pub fn step_timed(&mut self) -> bool {
        while let Some(slot) = self.next_unblocked() {
            let env = self.mset.take(slot);
            if env.ready_at > self.now {
                self.now = env.ready_at;
            }
            if self.is_crashed(env.to) {
                self.trace.record(TraceEntry::Drop {
                    at: self.now,
                    id: env.id,
                    reason: DropReason::ReceiverCrashed,
                });
                self.stats.record_drop();
                continue;
            }
            self.deliver_env(env);
            return true;
        }
        false
    }

    /// Runs timed steps until no message is deliverable or the step budget
    /// ([`SimConfig::max_steps`]) is exhausted.
    ///
    /// Returns the number of steps taken.
    ///
    /// # Errors
    ///
    /// Returns a [`QuiescenceError`] if the budget is exhausted while
    /// messages remain deliverable — that indicates a protocol that never
    /// quiesces, which is a bug in the caller's setup rather than a
    /// legitimate outcome.
    pub fn run_until_quiescent(&mut self) -> Result<u64, QuiescenceError> {
        let mut steps = 0;
        while steps < self.config.max_steps {
            if !self.step_timed() {
                return Ok(steps);
            }
            steps += 1;
        }
        if self
            .mset
            .iter()
            .any(|e| !self.is_crashed(e.to) && !self.blocked_links.contains(&(e.from, e.to)))
        {
            return Err(QuiescenceError {
                steps,
                in_transit: self.mset.len(),
            });
        }
        Ok(steps)
    }

    /// Delivers one uniformly random deliverable in-transit message,
    /// ignoring ready times (pure interleaving exploration; the clock still
    /// advances by one tick per step so histories have distinct times).
    ///
    /// Returns `false` if nothing was deliverable.
    pub fn step_random(&mut self) -> bool {
        let crashed: Vec<bool> = self.slots.iter().map(|s| !s.crash.is_up()).collect();
        let blocked = &self.blocked_links;
        let choice = self
            .mset
            .iter()
            .filter(|e| {
                !crashed.get(e.to.index() as usize).copied().unwrap_or(false)
                    && !blocked.contains(&(e.from, e.to))
            })
            .map(|e| e.id)
            .choose(&mut self.rng);
        match choice {
            Some(id) => {
                self.now += 1;
                self.deliver(id).expect("selected deliverable");
                true
            }
            None => false,
        }
    }

    /// Runs random steps until nothing is deliverable or the step budget is
    /// exhausted. Returns the number of steps taken.
    pub fn run_random_until_quiescent(&mut self) -> u64 {
        let mut steps = 0;
        while steps < self.config.max_steps {
            if !self.step_random() {
                return steps;
            }
            steps += 1;
        }
        steps
    }

    // ------------------------------------------------------------ internals

    fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: M) -> MsgId {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;
        let delay = self.config.delay.sample(from, to, &mut self.rng);
        self.trace.record_send(self.now, id, from, to, &msg);
        self.stats.record_send();
        let env = Envelope {
            id,
            from,
            to,
            sent_at: self.now,
            ready_at: self.now + delay,
            msg,
        };
        let entry = (env.ready_at, id);
        let on_run = self.mset.insert(env);
        self.ready.schedule(entry, on_run, self.mset.run_len());
        id
    }

    /// The single delivery path shared by the timed, random and scripted
    /// styles: trace, stats, then the receiver's step. The envelope must
    /// already be out of `mset` (any heap or parked entry left behind for
    /// it is handled by lazy invalidation).
    fn deliver_env(&mut self, env: Envelope<M>) {
        self.trace.record(TraceEntry::Deliver {
            at: self.now,
            id: env.id,
            from: env.from,
            to: env.to,
        });
        self.stats.record_delivery();
        self.step_actor(env.to, env.from, env.msg);
    }

    /// An outbox for a step of `p` now, backed by the world's one buffer
    /// (`absorb_outbox` takes it back).
    fn lend_outbox(&mut self, p: ProcessId) -> Outbox<'static, M> {
        Outbox::with_buffer(p, self.now, std::mem::take(&mut self.outbox_buf))
    }

    fn step_actor(&mut self, p: ProcessId, from: ProcessId, msg: M) {
        let mut out = self.lend_outbox(p);
        self.slots[p.index() as usize]
            .automaton
            .on_message(from, msg, &mut out);
        self.absorb_outbox(p, out);
    }

    fn absorb_outbox(&mut self, p: ProcessId, out: Outbox<'static, M>) {
        let mut msgs = out.into_messages();
        let slot = &mut self.slots[p.index() as usize];
        if let CrashState::Armed(k) = slot.crash {
            let kept = k.min(msgs.len());
            msgs.truncate(kept);
            slot.crash = CrashState::Down(self.now);
            self.trace.record(TraceEntry::Crash {
                at: self.now,
                process: p,
                sent_before_crash: kept,
            });
        }
        for (to, msg) in msgs.drain(..) {
            self.enqueue(p, to, msg);
        }
        self.outbox_buf = msgs;
    }
}

#[cfg(test)]
mod scheduler_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;

    #[derive(Clone, Debug, PartialEq, Hash)]
    enum Msg {
        Hello,
        ReplyAll,
        Ack,
    }

    /// Replies `Ack` to `Hello`; on `ReplyAll`, broadcasts `Hello` to every
    /// other process id below `n`.
    struct Node {
        n: u32,
        acks: usize,
        hellos: usize,
    }

    impl Node {
        fn new(n: u32) -> Self {
            Node {
                n,
                acks: 0,
                hellos: 0,
            }
        }
    }

    impl Automaton for Node {
        type Msg = Msg;

        fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            match msg {
                Msg::Hello => {
                    self.hellos += 1;
                    out.send(from, Msg::Ack);
                }
                Msg::Ack => self.acks += 1,
                Msg::ReplyAll => {
                    let me = out.this();
                    out.broadcast(
                        (0..self.n).map(ProcessId::new).filter(|&q| q != me),
                        Msg::Hello,
                    );
                }
            }
        }
    }

    fn world_of(n: u32) -> (World<Msg>, Vec<ProcessId>) {
        let mut w = World::new(SimConfig::default());
        let ids = (0..n)
            .map(|_| w.add_actor(Box::new(Node::new(n))))
            .collect();
        (w, ids)
    }

    #[test]
    fn inject_and_quiesce() {
        let (mut w, ids) = world_of(4);
        w.inject(ids[0], Msg::ReplyAll);
        let steps = w.run_until_quiescent().expect("quiesces");
        // 3 hellos + 3 acks delivered.
        assert_eq!(steps, 6);
        assert_eq!(w.with_actor::<Node, _, _>(ids[0], |n| n.acks).unwrap(), 3);
        for &r in &ids[1..] {
            assert_eq!(w.with_actor::<Node, _, _>(r, |n| n.hellos).unwrap(), 1);
        }
        assert_eq!(w.stats().sent, 6);
        assert_eq!(w.stats().delivered, 6);
        assert_eq!(w.stats().in_transit(), 0);
    }

    #[test]
    fn scripted_delivery_controls_order() {
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        // Two hellos in transit; deliver only the one to ids[2].
        let to2 = w.pending_ids_matching(|e| e.to == ids[2]);
        assert_eq!(to2.len(), 1);
        w.deliver(to2[0]).unwrap();
        assert_eq!(w.with_actor::<Node, _, _>(ids[2], |n| n.hellos).unwrap(), 1);
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 0);
        // The hello to ids[1] and the ack from ids[2] are still in transit.
        assert_eq!(w.pending_len(), 2);
    }

    #[test]
    fn timed_steps_skip_entries_invalidated_by_scripted_delivery() {
        // Scripted delivery leaves a tombstone on the run; the timed
        // scheduler must skip it and still deliver everything else.
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        let to2 = w.pending_ids_matching(|e| e.to == ids[2]);
        w.deliver(to2[0]).unwrap();
        let steps = w.run_until_quiescent().expect("quiesces");
        // hello->p1, ack(p2)->p0, ack(p1)->p0.
        assert_eq!(steps, 3);
        assert_eq!(w.pending_len(), 0);
        assert_eq!(w.stats().delivered, 4);
    }

    #[test]
    fn deliver_unknown_id_fails() {
        let (mut w, _) = world_of(2);
        assert_eq!(
            w.deliver(MsgId(99)),
            Err(DeliverError::UnknownMessage(MsgId(99)))
        );
    }

    #[test]
    fn crash_stops_steps_and_drops_timed_deliveries() {
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        w.crash(ids[1]);
        let steps = w.run_until_quiescent().expect("quiesces");
        // hello->p2, ack->p0 delivered; hello->p1 dropped.
        assert_eq!(steps, 2);
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 0);
        assert_eq!(w.stats().dropped, 1);
        assert!(w.is_crashed(ids[1]));
        assert!(w.is_crashed(ids[1]));
    }

    #[test]
    fn scripted_deliver_to_crashed_receiver_fails() {
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        let to1 = w.pending_ids_matching(|e| e.to == ids[1]);
        w.crash(ids[1]);
        assert_eq!(
            w.deliver(to1[0]),
            Err(DeliverError::ReceiverCrashed(ids[1]))
        );
        // Message stays in transit (paper semantics).
        assert_eq!(w.pending_len(), 2);
    }

    #[test]
    fn injection_to_crashed_actor_is_ignored() {
        let (mut w, ids) = world_of(2);
        w.crash(ids[0]);
        w.inject(ids[0], Msg::ReplyAll);
        assert_eq!(w.pending_len(), 0);
    }

    #[test]
    fn mid_broadcast_crash_sends_prefix_only() {
        let (mut w, ids) = world_of(5);
        w.arm_crash_after_sends(ids[0], 2);
        w.inject(ids[0], Msg::ReplyAll);
        // Broadcast to 4 peers truncated to 2 messages.
        assert_eq!(w.pending_len(), 2);
        assert!(w.is_crashed(ids[0]));
        let tos: Vec<ProcessId> = w.pending().map(|e| e.to).collect();
        assert_eq!(tos, vec![ids[1], ids[2]]);
    }

    #[test]
    fn mid_broadcast_crash_with_zero_sends() {
        let (mut w, ids) = world_of(3);
        w.arm_crash_after_sends(ids[0], 0);
        w.inject(ids[0], Msg::ReplyAll);
        assert_eq!(w.pending_len(), 0);
        assert!(w.is_crashed(ids[0]));
    }

    #[test]
    fn deliver_matching_snapshot_does_not_chase_new_sends() {
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        // Delivering the hellos triggers acks, which must not be delivered
        // by the same call.
        let n = w.deliver_matching(|e| matches!(e.msg, Msg::Hello));
        assert_eq!(n, 2);
        assert_eq!(w.pending_len(), 2); // the two acks
        assert!(w.pending().all(|e| matches!(e.msg, Msg::Ack)));
    }

    #[test]
    fn drop_matching_discards() {
        let (mut w, ids) = world_of(3);
        w.inject(ids[0], Msg::ReplyAll);
        let n = w.drop_matching(|e| e.to == ids[1]);
        assert_eq!(n, 1);
        assert_eq!(w.pending_len(), 1);
        assert_eq!(w.stats().dropped, 1);
    }

    #[test]
    fn timed_clock_advances_with_delay_model() {
        let mut w: World<Msg> = World::new(SimConfig {
            delay: DelayModel::Constant(10),
            ..SimConfig::default()
        });
        let a = w.add_actor(Box::new(Node::new(2)));
        let b = w.add_actor(Box::new(Node::new(2)));
        w.send_from_external(a, b, Msg::Hello);
        assert_eq!(w.now(), SimTime::ZERO);
        w.step_timed();
        assert_eq!(w.now(), SimTime::from_ticks(10));
        // Ack goes back with another 10 ticks of delay.
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(w.now(), SimTime::from_ticks(20));
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut w: World<Msg> = World::new(SimConfig {
                seed,
                delay: DelayModel::Uniform { lo: 1, hi: 50 },
                ..SimConfig::default()
            });
            let ids: Vec<ProcessId> = (0..4)
                .map(|_| w.add_actor(Box::new(Node::new(4))))
                .collect();
            w.inject(ids[0], Msg::ReplyAll);
            w.run_until_quiescent().expect("quiesces");
            w.trace().render()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_stepping_quiesces() {
        let (mut w, ids) = world_of(6);
        w.inject(ids[0], Msg::ReplyAll);
        let steps = w.run_random_until_quiescent();
        assert_eq!(steps, 10); // 5 hellos + 5 acks
        assert_eq!(w.with_actor::<Node, _, _>(ids[0], |n| n.acks).unwrap(), 5);
    }

    #[test]
    fn with_actor_wrong_type_is_none() {
        let (w, ids) = world_of(2);
        assert!(w.with_actor::<String, _, _>(ids[0], |_| ()).is_none());
    }

    #[test]
    fn with_actor_out_of_range_is_none() {
        let (w, _) = world_of(2);
        assert!(w
            .with_actor::<Node, _, _>(ProcessId::new(99), |_| ())
            .is_none());
    }

    #[test]
    fn actor_ids_enumerates() {
        let (w, ids) = world_of(3);
        let listed: Vec<ProcessId> = w.actor_ids().collect();
        assert_eq!(listed, ids);
    }

    #[test]
    fn blocked_links_park_messages() {
        let (mut w, ids) = world_of(3);
        w.block_link(ids[0], ids[1]);
        w.inject(ids[0], Msg::ReplyAll);
        let steps = w.run_until_quiescent().expect("quiesces");
        // Only the hello to ids[2] and its ack flow; the hello to ids[1]
        // stays in transit (not dropped).
        assert_eq!(steps, 2);
        assert_eq!(w.pending_len(), 1);
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 0);

        // Healing releases the parked message.
        w.heal_link(ids[0], ids[1]);
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 1);
        assert_eq!(w.pending_len(), 0);
    }

    #[test]
    fn scripted_delivery_overrides_blocks() {
        let (mut w, ids) = world_of(2);
        w.block_link(ids[0], ids[1]);
        w.send_from_external(ids[0], ids[1], Msg::Hello);
        // Timed scheduler refuses...
        assert!(!w.step_timed());
        // ...but the adversary can force it.
        let held = w.pending_ids_matching(|e| e.to == ids[1]);
        w.deliver(held[0]).unwrap();
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 1);
    }

    #[test]
    fn heal_after_scripted_delivery_discards_the_stale_parked_entry() {
        // Force-deliver across a blocked link (the run entry is parked),
        // then heal: the re-queued entry is stale and must be
        // skipped without a double delivery.
        let (mut w, ids) = world_of(2);
        w.block_link(ids[0], ids[1]);
        w.send_from_external(ids[0], ids[1], Msg::Hello);
        assert!(!w.step_timed()); // parks the entry
        let held = w.pending_ids_matching(|e| e.to == ids[1]);
        w.deliver(held[0]).unwrap();
        w.heal_link(ids[0], ids[1]);
        // Only the ack from ids[1] remains deliverable.
        assert!(w.step_timed());
        assert!(!w.step_timed());
        assert_eq!(w.stats().delivered, 2);
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 1);
    }

    #[test]
    fn partition_and_heal_groups() {
        let (mut w, ids) = world_of(4);
        let links: Vec<(ProcessId, ProcessId)> = [ids[0], ids[1]]
            .into_iter()
            .flat_map(|a| {
                [ids[2], ids[3]]
                    .into_iter()
                    .flat_map(move |b| [(a, b), (b, a)])
            })
            .collect();
        for &(a, b) in &links {
            w.block_link(a, b);
        }
        w.inject(ids[0], Msg::ReplyAll);
        w.run_until_quiescent().expect("quiesces");
        // Hellos reached only the same-side peer.
        assert_eq!(w.with_actor::<Node, _, _>(ids[1], |n| n.hellos).unwrap(), 1);
        assert_eq!(w.with_actor::<Node, _, _>(ids[2], |n| n.hellos).unwrap(), 0);
        assert_eq!(w.with_actor::<Node, _, _>(ids[3], |n| n.hellos).unwrap(), 0);
        for &(a, b) in &links {
            w.heal_link(a, b);
        }
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(w.with_actor::<Node, _, _>(ids[2], |n| n.hellos).unwrap(), 1);
        assert_eq!(w.with_actor::<Node, _, _>(ids[3], |n| n.hellos).unwrap(), 1);
    }

    /// Two actors that ping-pong forever.
    struct Forever;
    impl Automaton for Forever {
        type Msg = Msg;
        fn on_message(&mut self, from: ProcessId, _m: Msg, out: &mut Outbox<Msg>) {
            out.send(from, Msg::Hello);
        }
    }

    fn livelocked_world() -> World<Msg> {
        let mut w: World<Msg> = World::new(SimConfig {
            max_steps: 100,
            ..SimConfig::default()
        });
        let a = w.add_actor(Box::new(Forever));
        let b = w.add_actor(Box::new(Forever));
        w.send_from_external(a, b, Msg::Hello);
        w
    }

    #[test]
    fn livelock_returns_typed_quiescence_error() {
        let mut w = livelocked_world();
        let err = w.run_until_quiescent().unwrap_err();
        assert_eq!(err.steps, 100);
        assert_eq!(err.in_transit, 1); // the ping-pong ball
        assert!(err.to_string().contains("did not quiesce"));
    }
}
