//! # fastreg-simnet
//!
//! A deterministic discrete-event simulator of the asynchronous
//! message-passing model used by *How Fast can a Distributed Atomic Read
//! be?* (PODC 2004). It spawns no threads: fanning independent worlds out
//! over threads is `fastreg_rt::threaded`'s job.
//!
//! ## The model
//!
//! The paper's system model (§2) is an asynchronous message-passing system:
//! computation proceeds in *steps* `<p, M>` in which process `p` atomically
//! removes a set of messages `M` addressed to it from the global in-transit
//! set `mset`, applies `M` and its current state to its automaton, adopts the
//! new state, and adds the output messages to `mset`. Channels are reliable
//! and bidirectional; any number of clients and up to `t` servers may crash;
//! in the arbitrary-failure model up to `b ≤ t` servers may behave
//! maliciously.
//!
//! This crate realizes that model exactly:
//!
//! * [`automaton::Automaton`] is the per-process automaton `A_p`.
//! * [`world::World`] holds `mset` (the in-transit pool) and executes steps.
//!   Two driving styles coexist:
//!   - **timed**: each message gets a delivery time from a [`delay::DelayModel`]
//!     and steps fire in virtual-time order ([`run_until_quiescent`](world::World::run_until_quiescent)),
//!     popped from an indexed event queue ([`world::sched`]) in O(1) per
//!     step while messages are ready in send order, O(log n) otherwise;
//!   - **scripted**: a driver (test or adversary) picks exactly which
//!     in-transit messages are delivered and when ([`deliver`](world::World::deliver),
//!     [`deliver_matching`](world::World::deliver_matching)), which is how the paper's
//!     lower-bound partial runs are constructed.
//!
//!   Both styles converge on one internal delivery path (trace entry,
//!   statistics, receiver step), so a run that mixes them — deliver a few
//!   messages by hand, then let the clock finish the round — records
//!   exactly the same kind of evidence as a purely timed one. Scripted
//!   removals simply leave stale index entries behind for the timed
//!   scheduler to discard lazily; see the [`world::sched`] docs for the
//!   invalidation rules.
//! * [`fault`] injects crashes, including crashing a process *in the middle
//!   of a broadcast* after an arbitrary prefix of sends — the paper is
//!   explicit that algorithms must tolerate this (§4, correctness preamble).
//! * [`byz`] holds the protocol-agnostic Byzantine actor, [`byz::Mute`].
//! * [`trace::Trace`] records every send/deliver/crash for debugging and for
//!   rendering the proof constructions.
//!
//! ## Example
//!
//! ```
//! use fastreg_simnet::prelude::*;
//!
//! #[derive(Clone, Debug, Hash)]
//! enum Msg { Ping, Pong }
//!
//! struct Ponger;
//! impl Automaton for Ponger {
//!     type Msg = Msg;
//!     fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
//!         if matches!(msg, Msg::Ping) {
//!             out.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! struct Pinger { got_pong: bool }
//! impl Automaton for Pinger {
//!     type Msg = Msg;
//!     fn on_message(&mut self, _from: ProcessId, msg: Msg, _out: &mut Outbox<Msg>) {
//!         if matches!(msg, Msg::Pong) {
//!             self.got_pong = true;
//!         }
//!     }
//! }
//!
//! let mut world = World::new(SimConfig::default());
//! let pinger = world.add_actor(Box::new(Pinger { got_pong: false }));
//! let ponger = world.add_actor(Box::new(Ponger));
//! world.send_from_external(pinger, ponger, Msg::Ping);
//! world.run_until_quiescent().expect("ping-pong quiesces");
//! assert!(world.with_actor::<Pinger, _, _>(pinger, |p| p.got_pong).unwrap());
//! ```

#![warn(missing_docs)]

pub mod automaton;
pub mod byz;
pub mod delay;
pub mod envelope;
pub mod fault;
pub mod id;
pub mod runner;
pub mod stats;
pub mod time;
pub mod trace;
pub mod world;

/// Commonly used items.
pub mod prelude {
    pub use crate::automaton::{Automaton, Downcast, Outbox};
    pub use crate::delay::DelayModel;
    pub use crate::envelope::{Envelope, MsgId};
    pub use crate::id::ProcessId;
    pub use crate::runner::SimConfig;
    pub use crate::time::SimTime;
    pub use crate::trace::{Trace, TraceEntry};
    pub use crate::world::{QuiescenceError, World};
}
