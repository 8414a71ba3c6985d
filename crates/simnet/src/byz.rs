//! Byzantine (arbitrary-failure) actors.
//!
//! The paper's §6 model lets up to `b ≤ t` servers deviate arbitrarily. In
//! the simulator, a Byzantine process is an ordinary actor slot whose
//! automaton is a [`ByzActor`] — a wrapper delegating each step to a
//! [`ByzStrategy`]. Strategies that need protocol knowledge (lying about
//! timestamps, forging `seen` sets, the memory-loss behaviour of the Fig. 6
//! proof) live next to the protocol definitions in the `fastreg` crate;
//! this module provides the wrapper plus protocol-agnostic strategies.

use crate::automaton::{Automaton, Outbox};
use crate::id::ProcessId;

/// Arbitrary per-step behaviour of a Byzantine process.
///
/// A strategy receives exactly what an honest automaton would receive and
/// may emit anything at all — except messages that require credentials it
/// does not hold (unforgeability is enforced by `fastreg-auth`, not by the
/// transport).
pub trait ByzStrategy<M>: Send + 'static {
    /// Handles one delivered message, possibly emitting arbitrary output.
    fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>);

    /// Called once at startup; defaults to doing nothing.
    fn on_start(&mut self, out: &mut Outbox<M>) {
        let _ = out;
    }
}

/// An actor wholly controlled by a [`ByzStrategy`].
pub struct ByzActor<M> {
    strategy: Box<dyn ByzStrategy<M>>,
}

impl<M> ByzActor<M> {
    /// Wraps a strategy as an actor.
    pub fn new(strategy: Box<dyn ByzStrategy<M>>) -> Self {
        ByzActor { strategy }
    }
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Automaton for ByzActor<M> {
    type Msg = M;

    fn on_start(&mut self, out: &mut Outbox<M>) {
        self.strategy.on_start(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>) {
        self.strategy.on_message(from, msg, out);
    }
}

/// Never replies to anything. Indistinguishable from a crashed process to
/// the rest of the system, which makes it the *mildest* Byzantine behaviour
/// — useful as a baseline in behaviour sweeps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mute;

impl<M: Send + 'static> ByzStrategy<M> for Mute {
    fn on_message(&mut self, _from: ProcessId, _msg: M, _out: &mut Outbox<M>) {}
}

/// Echoes every message straight back to its sender, any number of times.
/// Exercises receivers' tolerance of duplicate-looking and nonsensical
/// traffic.
#[derive(Clone, Copy, Debug)]
pub struct EchoStorm {
    /// How many copies to send back per received message.
    pub copies: usize,
}

impl<M: Clone + Send + 'static> ByzStrategy<M> for EchoStorm {
    fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>) {
        for _ in 0..self.copies {
            out.send(from, msg.clone());
        }
    }
}

/// Replays the first message it ever received, to every sender of every
/// later message. Exercises stale-reply handling.
#[derive(Debug, Default)]
pub struct ReplayFirst<M> {
    first: Option<M>,
}

impl<M> ReplayFirst<M> {
    /// Creates a strategy with no recorded message yet.
    pub fn new() -> Self {
        ReplayFirst { first: None }
    }
}

impl<M: Clone + Send + 'static> ByzStrategy<M> for ReplayFirst<M> {
    fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>) {
        match &self.first {
            None => self.first = Some(msg),
            Some(first) => out.send(from, first.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimConfig;
    use crate::world::World;

    #[derive(Clone, Debug, PartialEq)]
    struct N(u32);

    struct Probe {
        got: Vec<N>,
    }

    impl Automaton for Probe {
        type Msg = N;
        fn on_message(&mut self, _from: ProcessId, msg: N, _out: &mut Outbox<N>) {
            self.got.push(msg);
        }
    }

    fn setup(strategy: Box<dyn ByzStrategy<N>>) -> (World<N>, ProcessId, ProcessId) {
        let mut w = World::new(SimConfig::default());
        let probe = w.add_actor(Box::new(Probe { got: vec![] }));
        let byz = w.add_actor(Box::new(ByzActor::new(strategy)));
        (w, probe, byz)
    }

    #[test]
    fn mute_never_replies() {
        let (mut w, probe, byz) = setup(Box::new(Mute));
        w.send_from_external(probe, byz, N(1));
        w.run_until_quiescent().expect("quiesces");
        assert!(w
            .with_actor::<Probe, _, _>(probe, |p| p.got.is_empty())
            .unwrap());
    }

    #[test]
    fn echo_storm_floods() {
        let (mut w, probe, byz) = setup(Box::new(EchoStorm { copies: 3 }));
        w.send_from_external(probe, byz, N(7));
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(
            w.with_actor::<Probe, _, _>(probe, |p| p.got.clone())
                .unwrap(),
            vec![N(7), N(7), N(7)]
        );
    }

    #[test]
    fn replay_first_repeats_initial_message() {
        let (mut w, probe, byz) = setup(Box::new(ReplayFirst::new()));
        w.send_from_external(probe, byz, N(1)); // recorded, no reply
        w.send_from_external(probe, byz, N(2)); // replies with N(1)
        w.send_from_external(probe, byz, N(3)); // replies with N(1)
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(
            w.with_actor::<Probe, _, _>(probe, |p| p.got.clone())
                .unwrap(),
            vec![N(1), N(1)]
        );
    }
}
