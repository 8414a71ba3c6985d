//! Byzantine (arbitrary-failure) actors.
//!
//! The paper's §6 model lets up to `b ≤ t` servers deviate arbitrarily. In
//! the simulator, a Byzantine process is an ordinary actor slot whose
//! [`Automaton`] does what it likes. Behaviours that need protocol
//! knowledge (lying about timestamps, forging `seen` sets, the memory-loss
//! behaviour of the Fig. 6 proof) live next to the protocol definitions in
//! the `fastreg` crate; this module holds the one that needs none.

use std::marker::PhantomData;

use crate::automaton::{Automaton, Outbox};
use crate::id::ProcessId;

/// Never replies to anything. Indistinguishable from a crashed process to
/// the rest of the system, which makes it the *mildest* Byzantine behaviour
/// — useful as a baseline in behaviour sweeps.
pub struct Mute<M>(PhantomData<fn(M)>);

impl<M> Default for Mute<M> {
    fn default() -> Self {
        Mute(PhantomData)
    }
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Automaton for Mute<M> {
    type Msg = M;

    fn on_message(&mut self, _from: ProcessId, _msg: M, _out: &mut Outbox<M>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimConfig;
    use crate::world::World;

    #[derive(Clone, Debug, PartialEq, Hash)]
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

    #[test]
    fn mute_never_replies() {
        let mut w = World::new(SimConfig::default());
        let probe = w.add_actor(Box::new(Probe { got: vec![] }));
        let byz = w.add_actor(Box::new(Mute::default()));
        w.send_from_external(probe, byz, N(1));
        w.run_until_quiescent().expect("quiesces");
        assert!(w
            .with_actor::<Probe, _, _>(probe, |p| p.got.is_empty())
            .unwrap());
    }
}
