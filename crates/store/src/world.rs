//! A shard's one simulated world, erased over the protocol family.
//!
//! Every key of a shard is a register of `W + R + S` automata. They all
//! live in one [`World`]: the first op on a key adds its automata as one
//! contiguous block of actors, addressed through a [`Layout`] whose base
//! is the block's first address, with a [`SharedHistory`] of its own. A
//! block's automata only ever address their own block, and a server
//! takes a message from outside its block for no client of its register,
//! so the keys share the scheduler and nothing else.

use fastreg::config::ClusterConfig;
use fastreg::harness::{
    Abd, FastByz, FastCrash, FastRegular, MaxMin, MwmrAbd, MwmrNaiveFast, ProtocolFamily, SwsrFast,
};
use fastreg::layout::Layout;
use fastreg::protocols::registry::ProtocolId;
use fastreg::types::Value;
use fastreg_atomicity::history::SharedHistory;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::world::{QuiescenceError, World};

/// One key's register: where its block of actors sits, and what it
/// recorded.
pub(crate) struct Register {
    pub(crate) layout: Layout,
    pub(crate) history: SharedHistory,
}

/// A shard's world, whatever protocol it runs: what
/// [`Shard`](crate::shard::Shard) asks of it.
pub(crate) trait ShardWorld: Send {
    /// Adds one register's writers, readers and servers, in that order,
    /// as a block of actors from the next free address. `seed` builds
    /// the protocol's context (the Byzantine protocol's keys).
    fn add_register(&mut self, cfg: &ClusterConfig, seed: u64) -> Register;
    /// Invokes `write(value)` at the writer at `at`.
    fn invoke_write(&mut self, at: ProcessId, value: Value);
    /// Invokes `read()` at the reader at `at`.
    fn invoke_read(&mut self, at: ProcessId);
    /// Runs the world until quiescent.
    fn settle(&mut self) -> Result<u64, QuiescenceError>;
    /// Messages sent so far, by every register.
    fn messages_sent(&self) -> u64;
    /// The world's trace digest: its trace stores nothing and folds in
    /// every event as it is recorded.
    fn trace_digest(&self) -> u64;
}

/// The one implementation of [`ShardWorld`]: a world of `P`'s automata.
struct Blocks<P: ProtocolFamily> {
    world: World<P::Msg>,
    /// The next free address.
    next: u32,
}

impl<P: ProtocolFamily> ShardWorld for Blocks<P> {
    fn add_register(&mut self, cfg: &ClusterConfig, seed: u64) -> Register {
        let layout = Layout::at(cfg, self.next);
        let history = SharedHistory::new(cfg.w + cfg.r);
        let mut ctx = P::make_ctx(cfg, seed);
        for i in 0..cfg.w {
            let writer = P::writer(cfg, layout, i, history.clone(), &mut ctx);
            self.world.add_actor(writer);
        }
        for i in 0..cfg.r {
            let reader = P::reader(cfg, layout, i, history.clone(), &mut ctx);
            self.world.add_actor(reader);
        }
        for j in 0..cfg.s {
            self.world.add_actor(P::server(cfg, layout, j, &mut ctx));
        }
        self.next += layout.num_processes();
        Register { layout, history }
    }

    fn invoke_write(&mut self, at: ProcessId, value: Value) {
        self.world.inject(at, P::invoke_write(value));
    }

    fn invoke_read(&mut self, at: ProcessId) {
        self.world.inject(at, P::invoke_read());
    }

    fn settle(&mut self) -> Result<u64, QuiescenceError> {
        self.world.run_until_quiescent()
    }

    fn messages_sent(&self) -> u64 {
        self.world.stats().sent
    }

    fn trace_digest(&self) -> u64 {
        self.world.trace().digest()
    }
}

/// An empty world for `protocol`'s registers.
pub(crate) fn shard_world(protocol: ProtocolId, sim: SimConfig) -> Box<dyn ShardWorld> {
    fn empty<P: ProtocolFamily + 'static>(sim: SimConfig) -> Box<dyn ShardWorld> {
        Box::new(Blocks::<P> {
            world: World::new(sim),
            next: 0,
        })
    }
    match protocol {
        ProtocolId::FastCrash => empty::<FastCrash>(sim),
        ProtocolId::FastByz => empty::<FastByz>(sim),
        ProtocolId::Abd => empty::<Abd>(sim),
        ProtocolId::MaxMin => empty::<MaxMin>(sim),
        ProtocolId::FastRegular => empty::<FastRegular>(sim),
        ProtocolId::SwsrFast => empty::<SwsrFast>(sim),
        ProtocolId::MwmrAbd => empty::<MwmrAbd>(sim),
        ProtocolId::MwmrNaiveFast => empty::<MwmrNaiveFast>(sim),
    }
}
