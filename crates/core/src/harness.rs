//! Cluster assembly: one protocol table, one assembly path, two substrates.
//!
//! Every register deployment — writer(s), readers, servers — is built
//! the same way. [`ClusterBuilder`] collects the configuration, seed and
//! [`Runtime`]; the protocol table in this module names each protocol's
//! automata once; `assemble` constructs them in layout order; the chosen
//! substrate takes ownership. The builder's terminal methods differ only
//! in what they hand back:
//!
//! * [`build`](ClusterBuilder::build) takes a [`ProtocolId`], checks the
//!   protocol's feasibility predicate and returns a type-erased
//!   [`DynCluster`] on either runtime — [`Runtime::Simnet`] (the
//!   default: the deterministic discrete-event oracle) or
//!   [`Runtime::Threads`] (the same automata on OS threads via
//!   [`fastreg_rt`], see [`ThreadCluster`]):
//!
//! ```
//! use fastreg::config::ClusterConfig;
//! use fastreg::harness::{ClusterBuilder, RegisterOps, Runtime};
//! use fastreg::protocols::registry::ProtocolId;
//! use fastreg::types::RegValue;
//!
//! let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
//! let threads = Runtime::Threads { workers: 2 };
//! for runtime in [Runtime::Simnet, threads] {
//!     for id in [ProtocolId::FastCrash, ProtocolId::Abd] {
//!         let mut cluster = ClusterBuilder::new(cfg).seed(1).runtime(runtime).build(id)?;
//!         cluster.write_sync(9);
//!         assert_eq!(cluster.read(1), RegValue::Val(9), "{id} on {runtime}");
//!         cluster.check_atomic()?;
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! * [`build_typed`](ClusterBuilder::build_typed) picks the protocol by
//!   its [`ProtocolFamily`] marker and returns the concrete simulated
//!   `Cluster<P>` — public [`World`], typed actor introspection — and
//!   [`build_typed_with`](ClusterBuilder::build_typed_with) additionally
//!   replaces servers (e.g. to plant malicious ones):
//!
//! ```
//! use fastreg::config::ClusterConfig;
//! use fastreg::harness::{Cluster, ClusterBuilder, FastCrash, RegisterOps};
//! use fastreg::types::RegValue;
//!
//! let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
//! let mut fast: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(1).build_typed()?;
//! fast.write_sync(9);
//! assert_eq!(fast.read(1), RegValue::Val(9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every cluster form speaks [`RegisterOps`], so generic drivers take
//! `&mut dyn RegisterOps`. Simnet-only world controls — random
//! scheduling, crash injection, link faults, trace fingerprints — live on
//! the [`SimControl`] extension trait, reachable from a [`DynCluster`]
//! via [`DynCluster::sim_control`] (`None` on the threaded runtime).

use std::fmt;

use fastreg_atomicity::history::{History, HistoryEvent, SharedHistory};
use fastreg_atomicity::linearizability::{check_linearizable, LinCheckError};
use fastreg_atomicity::regularity::{check_swmr_regularity, RegularityViolation};
use fastreg_atomicity::streaming::OnlineChecker;
use fastreg_atomicity::swmr::{check_swmr_atomicity, AtomicityViolation};
use fastreg_atomicity::verdict::Verdict;
use fastreg_auth::{KeyId, Keychain, SignerHandle, Verifier};
use fastreg_rt::RtConfig;
use fastreg_simnet::automaton::Automaton;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::time::SimTime;
use fastreg_simnet::world::{QuiescenceError, World};

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::protocols::registry::{Contract, ProtocolId};
use crate::protocols::{abd, fast_byz, fast_crash, fast_regular, maxmin, mwmr, swsr_fast};
use crate::threads::ThreadCluster;
use crate::types::{RegValue, Value};

/// The execution substrate a [`ClusterBuilder`] deploys onto.
///
/// Both runtimes run the *same* automata and harvest the *same*
/// operation histories; they differ in who schedules the steps:
///
/// * [`Runtime::Simnet`] — the deterministic discrete-event simulator.
///   Virtual time, seeded schedules, scripted faults, replayable traces:
///   the oracle. The resulting [`DynCluster`] also exposes
///   [`SimControl`] via [`DynCluster::sim_control`].
/// * [`Runtime::Threads`] — a pool of OS threads connected by channels
///   (the [`fastreg_rt`] actor runtime). Wall-clock time, real
///   parallelism, nondeterministic interleavings: the speed demon.
///   Histories are checked post hoc by the same checkers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Runtime {
    /// Deterministic discrete-event simulation (the default).
    #[default]
    Simnet,
    /// Real OS threads via [`fastreg_rt`].
    Threads {
        /// Worker threads for the actor pool (clamped to the actor
        /// count; `0` is rejected by [`ClusterBuilder::build`]).
        workers: usize,
    },
}

impl fmt::Display for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Runtime::Simnet => f.write_str("simnet"),
            Runtime::Threads { workers } => write!(f, "threads(workers={workers})"),
        }
    }
}

/// A family of automata implementing one register protocol.
///
/// Implemented by the zero-sized markers the protocol table generates,
/// one per row ([`FastCrash`], [`FastByz`], [`Abd`], …). The associated
/// `Ctx` carries per-cluster shared state (the Byzantine protocol's
/// keys); most families use `()`.
pub trait ProtocolFamily {
    /// The protocol's message alphabet.
    type Msg: Clone + fmt::Debug + std::hash::Hash + Send + 'static;
    /// Per-cluster context threaded through actor construction.
    type Ctx;
    /// The value-level name of this protocol (its table row).
    const ID: ProtocolId;

    /// Builds the cluster context.
    fn make_ctx(cfg: &ClusterConfig, seed: u64) -> Self::Ctx;
    /// Builds writer `index`.
    fn writer(
        cfg: &ClusterConfig,
        layout: Layout,
        index: u32,
        history: SharedHistory,
        ctx: &mut Self::Ctx,
    ) -> Box<dyn Automaton<Msg = Self::Msg>>;
    /// Builds reader `index`.
    fn reader(
        cfg: &ClusterConfig,
        layout: Layout,
        index: u32,
        history: SharedHistory,
        ctx: &mut Self::Ctx,
    ) -> Box<dyn Automaton<Msg = Self::Msg>>;
    /// Builds server `index`.
    fn server(
        cfg: &ClusterConfig,
        layout: Layout,
        index: u32,
        ctx: &mut Self::Ctx,
    ) -> Box<dyn Automaton<Msg = Self::Msg>>;
    /// The environment message invoking `write(value)`.
    fn invoke_write(value: Value) -> Self::Msg;
    /// The environment message invoking `read()`.
    fn invoke_read() -> Self::Msg;
}

/// Context of a [`FastByz`] cluster: the writer's signing key and the
/// shared verifier.
pub struct ByzCtx {
    signer: Option<SignerHandle>,
    /// The verifier distributed to every process.
    pub verifier: Verifier,
    /// The writer's public key id.
    pub writer_key: KeyId,
}

impl ByzCtx {
    fn new(seed: u64) -> Self {
        let mut chain = Keychain::new(seed ^ 0x5167_fa57);
        let signer = chain.issue();
        let writer_key = signer.key();
        ByzCtx {
            signer: Some(signer),
            verifier: chain.verifier(),
            writer_key,
        }
    }

    fn take_signer(&mut self) -> SignerHandle {
        self.signer.take().expect("one writer per cluster")
    }
}

type ClientCtor<C, A> = fn(&ClusterConfig, Layout, u32, SharedHistory, &mut C) -> A;
type ServerCtor<C, A> = fn(&ClusterConfig, Layout, u32, &mut C) -> A;

/// The protocol table. One row per protocol: its marker (which is also
/// its [`ProtocolId`] variant), its message module, its context, and how
/// to construct each role. Everything else that must exist per protocol
/// — the [`ProtocolFamily`] impl, the [`ProtocolId::ALL`] slot, the
/// id → constructor dispatch behind [`ClusterBuilder::build`] on both
/// runtimes — is generated from the row, so a protocol is either wired
/// everywhere or does not compile.
macro_rules! protocol_table {
    ($(
        $(#[$doc:meta])*
        $id:ident => $($m:ident)::+, ctx: $ctx:ty = $make_ctx:expr,
            writer: $writer:expr,
            reader: $reader:expr,
            server: $server:expr;
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Clone, Copy, Debug, Default)]
            pub struct $id;

            impl ProtocolFamily for $id {
                type Msg = $($m)::+::Msg;
                type Ctx = $ctx;
                const ID: ProtocolId = ProtocolId::$id;

                fn make_ctx(cfg: &ClusterConfig, seed: u64) -> $ctx {
                    let make: fn(&ClusterConfig, u64) -> $ctx = $make_ctx;
                    make(cfg, seed)
                }

                fn writer(
                    cfg: &ClusterConfig,
                    layout: Layout,
                    index: u32,
                    history: SharedHistory,
                    ctx: &mut $ctx,
                ) -> Box<dyn Automaton<Msg = Self::Msg>> {
                    let make: ClientCtor<$ctx, _> = $writer;
                    Box::new(make(cfg, layout, index, history, ctx))
                }

                fn reader(
                    cfg: &ClusterConfig,
                    layout: Layout,
                    index: u32,
                    history: SharedHistory,
                    ctx: &mut $ctx,
                ) -> Box<dyn Automaton<Msg = Self::Msg>> {
                    let make: ClientCtor<$ctx, _> = $reader;
                    Box::new(make(cfg, layout, index, history, ctx))
                }

                fn server(
                    cfg: &ClusterConfig,
                    layout: Layout,
                    index: u32,
                    ctx: &mut $ctx,
                ) -> Box<dyn Automaton<Msg = Self::Msg>> {
                    let make: ServerCtor<$ctx, _> = $server;
                    Box::new(make(cfg, layout, index, ctx))
                }

                fn invoke_write(value: Value) -> Self::Msg {
                    $($m)::+::Msg::InvokeWrite { value }
                }

                fn invoke_read() -> Self::Msg {
                    $($m)::+::Msg::InvokeRead
                }
            }
        )*

        impl ProtocolId {
            /// Every registered protocol, in table order.
            pub const ALL: [ProtocolId; [$(ProtocolId::$id),*].len()] = [$(ProtocolId::$id),*];
        }

        impl ClusterBuilder {
            /// Builds the protocol named by `id` *without* the feasibility
            /// check — for experiments that deliberately deploy beyond the
            /// bound (the lower-bound constructions, the §8 inversion
            /// studies). Also skips the runtime-compatibility checks: a
            /// zero-worker thread pool is clamped to one worker, and a
            /// custom sim config is silently ignored on the threaded path.
            ///
            /// # Panics
            ///
            /// Panics if the configuration has more clients than the
            /// protocol can represent ([`ProtocolId::max_clients`]) — the
            /// one limit no experiment can deploy beyond;
            /// [`build`](Self::build) reports it as
            /// [`BuildError::TooManyClients`].
            pub fn build_unchecked(self, id: ProtocolId) -> DynCluster {
                if let Err(e) = self.check_population(id) {
                    panic!("{e}");
                }
                match id {
                    $(ProtocolId::$id => self.erased::<$id>(),)*
                }
            }
        }
    };
}

protocol_table! {
    /// Fig. 2 — fast crash-stop protocol marker.
    FastCrash => fast_crash, ctx: () = |_, _| (),
        writer: |cfg, layout, _, history, _| fast_crash::Writer::new(*cfg, layout, history),
        reader: |cfg, layout, _, history, _| fast_crash::Reader::new(*cfg, layout, history),
        server: |cfg, layout, _, _| fast_crash::Server::new(cfg, layout);
    /// Fig. 5 — fast arbitrary-failure protocol marker.
    FastByz => fast_byz, ctx: ByzCtx = |_, seed| ByzCtx::new(seed),
        writer: |cfg, layout, _, history, ctx| {
            let signer = ctx.take_signer();
            fast_byz::Writer::new(*cfg, layout, history, signer, ctx.verifier.clone())
        },
        reader: |cfg, layout, index, history, ctx| {
            let (verifier, key) = (ctx.verifier.clone(), ctx.writer_key);
            fast_byz::Reader::new(*cfg, layout, index, history, verifier, key)
        },
        server: |cfg, layout, _, ctx| {
            fast_byz::Server::new(cfg, layout, ctx.verifier.clone(), ctx.writer_key)
        };
    /// ABD baseline marker (two-round reads).
    Abd => abd, ctx: () = |_, _| (),
        writer: |cfg, layout, _, history, _| abd::Writer::new(*cfg, layout, history),
        reader: |cfg, layout, _, history, _| abd::Reader::new(*cfg, layout, history),
        server: |_, _, _, _| abd::Server::new();
    /// Max–min decentralized baseline marker (§1).
    MaxMin => maxmin, ctx: () = |_, _| (),
        writer: |cfg, layout, _, history, _| maxmin::Writer::new(*cfg, layout, history),
        reader: |cfg, layout, index, history, _| maxmin::Reader::new(*cfg, layout, index, history),
        server: |cfg, layout, index, _| maxmin::Server::new(*cfg, layout, index);
    /// Fast regular register marker (§8).
    FastRegular => fast_regular, ctx: () = |_, _| (),
        writer: |cfg, layout, _, history, _| fast_regular::Writer::new(*cfg, layout, history),
        reader: |cfg, layout, _, history, _| fast_regular::Reader::new(*cfg, layout, history),
        server: |_, _, _, _| fast_regular::Server::new();
    /// The §1 single-reader fast register marker (`R = 1`, `t < S/2`).
    SwsrFast => swsr_fast, ctx: () = |_, _| (),
        writer: |cfg, layout, _, history, _| swsr_fast::Writer::new(*cfg, layout, history),
        reader: |cfg, layout, _, history, _| swsr_fast::Reader::new(*cfg, layout, history),
        server: |_, _, _, _| swsr_fast::Server::new();
    /// Correct two-round MWMR register marker (§7 baseline).
    MwmrAbd => mwmr::abd, ctx: () = |_, _| (),
        writer: |cfg, layout, index, history, _| {
            mwmr::abd::Client::new(*cfg, layout, Some(index), history)
        },
        reader: |cfg, layout, _, history, _| mwmr::abd::Client::new(*cfg, layout, None, history),
        server: |_, _, _, _| mwmr::abd::Server::new();
    /// The unsound one-round MWMR protocol marker (§7 counterexample target).
    MwmrNaiveFast => mwmr::naive_fast, ctx: () = |_, _| (),
        writer: |cfg, layout, index, history, _| {
            mwmr::naive_fast::Writer::new(*cfg, layout, index, history)
        },
        reader: |cfg, layout, _, history, _| mwmr::naive_fast::Reader::new(*cfg, layout, history),
        server: |_, _, _, _| mwmr::naive_fast::Server::new();
}

/// A fully assembled register deployment in a simulated world.
pub struct Cluster<P: ProtocolFamily> {
    /// The configuration.
    pub cfg: ClusterConfig,
    /// The role/address layout.
    pub layout: Layout,
    /// The simulated world (public: scripted tests drive it directly).
    pub world: World<P::Msg>,
    /// The operation history being recorded.
    pub history: SharedHistory,
    /// Per-cluster protocol context (keys etc.).
    pub ctx: P::Ctx,
}

/// Fluent entry point for assembling clusters: three setters
/// ([`seed`](Self::seed), [`sim`](Self::sim), [`runtime`](Self::runtime)),
/// then one terminal — [`build`](Self::build) /
/// [`build_unchecked`](Self::build_unchecked) for a type-erased
/// [`DynCluster`] on either runtime, [`build_typed`](Self::build_typed) /
/// [`build_typed_with`](Self::build_typed_with) for a concrete simulated
/// `Cluster<P>`.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    sim: SimConfig,
    seed: Option<u64>,
    runtime: Runtime,
    /// Whether [`sim`](Self::sim) replaced the default configuration —
    /// custom simulation scheduling cannot be honored by the threaded
    /// runtime, and the builder rejects the combination typed-ly.
    custom_sim: bool,
}

impl ClusterBuilder {
    /// Starts a builder over `cfg` with default simulation settings.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterBuilder {
            cfg,
            sim: SimConfig::default(),
            seed: None,
            runtime: Runtime::Simnet,
            custom_sim: false,
        }
    }

    /// Sets the simulation seed. Takes precedence over the seed inside a
    /// [`sim`](Self::sim) configuration, regardless of call order.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Replaces the simulation configuration (delay model, trace
    /// capacity, step budget; also the seed, unless
    /// [`seed`](Self::seed) is called, which always wins).
    ///
    /// Only meaningful under [`Runtime::Simnet`]:
    /// [`build`](Self::build) rejects a custom simulation configuration
    /// combined with [`Runtime::Threads`] (there is no virtual scheduler
    /// to configure) with [`BuildError::UnsupportedRuntime`].
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self.custom_sim = true;
        self
    }

    /// Selects the execution substrate (default: [`Runtime::Simnet`]).
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Builds a type-erased cluster running the protocol named by `id`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Infeasible`] if the configuration violates
    /// the protocol's deployment hypotheses (the paper's feasibility
    /// predicate) — e.g. `R ≥ S/t − 2` for [`ProtocolId::FastCrash`],
    /// `b > 0` for a crash-stop protocol, or `W > 1` for a SWMR one.
    ///
    /// Returns [`BuildError::UnsupportedRuntime`] if the requested
    /// [`Runtime`] cannot honor the rest of the builder — a
    /// [`Runtime::Threads`] with zero workers, or combined with a custom
    /// [`sim`](Self::sim) configuration (there is no virtual scheduler
    /// on real threads to configure).
    ///
    /// Returns [`BuildError::TooManyClients`] if `R + 1` exceeds what the
    /// protocol can represent ([`ProtocolId::max_clients`]).
    pub fn build(self, id: ProtocolId) -> Result<DynCluster, BuildError> {
        if !id.feasible(&self.cfg) {
            return Err(BuildError::Infeasible {
                id,
                cfg: self.cfg,
                requirement: id.requirement(),
            });
        }
        self.check_population(id)?;
        if let Runtime::Threads { workers, .. } = self.runtime {
            if workers == 0 {
                return Err(BuildError::UnsupportedRuntime {
                    runtime: self.runtime,
                    reason: "a threaded runtime needs at least one worker",
                });
            }
            if self.custom_sim {
                return Err(BuildError::UnsupportedRuntime {
                    runtime: self.runtime,
                    reason: "a custom simulation configuration (delay model, step budget) \
                             only applies to the simnet scheduler",
                });
            }
        }
        Ok(self.build_unchecked(id))
    }

    /// Builds the concrete simulated `Cluster<P>` for the protocol marker
    /// `P` — static dispatch, public [`World`], typed actor
    /// introspection. No feasibility check: the lower-bound constructions
    /// deploy beyond the bound through this terminal.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnsupportedRuntime`] unless the runtime is
    /// [`Runtime::Simnet`]: a `Cluster<P>` *is* a simulated world. The
    /// typed threaded deployment is
    /// [`ThreadCluster::spawn`].
    ///
    /// Returns [`BuildError::TooManyClients`] if `R + 1` exceeds what the
    /// protocol can represent ([`ProtocolId::max_clients`]).
    pub fn build_typed<P: ProtocolFamily>(self) -> Result<Cluster<P>, BuildError> {
        self.build_typed_with(P::server)
    }

    /// [`build_typed`](Self::build_typed) with a server factory, called
    /// once per server index in order; return `P::server(..)` for indices
    /// that should stay honest. The entry point for Byzantine-behaviour
    /// experiments.
    ///
    /// # Errors
    ///
    /// As [`build_typed`](Self::build_typed).
    pub fn build_typed_with<P: ProtocolFamily>(
        self,
        mut server_factory: impl FnMut(
            &ClusterConfig,
            Layout,
            u32,
            &mut P::Ctx,
        ) -> Box<dyn Automaton<Msg = P::Msg>>,
    ) -> Result<Cluster<P>, BuildError> {
        if self.runtime != Runtime::Simnet {
            return Err(BuildError::UnsupportedRuntime {
                runtime: self.runtime,
                reason: "a typed Cluster<P> is a simulated world; build(id) or \
                         ThreadCluster::spawn deploy onto threads",
            });
        }
        self.check_population(P::ID)?;
        Ok(self.simulated(&mut P::reader, &mut server_factory))
    }

    /// The one limit that is not a feasibility question: a protocol whose
    /// `seen` sets are [`ClientSet`](crate::types::ClientSet)s cannot
    /// tell more than [`ProtocolId::max_clients`] clients apart.
    fn check_population(&self, id: ProtocolId) -> Result<(), BuildError> {
        match id.max_clients() {
            Some(limit) if !id.population_fits(&self.cfg) => Err(BuildError::TooManyClients {
                id,
                cfg: self.cfg,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// The seed every substrate sees: an explicit [`seed`](Self::seed)
    /// always wins over the one inside [`sim`](Self::sim).
    fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or(self.sim.seed)
    }

    /// Hands one [`assemble`]d deployment to a simulated [`World`].
    pub(crate) fn simulated<P: ProtocolFamily>(
        self,
        reader_factory: ReaderFactory<'_, P>,
        server_factory: ServerFactory<'_, P>,
    ) -> Cluster<P> {
        let seed = self.resolved_seed();
        let parts = assemble::<P>(&self.cfg, seed, reader_factory, server_factory);
        let mut world = World::new(SimConfig { seed, ..self.sim });
        for automaton in parts.automata {
            world.add_actor(automaton);
        }
        Cluster {
            cfg: self.cfg,
            layout: parts.layout,
            world,
            history: parts.history,
            ctx: parts.ctx,
        }
    }

    /// One table row's leg of [`build_unchecked`](Self::build_unchecked):
    /// the deployment on the selected runtime, erased.
    fn erased<P>(self) -> DynCluster
    where
        P: ProtocolFamily + 'static,
        P::Ctx: Send + 'static,
    {
        let inner = match self.runtime {
            Runtime::Simnet => DynInner::Sim(Box::new(
                self.simulated::<P>(&mut P::reader, &mut P::server),
            )),
            Runtime::Threads { workers } => {
                let rt = RtConfig::new(workers.max(1));
                let cluster = ThreadCluster::<P>::spawn(self.cfg, self.resolved_seed(), rt);
                DynInner::Threads(Box::new(cluster))
            }
        };
        DynCluster { id: P::ID, inner }
    }
}

/// A per-index server constructor: `P::server` itself, or the replacement
/// handed to [`ClusterBuilder::build_typed_with`].
pub(crate) type ServerFactory<'f, P> =
    &'f mut dyn FnMut(
        &ClusterConfig,
        Layout,
        u32,
        &mut <P as ProtocolFamily>::Ctx,
    ) -> Box<dyn Automaton<Msg = <P as ProtocolFamily>::Msg>>;

/// A per-index reader constructor: `P::reader` itself, or the ablated
/// reader of [`ablation::count_cluster`](crate::protocols::ablation::count_cluster).
pub(crate) type ReaderFactory<'f, P> =
    &'f mut dyn FnMut(
        &ClusterConfig,
        Layout,
        u32,
        SharedHistory,
        &mut <P as ProtocolFamily>::Ctx,
    ) -> Box<dyn Automaton<Msg = <P as ProtocolFamily>::Msg>>;

/// A deployment's parts before a substrate owns them.
pub(crate) struct Assembly<P: ProtocolFamily> {
    pub(crate) layout: Layout,
    pub(crate) history: SharedHistory,
    pub(crate) ctx: P::Ctx,
    /// Writers, readers, then servers — [`Layout`] address order.
    pub(crate) automata: Vec<Box<dyn Automaton<Msg = P::Msg>>>,
}

/// Builds one deployment's layout, history, context and automata. The
/// only place the writers → readers → servers loop exists: `Cluster`
/// feeds the result to [`World::add_actor`], `ThreadCluster` to
/// `ActorPool::spawn`.
pub(crate) fn assemble<P: ProtocolFamily>(
    cfg: &ClusterConfig,
    seed: u64,
    reader_factory: ReaderFactory<'_, P>,
    server_factory: ServerFactory<'_, P>,
) -> Assembly<P> {
    let layout = Layout::of(cfg);
    let history = SharedHistory::new(cfg.w + cfg.r);
    let mut ctx = P::make_ctx(cfg, seed);
    let mut automata = Vec::with_capacity((cfg.w + cfg.r + cfg.s) as usize);
    for i in 0..cfg.w {
        automata.push(P::writer(cfg, layout, i, history.clone(), &mut ctx));
    }
    for i in 0..cfg.r {
        automata.push(reader_factory(cfg, layout, i, history.clone(), &mut ctx));
    }
    for j in 0..cfg.s {
        automata.push(server_factory(cfg, layout, j, &mut ctx));
    }
    Assembly {
        layout,
        history,
        ctx,
        automata,
    }
}

/// A cluster build rejected by the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration violates the protocol's feasibility predicate.
    Infeasible {
        /// The requested protocol.
        id: ProtocolId,
        /// The offending configuration.
        cfg: ClusterConfig,
        /// Human-readable statement of the violated requirement.
        requirement: &'static str,
    },
    /// The configuration has more clients (`R + 1`) than the protocol's
    /// `seen` sets can tell apart.
    TooManyClients {
        /// The requested protocol.
        id: ProtocolId,
        /// The offending configuration.
        cfg: ClusterConfig,
        /// The protocol's [`ProtocolId::max_clients`].
        limit: u32,
    },
    /// The requested [`Runtime`] cannot honor the rest of the builder.
    UnsupportedRuntime {
        /// The runtime that was requested.
        runtime: Runtime,
        /// Why it cannot be honored.
        reason: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Infeasible {
                id,
                cfg,
                requirement,
            } => write!(
                f,
                "protocol '{}' is infeasible at S={}, t={}, b={}, R={}, W={} (requires {})",
                id.name(),
                cfg.s,
                cfg.t,
                cfg.b,
                cfg.r,
                cfg.w,
                requirement
            ),
            BuildError::TooManyClients { id, cfg, limit } => write!(
                f,
                "protocol '{}' keeps its seen sets in a {limit}-bit mask: R = {} readers and \
                 the writer are more than {limit} clients",
                id.name(),
                cfg.r
            ),
            BuildError::UnsupportedRuntime { runtime, reason } => {
                write!(f, "runtime {runtime} unsupported here: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The uniform operations surface of an assembled register deployment.
///
/// Implemented by every concrete `Cluster<P>` (static dispatch), by
/// [`ThreadCluster<P>`](ThreadCluster) (real threads),
/// and by [`DynCluster`] (runtime dispatch), so generic drivers and
/// experiment loops take `&mut dyn RegisterOps` and run unchanged over
/// any registered protocol **on either runtime**. This is the portable
/// surface: invoke, settle, snapshot, check, plus a clock ([`now_ticks`]
/// means virtual ticks on the simnet and wall-clock microseconds on
/// threads) and message statistics.
///
/// Controls that only make sense on a simulated world — deterministic
/// schedulers, crash and partition injection, trace fingerprints — live
/// on the [`SimControl`] extension trait.
///
/// [`now_ticks`]: RegisterOps::now_ticks
pub trait RegisterOps {
    /// The deployment's configuration.
    fn cfg(&self) -> ClusterConfig;
    /// The role/address layout.
    fn layout(&self) -> Layout;
    /// Invokes `write(value)` at writer `wid` without settling.
    fn write_by(&mut self, wid: u32, value: Value);
    /// Invokes `read()` at reader `index` without settling.
    fn read_async(&mut self, index: u32);
    /// Runs the world until quiescent (timed scheduler).
    ///
    /// # Panics
    ///
    /// Panics if the step budget is exhausted first; see
    /// [`try_settle`](RegisterOps::try_settle).
    fn settle(&mut self) {
        if let Err(e) = self.try_settle() {
            panic!("deployment did not settle: {e}");
        }
    }
    /// Runs the world until quiescent, returning the steps taken or a
    /// typed [`QuiescenceError`] on budget exhaustion.
    ///
    /// # Errors
    ///
    /// Returns the error if the step budget ran out while messages
    /// remained deliverable.
    fn try_settle(&mut self) -> Result<u64, QuiescenceError>;
    /// Invokes `read()` at reader `index`, settles, and returns the
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the read did not complete (e.g. too many servers
    /// crashed).
    fn read(&mut self, index: u32) -> RegValue;
    /// Snapshot of the recorded history.
    ///
    /// This clones every recorded operation — fine at the end of a run,
    /// wasteful inside an issue loop. Drivers polling for progress should
    /// use the incremental queries
    /// ([`ops_completed`](RegisterOps::ops_completed),
    /// [`client_busy`](RegisterOps::client_busy)) instead.
    fn snapshot(&self) -> History;
    /// Number of operations recorded so far (complete and pending) —
    /// O(1), no snapshot.
    fn ops_recorded(&self) -> u64;
    /// Number of completed operations so far — O(1), no snapshot.
    fn ops_completed(&self) -> u64;
    /// Returns `true` while client `proc` (a history proc number, i.e. a
    /// [`Layout`] address index) has an operation outstanding — the
    /// incremental idleness query closed-loop drivers poll per issued
    /// operation.
    fn client_busy(&self, proc: u32) -> bool;
    /// Checks the §3.1 SWMR atomicity conditions on the history so far.
    ///
    /// # Errors
    ///
    /// Returns the violation if the history is not atomic.
    fn check_atomic(&self) -> Result<(), AtomicityViolation> {
        check_swmr_atomicity(&self.snapshot())
    }
    /// Checks general linearizability (for MWMR histories).
    ///
    /// # Errors
    ///
    /// Returns an error if the history is too long for the checker.
    fn check_linearizable(&self) -> Result<bool, LinCheckError> {
        check_linearizable(&self.snapshot())
    }
    /// Checks SWMR regularity (§8).
    ///
    /// # Errors
    ///
    /// Returns the violation if the history is not regular.
    fn check_regular(&self) -> Result<(), RegularityViolation> {
        check_swmr_regularity(&self.snapshot())
    }
    /// Current virtual time, in ticks.
    fn now_ticks(&self) -> u64;
    /// Advances virtual time to `ticks`, delivering everything due.
    fn advance_to_ticks(&mut self, ticks: u64);
    /// One step of the timed scheduler; `false` if nothing is in
    /// transit. On real threads this yields the core to the actor
    /// threads and reports whether work remains in flight.
    fn step_timed(&mut self) -> bool;
    /// Total messages sent so far.
    fn messages_sent(&self) -> u64;

    /// Pre-sizes the history for `additional` further operations, where
    /// the runtime exposes its history (no-op otherwise). Drivers that
    /// know the op count up front call this once to avoid growth
    /// reallocations on multi-million-op runs.
    fn reserve_history(&mut self, _additional: usize) {}

    /// Switches the history to journaling mode so operation events can be
    /// drained incrementally via
    /// [`drain_history_events`](RegisterOps::drain_history_events).
    /// Returns `false` where the runtime does not expose its history —
    /// callers fall back to replaying a final snapshot.
    fn start_history_journal(&mut self) -> bool {
        false
    }

    /// Drains the events journaled since the last drain (empty when the
    /// journal was never enabled or the runtime does not expose its
    /// history). Events come out in record order, ready for the streaming
    /// checkers.
    fn drain_history_events(&mut self) -> Vec<HistoryEvent> {
        Vec::new()
    }

    /// [`drain_history_events`](RegisterOps::drain_history_events) onto
    /// the end of a buffer the caller keeps: a driver that polls after
    /// every step passes the same `Vec` each time, and deployments that
    /// own their history move the events over without allocating.
    fn drain_history_events_into(&mut self, into: &mut Vec<HistoryEvent>) {
        into.extend(self.drain_history_events());
    }

    /// Invokes `write(value)` at writer 0 without settling.
    fn write(&mut self, value: Value) {
        self.write_by(0, value);
    }

    /// Invokes `write(value)` at writer 0 and settles.
    fn write_sync(&mut self, value: Value) {
        self.write(value);
        self.settle();
    }

    /// The consistency contract this deployment promised — its
    /// protocol's [`ProtocolId::contract`]. Wrappers that do not know
    /// their protocol keep the default, [`Contract::Atomic`]: the strict
    /// side.
    fn contract(&self) -> Contract {
        Contract::Atomic
    }

    /// Checks the history so far against `contract`, as a stable
    /// [`Verdict`] from the [`OnlineChecker`] for
    /// [`contract.spec(W)`](Contract::spec).
    fn contract_verdict(&self, contract: Contract) -> Verdict {
        OnlineChecker::check(contract.spec(self.cfg().w), &self.snapshot())
    }
}

/// Simulator-only controls, as an extension of [`RegisterOps`].
///
/// Everything here presumes a simulated [`World`]: deterministic
/// schedulers to drive by hand, crashes and partitions to inject at
/// exact points, a trace to fingerprint for replay. The threaded runtime
/// has none of that — the OS schedules, faults are real — so
/// [`ThreadCluster`] implements only
/// [`RegisterOps`]. Code generic over both runtimes takes
/// `&mut dyn RegisterOps`; code that steers the schedule (the explorer,
/// fault scripts, replay) takes `&mut dyn SimControl`, reachable from a
/// [`DynCluster`] via [`DynCluster::sim_control`].
pub trait SimControl: RegisterOps {
    /// Delivers pending messages in random order until quiescent;
    /// returns the number of deliveries.
    fn run_random_until_quiescent(&mut self) -> u64;
    /// Delivers one uniformly random deliverable message (pure
    /// interleaving exploration); `false` if nothing was deliverable.
    fn step_random(&mut self) -> bool;
    /// Crashes server `index` immediately.
    fn crash_server(&mut self, index: u32);
    /// Crashes the process at layout address index `proc` immediately —
    /// the general form fault scripts use (clients may crash too; the
    /// model allows any number of client crashes).
    fn crash_proc(&mut self, proc: u32);
    /// Arms writer `wid` to crash after its next `sends` message sends.
    fn arm_writer_crash_after_sends(&mut self, wid: u32, sends: usize);
    /// Blocks the directed link `from → to`, both named by their layout
    /// address index (messages on it stay in transit for the timed and
    /// random schedulers until [`heal_link_procs`](SimControl::heal_link_procs)).
    fn block_link_procs(&mut self, from: u32, to: u32);
    /// Heals a directed link previously blocked with
    /// [`block_link_procs`](SimControl::block_link_procs).
    fn heal_link_procs(&mut self, from: u32, to: u32);
    /// Stable fingerprint of the simulated world's trace so far (see
    /// [`Trace::fingerprint`](fastreg_simnet::trace::Trace::fingerprint)).
    /// Equal fingerprints ⇔ event-identical runs; the schedule-exploration
    /// replay path compares these. It hashes the *rendered* trace, which
    /// makes it the one identity that may be persisted (pins, corpus
    /// files) — and costs a `Debug` render of every stored message.
    fn trace_fingerprint(&self) -> u64;
    /// In-process identity of the trace so far (see
    /// [`Trace::digest`](fastreg_simnet::trace::Trace::digest)): equal
    /// for event-identical runs and, like the fingerprint, different for
    /// any others up to a 64-bit hash collision — at a fraction of the
    /// cost, but only comparable within one process: never write it to a
    /// file or a pin.
    fn trace_digest(&self) -> u64;
    /// Maximum message-reorder depth of the run so far (see
    /// [`Trace::max_reorder_depth`](fastreg_simnet::trace::Trace::max_reorder_depth)):
    /// how many older in-flight messages some delivery overtook, per
    /// receiver. A schedule-shape signal for coverage-guided exploration.
    fn max_reorder_depth(&self) -> u64;
    /// Predicate witness levels aggregated across this deployment's
    /// readers, as sorted `(witness_count, occurrences)` pairs.
    ///
    /// Fast protocols decide each read from a `predicate_witness` scan;
    /// the witness level is *which* α made the §4 predicate hold — a
    /// direct signal of how contended/degraded the quorum state was.
    /// Empty for protocols whose readers keep no witness histogram.
    fn witness_levels(&self) -> Vec<(u32, u64)>;
    /// Snapshot of the simulated world's network statistics
    /// (sent/delivered/dropped/steps) — the
    /// observability layer's raw material for its `net.*` counters.
    fn net_stats(&self) -> fastreg_simnet::stats::NetStats;
    /// The world's retained trace entries so far (the trace is bounded;
    /// see [`Trace::suppressed`](fastreg_simnet::trace::Trace::suppressed)),
    /// from which the observability layer derives message spans. Entries
    /// only: the typed messages stay in the world's trace, which renders
    /// them when read ([`trace_fingerprint`](SimControl::trace_fingerprint)).
    fn trace_entries(&self) -> Vec<fastreg_simnet::trace::TraceEntry>;
    /// Lifetime counters of the timed scheduler's ready-queue index.
    fn sched_counters(&self) -> fastreg_simnet::world::SchedStats;
}

/// The value returned by the `nth` (0-based) completed read of the reader
/// at address `addr` — the harvest half of [`RegisterOps::read`] on both
/// substrates. Readers only read, so `nth` is the client's completion
/// count ([`SharedHistory::completed_by`], O(1)) taken before invoking.
///
/// # Panics
///
/// Panics if that read did not complete (e.g. too many servers crashed).
pub(crate) fn nth_read_value(history: &SharedHistory, addr: u32, nth: u64) -> RegValue {
    history
        .nth_completed_read(addr, nth as usize)
        .unwrap_or_else(|| panic!("read by the reader at address {addr} did not complete"))
}

impl<P: ProtocolFamily> RegisterOps for Cluster<P> {
    fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    fn contract(&self) -> Contract {
        P::ID.contract()
    }

    fn layout(&self) -> Layout {
        self.layout
    }

    fn write_by(&mut self, wid: u32, value: Value) {
        let w = self.layout.writer(wid);
        self.world.inject(w, P::invoke_write(value));
    }

    fn read_async(&mut self, index: u32) {
        let r = self.layout.reader(index);
        self.world.inject(r, P::invoke_read());
    }

    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        self.world.run_until_quiescent()
    }

    fn read(&mut self, index: u32) -> RegValue {
        let addr = self.layout.reader(index).index();
        let before = self.history.completed_by(addr);
        self.read_async(index);
        self.settle();
        nth_read_value(&self.history, addr, before)
    }

    fn snapshot(&self) -> History {
        self.history.snapshot()
    }

    fn ops_recorded(&self) -> u64 {
        self.history.recorded_count() as u64
    }

    fn ops_completed(&self) -> u64 {
        self.history.completed_count() as u64
    }

    fn client_busy(&self, proc: u32) -> bool {
        self.history.client_busy(proc)
    }

    fn now_ticks(&self) -> u64 {
        self.world.now().ticks()
    }

    fn advance_to_ticks(&mut self, ticks: u64) {
        self.world.advance_to(SimTime::from_ticks(ticks));
    }

    fn step_timed(&mut self) -> bool {
        self.world.step_timed()
    }

    fn messages_sent(&self) -> u64 {
        self.world.stats().sent
    }

    fn reserve_history(&mut self, additional: usize) {
        self.history.reserve(additional);
    }

    fn start_history_journal(&mut self) -> bool {
        self.history.enable_journal();
        true
    }

    fn drain_history_events(&mut self) -> Vec<HistoryEvent> {
        self.history.drain_journal()
    }

    fn drain_history_events_into(&mut self, into: &mut Vec<HistoryEvent>) {
        self.history.drain_journal_into(into);
    }
}

impl<P: ProtocolFamily> SimControl for Cluster<P> {
    fn run_random_until_quiescent(&mut self) -> u64 {
        self.world.run_random_until_quiescent()
    }

    fn step_random(&mut self) -> bool {
        self.world.step_random()
    }

    fn crash_server(&mut self, index: u32) {
        let p = self.layout.server(index);
        self.world.crash(p);
    }

    fn crash_proc(&mut self, proc: u32) {
        self.world.crash(ProcessId::new(proc));
    }

    fn arm_writer_crash_after_sends(&mut self, wid: u32, sends: usize) {
        let p = self.layout.writer(wid);
        self.world.arm_crash_after_sends(p, sends);
    }

    fn block_link_procs(&mut self, from: u32, to: u32) {
        self.world
            .block_link(ProcessId::new(from), ProcessId::new(to));
    }

    fn heal_link_procs(&mut self, from: u32, to: u32) {
        self.world
            .heal_link(ProcessId::new(from), ProcessId::new(to));
    }

    fn trace_fingerprint(&self) -> u64 {
        self.world.trace().fingerprint()
    }

    fn trace_digest(&self) -> u64 {
        self.world.trace().digest()
    }

    fn max_reorder_depth(&self) -> u64 {
        self.world.trace().max_reorder_depth()
    }

    fn witness_levels(&self) -> Vec<(u32, u64)> {
        // Typed harvest: downcast each reader actor against the witness-
        // keeping reader types; protocols without a histogram yield
        // nothing. BTreeMap keeps the pairs sorted by witness level.
        let mut agg: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for p in self.layout.readers() {
            let histogram = self
                .world
                .with_actor::<crate::protocols::fast_crash::Reader, _, _>(p, |r| {
                    r.witness_histogram.clone()
                })
                .or_else(|| {
                    self.world
                        .with_actor::<crate::protocols::fast_byz::Reader, _, _>(p, |r| {
                            r.witness_histogram.clone()
                        })
                });
            for (level, n) in histogram.into_iter().flatten() {
                *agg.entry(level).or_insert(0) += n;
            }
        }
        agg.into_iter().collect()
    }

    fn net_stats(&self) -> fastreg_simnet::stats::NetStats {
        self.world.stats().clone()
    }

    fn trace_entries(&self) -> Vec<fastreg_simnet::trace::TraceEntry> {
        self.world.trace().entries().to_vec()
    }

    fn sched_counters(&self) -> fastreg_simnet::world::SchedStats {
        self.world.sched_stats()
    }
}

/// The two erased shapes a [`DynCluster`] can hold: a simulated cluster
/// (which also answers [`SimControl`]) or a threaded one (portable
/// surface only).
enum DynInner {
    Sim(Box<dyn SimControl + Send>),
    Threads(Box<dyn RegisterOps + Send>),
}

/// A type-erased register deployment: some `Cluster<P>` or
/// [`ThreadCluster<P>`](ThreadCluster) behind `dyn`
/// [`RegisterOps`], tagged with the [`ProtocolId`] it runs.
///
/// Obtained from [`ClusterBuilder::build`] (or
/// [`DynCluster::from_cluster`] to erase a simulated cluster built with
/// a server factory). All portable operations go through
/// the [`RegisterOps`] impl regardless of runtime; simulator-only
/// controls are reachable via [`sim_control`](DynCluster::sim_control),
/// which returns `None` on the threaded runtime. The erased cluster is
/// `Send`, so deployments can migrate between worker threads — the
/// property the sharded store's batched frontend leans on when it fans
/// shards across a thread pool.
pub struct DynCluster {
    id: ProtocolId,
    inner: DynInner,
}

impl DynCluster {
    /// Erases a statically built simulated cluster, tagging it with the
    /// protocol it runs, `P::ID`.
    pub fn from_cluster<P>(cluster: Cluster<P>) -> Self
    where
        P: ProtocolFamily + 'static,
        P::Ctx: Send + 'static,
    {
        DynCluster {
            id: P::ID,
            inner: DynInner::Sim(Box::new(cluster)),
        }
    }

    /// The protocol this cluster runs.
    pub fn id(&self) -> ProtocolId {
        self.id
    }

    /// The protocol's registered name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The simulator-only control surface, if this deployment runs on
    /// the simnet; `None` on the threaded runtime. Portable
    /// [`RegisterOps`] calls also work on the returned handle (it is a
    /// supertrait), so schedule-steering code can stay on one borrow.
    pub fn sim_control(&mut self) -> Option<&mut dyn SimControl> {
        match &mut self.inner {
            DynInner::Sim(c) => Some(c.as_mut()),
            DynInner::Threads(_) => None,
        }
    }

    /// Shared-borrow view of the same surface, for read-only queries
    /// like [`trace_fingerprint`](SimControl::trace_fingerprint).
    pub fn sim_control_ref(&self) -> Option<&dyn SimControl> {
        match &self.inner {
            DynInner::Sim(c) => Some(c.as_ref()),
            DynInner::Threads(_) => None,
        }
    }

    /// The portable surface, shared borrow.
    fn ops(&self) -> &dyn RegisterOps {
        match &self.inner {
            DynInner::Sim(c) => c.as_ref(),
            DynInner::Threads(c) => c.as_ref(),
        }
    }

    /// The portable surface, unique borrow.
    fn ops_mut(&mut self) -> &mut dyn RegisterOps {
        match &mut self.inner {
            DynInner::Sim(c) => c.as_mut(),
            DynInner::Threads(c) => c.as_mut(),
        }
    }
}

impl fmt::Debug for DynCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynCluster")
            .field("id", &self.id)
            .field("cfg", &self.ops().cfg())
            .finish_non_exhaustive()
    }
}

impl RegisterOps for DynCluster {
    fn cfg(&self) -> ClusterConfig {
        self.ops().cfg()
    }

    fn contract(&self) -> Contract {
        self.id.contract()
    }

    fn layout(&self) -> Layout {
        self.ops().layout()
    }

    fn write_by(&mut self, wid: u32, value: Value) {
        self.ops_mut().write_by(wid, value);
    }

    fn read_async(&mut self, index: u32) {
        self.ops_mut().read_async(index);
    }

    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        self.ops_mut().try_settle()
    }

    fn read(&mut self, index: u32) -> RegValue {
        self.ops_mut().read(index)
    }

    fn snapshot(&self) -> History {
        self.ops().snapshot()
    }

    fn ops_recorded(&self) -> u64 {
        self.ops().ops_recorded()
    }

    fn ops_completed(&self) -> u64 {
        self.ops().ops_completed()
    }

    fn client_busy(&self, proc: u32) -> bool {
        self.ops().client_busy(proc)
    }

    fn now_ticks(&self) -> u64 {
        self.ops().now_ticks()
    }

    fn advance_to_ticks(&mut self, ticks: u64) {
        self.ops_mut().advance_to_ticks(ticks);
    }

    fn step_timed(&mut self) -> bool {
        self.ops_mut().step_timed()
    }

    fn messages_sent(&self) -> u64 {
        self.ops().messages_sent()
    }

    fn reserve_history(&mut self, additional: usize) {
        self.ops_mut().reserve_history(additional);
    }

    fn start_history_journal(&mut self) -> bool {
        self.ops_mut().start_history_journal()
    }

    fn drain_history_events(&mut self) -> Vec<HistoryEvent> {
        self.ops_mut().drain_history_events()
    }

    fn drain_history_events_into(&mut self, into: &mut Vec<HistoryEvent>) {
        self.ops_mut().drain_history_events_into(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typed<P: ProtocolFamily>(cfg: ClusterConfig, seed: u64) -> Cluster<P> {
        ClusterBuilder::new(cfg).seed(seed).build_typed().unwrap()
    }

    #[test]
    fn fast_crash_cluster_end_to_end() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: Cluster<FastCrash> = typed(cfg, 7);
        c.write_sync(1);
        assert_eq!(c.read(0), RegValue::Val(1));
        c.write_sync(2);
        assert_eq!(c.read(1), RegValue::Val(2));
        c.check_atomic().unwrap();
    }

    #[test]
    fn fast_byz_cluster_end_to_end() {
        let cfg = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();
        let mut c: Cluster<FastByz> = typed(cfg, 7);
        c.write_sync(5);
        assert_eq!(c.read(0), RegValue::Val(5));
        c.check_atomic().unwrap();
    }

    #[test]
    fn abd_cluster_end_to_end() {
        let cfg = ClusterConfig::crash_stop(4, 1, 3).unwrap();
        let mut c: Cluster<Abd> = typed(cfg, 7);
        c.write_sync(3);
        assert_eq!(c.read(2), RegValue::Val(3));
        c.check_atomic().unwrap();
    }

    #[test]
    fn maxmin_cluster_end_to_end() {
        let cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
        let mut c: Cluster<MaxMin> = typed(cfg, 7);
        c.write_sync(4);
        assert_eq!(c.read(0), RegValue::Val(4));
        c.check_atomic().unwrap();
    }

    #[test]
    fn fast_regular_cluster_end_to_end() {
        let cfg = ClusterConfig::crash_stop(5, 2, 4).unwrap();
        let mut c: Cluster<FastRegular> = typed(cfg, 7);
        c.write_sync(4);
        assert_eq!(c.read(3), RegValue::Val(4));
        c.check_regular().unwrap();
    }

    #[test]
    fn mwmr_abd_cluster_end_to_end() {
        let cfg = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        let mut c: Cluster<MwmrAbd> = typed(cfg, 7);
        c.write_by(0, 1);
        c.settle();
        c.write_by(1, 2);
        c.settle();
        assert_eq!(c.read(0), RegValue::Val(2));
        assert_eq!(c.check_linearizable(), Ok(true));
    }

    #[test]
    fn mwmr_naive_cluster_assembles() {
        let cfg = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        let mut c: Cluster<MwmrNaiveFast> = typed(cfg, 7);
        c.write_by(1, 9);
        c.settle();
        assert_eq!(c.read(1), RegValue::Val(9));
    }

    #[test]
    fn read_returns_bottom_on_fresh_cluster() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: Cluster<FastCrash> = typed(cfg, 7);
        assert_eq!(c.read(0), RegValue::Bottom);
    }

    #[test]
    fn multiple_reads_by_same_reader_are_counted() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: Cluster<FastCrash> = typed(cfg, 7);
        assert_eq!(c.read(0), RegValue::Bottom);
        c.write_sync(1);
        assert_eq!(c.read(0), RegValue::Val(1));
        c.write_sync(2);
        assert_eq!(c.read(0), RegValue::Val(2));
        c.check_atomic().unwrap();
    }

    #[test]
    fn server_factory_injects_custom_servers() {
        use fastreg_simnet::byz::Mute;
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        // Replace server 4 with a mute (crash-like) server: operations
        // still complete because quorum = 4.
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg)
            .build_typed_with(|cfg, layout, index, ctx| {
                if index == 4 {
                    Box::new(Mute::default())
                } else {
                    FastCrash::server(cfg, layout, index, ctx)
                }
            })
            .unwrap();
        c.write_sync(1);
        assert_eq!(c.read(0), RegValue::Val(1));
        c.check_atomic().unwrap();
    }

    #[test]
    fn builder_rejects_infeasible_configs_with_a_typed_error() {
        let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap();
        let err = ClusterBuilder::new(cfg)
            .build(ProtocolId::FastCrash)
            .unwrap_err();
        let BuildError::Infeasible {
            id,
            cfg: got,
            requirement,
        } = err.clone()
        else {
            panic!("expected Infeasible, got {err:?}");
        };
        assert_eq!(id, ProtocolId::FastCrash);
        assert_eq!(got, cfg);
        assert!(!requirement.is_empty());
        assert!(err.to_string().contains("fast-crash"));
        assert!(err.to_string().contains("R=3"));
    }

    #[test]
    fn typed_terminals_reject_a_threads_runtime_instead_of_dropping_it() {
        // Regression: `.runtime(Threads)` followed by the typed route used
        // to be discarded, quietly returning a simnet cluster.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let runtime = Runtime::Threads { workers: 2 };
        let plain = ClusterBuilder::new(cfg)
            .runtime(runtime)
            .build_typed::<FastCrash>();
        let with_factory = ClusterBuilder::new(cfg)
            .runtime(runtime)
            .build_typed_with::<FastCrash>(FastCrash::server);
        for built in [plain, with_factory] {
            match built.map(|_| ()) {
                Err(BuildError::UnsupportedRuntime { runtime: got, .. }) => {
                    assert_eq!(got, runtime)
                }
                other => panic!("expected UnsupportedRuntime, got {other:?}"),
            }
        }
        // The default (and an explicit simnet) runtime is accepted.
        ClusterBuilder::new(cfg)
            .runtime(Runtime::Simnet)
            .build_typed::<FastCrash>()
            .unwrap();
    }

    #[test]
    fn seed_wins_over_sim_regardless_of_call_order() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let render = |b: ClusterBuilder| {
            let mut c = b.build(ProtocolId::FastCrash).unwrap();
            let sim = c.sim_control().expect("simnet is the default runtime");
            sim.write(1);
            sim.read_async(0);
            sim.run_random_until_quiescent();
            sim.snapshot().render()
        };
        // .seed(7) then .sim(..) must behave exactly like .sim(..).seed(7):
        // the explicit seed survives a later sim() replacement.
        let seed_then_sim = render(ClusterBuilder::new(cfg).seed(7).sim(SimConfig::default()));
        let sim_then_seed = render(ClusterBuilder::new(cfg).sim(SimConfig::default()).seed(7));
        let plain_seed = render(ClusterBuilder::new(cfg).seed(7));
        assert_eq!(seed_then_sim, sim_then_seed);
        assert_eq!(seed_then_sim, plain_seed);
        // And it genuinely differs from the default seed 0 schedule.
        let default_seed = render(ClusterBuilder::new(cfg).sim(SimConfig::default()));
        assert_ne!(seed_then_sim, default_seed);

        // Same contract on the typed path.
        let typed: Cluster<FastCrash> = ClusterBuilder::new(cfg)
            .seed(7)
            .sim(SimConfig::default())
            .build_typed()
            .unwrap();
        let mut typed = DynCluster::from_cluster(typed);
        let sim = typed
            .sim_control()
            .expect("erased Cluster keeps SimControl");
        sim.write(1);
        sim.read_async(0);
        sim.run_random_until_quiescent();
        assert_eq!(sim.snapshot().render(), seed_then_sim);
    }

    #[test]
    fn build_unchecked_allows_infeasible_deployments() {
        // Beyond the fast bound: builds anyway (the lower-bound
        // experiments rely on this), and sequential ops still work.
        let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(1)
            .build_unchecked(ProtocolId::FastCrash);
        c.write_sync(4);
        assert_eq!(c.read(2), RegValue::Val(4));
    }

    #[test]
    fn dyn_cluster_matches_static_cluster_run_for_run() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut stat: Cluster<FastCrash> = typed(cfg, 9);
        let mut dynamic = ClusterBuilder::new(cfg)
            .seed(9)
            .build(ProtocolId::FastCrash)
            .unwrap();
        assert_eq!(dynamic.name(), "fast-crash");
        assert_eq!(dynamic.id(), ProtocolId::FastCrash);
        for v in 1..=3u64 {
            stat.write_sync(v);
            RegisterOps::write_sync(&mut dynamic, v);
            assert_eq!(stat.read(0), dynamic.read(0));
        }
        assert_eq!(stat.snapshot().render(), dynamic.snapshot().render());
        assert_eq!(stat.world.stats().sent, dynamic.messages_sent());
        dynamic.check_atomic().unwrap();
    }

    #[test]
    fn incremental_queries_match_the_snapshot() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(5)
            .build(ProtocolId::FastCrash)
            .unwrap();
        assert_eq!(c.ops_recorded(), 0);
        assert_eq!(c.ops_completed(), 0);
        let w_addr = c.layout().writer(0).index();
        let r_addr = c.layout().reader(0).index();
        c.write(1); // outstanding until settled
        assert!(c.client_busy(w_addr));
        assert!(!c.client_busy(r_addr));
        assert_eq!(c.ops_recorded(), 1);
        assert_eq!(c.ops_completed(), 0);
        let steps = c.try_settle().expect("quiesces well within budget");
        assert!(steps > 0);
        assert!(!c.client_busy(w_addr));
        assert_eq!(c.ops_completed(), 1);
        c.read_async(0);
        assert!(c.client_busy(r_addr));
        c.settle();
        // The O(1) counters agree with the full snapshot they replace.
        let snap = c.snapshot();
        assert_eq!(c.ops_recorded(), snap.len() as u64);
        assert_eq!(c.ops_completed(), snap.complete_ops().count() as u64);
    }

    #[test]
    fn link_controls_and_fingerprint_work_through_dyn() {
        use fastreg_atomicity::verdict::Verdict;
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(6)
            .build(ProtocolId::FastCrash)
            .unwrap();
        let layout = c.layout();
        let writer = layout.writer(0).index();
        let s0 = layout.server(0).index();
        // The sim handle also answers every portable call (supertrait),
        // so the whole schedule-steering block stays on one borrow.
        let c = c.sim_control().expect("built on the simnet");
        // Block the writer's link to server 0: the write still completes
        // (quorum 4 of 5) but server 0 never hears it.
        c.block_link_procs(writer, s0);
        c.write(1);
        c.run_random_until_quiescent();
        assert!(!c.client_busy(writer), "write completes on a 4/5 quorum");
        let fp_blocked = c.trace_fingerprint();
        // Healing delivers the parked message; the trace (and so the
        // fingerprint) changes.
        c.heal_link_procs(writer, s0);
        while c.step_random() {}
        assert_ne!(c.trace_fingerprint(), fp_blocked);
        c.read_async(0);
        c.run_random_until_quiescent();
        assert_eq!(c.contract_verdict(Contract::Atomic), Verdict::Clean);
        assert_eq!(c.contract_verdict(Contract::Regular), Verdict::Clean);

        // Identical runs have identical fingerprints.
        let fingerprint_of = |seed: u64| {
            let mut c = ClusterBuilder::new(cfg)
                .seed(seed)
                .build(ProtocolId::FastCrash)
                .unwrap();
            let sim = c.sim_control().unwrap();
            sim.write(1);
            sim.read_async(1);
            sim.run_random_until_quiescent();
            sim.trace_fingerprint()
        };
        assert_eq!(fingerprint_of(9), fingerprint_of(9));
        assert_ne!(fingerprint_of(9), fingerprint_of(10));
    }

    #[test]
    fn dyn_clusters_are_send() {
        // The sharded store moves shards (collections of DynClusters)
        // between worker threads; a non-Send regression here would only
        // surface as a cross-crate build break, so pin it at the source.
        fn assert_send<T: Send>() {}
        assert_send::<DynCluster>();
        assert_send::<Cluster<FastCrash>>();
        assert_send::<Cluster<FastByz>>();
    }

    #[test]
    fn contract_verdict_uses_the_right_checker_per_population() {
        use fastreg_atomicity::verdict::{Verdict, ViolationKind};
        // MWMR: atomicity goes through the linearizability oracle.
        let cfg = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        let mut naive = ClusterBuilder::new(cfg)
            .seed(1)
            .build(ProtocolId::MwmrNaiveFast)
            .unwrap();
        RegisterOps::write_by(&mut naive, 1, 2);
        naive.settle();
        naive.advance_to_ticks(100);
        RegisterOps::write_by(&mut naive, 0, 1);
        naive.settle();
        naive.advance_to_ticks(200);
        naive.read(0);
        assert_eq!(
            naive.contract_verdict(Contract::Unsound),
            Verdict::Violation(ViolationKind::NotLinearizable)
        );
        let mut sound = ClusterBuilder::new(cfg)
            .seed(1)
            .build(ProtocolId::MwmrAbd)
            .unwrap();
        RegisterOps::write_by(&mut sound, 1, 2);
        sound.settle();
        sound.read(0);
        assert_eq!(sound.contract_verdict(Contract::Atomic), Verdict::Clean);
    }

    #[test]
    fn register_ops_world_controls_drive_a_dyn_cluster() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(3)
            .build(ProtocolId::FastCrash)
            .unwrap();
        assert_eq!(c.cfg(), cfg);
        assert_eq!(c.layout(), Layout::of(&cfg));
        {
            let sim = c.sim_control().expect("built on the simnet");
            sim.crash_server(4); // t = 1 tolerated
            sim.arm_writer_crash_after_sends(0, 3);
            sim.write(1);
            sim.run_random_until_quiescent();
        }
        let t = c.now_ticks();
        c.advance_to_ticks(t + 10);
        assert!(c.now_ticks() >= t + 10);
        c.read_async(0);
        c.settle();
        c.check_atomic().unwrap();
        c.check_regular().unwrap();
        assert_eq!(c.check_linearizable(), Ok(true));
        assert!(!c.step_timed(), "quiescent world has nothing in transit");
        assert!(format!("{c:?}").contains("fast-crash") || format!("{c:?}").contains("FastCrash"));
    }
}
