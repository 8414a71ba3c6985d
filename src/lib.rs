//! # fastreg-suite
//!
//! Facade crate for the `fastreg` workspace — a from-scratch reproduction
//! of *How Fast can a Distributed Atomic Read be?* (Dutta, Guerraoui,
//! Levy, Vukolić; PODC 2004).
//!
//! This crate re-exports the workspace's public surface so that examples
//! and integration tests can use a single import root:
//!
//! ```
//! use fastreg_suite::prelude::*;
//!
//! let config = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
//! assert!(config.fast_feasible());
//! ```
//!
//! See the individual crates for the full documentation:
//!
//! * [`fastreg`] — the paper's protocols (Fig. 2, Fig. 5) and baselines.
//! * [`fastreg_simnet`] — deterministic discrete-event simulation substrate.
//! * [`fastreg_rt`] — the real-threads actor runtime (wall-clock sibling
//!   of the simnet; pick one with
//!   [`Runtime`](fastreg::harness::Runtime)).
//! * [`fastreg_auth`] — simulated digital signatures (§6 substitution).
//! * [`fastreg_atomicity`] — atomicity / linearizability / regularity checkers.
//! * [`fastreg_adversary`] — the lower-bound proofs (§5, §6.2, §7) as code.
//! * [`fastreg_workload`] — workload generators and the experiment harness.
//! * [`fastreg_store`] — the sharded multi-register key–value store.
//! * [`fastreg_obs`] — deterministic tracing + metrics spine (logical
//!   clocks, span records, chrome-trace export, integer-only registry).

#![warn(missing_docs)]

pub use fastreg;
pub use fastreg_adversary;
pub use fastreg_atomicity;
pub use fastreg_auth;
pub use fastreg_obs;
pub use fastreg_rt;
pub use fastreg_simnet;
pub use fastreg_store;
pub use fastreg_workload;

/// Commonly used items, re-exported for examples and tests.
///
/// Protocols are first-class runtime values: enumerate them with
/// [`ProtocolId::ALL`](fastreg::protocols::registry::ProtocolId::ALL),
/// parse a [`ProtocolId`](fastreg::protocols::registry::ProtocolId) from
/// a CLI flag, and build a type-erased
/// [`DynCluster`](fastreg::harness::DynCluster) with
/// [`ClusterBuilder`](fastreg::harness::ClusterBuilder):
///
/// ```
/// use fastreg_suite::prelude::*;
///
/// let config = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
/// let mut cluster = ClusterBuilder::new(config)
///     .seed(7)
///     .build(ProtocolId::FastCrash)
///     .expect("feasible");
/// cluster.write_sync(9);
/// assert_eq!(cluster.read(0), RegValue::Val(9));
/// cluster.check_atomic().expect("atomic");
/// ```
pub mod prelude {
    pub use fastreg::config::ClusterConfig;
    pub use fastreg::harness::{
        Abd, BuildError, Cluster, ClusterBuilder, DynCluster, FastByz, FastCrash, FastRegular,
        MaxMin, MwmrAbd, MwmrNaiveFast, ProtocolFamily, RegisterOps, Runtime, SimControl, SwsrFast,
    };
    pub use fastreg::protocols::registry::{Contract, ProtocolId, UnknownProtocol};
    pub use fastreg::threads::ThreadCluster;
    pub use fastreg::types::{ClientId, RegValue, Role, TaggedValue, Timestamp, Value};
    pub use fastreg_atomicity::history::History;
    pub use fastreg_atomicity::linearizability::check_linearizable;
    pub use fastreg_atomicity::regularity::check_swmr_regularity;
    pub use fastreg_atomicity::swmr::check_swmr_atomicity;
    pub use fastreg_simnet::runner::SimConfig;
    pub use fastreg_store::{
        BatchedFrontend, KvOp, KvOpKind, Router, ShardedStore, StoreBuilder, StoreChecker,
        StoreError,
    };
}
