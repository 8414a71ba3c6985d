//! # fastreg
//!
//! A from-scratch implementation of *How Fast can a Distributed Atomic
//! Read be?* (Dutta, Guerraoui, Levy, Vukolić; PODC 2004): fast
//! (one-round) single-writer multi-reader atomic register protocols over
//! an asynchronous message-passing system, together with the baselines the
//! paper discusses.
//!
//! The paper's headline result is a tight bound: a fast SWMR atomic
//! register exists **iff** the number of readers satisfies
//! `R < (S + b)/(t + b) − 2`, where `t` of the `S` servers may fail, `b`
//! of them maliciously (`b = 0` gives the crash-stop bound `R < S/t − 2`).
//! No fast MWMR register exists at all.
//!
//! ## Crate map
//!
//! * [`config`] — cluster parameters and the feasibility predicates.
//! * [`types`] — timestamps, client ids, the two-tag value scheme.
//! * [`quorum`] — the counting machinery (`S − a·t − (a−1)·b`, blocks).
//! * [`predicate`] — the fast-read safety predicate (Fig. 2/5 line 19).
//! * [`layout`] — role ↔ address mapping.
//! * [`protocols`] — Fig. 2, Fig. 5, ABD, max–min, fast regular, MWMR,
//!   and the runtime [`protocols::registry`] (ids ⇄ names ⇄
//!   feasibility).
//! * [`byz`] — malicious server strategies (protocol-aware).
//! * [`harness`] — cluster assembly: the protocol table, the one
//!   [`harness::ClusterBuilder`] (with its [`harness::Runtime`] switch)
//!   every deployment is built through, the portable
//!   [`harness::RegisterOps`] operations trait, the simulator-only
//!   [`harness::SimControl`] extension, and the type-erased
//!   [`harness::DynCluster`].
//! * [`threads`] — the same protocols assembled over the real-threads
//!   runtime ([`fastreg_rt`]), histories checked post hoc.
//!
//! ## Quickstart
//!
//! ```
//! use fastreg::config::ClusterConfig;
//! use fastreg::harness::{Cluster, ClusterBuilder, FastCrash, RegisterOps};
//! use fastreg::types::RegValue;
//!
//! // 5 servers, tolerate 1 crash, 2 readers: fast-feasible.
//! let cfg = ClusterConfig::crash_stop(5, 1, 2)?;
//! let mut cluster: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(42).build_typed()?;
//!
//! cluster.write(7);
//! cluster.try_settle()?; // typed error if the protocol never quiesces
//! assert_eq!(cluster.read(0), RegValue::Val(7));
//! cluster.check_atomic()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod byz;
pub mod config;
pub mod harness;
pub mod layout;
pub mod predicate;
pub mod protocols;
pub mod quorum;
pub mod threads;
pub mod types;
