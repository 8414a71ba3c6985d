//! # fastreg-adversary
//!
//! The lower-bound proofs of *How Fast can a Distributed Atomic Read be?*
//! executed as scripted adversarial schedules against the real protocol
//! implementations.
//!
//! The paper proves three impossibility results by constructing partial
//! runs that force any fast implementation into an atomicity violation:
//!
//! * **§5 (crash-stop)**: if `R ≥ S/t − 2`, the chain of partial runs
//!   `wr_i → pr_i → Δpr_i → prA/prB → prC/prD` (Figs. 1, 3, 4) ends in
//!   `prC`, where reader `r_R` returns the written value `1` and a
//!   *subsequent* read by `r_1` returns `⊥` — a new/old inversion.
//! * **§6.2 (arbitrary failures)**: the same chain over the finer block
//!   partition `T_1..T_{R+2}, B_1..B_{R+1}` (Fig. 6), with a *two-faced
//!   memory-losing* Byzantine block `B_i` in each run.
//!
//!   The two are one proof, so they are one module: [`chain`] runs the
//!   chain over one [`Partition`] against the actual Fig. 2 (`b = 0`) or
//!   Fig. 5 (`b ≥ 1`) implementation — [`run_lower_bound`] picks from the
//!   configuration — and lets the mechanical checker exhibit the
//!   violation.
//! * **§7 (multi-writer)**: no fast MWMR register exists even with
//!   `t = 1`. [`mwmr_lb`] drives the plausible one-round MWMR protocol
//!   through the §7 run constructions and exhibits the violation.
//!
//! On the feasible side of each bound, the constructions are impossible to
//! set up (the block partition does not exist) and [`explore()`] — the
//! schedule-exploration engine, here on a one-point grid — finds no
//! violation under randomized adversarial schedules: together the two
//! directions trace the paper's exact feasibility frontier (experiment E8).
//!
//! [`mod@explore`] is the one schedule search: a parallel, deterministic
//! engine that hunts violations across a protocol × configuration ×
//! fault-distribution grid, shrinks what it finds, and serializes each
//! violation as a replayable counterexample file (the committed `corpus/`
//! regression suite).

#![warn(missing_docs)]

pub mod ablation;
pub mod blocks;
pub mod chain;
pub mod explore;
pub mod mwmr_lb;

pub use ablation::{refute_count_predicate, AblationOutcome};
pub use blocks::Partition;
pub use chain::{run_lower_bound, LbOutcome};
pub use explore::{
    default_grid, explore, explore_fast_crash, Cell, CellExpectation, CellOutcome, Counterexample,
    ExploreConfig, ExploreOutcome, ExploreReport, FaultDistribution, Finding, GridPoint, OpScript,
    ReplayOutcome,
};
pub use mwmr_lb::{run_mwmr_lb, MwmrLbOutcome};

/// Errors common to the lower-bound constructions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LbError {
    /// The configuration is fast-feasible: the paper proves the
    /// construction cannot exist there, and indeed the block partition
    /// required by the proof does not exist.
    ConfigIsFeasible,
    /// The proof requires at least two readers (`R ≥ 2`).
    NeedTwoReaders,
    /// The proof requires at least one tolerated fault (`t ≥ 1`).
    NeedFaults,
    /// The block partition could not be formed (e.g. `S < R + 2`: fewer
    /// servers than blocks).
    NoPartition,
    /// A construction phase exhausted its step budget before the world
    /// quiesced — the protocol under test livelocked, which the scripted
    /// constructions surface as a verdict instead of panicking.
    DidNotQuiesce {
        /// Steps taken before giving up.
        steps: u64,
        /// Messages still in transit.
        in_transit: usize,
    },
}

impl std::fmt::Display for LbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LbError::ConfigIsFeasible => {
                write!(
                    f,
                    "configuration is fast-feasible; the lower-bound construction does not apply"
                )
            }
            LbError::NeedTwoReaders => write!(f, "the construction needs R >= 2"),
            LbError::NeedFaults => write!(f, "the construction needs t >= 1"),
            LbError::NoPartition => write!(f, "no valid block partition exists"),
            LbError::DidNotQuiesce { steps, in_transit } => write!(
                f,
                "construction did not quiesce after {steps} steps ({in_transit} in transit)"
            ),
        }
    }
}

impl std::error::Error for LbError {}
