//! Schedule exploration: the violation-hunting subsystem.
//!
//! The paper's claims are quantified over *all* schedules: fast reads
//! stay atomic exactly while `S > (R + 2)t + (R + 1)b`, and past that
//! bound violations exist but only under specific crash/delay
//! interleavings. This module hunts those interleavings at scale, in
//! three coordinated pieces:
//!
//! * [`engine`] — a multi-threaded, deterministic exploration engine
//!   that fans a (protocol × configuration × fault-distribution × seed)
//!   grid of [`cell::Cell`]s across a worker pool, runs each cell to
//!   completion as an independent simulated world with randomized
//!   crash/block/delay injection, and checks every history against the
//!   protocol's declared contract. Same inputs ⇒ identical verdicts and
//!   counterexample bytes, at any thread count. [`engine::explore`] is
//!   the one entry point of the randomized search: `report explore`, E15
//!   and — on a one-point grid — the feasible-side checks of E1, E3 and
//!   E8 all call it.
//! * [`mod@coverage`] / [`mod@mutate`] / [`mod@strategy`] — the search
//!   upgrade: stable run signals (verdict codes, trace shape, predicate
//!   witness levels, message-reorder depth, fault-script shape) hash
//!   into a [`coverage::CoverageMap`]; coverage-novel scripts are
//!   retained and mutated; and
//!   [`strategy::Strategy::CoverageGuided`] plans each batch toward the
//!   pairs still producing novelty. [`strategy::Strategy::RandomGrid`]
//!   keeps uniform sampling as the control baseline.
//! * [`mod@shrink`] — greedy minimization of a violating cell: fault events
//!   are removed and the op budget lowered while the violation persists.
//! * [`counterexample`] — the serialized, replayable form: protocol +
//!   configuration + seed + shrunk fault script + expected verdict +
//!   trace fingerprint. The committed `corpus/` directory at the
//!   workspace root holds known counterexamples (e.g. Fig. 2 past the
//!   fast bound) and replays as a regression suite in CI.
//!
//! [`exhaustive`] keeps the complementary ∀-schedules direction: the
//! bounded-exhaustive enumeration of delivery orders on tiny clusters
//! (experiment E12).

pub mod cell;
pub mod counterexample;
pub mod coverage;
pub mod engine;
pub mod exhaustive;
pub mod mutate;
pub mod shrink;
pub mod strategy;

pub use cell::{Cell, CellExpectation, CellOutcome, FaultDistribution, RunSignals};
pub use counterexample::{Counterexample, CounterexampleParseError, ReplayOutcome};
pub use coverage::{cell_features, CoverageMap, CoverageReport, SaturationPoint};
pub use engine::{default_grid, explore, ExploreConfig, ExploreReport, Finding, GridPoint};
pub use exhaustive::{explore_fast_crash, ExploreOutcome, OpScript};
pub use shrink::ShrinkStats;
pub use strategy::Strategy;
