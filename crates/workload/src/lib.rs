//! # fastreg-workload
//!
//! Workload generation, metrics, and the experiment harness that
//! regenerates every table in `EXPERIMENTS.md`.
//!
//! The paper is a theory paper; its "evaluation" is a set of theorems and
//! proof constructions. The experiments here make each one measurable:
//!
//! | id | paper artifact | entry point |
//! |----|----------------|-------------|
//! | E1 | Fig. 2 correctness under faults | [`experiments::e1_fast_crash_atomicity`] |
//! | E2 | one-round reads vs baselines | `experiments::e2_round_trips` |
//! | E3 | §5 lower bound | `experiments::e3_crash_lower_bound` |
//! | E4 | Fig. 5 correctness under Byzantine servers | `experiments::e4_byz_atomicity` |
//! | E5 | §6.2 lower bound | `experiments::e5_byz_lower_bound` |
//! | E6 | §7 MWMR impossibility | `experiments::e6_mwmr` |
//! | E7 | §8 regular-vs-atomic trade-off | `experiments::e7_regular_tradeoff` |
//! | E8 | §9 feasibility frontier | `experiments::e8_frontier` |
//! | E9 | latency distributions | `experiments::e9_latency` |
//! | E10 | predicate internals | `experiments::e10_predicate` |
//! | E11 | §1 single-reader corner | `experiments::e11_single_reader` |
//! | E12 | exhaustive schedule exploration | `experiments::e12_exploration` |
//! | E13 | seen-set ablation | `experiments::e13_seen_ablation` |
//! | E14 | closed-loop scale, bounded checker frontier | [`experiments::e14_scale`] |
//! | E15 | parallel schedule exploration | [`experiments::e15_exploration`] |
//! | E16 | sharded KV store sweep | `experiments::e16_store` |
//! | E17 | real-threads runtime runs (µs-tick verdicts) | `experiments::e17_rt_runs` |
//! | E18 | checker memory | [`experiments::e18_checker_memory`] |
//! | E19 | observability invariants | `experiments::e19_obs_invariants` |
//!
//! Each experiment returns a rendered table (and asserts its own internal
//! expectations); [`experiments::EXPERIMENTS`] holds one row per
//! experiment (id, title, protocols, quick/full parameters), which the
//! `report` binary in `fastreg-bench` lists, filters and prints.
//!
//! The [`driver`] is protocol-agnostic: it takes any `&mut dyn
//! RegisterOps` (a concrete `Cluster<P>` or a registry-built
//! `DynCluster`), which is how the multi-protocol experiments (E2, E9)
//! sweep protocols as data instead of monomorphizing per-protocol
//! blocks.

#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod kv;
pub mod metrics;
pub mod obsrun;
pub mod table;

pub use driver::{run_closed_loop, DriverError, WorkloadReport, WorkloadSpec};
pub use kv::{run_kv_workload, KeyDist, KvReport, KvWorkloadSpec};
pub use metrics::{LatencyStats, OpBreakdown};
pub use obsrun::{trace_register_run, trace_store_run, ObsArtifacts};
pub use table::Table;
