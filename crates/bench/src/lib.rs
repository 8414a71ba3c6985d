//! # fastreg-bench
//!
//! Criterion benchmarks and the `report` binary.
//!
//! * `cargo run -p fastreg-bench --bin report --release` regenerates every
//!   experiment table (E1–E14) from `EXPERIMENTS.md`; `--list` shows the
//!   experiments and the registered protocols, `--protocol <name>`
//!   (a registry name like `fast-byz`) restricts the run to the
//!   experiments exercising that protocol, and `--json` emits
//!   per-experiment wall times (informational; the gated perf ledger is
//!   `fastbench` under `benchmark/`).
//! * `cargo bench -p fastreg-bench` runs the wall-clock and simulated-time
//!   microbenchmarks:
//!   - `protocol_reads` — fast vs ABD vs max–min read, simulated cluster;
//!   - `simnet_scheduler` — per-delivery cost of the event-queue
//!     scheduler vs the linear-scan reference across in-transit pool
//!     sizes (10²–10⁵ envelopes);
//!   - `threaded_reads` — the same automata over real OS threads;
//!   - `predicate` — the Fig. 2 line-19 predicate evaluation;
//!   - `checker` — the SWMR atomicity checker and linearizability oracle;
//!   - `lower_bounds` — the full §5/§6.2/§7 proof constructions.

#![warn(missing_docs)]

/// Re-export for the benches.
pub use fastreg_workload::experiments;
