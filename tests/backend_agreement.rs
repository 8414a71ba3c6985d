//! Differential backend agreement: the simnet oracle vs. the
//! real-threads runtime.
//!
//! The same seeded closed-loop workload is driven through the one
//! portable surface — [`RegisterOps`] via [`ClusterBuilder::runtime`] —
//! on both substrates, and the *observable contract* must agree:
//!
//! * both runs complete every issued operation (identical
//!   ops-completed counts, zero incomplete);
//! * both histories pass the unmodified post-hoc checkers cleanly.
//!
//! The two clean verdicts are not equally strong. A threaded history is
//! stamped in microsecond ticks, so two operations inside one
//! microsecond are concurrent to the checker, and a stale read among
//! them would pass; simnet's ticks order every event. A clean rt verdict
//! is therefore the weaker claim (E17 says the same).
//!
//! What is deliberately NOT compared: trace fingerprints and latency.
//! Real time is nondeterministic — the OS interleaves the actors
//! differently on every run — so the threaded runtime has no replayable
//! fingerprint at all (that is the whole reason `SimControl` is a
//! separate trait).

use fastreg_suite::fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_suite::prelude::*;

/// The seeded workload both backends replay: mixed reads and writes,
/// no think time (maximum concurrency pressure), one shared seed.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        n_ops: 120,
        write_fraction: 0.25,
        think_time: 0,
        seed: 42,
    }
}

/// Runs the workload on `runtime`, asserts the run is clean, and
/// returns the completed-op count.
fn completed_on(runtime: Runtime, id: ProtocolId, cfg: ClusterConfig) -> u64 {
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(42)
        .runtime(runtime)
        .build(id)
        .unwrap_or_else(|e| panic!("{id:?} on {runtime}: {e}"));
    let report = run_closed_loop(&mut cluster, &spec())
        .unwrap_or_else(|e| panic!("{id:?} on {runtime} stalled: {e}"));
    assert_eq!(
        report.breakdown.incomplete, 0,
        "{id:?} on {runtime}: ops left pending"
    );
    // The post-hoc checkers are runtime-blind: the same SWMR atomicity
    // oracle that grades simulated histories grades the threaded ones.
    check_swmr_atomicity(&report.history)
        .unwrap_or_else(|e| panic!("{id:?} on {runtime}: {e}\n{}", report.history.render()));
    cluster
        .check_atomic()
        .unwrap_or_else(|e| panic!("{id:?} on {runtime} (cluster verdict): {e}"));
    report.breakdown.completed
}

fn agree(id: ProtocolId, cfg: ClusterConfig) {
    let oracle = completed_on(Runtime::Simnet, id, cfg);
    assert_eq!(oracle, spec().n_ops, "{id:?}: simnet must complete all ops");
    for workers in [1usize, 2, 4] {
        let rt = completed_on(Runtime::Threads { workers }, id, cfg);
        assert_eq!(
            rt, oracle,
            "{id:?}: threaded runtime ({workers} workers) disagrees with the simnet oracle"
        );
    }
}

#[test]
fn fast_crash_agrees_across_backends() {
    agree(
        ProtocolId::FastCrash,
        ClusterConfig::crash_stop(5, 1, 2).unwrap(),
    );
}

#[test]
fn abd_agrees_across_backends() {
    agree(ProtocolId::Abd, ClusterConfig::crash_stop(5, 2, 2).unwrap());
}

#[test]
fn fast_byz_agrees_across_backends() {
    agree(
        ProtocolId::FastByz,
        ClusterConfig::byzantine(6, 1, 1, 1).unwrap(),
    );
}

#[test]
fn seeds_and_mixes_agree_on_the_flagship_protocol() {
    // A denser sweep on the cheapest sound protocol: different seeds
    // and write mixes, each compared simnet-vs-threads at 2 workers.
    for (seed, write_fraction) in [(1u64, 0.0), (7, 0.5), (13, 1.0)] {
        let cfg = ClusterConfig::crash_stop(4, 1, 1).unwrap();
        let spec = WorkloadSpec {
            n_ops: 60,
            write_fraction,
            think_time: 0,
            seed,
        };
        let run = |runtime: Runtime| {
            let mut cluster = ClusterBuilder::new(cfg)
                .seed(seed)
                .runtime(runtime)
                .build(ProtocolId::FastCrash)
                .unwrap();
            let report = run_closed_loop(&mut cluster, &spec).unwrap();
            check_swmr_atomicity(&report.history).unwrap();
            report.breakdown.completed
        };
        let sim = run(Runtime::Simnet);
        let threads = run(Runtime::Threads { workers: 2 });
        assert_eq!(sim, threads, "seed {seed}, write_fraction {write_fraction}");
    }
}
