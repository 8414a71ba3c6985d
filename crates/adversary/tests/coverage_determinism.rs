//! The coverage determinism contract, as a property suite.
//!
//! Coverage is folded *in job order* between `map_ordered` fan-outs, so
//! everything coverage-derived — the feature sets, the saturation
//! curve, the rendered report bytes — must be identical at any worker
//! count, and two engine instances at the same seed must agree
//! byte-for-byte. CI's fuzz lanes and the `--coverage-out` artifact
//! both lean on this: a nightly diff between two coverage documents is
//! meaningful only because nothing in them can drift with scheduling.

use std::collections::BTreeSet;

use fastreg_adversary::explore::{
    cell_features, explore, CoverageMap, ExploreConfig, ExploreReport, Strategy,
};

fn config(strategy: Strategy, threads: usize) -> ExploreConfig {
    ExploreConfig {
        cells: 72,
        threads,
        ops: 6,
        base_seed: 0xc0_7e4a6e,
        strategy,
        ..Default::default()
    }
}

/// Rebuilds the run's coverage map independently from the explored
/// cells, exactly as the engine folds it: every run's features, in run
/// order.
fn refold(report: &ExploreReport) -> CoverageMap {
    let mut map = CoverageMap::new();
    for e in &report.cells {
        map.observe(&cell_features(&e.cell, &e.faults, &e.outcome));
    }
    map
}

fn feature_set(report: &ExploreReport) -> BTreeSet<u64> {
    refold(report).features().collect()
}

#[test]
fn feature_sets_and_report_bytes_are_worker_count_independent() {
    for strategy in [Strategy::RandomGrid, Strategy::CoverageGuided] {
        let baseline = explore(&config(strategy, 1));
        for threads in [2usize, 4] {
            let run = explore(&config(strategy, threads));
            assert_eq!(
                feature_set(&baseline),
                feature_set(&run),
                "feature set drifted at {threads} workers under {strategy}"
            );
            assert_eq!(
                baseline.coverage, run.coverage,
                "coverage report drifted at {threads} workers under {strategy}"
            );
            assert_eq!(
                baseline.coverage.render(),
                run.coverage.render(),
                "rendered coverage bytes drifted at {threads} workers under {strategy}"
            );
        }
    }
}

#[test]
fn two_engine_instances_at_the_same_seed_agree_byte_for_byte() {
    for strategy in [Strategy::RandomGrid, Strategy::CoverageGuided] {
        let a = explore(&config(strategy, 4));
        let b = explore(&config(strategy, 4));
        assert_eq!(feature_set(&a), feature_set(&b));
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.coverage.render(), b.coverage.render());
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.outcome.fingerprint, y.outcome.fingerprint);
        }
    }
}

#[test]
fn the_engine_fold_matches_an_independent_refold() {
    // The report's headline number must equal what an outside observer
    // computes from the published (cell, faults, outcome) triples — the
    // engine cannot count features its report does not expose.
    for strategy in [Strategy::RandomGrid, Strategy::CoverageGuided] {
        let report = explore(&config(strategy, 2));
        assert_eq!(
            report.coverage.features_seen,
            refold(&report).features_seen(),
            "under {strategy}"
        );
    }
}

#[test]
fn sharded_map_merge_equals_the_sequential_fold() {
    // Merging per-chunk maps (any partition) reproduces the sequential
    // map — the property that makes per-worker accumulation safe if the
    // fold ever shards.
    let report = explore(&config(Strategy::CoverageGuided, 4));
    let sequential = refold(&report);
    for chunk_size in [1usize, 7, 24] {
        let mut merged = CoverageMap::new();
        for chunk in report.cells.chunks(chunk_size) {
            let mut part = CoverageMap::new();
            for e in chunk {
                part.observe(&cell_features(&e.cell, &e.faults, &e.outcome));
            }
            merged.merge(&part);
        }
        assert_eq!(
            sequential.features().collect::<Vec<_>>(),
            merged.features().collect::<Vec<_>>(),
            "chunk size {chunk_size}"
        );
        assert_eq!(sequential.features_seen(), merged.features_seen());
    }
}
