//! The tentpole comparison pinned by PR 9: coverage-guided search must
//! reach the §5 fast-crash new-old-inversion counterexample in strictly
//! fewer cells than the random grid at the same budget.
//!
//! Both strategies are deterministic at any thread count, so the
//! medians below are exact pins, not flaky statistics: the run that
//! produced them is byte-reproducible. If a deliberate engine change
//! shifts them, re-derive the expected medians by re-running this test
//! with `--nocapture` and reading the printed samples — coverage must
//! still come out strictly lower.

use fastreg::protocols::registry::ProtocolId;
use fastreg_adversary::explore::{explore, ExploreConfig, Strategy};
use fastreg_atomicity::verdict::{Verdict, ViolationKind};

/// The shared budget: four cycles of the 36-pair grid.
const BUDGET: u32 = 144;
/// Eight fixed base seeds — the first eight, no selection.
const SEEDS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Cells run until the first fast-crash new-old-inversion finding
/// (1-based run index); `budget + 1` when the budget expires without
/// one.
fn cells_to_inversion(strategy: Strategy, base_seed: u64) -> usize {
    let config = ExploreConfig {
        cells: BUDGET,
        threads: 4,
        ops: 6,
        base_seed,
        strategy,
        ..Default::default()
    };
    let report = explore(&config);
    report
        .findings
        .iter()
        .filter(|f| {
            f.counterexample.protocol == ProtocolId::FastCrash
                && f.counterexample.verdict == Verdict::Violation(ViolationKind::NewOldInversion)
        })
        .map(|f| f.cell_index + 1)
        .min()
        .unwrap_or(BUDGET as usize + 1)
}

fn median(mut xs: Vec<usize>) -> usize {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn coverage_guided_beats_random_grid_to_the_section_5_inversion() {
    let sample = |strategy: Strategy| -> Vec<usize> {
        SEEDS
            .iter()
            .map(|&seed| cells_to_inversion(strategy, seed))
            .collect()
    };
    let random = sample(Strategy::RandomGrid);
    let coverage = sample(Strategy::CoverageGuided);
    println!("random-grid     cells-to-inversion: {random:?}");
    println!("coverage-guided cells-to-inversion: {coverage:?}");

    let random_median = median(random);
    let coverage_median = median(coverage);
    println!("medians: random-grid {random_median}, coverage-guided {coverage_median}");

    // The headline claim: at the same budget, the guided search reaches
    // the paper's past-the-bound counterexample in strictly fewer cells.
    assert!(
        coverage_median < random_median,
        "coverage-guided median ({coverage_median}) must beat random-grid ({random_median})"
    );

    // Exact pins (deterministic — see module docs for regeneration).
    // Random leaves the inversion unfound on most of these seeds
    // (budget + 1 = 145); the guided search finds it before cell 80 on
    // the median seed.
    assert_eq!(random_median, 145);
    assert_eq!(coverage_median, 79);
}
