//! The parallel schedule-exploration engine.
//!
//! [`explore`] fans a deterministic grid of [`Cell`]s — every
//! combination of grid point (protocol × configuration), fault
//! distribution and replicate seed — across an order-preserving worker
//! pool ([`map_ordered`]), runs each cell as an independent simulated
//! world, and classifies every verdict against the cell's expectation:
//!
//! * a violation in a **sound, feasible** cell is a protocol bug — the
//!   engine reports it as `unexpected` and callers should fail loudly;
//! * a violation in a cell **beyond the bound** (or on a known-unsound
//!   protocol) is the prize: it is shrunk ([`shrink`]) and packaged as a
//!   replayable [`Counterexample`].
//!
//! Determinism is load-bearing: cell seeds derive from `(base_seed,
//! cell index)` only, results are collected in cell order, and shrinking
//! is a pure function of the violating cell — so the same `cells +
//! base_seed + ops` produce identical verdicts and identical
//! counterexample bytes at any thread count.

use fastreg::config::ClusterConfig;
use fastreg::protocols::registry::{Contract, ProtocolId};
use fastreg_rt::threaded::map_ordered;
use fastreg_simnet::fault::FaultScript;

use super::cell::{splitmix64, Cell, CellExpectation, CellOutcome, FaultDistribution};
use super::counterexample::Counterexample;
use super::coverage::{cell_features, CoverageReport, CoverageTracker};
use super::shrink::{shrink, ShrinkStats};
use super::strategy::{CoverageScheduler, Job, Strategy};

/// One protocol × configuration point of the exploration grid.
#[derive(Clone, Copy, Debug)]
pub struct GridPoint {
    /// The protocol to deploy.
    pub protocol: ProtocolId,
    /// The configuration to deploy it on (possibly beyond its bound).
    pub cfg: ClusterConfig,
}

impl GridPoint {
    /// Whether a violation at this point is a bug or the sought prize.
    pub fn expectation(&self) -> CellExpectation {
        if self.protocol.feasible(&self.cfg) && self.protocol.contract() != Contract::Unsound {
            CellExpectation::Clean
        } else {
            CellExpectation::MayViolate
        }
    }
}

/// The cell that (grid point, fault distribution) pair `pair` expands to
/// at `seed` — the one place a pair index becomes a [`Cell`], shared by
/// [`ExploreConfig::cell_list`] and the coverage-guided planner.
///
/// Pair `q` is grid point `q % grid.len()` under distribution
/// `(q / grid.len()) % 4`, so every point is visited before any
/// distribution repeats. An empty grid expands to no cell.
pub(crate) fn pair_cell(grid: &[GridPoint], pair: usize, seed: u64, ops: u32) -> Option<Cell> {
    if grid.is_empty() {
        return None;
    }
    let point = grid[pair % grid.len()];
    Some(Cell {
        protocol: point.protocol,
        cfg: point.cfg,
        seed,
        ops,
        dist: FaultDistribution::ALL[(pair / grid.len()) % FaultDistribution::ALL.len()],
    })
}

/// The default exploration grid: every registered protocol on its
/// canonical feasible configuration, plus the two seeded hunting grounds
/// — the Fig. 2 protocol *past* the fast bound (`R = S/t − 2`, the §5
/// regime) and the unsound one-round MWMR candidate (§7).
pub fn default_grid() -> Vec<GridPoint> {
    let mut grid: Vec<GridPoint> = ProtocolId::ALL
        .into_iter()
        .map(|protocol| GridPoint {
            protocol,
            cfg: protocol.sample_config(),
        })
        .collect();
    grid.push(GridPoint {
        protocol: ProtocolId::FastCrash,
        cfg: ClusterConfig::crash_stop(5, 1, 3).expect("statically valid"),
    });
    grid
}

/// Parameters of one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Number of cells to run (the grid is cycled and re-seeded).
    pub cells: u32,
    /// Worker threads (results are thread-count independent).
    pub threads: usize,
    /// Op budget per cell.
    pub ops: u32,
    /// Base seed; each cell's seed is derived from this and its index.
    pub base_seed: u64,
    /// How the schedule space is traversed (defaults to
    /// [`Strategy::RandomGrid`]; see [`Strategy::CoverageGuided`] for
    /// the search upgrade).
    pub strategy: Strategy,
    /// The grid (defaults to [`default_grid`]).
    pub grid: Vec<GridPoint>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            cells: 64,
            threads: 1,
            ops: 8,
            base_seed: 0,
            strategy: Strategy::default(),
            grid: default_grid(),
        }
    }
}

impl ExploreConfig {
    /// The deterministic cell list this configuration expands to under
    /// [`Strategy::RandomGrid`] (the coverage-guided strategy runs this
    /// list's first `grid.len() × 4` cells as its pilot, then plans the
    /// rest from coverage feedback).
    ///
    /// Cell `i` takes grid point `i % grid.len()`, fault distribution
    /// `(i / grid.len()) % 4`, and seed `splitmix64(base_seed ⊕ i)`:
    /// every (point, distribution) pair is covered before any is
    /// repeated with a fresh replicate seed. An empty grid expands to no
    /// cells.
    pub fn cell_list(&self) -> Vec<Cell> {
        (0..self.cells as usize)
            .map_while(|i| {
                pair_cell(
                    &self.grid,
                    i,
                    splitmix64(self.base_seed ^ (i as u64)),
                    self.ops,
                )
            })
            .collect()
    }
}

/// One explored cell with its outcome.
#[derive(Clone, Debug)]
pub struct ExploredCell {
    /// The cell that ran.
    pub cell: Cell,
    /// The fault script it ran under (generated under `RandomGrid`;
    /// generated or mutated under `CoverageGuided`).
    pub faults: FaultScript,
    /// What it produced.
    pub outcome: CellOutcome,
}

/// A found violation, shrunk and packaged.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Index of the originating cell in the run's cell list.
    pub cell_index: usize,
    /// Whether the violation was expected (hunting cell) or a bug.
    pub expectation: CellExpectation,
    /// The shrunk, replayable counterexample.
    pub counterexample: Counterexample,
    /// Shrink bookkeeping.
    pub shrink: ShrinkStats,
}

/// The result of one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Every cell, in deterministic run order.
    pub cells: Vec<ExploredCell>,
    /// Every violation, shrunk, in run order.
    pub findings: Vec<Finding>,
    /// The run's coverage summary (tracked under both strategies —
    /// under `RandomGrid` it is pure observation).
    pub coverage: CoverageReport,
}

impl ExploreReport {
    /// Cells that ran clean.
    pub fn clean_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome.verdict.is_clean())
            .count()
    }

    /// Findings from cells that were expected to stay clean — protocol
    /// bugs. An empty result here is the fuzz lane's green condition.
    pub fn unexpected(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.expectation == CellExpectation::Clean)
    }

    /// Findings from hunting cells (beyond the bound / unsound) — the
    /// corpus material.
    pub fn expected(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.expectation == CellExpectation::MayViolate)
    }
}

/// Runs one batch of jobs on the ordered worker pool.
fn run_jobs(jobs: &[Job], threads: usize) -> Vec<CellOutcome> {
    map_ordered(jobs.to_vec(), threads, |_, job| {
        job.cell.run_with(&job.faults)
    })
}

/// Runs the exploration described by `config`.
///
/// Cells run on `config.threads` workers; each violating cell is then
/// shrunk (also on the pool — shrinking is per-cell pure). The report is
/// identical for any thread count: under [`Strategy::CoverageGuided`]
/// every batch is planned *between* fan-outs from state folded in job
/// order, so the plan itself never depends on worker scheduling.
pub fn explore(config: &ExploreConfig) -> ExploreReport {
    let mut tracker = CoverageTracker::new(config.cells);
    let (jobs, outcomes) = match config.strategy {
        Strategy::RandomGrid => {
            let jobs: Vec<Job> = config
                .cell_list()
                .into_iter()
                .enumerate()
                .map(|(i, cell)| Job {
                    pair: i % (config.grid.len() * FaultDistribution::ALL.len()),
                    cell,
                    faults: cell.generate_faults(),
                })
                .collect();
            let outcomes = run_jobs(&jobs, config.threads);
            for (job, out) in jobs.iter().zip(&outcomes) {
                tracker.observe(&cell_features(&job.cell, &job.faults, out));
            }
            (jobs, outcomes)
        }
        Strategy::CoverageGuided => {
            let mut scheduler =
                CoverageScheduler::new(&config.grid, config.ops, config.base_seed, config.cells);
            let mut jobs: Vec<Job> = Vec::with_capacity(config.cells as usize);
            let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(config.cells as usize);
            loop {
                let batch = scheduler.next_batch();
                if batch.is_empty() {
                    break;
                }
                let batch_outcomes = run_jobs(&batch, config.threads);
                scheduler.fold(&batch, &batch_outcomes, &mut tracker);
                jobs.extend(batch);
                outcomes.extend(batch_outcomes);
            }
            (jobs, outcomes)
        }
    };

    // Shrink the proven violations — independent work, same ordered
    // pool. `CheckerLimit` outcomes (the oracle gave up on an oversized
    // history) are neither clean nor findings: there is nothing proven
    // to shrink, and classifying them as bugs would fail sound feasible
    // cells for running a large `--budget`.
    let violating: Vec<(usize, Job, CellOutcome)> = jobs
        .iter()
        .zip(&outcomes)
        .enumerate()
        .filter(|(_, (_, out))| out.verdict.is_proven_violation())
        .map(|(i, (job, out))| (i, job.clone(), out.clone()))
        .collect();
    let findings: Vec<Finding> = map_ordered(
        violating,
        config.threads,
        |_, (cell_index, job, outcome)| {
            let (counterexample, stats) = shrink(&job.cell, &job.faults, &outcome);
            Finding {
                cell_index,
                expectation: job.cell.point().expectation(),
                counterexample,
                shrink: stats,
            }
        },
    );

    ExploreReport {
        cells: jobs
            .into_iter()
            .zip(outcomes)
            .map(|(job, outcome)| ExploredCell {
                cell: job.cell,
                faults: job.faults,
                outcome,
            })
            .collect(),
        findings,
        coverage: tracker.finish(config.strategy.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(threads: usize) -> ExploreConfig {
        ExploreConfig {
            cells: 144,
            threads,
            ops: 6,
            base_seed: 0xe15,
            strategy: Strategy::RandomGrid,
            grid: default_grid(),
        }
    }

    #[test]
    fn exploration_is_thread_count_independent() {
        let one = explore(&small_config(1));
        let four = explore(&small_config(4));
        assert_eq!(one.cells.len(), four.cells.len());
        for (a, b) in one.cells.iter().zip(&four.cells) {
            assert_eq!(a.outcome.verdict, b.outcome.verdict);
            assert_eq!(a.outcome.fingerprint, b.outcome.fingerprint);
        }
        assert_eq!(one.findings.len(), four.findings.len());
        for (a, b) in one.findings.iter().zip(&four.findings) {
            assert_eq!(a.cell_index, b.cell_index);
            assert_eq!(
                a.counterexample.render(),
                b.counterexample.render(),
                "counterexample bytes must not depend on the thread count"
            );
        }
    }

    #[test]
    fn checker_limit_is_not_classified_as_a_protocol_bug() {
        use fastreg::config::ClusterConfig;
        use fastreg_atomicity::verdict::{Verdict, ViolationKind};
        // A large op budget on the sound feasible MWMR baseline pushes
        // the history past the linearizability oracle's cap: the verdict
        // is checker-limit, which must be neither an "unexpected"
        // protocol bug nor shrunk into a bogus counterexample.
        let config = ExploreConfig {
            cells: 2,
            threads: 1,
            ops: 200,
            base_seed: 1,
            grid: vec![GridPoint {
                protocol: ProtocolId::MwmrAbd,
                cfg: ClusterConfig::mwmr(3, 1, 2, 2).unwrap(),
            }],
            ..Default::default()
        };
        let report = explore(&config);
        assert!(
            report
                .cells
                .iter()
                .any(|c| c.outcome.verdict == Verdict::Violation(ViolationKind::CheckerLimit)),
            "the oversized budget must actually trip the oracle cap"
        );
        assert_eq!(report.unexpected().count(), 0);
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn coverage_guided_exploration_is_thread_count_independent() {
        let config = |threads| ExploreConfig {
            strategy: Strategy::CoverageGuided,
            ..small_config(threads)
        };
        let one = explore(&config(1));
        let four = explore(&config(4));
        assert_eq!(one.cells.len(), 144);
        assert_eq!(one.cells.len(), four.cells.len());
        for (a, b) in one.cells.iter().zip(&four.cells) {
            assert_eq!(a.cell.seed, b.cell.seed, "the planned cells must match");
            assert_eq!(a.outcome.verdict, b.outcome.verdict);
            assert_eq!(a.outcome.fingerprint, b.outcome.fingerprint);
        }
        assert_eq!(one.coverage, four.coverage);
        assert_eq!(one.coverage.render(), four.coverage.render());
        assert_eq!(one.findings.len(), four.findings.len());
        for (a, b) in one.findings.iter().zip(&four.findings) {
            assert_eq!(a.cell_index, b.cell_index);
            assert_eq!(a.counterexample.render(), b.counterexample.render());
        }
    }

    #[test]
    fn coverage_guided_findings_replay_and_stay_sound() {
        let report = explore(&ExploreConfig {
            strategy: Strategy::CoverageGuided,
            ..small_config(2)
        });
        assert_eq!(
            report.unexpected().count(),
            0,
            "sound feasible protocols must survive coverage-guided search"
        );
        assert!(report.expected().count() > 0);
        for f in &report.findings {
            assert!(
                f.counterexample.replay().reproduces(&f.counterexample),
                "finding at cell {} does not replay",
                f.cell_index
            );
        }
        assert_eq!(report.coverage.strategy, "coverage-guided");
        assert_eq!(report.coverage.cells, 144);
        assert!(report.coverage.features_seen > 0);
    }

    #[test]
    fn both_strategies_report_coverage() {
        let random = explore(&ExploreConfig {
            cells: 36,
            ..small_config(2)
        });
        assert_eq!(random.coverage.strategy, "random-grid");
        assert_eq!(random.coverage.cells, 36);
        assert!(random.coverage.features_seen > 0);
        assert_eq!(
            random.coverage.saturation.last().map(|p| p.features),
            Some(random.coverage.features_seen)
        );
    }

    #[test]
    fn an_empty_grid_explores_nothing_under_either_strategy() {
        for strategy in [Strategy::RandomGrid, Strategy::CoverageGuided] {
            let report = explore(&ExploreConfig {
                strategy,
                grid: vec![],
                ..small_config(2)
            });
            assert!(report.cells.is_empty(), "{strategy}");
            assert!(report.findings.is_empty(), "{strategy}");
            assert_eq!(report.coverage.features_seen, 0, "{strategy}");
        }
    }

    #[test]
    fn default_grid_covers_every_protocol_and_the_hunting_ground() {
        let grid = default_grid();
        for id in ProtocolId::ALL {
            assert!(grid.iter().any(|g| g.protocol == id), "{id} missing");
        }
        assert!(
            grid.iter()
                .any(|g| g.protocol == ProtocolId::FastCrash && !g.cfg.fast_feasible()),
            "the past-the-bound fast-crash point must be in the default grid"
        );
    }

    #[test]
    fn sound_feasible_cells_stay_clean_and_hunting_cells_violate() {
        let report = explore(&small_config(2));
        assert_eq!(
            report.unexpected().count(),
            0,
            "sound feasible protocols must survive exploration"
        );
        assert!(
            report.expected().count() > 0,
            "the hunting grounds must yield at least one counterexample \
             (cells: {}, clean: {})",
            report.cells.len(),
            report.clean_count()
        );
        // Every packaged counterexample replays.
        for f in &report.findings {
            assert!(
                f.counterexample.replay().reproduces(&f.counterexample),
                "finding at cell {} does not replay",
                f.cell_index
            );
        }
    }
}
