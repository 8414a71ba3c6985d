//! Traversal strategies: how the engine decides *which* cells to run.
//!
//! [`Strategy::RandomGrid`] is PR 4's behavior — cycle the grid with
//! fresh replicate seeds, no feedback. [`Strategy::CoverageGuided`] is
//! the search upgrade: run the same grid once as a pilot, then spend the
//! remaining budget where the [`CoverageMap`] says new behavior keeps
//! appearing — fresh seeds on protocol×config×distribution pairs with
//! low coverage saturation, and mutated variants of the scripts that
//! produced novel features (the pool), `ENERGY` tries per pick.
//!
//! Determinism contract: batches are *planned* between `map_ordered`
//! fan-outs from state folded in job order, and every random choice
//! comes from an rng seeded by `(base_seed, batch index)` alone — so the
//! exact cells run, the coverage map, and every finding are
//! byte-identical at any thread count.
//!
//! [`CoverageMap`]: super::coverage::CoverageMap

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::fault::FaultScript;

use super::cell::{splitmix64, Cell, CellExpectation, CellOutcome, FaultDistribution};
use super::coverage::{behavior_features, script_features, CoverageTracker};
use super::engine::{pair_cell, GridPoint};
use super::mutate::mutate;

/// How the engine traverses the schedule space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Cycle the grid with fresh replicate seeds (uniform sampling, no
    /// feedback) — PR 4's engine.
    #[default]
    RandomGrid,
    /// Coverage-guided search: keep a bounded pool of coverage-novel
    /// fault scripts (64), mutate each selected script twice, and
    /// prioritize grid pairs whose coverage is still growing.
    CoverageGuided,
}

impl Strategy {
    /// The stable name (CLI flags, reports, tables).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::RandomGrid => "random-grid",
            Strategy::CoverageGuided => "coverage-guided",
        }
    }

    /// Parses a CLI name: the inverse of [`Strategy::name`].
    pub fn parse(name: &str) -> Option<Strategy> {
        match name {
            "random-grid" => Some(Strategy::RandomGrid),
            "coverage-guided" => Some(Strategy::CoverageGuided),
            _ => None,
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One planned run: a cell, the script to drive it with, and the
/// protocol×config×distribution pair it explores.
#[derive(Clone, Debug)]
pub(crate) struct Job {
    /// Index of the (grid point, distribution) pair.
    pub pair: usize,
    /// The cell to run.
    pub cell: Cell,
    /// The fault script to run it under (generated or mutated).
    pub faults: FaultScript,
}

/// A retained coverage-novel script.
#[derive(Clone, Debug)]
struct PoolEntry {
    pair: usize,
    cell: Cell,
    faults: FaultScript,
    novelty: usize,
}

/// Salt for batch-planning rngs (distinct from the fault, schedule and
/// mutation salts).
const BATCH_SALT: u64 = 0xbac4_0000_0000_0005;
/// Salt stream for post-pilot fresh-cell seeds.
const FRESH_SALT: u64 = 0x5eed_f4e5_0000_0004;
/// Jobs planned per post-pilot batch. Fixed (never derived from the
/// thread count): batch boundaries are part of the deterministic plan.
const BATCH_JOBS: u32 = 32;
/// Mutants scheduled per selected pool entry.
const ENERGY: u32 = 2;
/// Pool capacity: coverage-novel scripts retained for mutation.
const POOL: usize = 64;
/// Probability (out of 100) that a selected pair with pool entries
/// spends its slot on mutants rather than a fresh seed. Kept well below
/// half — and each mutate slot costs `ENERGY` jobs, so the *job*-level
/// mutant share is higher than this number reads: fresh replicate seeds
/// explore new *schedules*, mutants only new scripts on a retained
/// schedule, and the violating corners need schedule diversity most.
const MUTATE_PCT: u32 = 15;
/// Score gain when a proven violation *also* produced novel behavior
/// features. The conjunction matters: a pair that violates identically
/// on every run (the unsound MWMR candidate) stops earning it as soon as
/// its behavior saturates, so it cannot monopolize the budget the way a
/// flat per-violation bonus would let it.
const VIOLATION_BONUS: u64 = 64;
/// Scale from the (decaying, per-run-magnitude) pair score to sampling
/// weight, chosen so one behavior-novel run outweighs a hunting prior
/// and a violation spike dominates the next batch or two before it
/// decays.
const SCORE_SCALE: u64 = 1000;
/// Standing weight for hunting pairs (`CellExpectation::MayViolate`)
/// that have not yet produced a violation: the §5 regime is *where the
/// paper says the violations live*, so past-the-bound and known-unsound
/// pairs keep a large share of the budget until their first violation
/// lands — after which the pair is demoted to the base floor and the
/// budget moves to the pairs still hunting.
const HUNT_PRIOR: u64 = 10_000;

/// The coverage-guided batch planner.
///
/// `next_batch` hands the engine a deterministic list of jobs; after the
/// engine has run them (fanned over `map_ordered`), `fold` feeds the
/// outcomes back *in job order* to update the coverage map, the pair
/// saturation stats and the pool.
pub(crate) struct CoverageScheduler {
    points: Vec<GridPoint>,
    ops: u32,
    base_seed: u64,
    total: u32,
    scheduled: u32,
    batch_index: u64,
    pool: Vec<PoolEntry>,
    pair_runs: Vec<u64>,
    pair_score: Vec<u64>,
    pair_prior: Vec<u64>,
    pair_found: Vec<bool>,
    mutant_counter: u64,
    fresh_counter: u64,
}

impl CoverageScheduler {
    pub(crate) fn new(grid: &[GridPoint], ops: u32, base_seed: u64, total: u32) -> Self {
        let pairs = grid.len() * FaultDistribution::ALL.len();
        let pair_prior = (0..pairs)
            .map(|q| match grid[q % grid.len()].expectation() {
                CellExpectation::MayViolate => HUNT_PRIOR,
                CellExpectation::Clean => 1,
            })
            .collect();
        CoverageScheduler {
            points: grid.to_vec(),
            ops,
            base_seed,
            total,
            scheduled: 0,
            batch_index: 0,
            pool: Vec::new(),
            pair_runs: vec![0; pairs],
            pair_score: vec![0; pairs],
            pair_prior,
            pair_found: vec![false; pairs],
            mutant_counter: 0,
            fresh_counter: 0,
        }
    }

    fn pairs(&self) -> usize {
        self.pair_runs.len()
    }

    /// The cell a pair index and seed expand to — [`pair_cell`], the
    /// expansion [`ExploreConfig::cell_list`] uses, so the pilot batch
    /// *is* the first `pairs` cells of the random grid, seeds included.
    /// Only called for `pair < pairs`, which is empty on an empty grid.
    ///
    /// [`ExploreConfig::cell_list`]: super::engine::ExploreConfig::cell_list
    fn cell_for(&self, pair: usize, seed: u64) -> Cell {
        pair_cell(&self.points, pair, seed, self.ops).expect("pair indices exist on a grid")
    }

    /// Plans the next batch of jobs; empty when the budget is spent.
    pub(crate) fn next_batch(&mut self) -> Vec<Job> {
        let remaining = self.total - self.scheduled;
        if remaining == 0 {
            return Vec::new();
        }
        let mut jobs: Vec<Job> = Vec::new();
        if self.batch_index == 0 {
            // Pilot: each pair once, with the random grid's own seeds —
            // a shared baseline that seeds the coverage map and the pool.
            let n = (self.pairs() as u32).min(remaining);
            for i in 0..n as usize {
                let cell = self.cell_for(i, splitmix64(self.base_seed ^ (i as u64)));
                jobs.push(Job {
                    pair: i,
                    cell,
                    faults: cell.generate_faults(),
                });
            }
        } else {
            let budget = BATCH_JOBS.min(remaining) as usize;
            // Time decay: halve every score at each batch boundary, so a
            // pair that stops being scheduled cannot coast on its pilot
            // novelty — its weight falls back to its prior within a few
            // batches even if it never runs again.
            for s in &mut self.pair_score {
                *s /= 2;
            }
            let mut rng =
                StdRng::seed_from_u64(splitmix64(self.base_seed ^ BATCH_SALT ^ self.batch_index));
            while jobs.len() < budget {
                let q = self.pick_pair(&mut rng);
                let entries: Vec<usize> = (0..self.pool.len())
                    .filter(|&i| self.pool[i].pair == q)
                    .collect();
                if !entries.is_empty() && rng.gen_range(0..100u32) < MUTATE_PCT {
                    // Frontier: spend `ENERGY` mutants on one retained
                    // script of this pair.
                    let entry = self.pool[entries[rng.gen_range(0..entries.len())]].clone();
                    for _ in 0..ENERGY {
                        if jobs.len() >= budget {
                            break;
                        }
                        let variant = self.mutant_counter;
                        self.mutant_counter += 1;
                        jobs.push(Job {
                            pair: q,
                            cell: entry.cell,
                            faults: mutate(&entry.cell, &entry.faults, variant),
                        });
                    }
                } else {
                    // Fresh replicate seed on the pair.
                    let seed = splitmix64(self.base_seed ^ FRESH_SALT ^ self.fresh_counter);
                    self.fresh_counter += 1;
                    let cell = self.cell_for(q, seed);
                    jobs.push(Job {
                        pair: q,
                        cell,
                        faults: cell.generate_faults(),
                    });
                }
            }
        }
        self.batch_index += 1;
        self.scheduled += jobs.len() as u32;
        jobs
    }

    /// Weighted pair choice: weight is the hunting prior plus the
    /// pair's decaying novelty score, so saturated pairs fall back to
    /// their floor within a few runs and pairs still producing new
    /// behavior keep drawing budget.
    fn pick_pair(&self, rng: &mut StdRng) -> usize {
        let weights: Vec<u64> = (0..self.pairs())
            .map(|q| {
                let prior = if self.pair_found[q] {
                    1
                } else {
                    self.pair_prior[q]
                };
                prior + self.pair_score[q] * SCORE_SCALE
            })
            .collect();
        let total: u64 = weights.iter().sum();
        let mut x = rng.gen_range(0..total);
        for (q, &w) in weights.iter().enumerate() {
            if x < w {
                return q;
            }
            x -= w;
        }
        self.pairs() - 1
    }

    /// Feeds one batch's outcomes back, in job order.
    ///
    /// Scoring reads *behavior* novelty only — what the run did, not
    /// what script was fed in. Script-shape features still enter the
    /// coverage map (they are real coverage, and the report counts
    /// them), but the mutator manufactures a new shape on nearly every
    /// call, so letting shapes feed the score would hand any mutated
    /// pair a self-sustaining budget loop. The score itself is a
    /// halving accumulator — `score/2 + gained` per run of the pair —
    /// so a saturated pair falls back to its prior within a few runs
    /// instead of coasting on history.
    pub(crate) fn fold(
        &mut self,
        jobs: &[Job],
        outcomes: &[CellOutcome],
        tracker: &mut CoverageTracker,
    ) {
        for (job, out) in jobs.iter().zip(outcomes) {
            let behavior = behavior_features(&job.cell, out);
            let novel = behavior
                .iter()
                .filter(|&&f| !tracker.map().contains(f))
                .count();
            let mut features = behavior;
            features.extend(script_features(&job.cell, &job.faults));
            tracker.observe(&features);
            self.pair_runs[job.pair] += 1;
            let mut gained = novel as u64;
            if matches!(out.verdict, Verdict::Violation(_)) {
                if novel > 0 {
                    gained += VIOLATION_BONUS;
                }
                self.pair_found[job.pair] = true;
            }
            self.pair_score[job.pair] = self.pair_score[job.pair] / 2 + gained;
            if novel > 0 {
                self.pool.push(PoolEntry {
                    pair: job.pair,
                    cell: job.cell,
                    faults: job.faults.clone(),
                    novelty: novel,
                });
                if self.pool.len() > POOL {
                    // Evict the least novel entry (first among ties —
                    // the oldest), keeping eviction deterministic.
                    let evict = self
                        .pool
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, e)| (e.novelty, *i))
                        .map(|(i, _)| i)
                        .expect("pool is non-empty");
                    self.pool.remove(evict);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::engine::default_grid;

    #[test]
    fn strategy_names_round_trip_through_parse() {
        assert_eq!(Strategy::parse("random-grid"), Some(Strategy::RandomGrid));
        assert_eq!(
            Strategy::parse("coverage-guided"),
            Some(Strategy::CoverageGuided)
        );
        for rejected in ["random", "coverage", "solver"] {
            assert_eq!(Strategy::parse(rejected), None, "{rejected}");
        }
        for s in [Strategy::RandomGrid, Strategy::CoverageGuided] {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn pilot_batch_mirrors_the_random_grid_prefix() {
        let grid = default_grid();
        let pairs = grid.len() * FaultDistribution::ALL.len();
        let mut sched = CoverageScheduler::new(&grid, 6, 0xe15, 100);
        let pilot = sched.next_batch();
        assert_eq!(pilot.len(), pairs);
        let reference = crate::explore::engine::ExploreConfig {
            cells: pairs as u32,
            threads: 1,
            ops: 6,
            base_seed: 0xe15,
            ..Default::default()
        }
        .cell_list();
        for (job, cell) in pilot.iter().zip(&reference) {
            assert_eq!(job.cell.protocol, cell.protocol);
            assert_eq!(job.cell.seed, cell.seed);
            assert_eq!(job.cell.dist, cell.dist);
            assert_eq!(job.faults, cell.generate_faults());
        }
    }

    #[test]
    fn planning_is_deterministic_and_spends_the_exact_budget() {
        let grid = default_grid();
        let total = 90u32;
        let plan = |_: ()| {
            let mut sched = CoverageScheduler::new(&grid, 6, 7, total);
            let mut tracker = CoverageTracker::new(total);
            let mut all: Vec<Job> = Vec::new();
            loop {
                let batch = sched.next_batch();
                if batch.is_empty() {
                    break;
                }
                // Fold with real outcomes so later batches depend on
                // folded state, as in the engine.
                let outcomes: Vec<CellOutcome> =
                    batch.iter().map(|j| j.cell.run_with(&j.faults)).collect();
                sched.fold(&batch, &outcomes, &mut tracker);
                all.extend(batch);
            }
            all
        };
        let a = plan(());
        let b = plan(());
        assert_eq!(a.len(), total as usize);
        assert_eq!(b.len(), total as usize);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.cell.seed, y.cell.seed);
            assert_eq!(x.faults, y.faults);
        }
    }
}
