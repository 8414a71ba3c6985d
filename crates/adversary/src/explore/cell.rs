//! Exploration cells: one randomized adversarial run as a value.
//!
//! A [`Cell`] names everything that determines one simulated run — the
//! protocol, the cluster configuration, the op budget, the seed, and the
//! [`FaultDistribution`] its fault schedule is drawn from. Running a
//! cell is a pure function of that value: the fault script is generated
//! *up front* from the cell seed (never inside the schedule loop, so
//! shrinking an event away cannot shift any other decision), the
//! schedule interleaves operation invocations with randomized delivery,
//! and the recorded history is checked against the protocol's declared
//! contract. The outcome — a [`Verdict`] plus the run's trace
//! fingerprint — is byte-stable across machines and thread counts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, RegisterOps, SimControl};
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::fault::{FaultEvent, FaultKind, FaultScript};

use super::engine::GridPoint;

/// The fault-schedule family a cell draws from — one axis of the
/// exploration grid, in the spirit of swarm testing: different families
/// reach different corners of the schedule space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultDistribution {
    /// No faults: pure delivery-order exploration.
    Calm,
    /// Up to `t` server crashes plus an occasional writer mid-broadcast
    /// crash, at random rounds.
    Crashy,
    /// Proof-shaped partitions (§5): the write reaches only a random
    /// `t`-sized server group, and that group's read acks are withheld
    /// from a biased subset of readers — the schedule family the
    /// lower-bound constructions live in.
    Partitioned,
    /// A thinned union of [`Crashy`](FaultDistribution::Crashy) and
    /// [`Partitioned`](FaultDistribution::Partitioned).
    Mixed,
}

impl FaultDistribution {
    /// Every distribution, in grid order.
    pub const ALL: [FaultDistribution; 4] = [
        FaultDistribution::Calm,
        FaultDistribution::Crashy,
        FaultDistribution::Partitioned,
        FaultDistribution::Mixed,
    ];

    /// The stable name (counterexample provenance, tables).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultDistribution::Calm => "calm",
            FaultDistribution::Crashy => "crashy",
            FaultDistribution::Partitioned => "partitioned",
            FaultDistribution::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for FaultDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the engine expects of a cell before running it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellExpectation {
    /// The protocol is deployed within its hypotheses and claims a sound
    /// contract: any violation is a bug in the protocol code.
    Clean,
    /// The deployment is beyond the protocol's feasibility bound, or the
    /// protocol is a known-unsound counterexample target: violations are
    /// the *sought* outcome (counterexample material), not bugs.
    MayViolate,
}

/// One cell of the exploration grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The protocol under test.
    pub protocol: ProtocolId,
    /// The deployment (possibly beyond the protocol's bound — that is
    /// the point of the hunting cells).
    pub cfg: ClusterConfig,
    /// Seed for the world and every schedule decision.
    pub seed: u64,
    /// Operation budget for the interleaving phase.
    pub ops: u32,
    /// The fault-schedule family.
    pub dist: FaultDistribution,
}

/// Coverage signals harvested from one run — the stable observations
/// the coverage-guided strategy hashes into features (see
/// [`coverage`](super::coverage)). Deterministic per cell: same cell +
/// script ⇒ identical signals on any machine or thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSignals {
    /// Maximum per-receiver message-reorder depth of the schedule (see
    /// `Trace::max_reorder_depth`).
    pub reorder_depth: u64,
    /// Predicate witness levels across readers, as sorted
    /// `(witness_count, occurrences)` pairs; empty for protocols whose
    /// readers keep no histogram.
    pub witness_levels: Vec<(u32, u64)>,
}

/// What one cell run produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The contract verdict on the recorded history.
    pub verdict: Verdict,
    /// The run's trace fingerprint (replay compares against this).
    pub fingerprint: u64,
    /// Operations issued (invoked; completion depends on the schedule).
    pub ops_issued: u64,
    /// Coverage signals harvested from the run.
    pub signals: RunSignals,
}

/// SplitMix64 — the per-cell seed derivation (and the only hash this
/// module needs).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Cell {
    /// The grid point (protocol × configuration) this cell runs — what
    /// its [`expectation`](GridPoint::expectation) depends on.
    pub fn point(&self) -> GridPoint {
        GridPoint {
            protocol: self.protocol,
            cfg: self.cfg,
        }
    }

    /// Generates the cell's fault script from its seed and distribution.
    ///
    /// Deterministic, and independent of the schedule loop's randomness:
    /// the script rng and the schedule rng are derived from the seed with
    /// different salts, so replaying a cell with an edited (shrunk)
    /// script leaves every remaining decision unchanged.
    pub fn generate_faults(&self) -> FaultScript {
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0xfa01_5c21_9e00_0001));
        let mut script = FaultScript::new();
        match self.dist {
            FaultDistribution::Calm => {}
            FaultDistribution::Crashy => self.gen_crashy(&mut rng, &mut script),
            FaultDistribution::Partitioned => self.gen_partitioned(&mut rng, &mut script, 1.0),
            FaultDistribution::Mixed => {
                self.gen_partitioned(&mut rng, &mut script, 0.5);
                self.gen_crashy(&mut rng, &mut script);
            }
        }
        script
    }

    /// Rounds of the interleaving phase (fault triggers land in here).
    fn rounds(&self) -> u64 {
        u64::from(self.ops) * 4
    }

    fn gen_crashy(&self, rng: &mut StdRng, script: &mut FaultScript) {
        let layout = fastreg::layout::Layout::of(&self.cfg);
        let rounds = self.rounds().max(1);
        if rng.gen_bool(0.5) {
            script.push(FaultEvent {
                at: rng.gen_range(0..rounds),
                kind: FaultKind::CrashAfterSends(
                    layout.writer(0),
                    rng.gen_range(0..=self.cfg.s as usize),
                ),
            });
        }
        let crashes = rng.gen_range(0..=self.cfg.t);
        let mut servers: Vec<u32> = (0..self.cfg.s).collect();
        servers.shuffle(rng);
        for &j in servers.iter().take(crashes as usize) {
            script.push(FaultEvent {
                at: rng.gen_range(0..rounds),
                kind: FaultKind::Crash(layout.server(j)),
            });
        }
    }

    /// The §5-shaped partition family. `weight` scales how aggressively
    /// links are blocked (the `Mixed` distribution uses a thinned form).
    fn gen_partitioned(&self, rng: &mut StdRng, script: &mut FaultScript, weight: f64) {
        let layout = fastreg::layout::Layout::of(&self.cfg);
        let rounds = self.rounds().max(4);
        // A random t-sized server group is the only one the write reaches.
        let group = self.cfg.t.max(1).min(self.cfg.s);
        let mut servers: Vec<u32> = (0..self.cfg.s).collect();
        servers.shuffle(rng);
        let (special, rest) = servers.split_at(group as usize);
        for w in 0..self.cfg.w {
            for &j in rest {
                if rng.gen_bool(0.95_f64.powf(1.0 / weight)) {
                    script.push(FaultEvent {
                        at: 0,
                        kind: FaultKind::Block(layout.writer(w), layout.server(j)),
                    });
                }
            }
        }
        // The special group's acks are withheld from a biased reader
        // subset — reader 0 plays the proof's r_1, the long-delayed one.
        for i in 0..self.cfg.r {
            let withhold = i == 0 || rng.gen_bool(0.3 * weight);
            if withhold {
                for &j in special {
                    script.push(FaultEvent {
                        at: 0,
                        kind: FaultKind::Block(layout.server(j), layout.reader(i)),
                    });
                }
            }
        }
        // Occasionally heal the writer's links late: the write surfaces
        // after the stale reads have committed.
        if rng.gen_bool(0.15) {
            let at = rounds * 3 / 4;
            for w in 0..self.cfg.w {
                for &j in rest {
                    script.push(FaultEvent {
                        at,
                        kind: FaultKind::Heal(layout.writer(w), layout.server(j)),
                    });
                }
            }
        }
    }

    /// Runs the cell with its generated fault script.
    pub fn run(&self) -> CellOutcome {
        self.run_with(&self.generate_faults())
    }

    /// Runs the cell under an explicit fault script (the replay and
    /// shrink entry point).
    ///
    /// The run has four phases: **interleave** (ops invoked at random
    /// idle clients, random delivery bursts, fault events fired by
    /// round), **drain** (random delivery to quiescence), **expose**
    /// (one sequential read per reader while any scripted partition is
    /// still up — the phase that turns a stale view into a completed,
    /// checkable read), and **heal** (unhealed scripted blocks lifted,
    /// final drain, so parked messages surface late like the paper's
    /// `prA`).
    pub fn run_with(&self, faults: &FaultScript) -> CellOutcome {
        let mut cluster = ClusterBuilder::new(self.cfg)
            .seed(self.seed)
            .build_unchecked(self.protocol);
        let layout = cluster.layout();
        // The explorer steers the schedule by hand, so it needs the full
        // simulator control surface, not just the portable ops.
        let cluster = cluster
            .sim_control()
            .expect("schedule exploration runs on the simnet runtime");
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0x5c8e_d01e_0000_0002));
        let mut next_value = 1u64;
        let mut issued = 0u64;
        let mut writer_armed = false;

        // --- Phase 1: interleave ops, faults and deliveries. ------------
        for round in 0..self.rounds() {
            for event in faults.due(round) {
                match event.kind {
                    FaultKind::Crash(p) => cluster.crash_proc(p.index()),
                    FaultKind::CrashAfterSends(p, k) => {
                        // Only writers arm mid-broadcast crashes through
                        // the ops surface; writers occupy addresses
                        // `0..w`, so the address index *is* the writer
                        // index. Events naming non-writers are ignored
                        // (the generator emits none).
                        if let Some(fastreg::types::Role::Writer) = layout.role_of(p) {
                            cluster.arm_writer_crash_after_sends(p.index(), k);
                            writer_armed = true;
                        }
                    }
                    FaultKind::Block(a, b) => cluster.block_link_procs(a.index(), b.index()),
                    FaultKind::Heal(a, b) => cluster.heal_link_procs(a.index(), b.index()),
                }
            }
            // The first write goes out as early as possible: the
            // interesting schedule families race reads against a write
            // already in flight (prC opens with `wr_{R+1}`).
            if round == 0 && self.cfg.w > 0 && issued < u64::from(self.ops) && !writer_armed {
                cluster.write_by(0, next_value);
                next_value += 1;
                issued += 1;
            }
            if issued < u64::from(self.ops) {
                match rng.gen_range(0..8u32) {
                    // Writes: pick an idle writer.
                    0..=1 => {
                        let w = rng.gen_range(0..self.cfg.w);
                        let addr = layout.writer(w).index();
                        if !cluster.client_busy(addr) && !writer_armed {
                            cluster.write_by(w, next_value);
                            next_value += 1;
                            issued += 1;
                        }
                    }
                    // Reads: pick an idle reader.
                    2..=5 => {
                        let i = rng.gen_range(0..self.cfg.r.max(1));
                        if self.cfg.r > 0 && !cluster.client_busy(layout.reader(i).index()) {
                            cluster.read_async(i);
                            issued += 1;
                        }
                    }
                    // Delivery burst.
                    _ => {
                        let burst = rng.gen_range(1..=6);
                        for _ in 0..burst {
                            if !cluster.step_random() {
                                break;
                            }
                        }
                    }
                }
            } else {
                cluster.step_random();
            }
            // Background progress, and the clock keeps moving so the
            // checker sees sharp precedence between phases.
            if rng.gen_bool(0.5) {
                cluster.step_random();
            }
        }

        // --- Phase 2: drain everything deliverable. ---------------------
        cluster.run_random_until_quiescent();

        // --- Phase 3: expose — sequential reads under the partition. ----
        for i in 0..self.cfg.r {
            let now = cluster.now_ticks();
            cluster.advance_to_ticks(now + 10);
            if !cluster.client_busy(layout.reader(i).index()) {
                cluster.read_async(i);
                cluster.run_random_until_quiescent();
            }
        }

        // --- Phase 4: heal scripted blocks; parked messages surface. ----
        for (a, b) in faults.unhealed_blocks() {
            cluster.heal_link_procs(a.index(), b.index());
        }
        cluster.run_random_until_quiescent();

        // Every run is checked by replaying its history into the one
        // online checker.
        let verdict = cluster.contract_verdict(cluster.contract());
        outcome(&*cluster, verdict, issued)
    }
}

/// Harvests a run's outcome from the finished world.
fn outcome(cluster: &dyn SimControl, verdict: Verdict, ops_issued: u64) -> CellOutcome {
    CellOutcome {
        verdict,
        fingerprint: cluster.trace_fingerprint(),
        ops_issued,
        signals: RunSignals {
            reorder_depth: cluster.max_reorder_depth(),
            witness_levels: cluster.witness_levels(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(protocol: ProtocolId, cfg: ClusterConfig, seed: u64, dist: FaultDistribution) -> Cell {
        Cell {
            protocol,
            cfg,
            seed,
            ops: 8,
            dist,
        }
    }

    #[test]
    fn cell_runs_are_deterministic() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        for dist in FaultDistribution::ALL {
            let c = cell(ProtocolId::FastCrash, cfg, 7, dist);
            let a = c.run();
            let b = c.run();
            assert_eq!(a.verdict, b.verdict, "{dist}");
            assert_eq!(a.fingerprint, b.fingerprint, "{dist}");
            assert_eq!(a.ops_issued, b.ops_issued, "{dist}");
        }
    }

    #[test]
    fn fault_scripts_are_a_pure_function_of_the_cell() {
        let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap();
        let c = cell(
            ProtocolId::FastCrash,
            cfg,
            3,
            FaultDistribution::Partitioned,
        );
        assert_eq!(c.generate_faults(), c.generate_faults());
        let other = Cell { seed: 4, ..c };
        assert_ne!(c.generate_faults(), other.generate_faults());
    }

    #[test]
    fn feasible_cells_expect_clean_and_stay_clean() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let point = GridPoint {
            protocol: ProtocolId::FastCrash,
            cfg,
        };
        assert_eq!(point.expectation(), CellExpectation::Clean);
        for seed in 0..12u64 {
            for dist in FaultDistribution::ALL {
                let c = cell(ProtocolId::FastCrash, cfg, seed, dist);
                let out = c.run();
                assert!(
                    out.verdict.is_clean(),
                    "feasible fast-crash: {} under {dist} seed {seed}",
                    out.verdict
                );
            }
        }
    }

    #[test]
    fn infeasible_and_unsound_cells_expect_violations() {
        let beyond = GridPoint {
            protocol: ProtocolId::FastCrash,
            cfg: ClusterConfig::crash_stop(5, 1, 3).unwrap(),
        };
        assert_eq!(beyond.expectation(), CellExpectation::MayViolate);
        let unsound = GridPoint {
            protocol: ProtocolId::MwmrNaiveFast,
            cfg: ClusterConfig::mwmr(3, 1, 2, 2).unwrap(),
        };
        assert_eq!(unsound.expectation(), CellExpectation::MayViolate);
    }

    #[test]
    fn runs_harvest_deterministic_coverage_signals() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let c = cell(
            ProtocolId::FastCrash,
            cfg,
            7,
            FaultDistribution::Partitioned,
        );
        let a = c.run();
        let b = c.run();
        assert_eq!(a.signals, b.signals);
        assert!(
            !a.signals.witness_levels.is_empty(),
            "fast-crash readers keep a witness histogram"
        );
        // A protocol whose readers keep no histogram harvests none.
        let abd = cell(
            ProtocolId::Abd,
            ProtocolId::Abd.sample_config(),
            7,
            FaultDistribution::Calm,
        );
        assert!(abd.run().signals.witness_levels.is_empty());
    }

    #[test]
    fn shrunk_scripts_do_not_shift_the_schedule_randomness() {
        // Removing a fault event re-runs the same op/delivery decisions:
        // a Calm cell and the same cell with an explicitly empty script
        // are byte-identical.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let c = cell(ProtocolId::FastCrash, cfg, 11, FaultDistribution::Calm);
        let generated = c.run();
        let explicit = c.run_with(&FaultScript::new());
        assert_eq!(generated.fingerprint, explicit.fingerprint);
    }
}
