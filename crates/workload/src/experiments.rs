//! The experiment suite regenerating every `EXPERIMENTS.md` table.
//!
//! Each function is self-contained: it builds clusters, drives workloads
//! or adversarial schedules, asserts the qualitative expectations drawn
//! from the paper, and returns a rendered table. [`EXPERIMENTS`] is the
//! catalogue — one row per experiment with its id, title, protocols and
//! quick/full parameters — which the `report` binary in `fastreg-bench`
//! lists, filters and prints; the integration tests call the functions
//! directly at CI-sized parameters.

use fastreg::byz::{
    CounterAbuser, Forger, SeenInflater, StaleOldest, StaleReplayer, TwoFacedLoseWrite,
};
use fastreg::config::ClusterConfig;
use fastreg::harness::{Cluster, ClusterBuilder, FastByz, FastCrash, ProtocolFamily, RegisterOps};
use fastreg::predicate::{predicate_witness, predicate_witness_bruteforce, PredicateModel};
use fastreg::protocols::registry::ProtocolId;
use fastreg::protocols::{abd, fast_crash};
use fastreg::types::{ClientId, ClientSet, RegValue};
use fastreg_adversary::explore::{explore, ExploreConfig, ExploreReport, GridPoint, Strategy};
use fastreg_adversary::{run_lower_bound, run_mwmr_lb, LbError};
use fastreg_atomicity::regularity::check_swmr_regularity;
use fastreg_atomicity::swmr::check_swmr_atomicity;
use fastreg_simnet::byz::Mute;
use fastreg_simnet::delay::DelayModel;
use fastreg_simnet::runner::SimConfig;

use crate::driver::{run_closed_loop, WorkloadSpec};
use crate::table::Table;

/// One experiment of the suite: what `report` lists, filters and runs.
pub struct Experiment {
    /// The id `report` selects it by (`e1` … `e19`).
    pub id: &'static str,
    /// The banner `report` prints above its table.
    pub title: &'static str,
    /// The protocols it exercises — the ground truth for the
    /// `report --protocol` filter.
    pub protocols: &'static [ProtocolId],
    /// Runs it at the quick (CI-sized) or the full parameters.
    pub run: fn(quick: bool) -> Table,
}

/// Seeds per configuration of the randomized experiments.
fn seeds(quick: bool) -> u64 {
    if quick {
        10
    } else {
        40
    }
}

/// The experiment suite, in order.
pub static EXPERIMENTS: [Experiment; 19] = [
    Experiment {
        id: "e1",
        title: "E1 — Fig. 2 atomicity under crashes and random schedules",
        protocols: &[ProtocolId::FastCrash],
        run: |quick| e1_fast_crash_atomicity(seeds(quick)),
    },
    Experiment {
        id: "e2",
        title: "E2 — read/write cost in message delays (fast = 1 round trip)",
        protocols: &[ProtocolId::FastCrash, ProtocolId::MaxMin, ProtocolId::Abd],
        run: |_| e2_round_trips(),
    },
    Experiment {
        id: "e3",
        title: "E3 — §5 lower bound: prC violates atomicity iff R ≥ S/t − 2",
        protocols: &[ProtocolId::FastCrash],
        run: |_| e3_crash_lower_bound(),
    },
    Experiment {
        id: "e4",
        title: "E4 — Fig. 5 atomicity under the Byzantine behaviour library",
        protocols: &[ProtocolId::FastByz],
        run: |quick| e4_byz_atomicity(seeds(quick)),
    },
    Experiment {
        id: "e5",
        title: "E5 — §6.2 lower bound with memory-losing Byzantine servers",
        protocols: &[ProtocolId::FastByz],
        run: |_| e5_byz_lower_bound(),
    },
    Experiment {
        id: "e6",
        title: "E6 — §7: no fast MWMR register (naive candidate refuted)",
        protocols: &[ProtocolId::MwmrAbd, ProtocolId::MwmrNaiveFast],
        run: |_| e6_mwmr(),
    },
    Experiment {
        id: "e7",
        title: "E7 — §8 trade-off: fast regular register vs atomicity",
        protocols: &[ProtocolId::FastRegular],
        run: |quick| e7_regular_tradeoff(seeds(quick)),
    },
    Experiment {
        id: "e8",
        title: "E8 — feasibility frontier: formula vs experiment",
        protocols: &[ProtocolId::FastCrash, ProtocolId::FastByz],
        run: |_| e8_frontier(),
    },
    Experiment {
        id: "e9",
        title: "E9 — read latency distributions across delay models",
        protocols: &[ProtocolId::FastCrash, ProtocolId::Abd],
        run: |_| e9_latency(),
    },
    Experiment {
        id: "e10",
        title: "E10 — predicate internals (witness levels, exact vs brute force)",
        protocols: &[ProtocolId::FastCrash],
        run: |_| e10_predicate(),
    },
    Experiment {
        id: "e11",
        title: "E11 — the R = 1 corner: fast single-reader register at t < S/2",
        protocols: &[ProtocolId::SwsrFast],
        run: |quick| e11_single_reader(seeds(quick)),
    },
    Experiment {
        id: "e12",
        title: "E12 — bounded-exhaustive schedule exploration (systematic, not sampled)",
        protocols: &[ProtocolId::FastCrash],
        run: |quick| e12_exploration(if quick { 800 } else { 4000 }),
    },
    Experiment {
        id: "e13",
        title: "E13 — ablation: every count-only predicate is refuted (§4's argument for `seen`)",
        protocols: &[ProtocolId::FastCrash],
        run: |_| e13_seen_ablation(),
    },
    Experiment {
        id: "e14",
        title: "E14 — scale: every sound protocol to 100k ops with a bounded checker frontier",
        // Every sound protocol feasible at (S,t,R) = (5,1,2).
        protocols: &[
            ProtocolId::FastCrash,
            ProtocolId::FastByz,
            ProtocolId::Abd,
            ProtocolId::MaxMin,
            ProtocolId::FastRegular,
            ProtocolId::MwmrAbd,
        ],
        // The full 1k/10k/100k sweep runs in quick mode too: the
        // frontier bound must hold at 100k ops.
        run: |_| e14_scale(&[1_000, 10_000, 100_000]),
    },
    Experiment {
        id: "e15",
        title: "E15 — parallel schedule exploration: grid fuzzing with shrunk counterexamples",
        // The default grid: every registered protocol.
        protocols: &ProtocolId::ALL,
        run: |quick| e15_exploration(if quick { 108 } else { 360 }, 4),
    },
    Experiment {
        id: "e16",
        title: "E16 — sharded KV store: shards × backend × key-skew, per-key contracts",
        // Store shards are backed by these protocols (and a mix of them).
        protocols: &[ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz],
        // The quick headline still issues 10k ops over a 1.5k-key
        // keyspace — the store's scale floor is part of the contract.
        run: |quick| e16_store(if quick { 10_000 } else { 40_000 }, 4),
    },
    Experiment {
        id: "e17",
        title: "E17 — real-threads runtime: closed loops complete, verdicts at µs ticks",
        protocols: &[ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz],
        // The worker sweep always runs 1→4.
        run: |quick| e17_rt_runs(if quick { 400 } else { 5_000 }, &[1, 2, 4]),
    },
    Experiment {
        id: "e18",
        title: "E18 — checker memory: streaming frontier bounded to 1M ops, batch holds all",
        // Synthetic SWMR histories shaped like fast-crash closed loops:
        // the checkers, not a cluster, are under test.
        protocols: &[ProtocolId::FastCrash],
        // The 1M-op point runs in quick mode too — bounded-memory
        // streaming at scale is the experiment's claim. The batch
        // checker is quadratic in reads, so it stops at the cap (10k
        // quick / 100k full).
        run: |quick| {
            let batch_cap = if quick { 10_000 } else { 100_000 };
            e18_checker_memory(&[10_000, 100_000, 1_000_000], batch_cap)
        },
    },
    Experiment {
        id: "e19",
        title:
            "E19 — observability invariants: conservation, balanced spans, byte-stable artifacts",
        // Every registered protocol, at its canonical sample configuration.
        protocols: &ProtocolId::ALL,
        run: |quick| e19_obs_invariants(if quick { 40 } else { 200 }),
    },
];

/// Randomized adversarial schedules against Fig. 2 on a feasible `cfg`:
/// the explorer on a one-point grid, `cells` cells of `ops` operations
/// cycling through every fault distribution. Panics with the shrunk,
/// replayable counterexample if any cell violates atomicity.
fn feasible_fast_crash_search(
    experiment: &str,
    cfg: ClusterConfig,
    base_seed: u64,
    cells: u32,
    ops: u32,
) -> ExploreReport {
    let report = explore(&ExploreConfig {
        cells,
        threads: 1,
        ops,
        base_seed,
        strategy: Strategy::RandomGrid,
        grid: vec![GridPoint {
            protocol: ProtocolId::FastCrash,
            cfg,
        }],
    });
    if let Some(f) = report.unexpected().next() {
        panic!(
            "{experiment}: {cfg:?} violated atomicity:\n{}",
            f.counterexample.render()
        );
    }
    report
}

/// E1 — Fig. 2 stays atomic under random schedules, crashes and
/// mid-broadcast writer crashes, across feasible configurations.
pub fn e1_fast_crash_atomicity(seeds: u64) -> Table {
    let mut table = Table::new(vec!["S", "t", "R", "runs", "ops/run", "violations"]);
    for (s, t, r) in [
        (4u32, 1u32, 1u32),
        (5, 1, 2),
        (7, 1, 4),
        (8, 2, 1),
        (10, 2, 2),
        (13, 3, 2),
    ] {
        let cfg = ClusterConfig::crash_stop(s, t, r).expect("valid");
        assert!(cfg.fast_feasible(), "E1 configs must be feasible");
        let report = feasible_fast_crash_search("E1", cfg, 0x0e1, seeds as u32, 10);
        table.row(vec![
            s.to_string(),
            t.to_string(),
            r.to_string(),
            report.cells.len().to_string(),
            "10".into(),
            report.unexpected().count().to_string(),
        ]);
    }
    table
}

/// E2 — read cost in message delays: fast = 2, max–min = 3, ABD = 4
/// (writes: 2 everywhere except MWMR). Unit-delay network makes the round
/// structure exact.
pub(crate) fn e2_round_trips() -> Table {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let spec = WorkloadSpec {
        n_ops: 60,
        write_fraction: 0.25,
        think_time: 2,
        seed: 2,
    };
    let mut table = Table::new(vec![
        "protocol",
        "read delays (max)",
        "write delays (max)",
        "msgs/op",
        "paper says",
    ]);

    // One registry-driven loop replaces the three hand-monomorphized
    // blocks; the per-protocol expectations stay as data. A quorum round
    // is two message delays; max–min's servers wait a third.
    let delays = |rounds: u32| 2 * u64::from(rounds);
    let fast = delays(fast_crash::Reader::ROUNDS);
    let abd = delays(abd::Reader::ROUNDS);
    let expectations: [(ProtocolId, u64, Option<u64>, &str); 3] = [
        (ProtocolId::FastCrash, fast, Some(2), "1 round trip"),
        (ProtocolId::MaxMin, 3, None, "servers wait (not fast)"),
        (ProtocolId::Abd, abd, None, "2 round trips (read writes)"),
    ];
    for (id, read_max, write_max, paper) in expectations {
        let mut c = ClusterBuilder::new(cfg)
            .seed(1)
            .build(id)
            .expect("E2 protocols are feasible at (5,1,2)");
        let rep =
            run_closed_loop(&mut c, &spec).unwrap_or_else(|e| panic!("E2: {id} stalled: {e}"));
        check_swmr_atomicity(&rep.history).unwrap_or_else(|v| panic!("{id} not atomic: {v}"));
        let r = rep.breakdown.reads.clone().expect("reads ran");
        let w = rep.breakdown.writes.clone().expect("writes ran");
        assert_eq!(r.max, read_max, "{id}: read message delays");
        if let Some(write_delays) = write_max {
            assert_eq!(w.max, write_delays, "{id}: write message delays");
        }
        table.row(vec![
            id.name().into(),
            r.max.to_string(),
            w.max.to_string(),
            format!("{:.1}", rep.messages_per_op()),
            paper.into(),
        ]);
    }

    table
}

/// E3 — the §5 lower bound: exactly at/beyond `R ≥ S/t − 2`, the scripted
/// `prC` run produces a new/old inversion; below it, the construction is
/// impossible and random search finds nothing.
pub(crate) fn e3_crash_lower_bound() -> Table {
    let mut table = Table::new(vec![
        "S",
        "t",
        "R",
        "feasible?",
        "construction",
        "r_R read",
        "r1 2nd read",
        "verdict",
    ]);
    for (s, t, r) in [
        (5u32, 1u32, 2u32),
        (5, 1, 3),
        (5, 1, 4), // R + 2 = 6 > S: NoPartition, rendered as "skipped"
        (8, 2, 2),
        (8, 2, 1),
        (12, 2, 4),
    ] {
        let cfg = ClusterConfig::crash_stop(s, t, r).expect("valid");
        match run_lower_bound(cfg, 0) {
            Ok(out) => {
                assert!(!cfg.fast_feasible());
                table.row(vec![
                    s.to_string(),
                    t.to_string(),
                    r.to_string(),
                    "no".into(),
                    format!("{} executed", out.violating_run),
                    format!("{}", out.r_last_return),
                    format!("{}", out.r1_second_return),
                    "ATOMICITY VIOLATED".into(),
                ]);
            }
            Err(LbError::ConfigIsFeasible) => {
                let search = feasible_fast_crash_search("E3", cfg, 0x0e3, 30, 8);
                table.row(vec![
                    s.to_string(),
                    t.to_string(),
                    r.to_string(),
                    "yes".into(),
                    "impossible (no block partition)".into(),
                    "-".into(),
                    "-".into(),
                    format!("atomic in {} random runs", search.cells.len()),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    s.to_string(),
                    t.to_string(),
                    r.to_string(),
                    if cfg.fast_feasible() { "yes" } else { "no" }.into(),
                    format!("skipped ({e})"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    table
}

/// E4 — Fig. 5 stays atomic against the malicious-server behaviour
/// library in feasible Byzantine configurations.
pub(crate) fn e4_byz_atomicity(seeds: u64) -> Table {
    let cfg = ClusterConfig::byzantine(6, 1, 1, 1).expect("valid");
    assert!(cfg.fast_feasible());
    let mut table = Table::new(vec!["behaviour", "runs", "violations"]);
    let behaviours: Vec<(&str, BehaviourKind)> = vec![
        ("honest", BehaviourKind::Honest),
        ("mute (crash-like)", BehaviourKind::Mute),
        ("stale replayer + seen lies", BehaviourKind::Stale),
        ("seen inflater", BehaviourKind::Inflater),
        ("signature forger", BehaviourKind::Forger),
        ("two-faced memory loss", BehaviourKind::TwoFaced),
        ("signed stale replay", BehaviourKind::StaleOldest),
        ("request-counter abuse", BehaviourKind::CounterAbuser),
    ];
    for (name, kind) in behaviours {
        let mut violations = 0u64;
        for seed in 0..seeds {
            if !byz_run_is_atomic(cfg, seed, kind) {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "E4: behaviour '{name}' broke atomicity");
        table.row(vec![name.into(), seeds.to_string(), violations.to_string()]);
    }
    table
}

#[derive(Clone, Copy)]
enum BehaviourKind {
    Honest,
    Mute,
    Stale,
    Inflater,
    Forger,
    TwoFaced,
    StaleOldest,
    CounterAbuser,
}

fn byz_run_is_atomic(cfg: ClusterConfig, seed: u64, kind: BehaviourKind) -> bool {
    let mut c: Cluster<FastByz> = ClusterBuilder::new(cfg)
        .sim(SimConfig::default().with_seed(seed))
        .build_typed_with(|cfg, layout, index, ctx| {
            if index == 0 {
                match kind {
                    BehaviourKind::Honest => FastByz::server(cfg, layout, index, ctx),
                    BehaviourKind::Mute => Box::new(Mute::default()),
                    BehaviourKind::Stale => Box::new(StaleReplayer::new(cfg)),
                    BehaviourKind::Inflater => Box::new(SeenInflater::new(
                        cfg,
                        layout,
                        ctx.verifier.clone(),
                        ctx.writer_key,
                    )),
                    BehaviourKind::Forger => Box::new(Forger::new()),
                    BehaviourKind::TwoFaced => Box::new(TwoFacedLoseWrite::new(
                        cfg,
                        layout,
                        ctx.verifier.clone(),
                        ctx.writer_key,
                        layout.reader(0),
                    )),
                    BehaviourKind::StaleOldest => Box::new(StaleOldest::new(
                        cfg,
                        layout,
                        ctx.verifier.clone(),
                        ctx.writer_key,
                    )),
                    BehaviourKind::CounterAbuser => Box::new(CounterAbuser::new(
                        cfg,
                        layout,
                        ctx.verifier.clone(),
                        ctx.writer_key,
                    )),
                }
            } else {
                FastByz::server(cfg, layout, index, ctx)
            }
        })
        .expect("the default runtime is simnet");
    // Mixed concurrent workload with a writer mid-broadcast crash.
    c.write_sync(1);
    c.read_async(0);
    c.world
        .arm_crash_after_sends(c.layout.writer(0), (seed % 7) as usize);
    c.write(2);
    c.world.run_random_until_quiescent();
    c.read_async(0);
    c.world.run_random_until_quiescent();
    c.check_atomic().is_ok()
}

/// E5 — the §6.2 lower bound with memory-losing Byzantine servers.
pub(crate) fn e5_byz_lower_bound() -> Table {
    let mut table = Table::new(vec![
        "S",
        "t",
        "b",
        "R",
        "feasible?",
        "r_R read",
        "r1 2nd read",
        "verdict",
    ]);
    for (s, t, b, r) in [
        (8u32, 1u32, 1u32, 2u32), // feasible: 8 > 4 + 3
        (7, 1, 1, 2),             // boundary: 7 <= 7
        (9, 1, 1, 3),
        (10, 2, 1, 2),
    ] {
        let cfg = ClusterConfig::byzantine(s, t, b, r).expect("valid");
        match run_lower_bound(cfg, 0) {
            Ok(out) => {
                table.row(vec![
                    s.to_string(),
                    t.to_string(),
                    b.to_string(),
                    r.to_string(),
                    "no".into(),
                    format!("{}", out.r_last_return),
                    format!("{}", out.r1_second_return),
                    format!("ATOMICITY VIOLATED ({})", out.violating_run),
                ]);
            }
            Err(LbError::ConfigIsFeasible) => {
                table.row(vec![
                    s.to_string(),
                    t.to_string(),
                    b.to_string(),
                    r.to_string(),
                    "yes".into(),
                    "-".into(),
                    "-".into(),
                    "construction impossible".into(),
                ]);
            }
            Err(e) => panic!("E5: unexpected error {e}"),
        }
    }
    table
}

/// E6 — §7: the one-round MWMR candidate violates atomicity on the
/// sequential two-writer pattern; the two-round MWMR ABD baseline is
/// correct on the same pattern.
pub(crate) fn e6_mwmr() -> Table {
    let mut table = Table::new(vec![
        "S",
        "naive fast read",
        "required (P1)",
        "linearizable?",
        "ABD control",
        "chain switches?",
    ]);
    for s in [3u32, 4, 5] {
        let out = run_mwmr_lb(s, 0).expect("construction runs");
        assert_ne!(out.sequential_return, out.expected_return);
        assert!(!out.linearizable);
        assert_eq!(out.abd_sequential_return, RegValue::Val(1));
        let switches = out
            .chain_returns
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        table.row(vec![
            s.to_string(),
            format!("{}", out.sequential_return),
            format!("{}", out.expected_return),
            out.linearizable.to_string(),
            format!("{}", out.abd_sequential_return),
            format!("{switches} (one-round writes cannot switch)"),
        ]);
    }
    table
}

/// E7 — §8's trade-off: the fast *regular* register serves unboundedly
/// many readers at `t < S/2` (far beyond the atomic fast bound) and stays
/// regular, but exhibits real new/old inversions — the price of speed.
pub(crate) fn e7_regular_tradeoff(seeds: u64) -> Table {
    let cfg = ClusterConfig::crash_stop(5, 2, 6).expect("valid");
    assert!(!cfg.fast_feasible(), "far beyond the atomic fast bound");
    assert!(cfg.fast_regular_feasible());

    let mut regular_ok = 0u64;
    let mut atomic_violations = 0u64;
    for seed in 0..seeds {
        let mut c = ClusterBuilder::new(cfg)
            .seed(seed)
            .build(ProtocolId::FastRegular)
            .expect("fast-regular is feasible at t < S/2");
        let c = c.sim_control().expect("E7 steers the simnet schedule");
        c.arm_writer_crash_after_sends(0, (seed % 6) as usize);
        c.write(1);
        for i in 0..cfg.r {
            c.read_async(i);
        }
        c.run_random_until_quiescent();
        // Sequential second round of reads to expose inversions.
        for i in 0..cfg.r {
            let now = c.now_ticks();
            c.advance_to_ticks(now + 10);
            c.read_async(i);
            c.run_random_until_quiescent();
        }
        let h = c.snapshot();
        if check_swmr_regularity(&h).is_ok() {
            regular_ok += 1;
        }
        if check_swmr_atomicity(&h).is_err() {
            atomic_violations += 1;
        }
    }
    assert_eq!(regular_ok, seeds, "E7: regularity must always hold");
    assert!(
        atomic_violations > 0,
        "E7: expected at least one new/old inversion across {seeds} seeds"
    );
    let mut table = Table::new(vec!["property", "runs", "holds in"]);
    table.row(vec![
        "regularity (fast regular, R=6, t=2, S=5)".into(),
        seeds.to_string(),
        format!("{regular_ok}/{seeds}"),
    ]);
    table.row(vec![
        "atomicity (same histories)".into(),
        seeds.to_string(),
        format!("{}/{seeds}", seeds - atomic_violations),
    ]);
    table
}

/// E8 — the feasibility frontier: the experimental verdict (random search
/// clean vs. scripted violation) must agree with the closed form
/// `S > (R+2)t + (R+1)b` at every grid point where the construction's
/// hypotheses hold.
pub(crate) fn e8_frontier() -> Table {
    let mut table = Table::new(vec!["S", "t", "b", "R", "formula", "experiment", "agree?"]);
    let mut grid: Vec<(u32, u32, u32, u32)> = Vec::new();
    for s in [5u32, 6, 7, 8, 9, 10, 12] {
        for (t, b) in [(1u32, 0u32), (2, 0), (1, 1)] {
            for r in [2u32, 3, 4] {
                grid.push((s, t, b, r));
            }
        }
    }
    for (s, t, b, r) in grid {
        if t > s {
            continue;
        }
        let cfg = ClusterConfig::byzantine(s, t, b, r).expect("valid");
        let formula = cfg.fast_feasible();
        let experiment: Option<bool> = if formula {
            if b == 0 {
                // A violation panics with its counterexample.
                feasible_fast_crash_search("E8", cfg, 0x0e8, 15, 8);
                Some(true)
            } else {
                // Feasible Byzantine point: behaviour matrix must be clean.
                Some((0..5).all(|seed| byz_run_is_atomic(cfg, seed, BehaviourKind::TwoFaced)))
            }
        } else {
            // Infeasible: the scripted construction must violate (`None`:
            // the proof's hypotheses are unmet).
            run_lower_bound(cfg, 0).ok().map(|_| false)
        };
        let (exp_str, agree) = match experiment {
            Some(v) => (
                if v { "atomic" } else { "violated" }.to_string(),
                v == formula,
            ),
            None => ("n/a (proof hypotheses unmet)".into(), true),
        };
        assert!(agree, "E8 mismatch at ({s},{t},{b},{r})");
        table.row(vec![
            s.to_string(),
            t.to_string(),
            b.to_string(),
            r.to_string(),
            if formula { "fast" } else { "not fast" }.into(),
            exp_str,
            "yes".into(),
        ]);
    }
    table
}

/// E9 — simulated latency distributions under non-trivial delay models:
/// the fast read's advantage persists (roughly 2× vs ABD) across delay
/// shapes.
pub(crate) fn e9_latency() -> Table {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let spec = WorkloadSpec {
        n_ops: 120,
        write_fraction: 0.2,
        think_time: 5,
        seed: 9,
    };
    let delays: Vec<(&str, DelayModel)> = vec![
        ("uniform 5..50", DelayModel::Uniform { lo: 5, hi: 50 }),
        (
            "spiky (5% stragglers ×20)",
            DelayModel::Spike {
                base: 10,
                spike_prob: 0.05,
                spike: 200,
            },
        ),
        (
            "two-zone (1 far server)",
            DelayModel::TwoZone {
                far_members: vec![fastreg::layout::Layout::of(&cfg).server(4)],
                near: 10,
                far: 60,
            },
        ),
    ];
    let mut table = Table::new(vec![
        "delay model",
        "fast read p50/p95",
        "ABD read p50/p95",
        "p50 ratio",
    ]);
    // The fast/ABD pair, swept by one registry loop per delay model.
    let compared = [ProtocolId::FastCrash, ProtocolId::Abd];
    for (name, delay) in delays {
        let sim = SimConfig::default().with_seed(11).with_delay(delay);
        let reads = compared.map(|id| {
            let mut c = ClusterBuilder::new(cfg)
                .sim(sim.clone())
                .build(id)
                .expect("E9 protocols are feasible at (5,1,2)");
            let rep =
                run_closed_loop(&mut c, &spec).unwrap_or_else(|e| panic!("E9: {id} stalled: {e}"));
            check_swmr_atomicity(&rep.history).unwrap_or_else(|v| panic!("{id} not atomic: {v}"));
            rep.breakdown.reads.expect("reads ran")
        });
        let [fr, ar] = reads;

        let ratio = ar.p50 as f64 / fr.p50.max(1) as f64;
        assert!(
            ratio > 1.4,
            "E9: fast should be well ahead of ABD (got {ratio:.2} on {name})"
        );
        table.row(vec![
            name.into(),
            format!("{}/{}", fr.p50, fr.p95),
            format!("{}/{}", ar.p50, ar.p95),
            format!("{ratio:.2}x"),
        ]);
    }
    table
}

/// E10 — predicate internals: which witness level `a` justifies fast
/// reads in practice, and exact-vs-bruteforce agreement.
pub(crate) fn e10_predicate() -> Table {
    // Witness histogram over a concurrent workload. The typed builder
    // keeps static dispatch: the histogram needs typed actor access.
    let cfg = ClusterConfig::crash_stop(7, 1, 4).expect("valid");
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg)
        .seed(3)
        .build_typed()
        .expect("the default runtime is simnet");
    for round in 0..30u64 {
        c.write(round + 1);
        for i in 0..cfg.r {
            c.read_async(i);
        }
        c.world.run_random_until_quiescent();
    }
    c.check_atomic().expect("atomic");
    let mut histogram: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let mut conservative = 0u64;
    for i in 0..cfg.r {
        let addr = c.layout.reader(i);
        let (h, cons) = c
            .world
            .with_actor::<fast_crash::Reader, _, _>(addr, |r| {
                (r.witness_histogram.clone(), r.conservative_reads)
            })
            .expect("reader present");
        for (a, n) in h {
            *histogram.entry(a).or_insert(0) += n;
        }
        conservative += cons;
    }

    // Exact vs brute force on random seen-sets.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(10);
    let mut agreements = 0u64;
    let cases = 300u64;
    for _ in 0..cases {
        let s = rng.gen_range(3..8u32);
        let t = rng.gen_range(1..=2u32).min(s / 2).max(1);
        let r = rng.gen_range(1..4u32);
        let n = rng.gen_range(0..=6usize);
        let clients: Vec<ClientId> = std::iter::once(ClientId::WRITER)
            .chain((0..r).map(ClientId::reader))
            .collect();
        let seens: Vec<ClientSet> = (0..n)
            .map(|_| {
                clients
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.5))
                    .collect()
            })
            .collect();
        let a = predicate_witness(s, t, r, PredicateModel::Crash, &seens);
        let b = predicate_witness_bruteforce(s, t, r, PredicateModel::Crash, &seens);
        if a == b {
            agreements += 1;
        }
    }
    assert_eq!(agreements, cases, "E10: exact and brute force must agree");

    let mut table = Table::new(vec!["measure", "value"]);
    for (a, n) in &histogram {
        table.row(vec![
            format!("reads justified at witness level a = {a}"),
            n.to_string(),
        ]);
    }
    table.row(vec![
        "conservative reads (returned maxTS − 1)".into(),
        conservative.to_string(),
    ]);
    table.row(vec![
        "exact vs brute-force predicate agreement".into(),
        format!("{agreements}/{cases}"),
    ]);
    table
}

/// E11 — the `R = 1` corner the theorem's lower bound leaves open
/// (Proposition 5 needs `R ≥ 2`): the §1 single-reader trick gives a fast
/// register at plain majority resilience `t < S/2`, strictly weaker than
/// the general protocol's `S > 3t`.
pub(crate) fn e11_single_reader(seeds: u64) -> Table {
    let mut table = Table::new(vec![
        "S",
        "t",
        "general bound S > 3t?",
        "majority t < S/2?",
        "SWSR runs",
        "violations",
    ]);
    for (s, t) in [(3u32, 1u32), (5, 2), (7, 3), (4, 1)] {
        let cfg = ClusterConfig::crash_stop(s, t, 1).expect("valid");
        let mut violations = 0u64;
        for seed in 0..seeds {
            let mut c = ClusterBuilder::new(cfg)
                .seed(seed)
                .build(ProtocolId::SwsrFast)
                .expect("SWSR is feasible at t < S/2, R = 1");
            let c = c.sim_control().expect("E11 steers the simnet schedule");
            c.arm_writer_crash_after_sends(0, (seed % (s as u64 + 1)) as usize);
            c.write(1);
            for _ in 0..3 {
                c.read_async(0);
                c.run_random_until_quiescent();
            }
            if check_swmr_atomicity(&c.snapshot()).is_err() {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "E11: SWSR broke atomicity at ({s},{t})");
        table.row(vec![
            s.to_string(),
            t.to_string(),
            if cfg.fast_feasible() { "yes" } else { "no" }.into(),
            if cfg.fast_regular_feasible() {
                "yes"
            } else {
                "no"
            }
            .into(),
            seeds.to_string(),
            violations.to_string(),
        ]);
    }
    table
}

/// E12 — bounded-exhaustive schedule exploration: systematically
/// enumerated delivery interleavings (not just random samples) find no
/// violation of the Fig. 2 protocol in the feasible regime.
pub(crate) fn e12_exploration(budget: u64) -> Table {
    use fastreg_adversary::{explore_fast_crash, OpScript};
    let mut table = Table::new(vec![
        "S",
        "t",
        "R",
        "script",
        "schedules checked",
        "violations",
    ]);
    let cases: Vec<(u32, u32, u32, OpScript, &str)> = vec![
        (4, 1, 1, OpScript::write_vs_reads(1, [0]), "write ∥ read"),
        (
            5,
            1,
            2,
            OpScript::write_vs_reads(1, [0, 1]),
            "write ∥ 2 reads",
        ),
        (
            4,
            1,
            1,
            OpScript {
                writes: vec![1, 2],
                readers: vec![0],
            },
            "2 writes ∥ read",
        ),
    ];
    for (s, t, r, script, label) in cases {
        let cfg = ClusterConfig::crash_stop(s, t, r).expect("valid");
        assert!(cfg.fast_feasible());
        let out = explore_fast_crash(cfg, &script, budget);
        assert!(
            out.is_clean(),
            "E12: exploration found a violation at ({s},{t},{r}): {:?}",
            out.violation
        );
        table.row(vec![
            s.to_string(),
            t.to_string(),
            r.to_string(),
            label.into(),
            format!(
                "{}{}",
                out.schedules,
                if out.truncated {
                    " (budget)"
                } else {
                    " (complete)"
                }
            ),
            "0".into(),
        ]);
    }
    table
}

/// E13 — ablation of the `seen` sets (§4): every count-only predicate
/// threshold `k` is refuted by a scripted schedule, in a configuration
/// where the real Fig. 2 protocol is provably safe. The `seen` sets are
/// not an optimization; they are load-bearing.
pub(crate) fn e13_seen_ablation() -> Table {
    use fastreg_adversary::refute_count_predicate;
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    assert!(cfg.fast_feasible(), "the real protocol is safe here");
    let mut table = Table::new(vec![
        "threshold k",
        "refuting schedule",
        "violated condition",
    ]);
    for k in 1..=cfg.s {
        let out = refute_count_predicate(cfg, k).expect("hypotheses hold");
        let condition = match out.violation {
            fastreg_atomicity::swmr::AtomicityViolation::MissedPrecedingWrite { .. } => {
                "(2) read missed a completed write"
            }
            fastreg_atomicity::swmr::AtomicityViolation::NewOldInversion { .. } => {
                "(4) new/old inversion"
            }
            _ => "other",
        };
        table.row(vec![k.to_string(), out.schedule.into(), condition.into()]);
    }
    table
}

/// The most operations the streaming checker may hold resident at once,
/// at any history length: E14 and E18 assert their `resident` column
/// stays within it at every size.
const RESIDENT_BOUND: usize = 16;

/// E14 — scale: closed loops across the registry under the event-queue
/// scheduler and the incremental driver.
///
/// For every *sound* protocol feasible at `(S, t, R) = (5, 1, 2)`, runs a
/// closed loop at each requested size. Every run must complete every op
/// and end with a clean verdict from the driver's online checker — the
/// protocol's declared contract, graded as operations settled — and the
/// checker's resident frontier (its high-water mark) must stay within
/// 16 ops as `n_ops` grows: the run's memory does not grow with its
/// length. Throughput at scale is fastbench's to measure.
pub fn e14_scale(sizes: &[u64]) -> Table {
    use fastreg::protocols::registry::{Contract, ProtocolId};

    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let mut table = Table::new(vec![
        "protocol",
        "n_ops",
        "completed",
        "msgs/op",
        "ticks",
        "resident",
    ]);
    for id in ProtocolId::ALL {
        if !id.feasible(&cfg) || id.contract() == Contract::Unsound {
            continue;
        }
        for &n_ops in sizes {
            let spec = WorkloadSpec {
                n_ops,
                write_fraction: 0.2,
                think_time: 1,
                seed: 14,
            };
            let mut c = ClusterBuilder::new(cfg)
                .seed(14)
                .build(id)
                .expect("checked feasible above");
            let rep =
                run_closed_loop(&mut c, &spec).unwrap_or_else(|e| panic!("E14: {id} stalled: {e}"));
            assert_eq!(
                rep.breakdown.completed, n_ops,
                "E14: {id} must complete every op at n = {n_ops}"
            );
            assert_eq!(rep.breakdown.incomplete, 0);
            assert!(
                rep.streaming_verdict.is_clean(),
                "E14: {id} broke its {} contract at n = {n_ops}: {}",
                id.contract(),
                rep.streaming_verdict.code()
            );
            assert!(
                rep.checker_high_water_mark <= RESIDENT_BOUND,
                "E14: {id} held {} ops resident at n = {n_ops}",
                rep.checker_high_water_mark
            );
            table.row(vec![
                id.name().into(),
                n_ops.to_string(),
                rep.breakdown.completed.to_string(),
                format!("{:.1}", rep.messages_per_op()),
                rep.duration_ticks.to_string(),
                rep.checker_high_water_mark.to_string(),
            ]);
        }
    }
    table
}

/// E15 — parallel schedule exploration: the engine fans (protocol ×
/// configuration × fault-distribution × seed) cells across a worker
/// pool, checks every history against its protocol's declared contract,
/// and shrinks every violation to a replayable counterexample.
///
/// The grid is [`fastreg_adversary::explore::default_grid`]: every
/// registered protocol on its canonical feasible configuration plus the
/// seeded hunting grounds (Fig. 2 past the fast bound, the unsound
/// one-round MWMR). The same budget is spent twice — once per traversal
/// [`Strategy`] — so the table shows how the coverage-guided search
/// reallocates cells toward the hunting grounds while the paper's
/// soundness direction holds under both. The experiment asserts the two directions the paper proves:
/// sound feasible cells never violate, and the hunting grounds *do*
/// yield violations — each one shrunk and replay-verified before the
/// table is rendered.
pub fn e15_exploration(cells: u32, threads: usize) -> Table {
    use fastreg_adversary::explore::{default_grid, CellExpectation};

    let mut table = Table::new(vec![
        "strategy",
        "protocol",
        "S,t,b,R,W",
        "expectation",
        "cells",
        "clean",
        "violations",
        "min shrunk faults",
    ]);
    for strategy in [Strategy::RandomGrid, Strategy::CoverageGuided] {
        let config = ExploreConfig {
            cells,
            threads,
            ops: 8,
            base_seed: 0xe15,
            strategy,
            grid: default_grid(),
        };
        let report = explore(&config);
        if let Some(f) = report.unexpected().next() {
            panic!(
                "E15: sound feasible protocol {} violated its contract ({}) at cell {} \
                 under {strategy}",
                f.counterexample.protocol.name(),
                f.counterexample.verdict,
                f.cell_index
            );
        }
        assert!(
            report.expected().count() > 0,
            "E15: the hunting grounds (past the bound / unsound) must yield violations \
             under {strategy}"
        );
        for f in &report.findings {
            assert!(
                f.counterexample.replay().reproduces(&f.counterexample),
                "E15: counterexample at cell {} does not replay under {strategy}",
                f.cell_index
            );
        }

        // One row per grid point, aggregated over distributions and seeds.
        for point in &config.grid {
            let here = |c: &fastreg_adversary::explore::Cell| {
                c.protocol == point.protocol && c.cfg == point.cfg
            };
            let ran: Vec<_> = report.cells.iter().filter(|e| here(&e.cell)).collect();
            let clean = ran.iter().filter(|e| e.outcome.verdict.is_clean()).count();
            let findings: Vec<_> = report
                .findings
                .iter()
                .filter(|f| here(&report.cells[f.cell_index].cell))
                .collect();
            let expectation = match point.expectation() {
                CellExpectation::Clean => "must stay clean",
                CellExpectation::MayViolate => "hunting",
            };
            table.row(vec![
                strategy.name().into(),
                point.protocol.name().into(),
                format!(
                    "{},{},{},{},{}",
                    point.cfg.s, point.cfg.t, point.cfg.b, point.cfg.r, point.cfg.w
                ),
                expectation.into(),
                ran.len().to_string(),
                clean.to_string(),
                // One finding per violating cell.
                findings.len().to_string(),
                findings
                    .iter()
                    .map(|f| f.counterexample.faults.len())
                    .min()
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    table
}

/// E16 — the sharded key–value store: shards × backend × key-skew sweep
/// with per-key contract checking.
///
/// Every row runs a closed-loop multi-client KV workload
/// ([`crate::kv::run_kv_workload`]) against a
/// [`ShardedStore`](fastreg_store::store::ShardedStore) built
/// from registry protocols, drives shards concurrently on `threads`
/// worker threads, and checks **every key's** projected sub-history
/// against its backend's declared contract. The headline row issues
/// `headline_ops` operations over a ≥ 1k-key keyspace — the scale
/// evidence that the register composition serves a real keyspace — and
/// the sweep rows vary shard count, backend (including a heterogeneous
/// fast-crash / ABD / fast-byz mix) and key skew.
///
/// Asserts, per row: every issued op completed, zero per-key contract
/// violations (all backends here are sound), and — on the headline row —
/// ≥ 1000 distinct keys actually served.
pub(crate) fn e16_store(headline_ops: u64, threads: usize) -> Table {
    use crate::kv::{run_kv_workload, KeyDist, KvWorkloadSpec};
    use fastreg_store::store::StoreBuilder;

    /// One sweep row: a store shape and the workload pointed at it.
    struct Row {
        shards: u32,
        backends: Vec<ProtocolId>,
        label: &'static str,
        dist: KeyDist,
        n_ops: u64,
        n_keys: u64,
        headline: bool,
    }

    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let mixed = vec![ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz];
    let sweep_ops = (headline_ops / 5).max(1_000);
    let sweep = |shards, backends, label, dist| Row {
        shards,
        backends,
        label,
        dist,
        n_ops: sweep_ops,
        n_keys: 200,
        headline: false,
    };
    let rows = vec![
        Row {
            shards: 8,
            backends: vec![ProtocolId::FastCrash],
            label: "fast-crash",
            dist: KeyDist::Uniform,
            n_ops: headline_ops,
            n_keys: 1_500,
            headline: true,
        },
        sweep(
            2,
            vec![ProtocolId::FastCrash],
            "fast-crash",
            KeyDist::Uniform,
        ),
        sweep(
            8,
            vec![ProtocolId::FastCrash],
            "fast-crash",
            KeyDist::Zipf { exponent: 1.2 },
        ),
        sweep(8, vec![ProtocolId::Abd], "abd", KeyDist::Uniform),
        sweep(8, mixed.clone(), "mixed", KeyDist::Uniform),
        sweep(8, mixed, "mixed", KeyDist::Zipf { exponent: 1.2 }),
    ];

    let mut table = Table::new(vec![
        "shards",
        "backend",
        "keys (dist)",
        "n_ops",
        "msgs/op",
        "get p50/p95",
        "verdicts",
    ]);
    for Row {
        shards,
        backends,
        label,
        dist,
        n_ops,
        n_keys,
        headline,
    } in rows
    {
        let store = StoreBuilder::new(cfg)
            .shards(shards)
            .seed(16)
            .backends(backends)
            .build()
            .expect("E16 backends are feasible at (5,1,2)");
        let spec = KvWorkloadSpec {
            n_ops,
            n_keys,
            n_clients: 64,
            put_fraction: 0.2,
            dist,
            seed: 16,
        };
        let (_, report) = run_kv_workload(store, &spec, threads)
            .unwrap_or_else(|e| panic!("E16: {label} store stalled: {e}"));
        assert_eq!(
            report.breakdown.completed, n_ops,
            "E16: {label} must complete every op"
        );
        assert_eq!(report.breakdown.incomplete, 0);
        assert_eq!(
            report.check.unexpected().count(),
            0,
            "E16: {label} sound backends must be clean per key: {:?}",
            report.check.violations().collect::<Vec<_>>()
        );
        assert!(report.check.is_clean(), "E16: every E16 backend is sound");
        if headline {
            assert!(
                report.distinct_keys >= 1_000,
                "E16 headline row must serve ≥ 1k distinct keys (got {})",
                report.distinct_keys
            );
        }
        let gets = report.breakdown.reads.clone();
        table.row(vec![
            shards.to_string(),
            label.into(),
            format!("{} ({})", report.distinct_keys, dist),
            n_ops.to_string(),
            format!("{:.1}", report.messages_per_op()),
            gets.map(|g| format!("{}/{}", g.p50, g.p95))
                .unwrap_or_else(|| "-".into()),
            format!(
                "{}/{} clean",
                report.check.clean_count(),
                report.check.per_key.len()
            ),
        ]);
    }
    table
}

/// E17 — the real-threads runtime: the same register protocols as
/// actors on OS threads, driven by the same closed-loop workload across
/// a worker-count sweep. Every row must complete every operation, and
/// the driver's online checker must find the harvested history clean
/// against the protocol's contract.
///
/// An rt history's ticks are wall-clock microseconds, and two operations
/// inside one microsecond are concurrent to the checker: a verdict here
/// is judged at µs precision, so it is weaker than the same verdict on
/// simnet, whose ticks order every event. Throughput per worker count is
/// fastbench's to measure.
pub(crate) fn e17_rt_runs(n_ops: u64, workers: &[usize]) -> Table {
    use fastreg::harness::Runtime;

    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let byz_cfg = ClusterConfig::byzantine(6, 1, 1, 1).expect("valid");
    let mut table = Table::new(vec!["protocol", "workers", "n_ops", "completed", "verdict"]);
    let row = EXPERIMENTS
        .iter()
        .find(|e| e.id == "e17")
        .expect("E17 is a suite row");
    for &id in row.protocols {
        let cfg = if id == ProtocolId::FastByz {
            byz_cfg
        } else {
            cfg
        };
        for &w in workers {
            let mut c = ClusterBuilder::new(cfg)
                .seed(17)
                .runtime(Runtime::Threads { workers: w })
                .build(id)
                .expect("E17 deployments are feasible and thread-compatible");
            let spec = WorkloadSpec {
                n_ops,
                write_fraction: 0.2,
                think_time: 0,
                seed: 17,
            };
            let rep = run_closed_loop(&mut c, &spec)
                .unwrap_or_else(|e| panic!("E17: {id} stalled at workers={w}: {e}"));
            assert_eq!(
                rep.breakdown.completed, n_ops,
                "E17: {id} must complete every op at workers={w}"
            );
            assert_eq!(rep.breakdown.incomplete, 0);
            assert!(
                rep.streaming_verdict.is_clean(),
                "E17: {id} broke its {} contract at workers={w}: {}",
                id.contract(),
                rep.streaming_verdict.code()
            );
            table.row(vec![
                id.name().into(),
                w.to_string(),
                n_ops.to_string(),
                rep.breakdown.completed.to_string(),
                rep.streaming_verdict.code().into(),
            ]);
        }
    }
    table
}

/// The synthetic SWMR history E18 grades: `n_ops / 3` writes, each with
/// two reads invoked while the write is in flight, so the streaming
/// frontier repeatedly fills to a handful of ops and drains. Clean by
/// construction at any size.
fn e18_history(n_ops: u64) -> fastreg_atomicity::history::History {
    let mut h = fastreg_atomicity::history::History::with_capacity(n_ops as usize);
    let mut t = 0u64;
    for v in 1..=n_ops / 3 {
        let w = h.invoke_write(0, v, t);
        let r1 = h.invoke_read(1, t + 1);
        let r2 = h.invoke_read(2, t + 1);
        h.respond(w, None, t + 2);
        h.respond(r1, Some(RegValue::Val(v)), t + 3);
        h.respond(r2, Some(RegValue::Val(v)), t + 3);
        t += 4;
    }
    h
}

/// E18 — checker memory: the streaming checker vs the batch checker on
/// synthetic SWMR histories up to millions of ops. The `resident` column
/// counts the ops a checker holds at once: the streaming checker's
/// high-water mark must stay within 16 ops at every size, while the
/// batch checker holds the whole history. The batch checker is
/// quadratic in the number of reads, so it only runs up to `batch_cap`
/// ops. The streaming checker's speed is fastbench's
/// `atomicity.stream_check_ns_per_op` row.
pub fn e18_checker_memory(sizes: &[u64], batch_cap: u64) -> Table {
    use fastreg_atomicity::streaming::{OnlineChecker, Spec};
    use fastreg_atomicity::verdict::Verdict;

    let mut table = Table::new(vec!["n_ops", "checker", "resident", "verdict"]);
    for &n_ops in sizes {
        let h = e18_history(n_ops);
        let mut ck = OnlineChecker::new(Spec::SwmrAtomic);
        ck.on_history(&h);
        let mut rows = vec![("streaming", ck.verdict(), ck.high_water_mark())];
        assert!(
            ck.high_water_mark() <= RESIDENT_BOUND,
            "E18: the streaming frontier held {} ops at n = {}",
            ck.high_water_mark(),
            h.len()
        );
        if n_ops <= batch_cap {
            let batch = Verdict::from_atomicity(&check_swmr_atomicity(&h));
            rows.push(("batch", batch, h.len()));
        }
        for (checker, verdict, resident) in rows {
            assert!(verdict.is_clean(), "E18: synthetic history must be clean");
            table.row(vec![
                h.len().to_string(),
                checker.into(),
                resident.to_string(),
                verdict.code().into(),
            ]);
        }
    }
    table
}

/// E19 — observability invariants: every registered protocol runs an
/// instrumented closed-loop workload at its canonical sample
/// configuration on *both* runtimes.
///
/// On simnet the metrics snapshot must satisfy the conservation law
/// `net.delivered == net.sent − net.dropped` with nothing left in
/// transit after settling, every per-(track, lane) span stream must
/// balance, and the full artifact pair (Chrome trace + metrics JSON)
/// must be byte-identical across two fresh deployments at the same
/// seed. On the real-threads runtime wall time is an input, so the
/// contract weakens to completion plus actor-pool counter sanity
/// (every op's messages were drained through the mailboxes).
pub(crate) fn e19_obs_invariants(n_ops: u64) -> Table {
    use crate::obsrun::trace_register_run;
    use fastreg::harness::Runtime;
    use fastreg::threads::{RtConfig, ThreadCluster};
    use fastreg_obs::spans_balanced;

    let mut table = Table::new(vec![
        "protocol",
        "sent",
        "delivered",
        "dropped",
        "spans",
        "deterministic",
        "rt completed",
    ]);
    let spec = WorkloadSpec {
        n_ops,
        write_fraction: 0.3,
        think_time: 1,
        seed: 19,
    };
    for id in ProtocolId::ALL {
        let cfg = id.sample_config();

        // Simnet leg: conservation, balance, byte-determinism.
        let run = || {
            trace_register_run(id, cfg, 19, &spec)
                .unwrap_or_else(|e| panic!("E19: {id} stalled on simnet: {e}"))
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.chrome_trace(),
            b.chrome_trace(),
            "E19: {id} trace must be byte-identical across fresh instances"
        );
        assert_eq!(
            a.metrics_json(),
            b.metrics_json(),
            "E19: {id} metrics must be byte-identical across fresh instances"
        );
        let sent = a.metrics.counter("net.sent");
        let delivered = a.metrics.counter("net.delivered");
        let dropped = a.metrics.counter("net.dropped");
        assert_eq!(
            delivered,
            sent - dropped,
            "E19: {id} violates message conservation"
        );
        assert_eq!(
            a.metrics.counter("net.in_transit"),
            0,
            "E19: {id} settled with messages still in transit"
        );
        spans_balanced(&a.events)
            .unwrap_or_else(|e| panic!("E19: {id} emitted unbalanced spans: {e}"));
        assert_eq!(
            a.metrics.counter("ops.completed"),
            n_ops,
            "E19: {id} must complete every op on simnet"
        );

        // Threads leg: the same automata behind the actor pool.
        let mut rt = ClusterBuilder::new(cfg)
            .seed(19)
            .runtime(Runtime::Threads { workers: 2 })
            .build(id)
            .unwrap_or_else(|e| panic!("E19: {id} failed to deploy on threads: {e}"));
        let rep = run_closed_loop(&mut rt, &spec)
            .unwrap_or_else(|e| panic!("E19: {id} stalled on threads: {e}"));
        assert_eq!(
            rep.breakdown.completed, n_ops,
            "E19: {id} must complete every op on threads"
        );
        assert_eq!(rep.breakdown.incomplete, 0);

        table.row(vec![
            id.name().into(),
            sent.to_string(),
            delivered.to_string(),
            dropped.to_string(),
            "balanced".into(),
            "yes".into(),
            rep.breakdown.completed.to_string(),
        ]);
    }

    // Actor-pool counter sanity on a concrete (non-erased) deployment:
    // the erased threads leg above cannot reach `rt_stats`, so one
    // flagship run pins the mailbox accounting.
    let cfg = ProtocolId::FastCrash.sample_config();
    let mut c: ThreadCluster<FastCrash> = ThreadCluster::spawn(cfg, 19, RtConfig::new(2));
    run_closed_loop(&mut c, &spec).expect("E19: flagship rt run completes");
    let stats = c.rt_stats();
    assert!(
        stats.drained_messages > 0,
        "E19: the actor pool must drain messages"
    );
    assert!(
        stats.drained_batches <= stats.drained_messages,
        "E19: batches cannot outnumber messages"
    );
    assert!(
        (1..=stats.drained_messages).contains(&stats.max_batch),
        "E19: max batch must be within [1, drained]"
    );
    assert_eq!(
        stats.panicked, 0,
        "E19: no actor of the flagship run panics"
    );
    // The drain counts depend on thread timing: render the relations
    // just verified, not the counts.
    table.row(vec![
        "rt-counters".into(),
        "drained > 0".into(),
        "batches ≤ drained".into(),
        "-".into(),
        "1 ≤ max_batch ≤ drained".into(),
        "-".into(),
        "-".into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_names_its_protocols() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(
                e.id,
                format!("e{}", i + 1),
                "ids are unique and in suite order"
            );
            assert!(
                !e.protocols.is_empty(),
                "{} must declare the protocols it exercises",
                e.id
            );
            let banner = format!("{} — ", e.id.to_uppercase());
            assert!(e.title.starts_with(&banner), "{}: {}", e.id, e.title);
        }
    }

    #[test]
    fn e15_explores_both_directions_deterministically() {
        let t = e15_exploration(144, 2);
        // One row per (strategy, default-grid point): 2 strategies ×
        // (8 canonical + the past-the-bound hunting point).
        assert_eq!(t.len(), 18);
        let s = t.render();
        assert!(s.contains("hunting"));
        assert!(s.contains("must stay clean"));
        assert!(s.contains("random-grid"));
        assert!(s.contains("coverage-guided"));
        // Identical cells at another thread count render identically.
        assert_eq!(s, e15_exploration(144, 4).render());
    }

    #[test]
    fn e16_sweeps_shards_backends_and_skew() {
        // (Thread-count independence of the KV pipeline is pinned at the
        // report level in `kv::tests` and byte-for-byte by the `report
        // store --json` CLI tests; this test checks the sweep's shape
        // and that the experiment's own assertions pass at a CI-sized
        // headline.)
        let t = e16_store(5_000, 2);
        assert_eq!(t.len(), 6);
        let s = t.render();
        assert!(s.contains("fast-crash"));
        assert!(s.contains("abd"));
        assert!(s.contains("mixed"));
        assert!(s.contains("zipf(1.2)"));
        assert!(s.contains("clean"));
        assert!(s.contains("uniform"));
    }
}
