//! Cross-protocol conformance: every entry in the runtime registry must
//! behave like a register when driven through `dyn RegisterOps`, and the
//! builder must reject infeasible configurations with a typed error.
//!
//! This is the suite that keeps the registry honest: adding a protocol
//! means registering it, and registering it means passing conformance.

use fastreg_suite::fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_suite::prelude::*;

/// Sequential write/read/settle round trips through `dyn RegisterOps`,
/// on each protocol's canonical feasible configuration, built through the
/// one constructor on both runtimes. Sequential histories must be atomic
/// for *every* contract — even the §8 regular register and the §7
/// counterexample only diverge under concurrency.
#[test]
fn every_registered_protocol_round_trips_through_dyn_register_ops() {
    let threads = Runtime::Threads {
        workers: 2,
        affinity: Affinity::None,
    };
    for (id, runtime) in ProtocolId::ALL
        .into_iter()
        .flat_map(|id| [(id, Runtime::Simnet), (id, threads)])
    {
        let cfg = id.sample_config();
        assert!(id.feasible(&cfg), "{id}: sample config must be feasible");

        let mut cluster = ClusterBuilder::new(cfg)
            .seed(7)
            .runtime(runtime)
            .build(id)
            .unwrap_or_else(|e| panic!("{id} on {runtime}: {e}"));
        assert_eq!(cluster.id(), id);
        assert_eq!(cluster.sim_control().is_some(), runtime == Runtime::Simnet);
        let ops: &mut dyn RegisterOps = &mut cluster;

        assert_eq!(ops.read(0), RegValue::Bottom, "{id}: fresh register is ⊥");
        ops.write_sync(11);
        assert_eq!(ops.read(0), RegValue::Val(11), "{id} on {runtime}");
        ops.write_sync(22);
        for i in 0..cfg.r {
            assert_eq!(
                ops.read(i),
                RegValue::Val(22),
                "{id} on {runtime}: reader {i}"
            );
        }
        ops.settle();

        if cfg.w == 1 {
            ops.check_atomic().unwrap_or_else(|v| {
                panic!("{id} on {runtime}: sequential history not atomic: {v}")
            });
        } else {
            assert_eq!(ops.check_linearizable(), Ok(true), "{id} on {runtime}");
        }
    }
}

/// The registry's feasibility predicates gate `build()`: a configuration
/// violating a protocol's deployment hypotheses yields
/// [`BuildError::Infeasible`] naming that protocol, never a cluster.
#[test]
fn infeasible_configs_are_rejected_at_build_with_a_typed_error() {
    let cases: Vec<(ProtocolId, ClusterConfig, &str)> = vec![
        (
            ProtocolId::FastCrash,
            ClusterConfig::crash_stop(5, 1, 3).unwrap(),
            "R = 3 hits the bound R < S/t - 2",
        ),
        (
            ProtocolId::FastCrash,
            ClusterConfig::byzantine(9, 1, 1, 1).unwrap(),
            "b > 0 is not crash-stop",
        ),
        (
            ProtocolId::FastByz,
            ClusterConfig::byzantine(5, 1, 1, 1).unwrap(),
            "S = 5 <= (R+2)t + (R+1)b = 5",
        ),
        (
            ProtocolId::Abd,
            ClusterConfig::crash_stop(4, 2, 1).unwrap(),
            "no majority: t >= S/2",
        ),
        (
            ProtocolId::MaxMin,
            ClusterConfig::crash_stop(4, 2, 1).unwrap(),
            "no majority: t >= S/2",
        ),
        (
            ProtocolId::FastRegular,
            ClusterConfig::crash_stop(4, 2, 1).unwrap(),
            "no majority: t >= S/2",
        ),
        (
            ProtocolId::SwsrFast,
            ClusterConfig::crash_stop(5, 1, 2).unwrap(),
            "the SWSR trick supports exactly one reader",
        ),
        (
            ProtocolId::MwmrAbd,
            ClusterConfig::mwmr(4, 2, 2, 1).unwrap(),
            "no majority: t >= S/2",
        ),
        (
            ProtocolId::MwmrNaiveFast,
            ClusterConfig::mwmr(4, 2, 2, 1).unwrap(),
            "no majority: t >= S/2",
        ),
        (
            ProtocolId::MwmrAbd,
            ClusterConfig::byzantine(9, 1, 1, 1).unwrap(),
            "b > 0 is not crash-stop",
        ),
    ];
    for (id, cfg, why) in cases {
        assert!(!id.feasible(&cfg), "{id}: {why}");
        match ClusterBuilder::new(cfg).build(id) {
            Err(BuildError::Infeasible {
                id: got,
                cfg: got_cfg,
                requirement,
            }) => {
                assert_eq!(got, id, "{why}");
                assert_eq!(got_cfg, cfg);
                assert!(!requirement.is_empty());
            }
            Err(other) => panic!("{id}: expected Infeasible, got {other:?} ({why})"),
            Ok(_) => panic!("{id}: build must reject ({why})"),
        }
    }
}

/// Every SWMR protocol must produce identical results on the same
/// sequential run — the value read depends only on register semantics,
/// not on the protocol (this was previously asserted per-protocol with
/// hand-monomorphized drivers; the registry makes it one loop).
#[test]
fn swmr_protocols_agree_on_sequential_results() {
    let expected = [
        RegValue::Bottom,
        RegValue::Val(11),
        RegValue::Val(11),
        RegValue::Val(33),
    ];
    for id in ProtocolId::ALL {
        let cfg = id.sample_config();
        if cfg.w != 1 {
            continue; // MWMR deployments are covered by the round-trip test.
        }
        let mut c = ClusterBuilder::new(cfg).seed(1).build(id).unwrap();
        let mut got = Vec::new();
        got.push(c.read(0));
        c.write_sync(11);
        got.push(c.read(0));
        got.push(c.read(1 % cfg.r.max(1)));
        c.write_sync(22);
        c.write_sync(33);
        got.push(c.read(0));
        assert_eq!(got, expected, "{id}");
    }
}

/// `build_unchecked` is the deliberate escape hatch for experiments on
/// the wrong side of the bound; the typed-vs-erased paths stay in sync.
#[test]
fn build_unchecked_and_from_cluster_cover_the_escape_hatches() {
    // Beyond the fast bound — rejected checked, allowed unchecked.
    let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap();
    assert!(ClusterBuilder::new(cfg)
        .build(ProtocolId::FastCrash)
        .is_err());
    let mut c = ClusterBuilder::new(cfg)
        .seed(2)
        .build_unchecked(ProtocolId::FastCrash);
    c.write_sync(5);
    assert_eq!(c.read(0), RegValue::Val(5));

    // Erasing a statically built cluster preserves behaviour and identity.
    let feasible = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let typed: Cluster<FastCrash> = ClusterBuilder::new(feasible).seed(3).build_typed().unwrap();
    let mut erased = DynCluster::from_cluster(ProtocolId::FastCrash, typed);
    assert_eq!(erased.id(), ProtocolId::FastCrash);
    assert_eq!(erased.name(), "fast-crash");
    erased.write_sync(9);
    assert_eq!(erased.read(1), RegValue::Val(9));
    erased.check_atomic().unwrap();
}

/// `(messages_sent, duration_ticks, trace_fingerprint)` of a 64-op closed
/// loop at seed `0xD5` on each protocol's sample configuration, captured
/// at the commit before cluster construction was folded into one path.
/// Construction refactors must leave every row unchanged; naming each
/// variant here is also the registry's conformance appearance (lint D5).
const DETERMINISM_PINS: [(ProtocolId, u64, u64, u64); 8] = [
    (ProtocolId::FastCrash, 640, 45, 0x3a13_20ad_63b7_4ee8),
    (ProtocolId::FastByz, 768, 69, 0x7c88_3e5f_8934_f00a),
    (ProtocolId::Abd, 980, 69, 0x51fa_a957_7ae3_b55c),
    (ProtocolId::MaxMin, 1400, 59, 0xa4e0_5698_b589_1c83),
    (ProtocolId::FastRegular, 640, 29, 0x8437_682e_848e_a221),
    (ProtocolId::SwsrFast, 640, 69, 0xa5c1_a91a_f021_3095),
    (ProtocolId::MwmrAbd, 768, 91, 0x226a_3262_1799_c2a4),
    (ProtocolId::MwmrNaiveFast, 384, 50, 0xf2bb_737a_382b_6752),
];

#[test]
fn fixed_seed_runs_are_pinned_for_every_protocol() {
    assert_eq!(DETERMINISM_PINS.map(|pin| pin.0), ProtocolId::ALL);
    for (id, messages_sent, duration_ticks, fingerprint) in DETERMINISM_PINS {
        let mut c = ClusterBuilder::new(id.sample_config())
            .seed(0xD5)
            .build(id)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let spec = WorkloadSpec {
            n_ops: 64,
            seed: 0xD5,
            ..WorkloadSpec::default()
        };
        let report = run_closed_loop(&mut c, &spec).unwrap_or_else(|e| panic!("{id}: {e}"));
        let sim = c.sim_control_ref().expect("simnet is the default runtime");
        assert_eq!(
            (
                report.messages_sent,
                report.duration_ticks,
                sim.trace_fingerprint()
            ),
            (messages_sent, duration_ticks, fingerprint),
            "{id}"
        );
    }
}
