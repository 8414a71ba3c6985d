//! Cross-protocol conformance: every entry in the runtime registry must
//! behave like a register when driven through `dyn RegisterOps`, and the
//! builder must reject infeasible configurations with a typed error.
//!
//! This is the suite that keeps the registry honest: adding a protocol
//! means registering it, and registering it means passing conformance.

use std::collections::BTreeMap;

use fastreg_suite::fastreg::byz::{CounterAbuser, Forger};
use fastreg_suite::fastreg::layout::Layout;
use fastreg_suite::fastreg_atomicity::history::SharedHistory;
use fastreg_suite::fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_suite::fastreg_simnet::delay::DelayModel;
use fastreg_suite::fastreg_simnet::id::ProcessId;
use fastreg_suite::fastreg_simnet::time::SimTime;
use fastreg_suite::fastreg_simnet::trace::TraceEntry;
use fastreg_suite::fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_suite::prelude::*;

/// Sequential write/read/settle round trips through `dyn RegisterOps`,
/// on each protocol's canonical feasible configuration, built through the
/// one constructor on both runtimes. Sequential histories must be atomic
/// for *every* contract — even the §8 regular register and the §7
/// counterexample only diverge under concurrency.
#[test]
fn every_registered_protocol_round_trips_through_dyn_register_ops() {
    let threads = Runtime::Threads { workers: 2 };
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

/// A `seen`-keeping protocol tells at most 64 clients apart (its `seen`
/// sets are 64-bit masks): one reader more is a typed
/// [`BuildError::TooManyClients`] naming the limit, on both substrates
/// and both builder routes — not a shift overflow in a server. The
/// limit is the representation's, not the paper's: such configurations
/// stay valid, and the protocols that keep no `seen` set still deploy
/// them.
#[test]
fn more_clients_than_a_seen_set_holds_is_a_typed_build_error() {
    let threads = Runtime::Threads { workers: 1 };
    // The smallest feasible deployments with R = 63 and R = 64 readers.
    let crash = |r| ClusterConfig::crash_stop(r + 3, 1, r).unwrap();
    let byz = |r| ClusterConfig::byzantine(2 * r + 4, 1, 1, r).unwrap();
    for (id, fits, crowded) in [
        (ProtocolId::FastCrash, crash(63), crash(64)),
        (ProtocolId::FastByz, byz(63), byz(64)),
    ] {
        assert!(id.feasible(&fits) && id.feasible(&crowded), "{id}");
        for runtime in [Runtime::Simnet, threads] {
            let err = ClusterBuilder::new(crowded)
                .runtime(runtime)
                .build(id)
                .expect_err("65 clients");
            let expected = BuildError::TooManyClients {
                id,
                cfg: crowded,
                limit: 64,
            };
            assert_eq!(err, expected, "{id} on {runtime}");
            assert!(err.to_string().contains("64"), "{err}");
            assert!(err.to_string().contains(id.name()), "{err}");
        }
        // 64 clients fit, up to the highest bit: the last reader reads.
        let mut c = ClusterBuilder::new(fits).seed(1).build(id).unwrap();
        c.write_sync(7);
        assert_eq!(c.read(62), RegValue::Val(7), "{id}");
        c.check_atomic().unwrap();
    }
    let typed_crash = ClusterBuilder::new(crash(64)).build_typed::<FastCrash>();
    let typed_byz = ClusterBuilder::new(byz(64)).build_typed::<FastByz>();
    for err in [typed_crash.map(drop), typed_byz.map(drop)] {
        assert!(
            matches!(err, Err(BuildError::TooManyClients { limit: 64, .. })),
            "{err:?}"
        );
    }

    // R = 100 is still a configuration, and everyone else still builds it.
    let many = ClusterConfig::crash_stop(5, 2, 100).unwrap();
    assert!(many.fast_regular_feasible());
    let many_writers = ClusterConfig::mwmr(5, 2, 2, 100).unwrap();
    for id in ProtocolId::ALL {
        if id.max_clients().is_some() {
            continue;
        }
        let cfg = if id.sample_config().w > 1 {
            many_writers
        } else {
            many
        };
        // Unchecked: `swsr-fast` is only *feasible* at R = 1.
        let mut c = ClusterBuilder::new(cfg).seed(1).build_unchecked(id);
        c.write_sync(7);
        assert_eq!(c.read(99), RegValue::Val(7), "{id}");
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
    let typed_contract = typed.contract();
    let mut erased = DynCluster::from_cluster(typed);
    assert_eq!(erased.id(), ProtocolId::FastCrash);
    assert_eq!(erased.id().name(), "fast-crash");
    assert_eq!(erased.contract(), typed_contract);
    erased.write_sync(9);
    assert_eq!(erased.read(1), RegValue::Val(9));
    erased.check_atomic().unwrap();
}

/// Quorum rounds of a `(write, read)`: [`Rule::ROUNDS`] of each client
/// type's rule.
///
/// [`Rule::ROUNDS`]: fastreg_suite::fastreg::protocols::round::Rule::ROUNDS
fn rounds(id: ProtocolId) -> (u32, u32) {
    use fastreg_suite::fastreg::protocols::mwmr::{abd as mwmr_abd, naive_fast};
    use fastreg_suite::fastreg::protocols::{
        abd, fast_byz, fast_crash, fast_regular, maxmin, swsr_fast,
    };
    match id {
        ProtocolId::FastCrash => (fast_crash::Writer::ROUNDS, fast_crash::Reader::ROUNDS),
        ProtocolId::FastByz => (fast_byz::Writer::ROUNDS, fast_byz::Reader::ROUNDS),
        ProtocolId::Abd => (<abd::Writer>::ROUNDS, abd::Reader::ROUNDS),
        ProtocolId::MaxMin => (maxmin::Writer::ROUNDS, maxmin::Reader::ROUNDS),
        ProtocolId::FastRegular => (fast_regular::Writer::ROUNDS, fast_regular::Reader::ROUNDS),
        ProtocolId::SwsrFast => (swsr_fast::Writer::ROUNDS, swsr_fast::Reader::ROUNDS),
        ProtocolId::MwmrAbd => (mwmr_abd::Client::ROUNDS, mwmr_abd::Client::ROUNDS),
        ProtocolId::MwmrNaiveFast => (naive_fast::Writer::ROUNDS, naive_fast::Reader::ROUNDS),
    }
}

/// The round count is checked against the run, not trusted: under
/// `Constant(1)` delays with nobody faulty, an operation takes 2 ticks and
/// `2 S` messages per round of its rule. Only the ABD read and both
/// MWMR-ABD operations take two; max–min's read is one client round in
/// which the servers wait for each other — 3 ticks, and gossip on top.
#[test]
fn every_operation_takes_the_rounds_its_rule_declares() {
    for id in ProtocolId::ALL {
        let (write_rounds, read_rounds) = rounds(id);
        let two_round = matches!(id, ProtocolId::Abd | ProtocolId::MwmrAbd);
        assert_eq!(read_rounds, if two_round { 2 } else { 1 }, "{id}: read");
        let mwmr = id == ProtocolId::MwmrAbd;
        assert_eq!(write_rounds, if mwmr { 2 } else { 1 }, "{id}: write");

        let cfg = id.sample_config();
        let calm = SimConfig::default().with_delay(DelayModel::Constant(1));
        let mut c = ClusterBuilder::new(cfg).sim(calm).build(id).unwrap();
        c.write_sync(1);
        let sent_by_write = c.messages_sent();
        c.read(0);
        let sent_by_read = c.messages_sent() - sent_by_write;
        let history = c.snapshot();
        let [write_ticks, read_ticks] =
            [history.writes().next(), history.reads().next()].map(|op| {
                let op = op.expect("one of each ran");
                op.responded_at.expect("complete") - op.invoked_at
            });
        assert_eq!(write_ticks, 2 * u64::from(write_rounds), "{id}");
        if id == ProtocolId::MaxMin {
            assert_eq!(read_ticks, 3, "{id}: servers wait");
        } else {
            assert_eq!(read_ticks, 2 * u64::from(read_rounds), "{id}");
            assert_eq!(sent_by_read, u64::from(2 * cfg.s * read_rounds), "{id}");
        }
    }
}

/// The network a [`DETERMINISM_PINS`] row runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Net {
    /// `Constant(1)` delays, nobody faulty: acks arrive in server order.
    Calm,
    /// `Uniform { lo: 1, hi: 7 }` delays and server 1 crashed from the
    /// start: acks arrive out of server order, late acks of one operation
    /// land in the next, and every quorum is exactly `S − t` of the rest.
    Rough,
    /// `Uniform { lo: 1, hi: 7 }` delays with a [`Forger`] in server slot
    /// 0 (`fast-byz` only): every one of its acks must be discarded.
    Forger,
    /// `Uniform { lo: 1, hi: 7 }` delays with a [`CounterAbuser`] in
    /// server slot 0 (`fast-byz` only): two of its three acks per request
    /// carry a wrong counter, some of them the *next* read's.
    CounterAbuser,
}

const JITTER: DelayModel = DelayModel::Uniform { lo: 1, hi: 7 };

/// `(messages_sent, duration_ticks, trace_fingerprint, outcome)` of a
/// 64-op closed loop at seed `0xD5` on each protocol's sample
/// configuration; `outcome` is FNV-1a over the rendered history (every
/// returned value and response time) and the readers' witness levels.
/// The `Calm` rows were captured at the commit before cluster
/// construction was folded into one path, the others at the commit before
/// the client automata were folded onto `protocols::round` — they pin
/// what `Calm` cannot see: ack arrival order, stale acks, a server that
/// answers twice or wrongly. Refactors must leave every row unchanged;
/// naming each variant here is also the registry's conformance
/// appearance (lint D5).
#[rustfmt::skip] // one row per line: a table, not code
const DETERMINISM_PINS: [(ProtocolId, Net, u64, u64, u64, u64); 18] = [
    (ProtocolId::FastCrash, Net::Calm, 640, 45, 0x3a13_20ad_63b7_4ee8, 0xbf90_65aa_25ac_44ee),
    (ProtocolId::FastByz, Net::Calm, 768, 69, 0x7c88_3e5f_8934_f00a, 0xa332_46a4_264a_23a6),
    (ProtocolId::Abd, Net::Calm, 980, 69, 0x51fa_a957_7ae3_b55c, 0x1316_6da3_4c60_65be),
    (ProtocolId::MaxMin, Net::Calm, 1400, 59, 0xa4e0_5698_b589_1c83, 0xd83b_f8b3_fdf0_6098),
    (ProtocolId::FastRegular, Net::Calm, 640, 29, 0x8437_682e_848e_a221, 0xdbe1_97d5_fefe_5da9),
    (ProtocolId::SwsrFast, Net::Calm, 640, 69, 0xa5c1_a91a_f021_3095, 0x6ec9_153d_f94c_029d),
    (ProtocolId::MwmrAbd, Net::Calm, 768, 91, 0x226a_3262_1799_c2a4, 0x6f96_179e_0c49_c274),
    (ProtocolId::MwmrNaiveFast, Net::Calm, 384, 50, 0xf2bb_737a_382b_6752, 0x93cc_5284_883a_7a63),
    (ProtocolId::FastCrash, Net::Rough, 576, 254, 0xb648_cfbf_a9cc_b14c, 0x7940_a7e0_9c7b_ac43),
    (ProtocolId::FastByz, Net::Rough, 704, 425, 0xe25f_6d81_1ebd_ec1d, 0x31c1_3eb9_60f6_19e0),
    (ProtocolId::Abd, Net::Rough, 882, 319, 0xc75d_3bd6_24ee_fdcb, 0xea87_df51_68a7_4c35),
    (ProtocolId::MaxMin, Net::Rough, 1184, 258, 0xa3a9_daee_a9e5_13b7, 0xc7cf_a578_3902_402e),
    (ProtocolId::FastRegular, Net::Rough, 576, 135, 0x7de9_4602_1f76_bd63, 0x2a08_fd0b_5d70_01ca),
    (ProtocolId::SwsrFast, Net::Rough, 576, 343, 0x0f95_c070_e993_2a36, 0x1b27_d1ea_115e_9afc),
    (ProtocolId::MwmrAbd, Net::Rough, 640, 477, 0x6541_7028_934f_e11e, 0x2de6_1c37_73ab_f38b),
    (ProtocolId::MwmrNaiveFast, Net::Rough, 320, 264, 0x7567_c1f1_e5b1_700f, 0x6fc2_1e88_1e90_e1fe),
    (ProtocolId::FastByz, Net::Forger, 768, 401, 0x43af_1eae_08d2_3385, 0x7ac4_7f4d_daa0_5837),
    (ProtocolId::FastByz, Net::CounterAbuser, 840, 356, 0x3fcf_d9a6_3597_5012, 0x3694_fb73_1e49_9933),
];

/// The closed loop every pin row ran.
fn pinned_loop() -> WorkloadSpec {
    WorkloadSpec {
        n_ops: 64,
        seed: 0xD5,
        ..WorkloadSpec::default()
    }
}

/// The deployment a pin row describes (the rows are at `seed` `0xD5`).
fn pinned_cluster(id: ProtocolId, net: Net, seed: u64) -> DynCluster {
    let builder = ClusterBuilder::new(id.sample_config()).seed(seed);
    let jittered = builder.clone().sim(SimConfig::default().with_delay(JITTER));
    match net {
        Net::Calm => builder.build(id).unwrap_or_else(|e| panic!("{id}: {e}")),
        Net::Rough => {
            let mut c = jittered.build(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            c.sim_control().expect("simnet").crash_server(1);
            c
        }
        Net::Forger | Net::CounterAbuser => {
            assert_eq!(
                id,
                ProtocolId::FastByz,
                "behaviours speak Fig. 5's alphabet"
            );
            let typed = jittered.build_typed_with::<FastByz>(|cfg, layout, index, ctx| {
                let (verifier, key) = (ctx.verifier.clone(), ctx.writer_key);
                match (index, net) {
                    (0, Net::Forger) => Box::new(Forger::new()),
                    (0, _) => Box::new(CounterAbuser::new(cfg, layout, verifier, key)),
                    _ => FastByz::server(cfg, layout, index, ctx),
                }
            });
            DynCluster::from_cluster(typed.expect("simnet"))
        }
    }
}

#[test]
fn fixed_seed_runs_are_pinned_for_every_protocol() {
    for net in [Net::Calm, Net::Rough] {
        let covered: Vec<_> = DETERMINISM_PINS
            .iter()
            .filter(|p| p.1 == net)
            .map(|p| p.0)
            .collect();
        assert_eq!(covered, ProtocolId::ALL, "{net:?}");
    }
    for (id, net, messages_sent, duration_ticks, fingerprint, outcome) in DETERMINISM_PINS {
        let mut c = pinned_cluster(id, net, 0xD5);
        let report =
            run_closed_loop(&mut c, &pinned_loop()).unwrap_or_else(|e| panic!("{id}: {e}"));
        let sim = c.sim_control_ref().expect("simnet is the default runtime");
        let told = format!("{}{:?}", report.history.render(), sim.witness_levels());
        let told = told.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (
                report.messages_sent,
                report.duration_ticks,
                sim.trace_fingerprint(),
                told
            ),
            (messages_sent, duration_ticks, fingerprint, outcome),
            "{id} under {net:?}"
        );
    }
}

/// No pinned fingerprint covers a truncated trace: under the default
/// trace bound every pin row's run stores every event it made — one per
/// send, step, drop and crash — and suppresses none.
#[test]
fn every_pinned_run_fits_the_default_trace_bound() {
    for (id, net, ..) in DETERMINISM_PINS {
        let mut c = pinned_cluster(id, net, 0xD5);
        run_closed_loop(&mut c, &pinned_loop()).unwrap_or_else(|e| panic!("{id}: {e}"));
        let sim = c.sim_control_ref().expect("simnet is the default runtime");
        let entries = sim.trace_entries();
        let crashes = entries
            .iter()
            .filter(|e| matches!(e, TraceEntry::Crash { .. }))
            .count() as u64;
        let net_stats = sim.net_stats();
        assert_eq!(
            entries.len() as u64,
            net_stats.sent + net_stats.steps + net_stats.dropped + crashes,
            "{id} under {net:?}: the trace suppressed events"
        );
    }
}

/// The in-process trace digest stands in for the pinned, rendered
/// fingerprint wherever two runs of one process are compared: over every
/// pin row's deployment it repeats exactly at a fixed seed, and — where
/// the delays are drawn from the seed — moves with the seed, always in
/// step with the fingerprint.
#[test]
fn trace_digests_repeat_at_a_seed_and_move_with_it() {
    let identities = |id, net, seed| {
        let mut c = pinned_cluster(id, net, seed);
        run_closed_loop(&mut c, &pinned_loop()).unwrap_or_else(|e| panic!("{id}: {e}"));
        let sim = c.sim_control_ref().expect("simnet is the default runtime");
        (sim.trace_fingerprint(), sim.trace_digest())
    };
    for (id, net, _, _, fingerprint, _) in DETERMINISM_PINS {
        let pinned = identities(id, net, 0xD5);
        assert_eq!(pinned.0, fingerprint, "{id} under {net:?}");
        assert_eq!(identities(id, net, 0xD5), pinned, "{id} under {net:?}");
        let reseeded = identities(id, net, 0xD6);
        assert_eq!(
            reseeded.0 == pinned.0,
            reseeded.1 == pinned.1,
            "{id} under {net:?}: the identities disagree"
        );
        if net != Net::Calm {
            assert_ne!(reseeded.1, pinned.1, "{id} under {net:?}: seed-blind");
        }
    }
}

/// One step of a recorded run: sender, receiver, time, message.
type Step<M> = (ProcessId, ProcessId, SimTime, M);

/// Records the message tape of a fault-free closed loop on `P`'s sample
/// configuration — every invocation and delivery, in the order the
/// simulator made them — then replays it into fresh automata with no
/// `World` around them, which must complete exactly the operations the
/// simulated run did. Returns the protocol it checked.
fn replay_tape<P: ProtocolFamily>() -> ProtocolId {
    const SEED: u64 = 1;
    let cfg = P::ID.sample_config();
    let mut cluster: Cluster<P> = ClusterBuilder::new(cfg).seed(SEED).build_typed().unwrap();
    let spec = WorkloadSpec {
        n_ops: 200,
        write_fraction: 0.1,
        ..WorkloadSpec::default()
    };
    run_closed_loop(&mut cluster, &spec).unwrap_or_else(|e| panic!("{}: {e}", P::ID));
    let trace = cluster.world.trace();
    assert_eq!(
        trace.suppressed(),
        0,
        "{}: the tape is the whole run",
        P::ID
    );
    let mut in_transit = BTreeMap::new();
    let mut tape: Vec<Step<P::Msg>> = Vec::new();
    for line in trace.lines() {
        let payload = || {
            line.payload
                .expect("sends and injections carry a message")
                .clone()
        };
        match line.entry {
            TraceEntry::Send { id, .. } => {
                in_transit.insert(id, payload());
            }
            TraceEntry::Inject { at, to } => tape.push((ProcessId::EXTERNAL, to, at, payload())),
            TraceEntry::Deliver { at, id, from, to } => {
                tape.push((from, to, at, in_transit.remove(&id).expect("sent first")));
            }
            TraceEntry::Crash { .. } | TraceEntry::Drop { .. } => unreachable!("fault-free run"),
        }
    }

    // Fresh automata in layout address order, keyed like the recording.
    let (layout, history) = (Layout::of(&cfg), SharedHistory::new(cfg.w + cfg.r));
    let mut ctx = P::make_ctx(&cfg, SEED);
    let mut actors: Vec<Box<dyn Automaton<Msg = P::Msg>>> = Vec::new();
    for i in 0..cfg.w {
        actors.push(P::writer(&cfg, layout, i, history.clone(), &mut ctx));
    }
    for i in 0..cfg.r {
        actors.push(P::reader(&cfg, layout, i, history.clone(), &mut ctx));
    }
    for j in 0..cfg.s {
        actors.push(P::server(&cfg, layout, j, &mut ctx));
    }
    for (from, to, at, msg) in tape {
        let mut out = Outbox::with_buffer(to, at, Vec::new());
        actors[to.index() as usize].on_message(from, msg, &mut out);
    }
    let simulated = cluster.history.completed_count();
    assert!(simulated > 0, "{}", P::ID);
    assert_eq!(history.completed_count(), simulated, "{}", P::ID);
    P::ID
}

/// One tape replay per registry entry, in table order.
const TAPE_REPLAYS: [fn() -> ProtocolId; 8] = [
    replay_tape::<FastCrash>,
    replay_tape::<FastByz>,
    replay_tape::<Abd>,
    replay_tape::<MaxMin>,
    replay_tape::<FastRegular>,
    replay_tape::<SwsrFast>,
    replay_tape::<MwmrAbd>,
    replay_tape::<MwmrNaiveFast>,
];

/// The automata are the whole protocol: a recorded message tape,
/// replayed into bare automata, completes exactly the operations the
/// simulated run did — for every registered protocol.
#[test]
fn recorded_message_tapes_replay_into_bare_automata() {
    let replayed: Vec<ProtocolId> = TAPE_REPLAYS.iter().map(|replay| replay()).collect();
    assert_eq!(replayed, ProtocolId::ALL);
}
