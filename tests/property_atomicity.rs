//! Property-based tests (proptest) on the central invariants.
//!
//! * The Fig. 2 protocol's histories are atomic for *any* feasible
//!   configuration, schedule seed, fault plan and operation mix.
//! * The Fig. 5 protocol's histories are atomic under any behaviour of a
//!   malicious server drawn from the library.
//! * The SWMR checker and the linearizability oracle agree on
//!   protocol-generated histories.

use proptest::prelude::*;

use fastreg_suite::fastreg::byz::{Forger, SeenInflater, StaleReplayer, TwoFacedLoseWrite};
use fastreg_suite::fastreg::harness::ByzCtx;
use fastreg_suite::fastreg::layout::Layout;
use fastreg_suite::fastreg_simnet::automaton::Automaton;
use fastreg_suite::prelude::*;

/// Feasible crash-stop configurations with small populations.
fn feasible_cfg() -> impl Strategy<Value = ClusterConfig> {
    (1u32..=3, 1u32..=4).prop_flat_map(|(t, r)| {
        // Smallest feasible S for this (t, r), plus some slack.
        let min_s = (r + 2) * t + 1;
        (min_s..=min_s + 4).prop_map(move |s| ClusterConfig::crash_stop(s, t, r).expect("valid"))
    })
}

/// A small schedule script: which clients act, with interleaved delivery.
#[derive(Clone, Debug)]
enum Step {
    Write,
    Read(u32),
    DeliverBurst(u8),
    CrashServer(u32),
    CrashWriterAfter(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Write),
        (0u32..8).prop_map(Step::Read),
        (1u8..12).prop_map(Step::DeliverBurst),
        (0u32..16).prop_map(Step::CrashServer),
        (0u8..8).prop_map(Step::CrashWriterAfter),
    ]
}

fn apply_steps(c: &mut Cluster<FastCrash>, steps: &[Step]) {
    let mut crashes_left = c.cfg.t;
    let mut writer_armed = false;
    let mut next_value = 1u64;
    for step in steps {
        match step {
            Step::Write => {
                let writer = c.layout.writer(0);
                if !c.client_busy(writer.index()) && !c.world.is_crashed(writer) {
                    c.write(next_value);
                    next_value += 1;
                }
            }
            Step::Read(i) => {
                let i = i % c.cfg.r;
                if !c.client_busy(c.layout.reader(i).index()) {
                    c.read_async(i);
                }
            }
            Step::DeliverBurst(n) => {
                for _ in 0..*n {
                    if !c.world.step_random() {
                        break;
                    }
                }
            }
            Step::CrashServer(j) => {
                if crashes_left > 0 {
                    let addr = c.layout.server(j % c.cfg.s);
                    if !c.world.is_crashed(addr) {
                        c.world.crash(addr);
                        crashes_left -= 1;
                    }
                }
            }
            Step::CrashWriterAfter(k) => {
                if !writer_armed && crashes_left > 0 {
                    c.world
                        .arm_crash_after_sends(c.layout.writer(0), *k as usize);
                    writer_armed = true;
                }
            }
        }
    }
    c.world.run_random_until_quiescent();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline invariant: Fig. 2 histories are always atomic in the
    /// feasible regime, whatever the adversarial schedule.
    #[test]
    fn fast_crash_is_atomic_under_arbitrary_schedules(
        cfg in feasible_cfg(),
        seed in 0u64..1_000,
        steps in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(seed).build_typed().unwrap();
        apply_steps(&mut c, &steps);
        let history = c.snapshot();
        prop_assert!(
            check_swmr_atomicity(&history).is_ok(),
            "violation under cfg {:?}:\n{}",
            cfg,
            history.render()
        );
    }

    /// On the same histories, the independent linearizability oracle
    /// agrees with the specialized checker (when small enough to run).
    #[test]
    fn checkers_agree_on_protocol_histories(
        seed in 0u64..1_000,
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(seed).build_typed().unwrap();
        apply_steps(&mut c, &steps);
        let history = c.snapshot();
        if history.len() < 16 {
            let atomic = check_swmr_atomicity(&history).is_ok();
            let lin = check_linearizable(&history).expect("small history");
            prop_assert_eq!(atomic, lin, "history:\n{}", history.render());
        }
    }

    /// Fig. 5 histories stay atomic with one malicious server of any
    /// library behaviour.
    #[test]
    fn fast_byz_is_atomic_under_behaviour_library(
        seed in 0u64..1_000,
        behaviour in 0usize..5,
        crash_writer_after in 0usize..8,
    ) {
        let cfg = ClusterConfig::byzantine(6, 1, 1, 1).expect("valid");
        type Msg = fastreg_suite::fastreg::protocols::fast_byz::Msg;
        let make = |b: usize,
                    c: &ClusterConfig,
                    l: Layout,
                    ctx: &mut ByzCtx|
         -> Box<dyn Automaton<Msg = Msg>> {
            match b {
                0 => Box::new(StaleReplayer::new(c)),
                1 => Box::new(SeenInflater::new(c, l, ctx.verifier.clone(), ctx.writer_key)),
                2 => Box::new(Forger::new()),
                3 => Box::new(TwoFacedLoseWrite::new(
                    c,
                    l,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                    l.reader(0),
                )),
                _ => Box::new(fastreg_suite::fastreg_simnet::byz::Mute::default()),
            }
        };
        let mut c: Cluster<FastByz> = ClusterBuilder::new(cfg)
            .sim(SimConfig::default().with_seed(seed))
            .build_typed_with(|cc, l, index, ctx| {
                if index == 3 {
                    make(behaviour, cc, l, ctx)
                } else {
                    FastByz::server(cc, l, index, ctx)
                }
            })
            .unwrap();
        c.write_sync(1);
        c.read_async(0);
        c.world.run_random_until_quiescent();
        c.world.arm_crash_after_sends(c.layout.writer(0), crash_writer_after);
        c.write(2);
        c.read_async(0);
        c.world.run_random_until_quiescent();
        c.read_async(0);
        c.world.run_random_until_quiescent();
        let history = c.snapshot();
        prop_assert!(
            check_swmr_atomicity(&history).is_ok(),
            "behaviour {} violated atomicity:\n{}",
            behaviour,
            history.render()
        );
    }
}
