//! Scheduler equivalence: the indexed event-queue scheduler must be
//! observationally identical to the reference linear-scan scheduler.
//!
//! Two worlds with the same seed and actors are driven by the same
//! random command sequence — injections, timed steps, deadline runs,
//! scripted deliveries and drops, crashes, blocked/healed links — with
//! one world using the O(log n) heap scheduler (`step_timed`,
//! `run_until`, `run_until_quiescent`) and the other the pre-index
//! linear scan (`step_timed_reference`, `run_until_reference`). The
//! traces must be byte-identical and the clocks, statistics and
//! in-transit pools equal, for every schedule proptest generates.
//!
//! The command set is also the adversarial workout of the in-transit
//! window behind `mset`: newest-first scripted deliveries and
//! every-other drops punch holes behind its front, crashes turn timed
//! pops into drops, and a message pinned on a blocked link sits under a
//! burst of later traffic until the link heals. After *every* command
//! both worlds must agree on the trace and on `pending()`, which must be
//! in send order.
//!
//! The same schedules are the input of the trace-identity relation:
//! over any two recorded runs, `Trace::digest` (structural, in-process)
//! is equal exactly when `Trace::fingerprint` (rendered, persistable) is.
//!
//! The reference scan is test-only code: it lives here, beside the one
//! suite that uses it, and reaches the world's private `mset` and
//! delivery path as a child module of `world`.

use std::fmt;

use proptest::prelude::*;

use crate::delay::DelayModel;
use crate::prelude::*;
use crate::runner::SimConfig;
use crate::trace::DropReason;

impl<M: Clone + fmt::Debug + Send + 'static> World<M> {
    /// Reference implementation of [`World::step_timed`] that rescans the
    /// whole of `mset` per delivery (the pre-index behaviour).
    fn step_timed_reference(&mut self) -> bool {
        loop {
            let next = self
                .mset
                .iter()
                .filter(|e| !self.blocked_links.contains(&(e.from, e.to)))
                .min_by_key(|e| (e.ready_at, e.id))
                .map(|e| (e.id, e.to, e.ready_at));
            let Some((id, to, ready_at)) = next else {
                return false;
            };
            if ready_at > self.now {
                self.now = ready_at;
            }
            let env = self.mset.remove(id).expect("selected from mset");
            if self.is_crashed(to) {
                self.trace.record(TraceEntry::Drop {
                    at: self.now,
                    id,
                    reason: DropReason::ReceiverCrashed,
                });
                self.stats.record_drop();
                continue;
            }
            self.deliver_env(env);
            return true;
        }
    }

    /// Reference implementation of [`World::run_until`] over the linear
    /// scan.
    fn run_until_reference(&mut self, deadline: SimTime) -> u64 {
        let mut steps = 0;
        while steps < self.config.max_steps {
            let next_ready = self
                .mset
                .iter()
                .filter(|e| !self.is_crashed(e.to) && !self.blocked_links.contains(&(e.from, e.to)))
                .map(|e| e.ready_at)
                .min();
            match next_ready {
                Some(t) if t <= deadline => {
                    self.step_timed_reference();
                    steps += 1;
                }
                _ => break,
            }
        }
        self.advance_to(deadline);
        steps
    }
}

const N: u32 = 4;

#[derive(Clone, Debug, Hash)]
enum Msg {
    /// Ack the sender and, while the hop budget lasts, ping everyone.
    Ping(u8),
    Ack,
}

struct Node {
    n: u32,
}

impl Automaton for Node {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        if let Msg::Ping(k) = msg {
            if from != ProcessId::EXTERNAL {
                out.send(from, Msg::Ack);
            }
            if k > 0 {
                let me = out.this();
                out.broadcast(
                    (0..self.n).map(ProcessId::new).filter(|&q| q != me),
                    Msg::Ping(k - 1),
                );
            }
        }
    }
}

/// One randomly generated world command, applied identically to both
/// worlds (the timed variants dispatch on the scheduler under test).
#[derive(Clone, Debug)]
enum Cmd {
    Inject {
        p: u8,
        hops: u8,
    },
    StepTimed(u8),
    RunUntil(u8),
    DeliverNth(u8),
    DropNth(u8),
    Crash(u8),
    Block(u8, u8),
    Heal(u8, u8),
    Quiesce,
    /// Scripted delivery of up to `k` pending messages, newest first.
    DeliverNewestFirst(u8),
    /// Drops every other pending message, starting at `first % 2`.
    DropEveryOther(u8),
    /// Crashes `p`, then takes timed steps: pops addressed to `p` drop.
    CrashThenStep {
        p: u8,
        steps: u8,
    },
    /// Pins a message on a blocked link, pushes a burst of later
    /// traffic through the scheduler, then heals the link.
    BlockBurstHeal {
        a: u8,
        b: u8,
        burst: u8,
    },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0u8..8, 0u8..3).prop_map(|(p, hops)| Cmd::Inject { p, hops }),
        (1u8..5).prop_map(Cmd::StepTimed),
        (0u8..40).prop_map(Cmd::RunUntil),
        (0u8..32).prop_map(Cmd::DeliverNth),
        (0u8..32).prop_map(Cmd::DropNth),
        (0u8..8).prop_map(Cmd::Crash),
        (0u8..8, 0u8..8).prop_map(|(a, b)| Cmd::Block(a, b)),
        (0u8..8, 0u8..8).prop_map(|(a, b)| Cmd::Heal(a, b)),
        Just(Cmd::Quiesce),
        (1u8..6).prop_map(Cmd::DeliverNewestFirst),
        (0u8..2).prop_map(Cmd::DropEveryOther),
        (0u8..8, 1u8..6).prop_map(|(p, steps)| Cmd::CrashThenStep { p, steps }),
        (0u8..8, 0u8..8, 1u8..12).prop_map(|(a, b, burst)| Cmd::BlockBurstHeal { a, b, burst }),
    ]
}

fn world_of(seed: u64) -> World<Msg> {
    world_with(seed, SimConfig::default().trace_capacity)
}

fn world_with(seed: u64, trace_capacity: usize) -> World<Msg> {
    let mut w = World::new(SimConfig {
        seed,
        delay: DelayModel::Uniform { lo: 1, hi: 25 },
        max_steps: 100_000,
        trace_capacity,
    });
    for _ in 0..N {
        w.add_actor(Box::new(Node { n: N }));
    }
    w
}

fn pid(raw: u8) -> ProcessId {
    ProcessId::new(raw as u32 % N)
}

fn step(w: &mut World<Msg>, reference: bool) -> bool {
    if reference {
        w.step_timed_reference()
    } else {
        w.step_timed()
    }
}

fn steps(w: &mut World<Msg>, k: u8, reference: bool) {
    for _ in 0..k {
        if !step(w, reference) {
            break;
        }
    }
}

fn apply(w: &mut World<Msg>, cmd: &Cmd, reference: bool) {
    match *cmd {
        Cmd::Inject { p, hops } => w.inject(pid(p), Msg::Ping(hops)),
        Cmd::StepTimed(k) => steps(w, k, reference),
        Cmd::RunUntil(k) => {
            let deadline = w.now() + k as u64;
            if reference {
                w.run_until_reference(deadline);
            } else {
                w.run_until(deadline);
            }
        }
        Cmd::DeliverNth(i) => {
            let ids = w.pending_ids_matching(|_| true);
            if !ids.is_empty() {
                // Delivery to a crashed receiver fails the same way
                // on both sides; ignore it.
                let _ = w.deliver(ids[i as usize % ids.len()]);
            }
        }
        Cmd::DropNth(i) => {
            let ids = w.pending_ids_matching(|_| true);
            if !ids.is_empty() {
                let victim = ids[i as usize % ids.len()];
                w.drop_matching(|e| e.id == victim);
            }
        }
        Cmd::Crash(p) => w.crash(pid(p)),
        Cmd::Block(a, b) => w.block_link(pid(a), pid(b)),
        Cmd::Heal(a, b) => w.heal_link(pid(a), pid(b)),
        Cmd::Quiesce => {
            if reference {
                while step(w, true) {}
            } else {
                w.run_until_quiescent().expect("hop budget is finite");
            }
        }
        Cmd::DeliverNewestFirst(k) => {
            let ids = w.pending_ids_matching(|_| true);
            for id in ids.into_iter().rev().take(k as usize) {
                let _ = w.deliver(id);
            }
        }
        Cmd::DropEveryOther(first) => {
            let ids = w.pending_ids_matching(|_| true);
            let victims: Vec<MsgId> = ids.into_iter().skip(first as usize).step_by(2).collect();
            w.drop_matching(|e| victims.contains(&e.id));
        }
        Cmd::CrashThenStep { p, steps: k } => {
            w.crash(pid(p));
            steps(w, k, reference);
        }
        Cmd::BlockBurstHeal { a, b, burst } => {
            let (a, b) = (pid(a), pid(b));
            w.block_link(a, b);
            w.send_from_external(a, b, Msg::Ping(0));
            for i in 0..burst {
                w.send_from_external(b, pid(i), Msg::Ping(0));
                steps(w, 2, reference);
            }
            w.heal_link(a, b);
        }
    }
}

fn observe(w: &World<Msg>) -> (String, u64, u64, u64, u64, u64, Vec<MsgId>) {
    (
        w.trace().render(),
        w.now().ticks(),
        w.stats().sent,
        w.stats().delivered,
        w.stats().dropped,
        w.stats().steps,
        w.pending().map(|e| e.id).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥ 200 random schedules: heap scheduler ≡ linear-scan reference.
    #[test]
    fn heap_and_linear_scan_schedulers_are_trace_identical(
        seed in 0u64..10_000,
        cmds in proptest::collection::vec(cmd_strategy(), 1..60),
    ) {
        let mut heap_world = world_of(seed);
        let mut scan_world = world_of(seed);
        for cmd in &cmds {
            apply(&mut heap_world, cmd, false);
            apply(&mut scan_world, cmd, true);
            let pending: Vec<MsgId> = heap_world.pending().map(|e| e.id).collect();
            prop_assert!(pending.windows(2).all(|w| w[0] < w[1]), "send order after {:?}", cmd);
            prop_assert_eq!(pending.len(), heap_world.pending_len());
            prop_assert!(scan_world.pending().map(|e| e.id).eq(pending), "pools after {:?}", cmd);
            prop_assert_eq!(
                heap_world.trace().render(),
                scan_world.trace().render(),
                "traces diverged at {:?}",
                cmd
            );
        }
        // Finish every run deterministically so pools compare at rest.
        while heap_world.step_timed() {}
        while scan_world.step_timed_reference() {}
        let heap_obs = observe(&heap_world);
        let scan_obs = observe(&scan_world);
        prop_assert_eq!(&heap_obs.0, &scan_obs.0, "traces diverged under {:?}", cmds);
        prop_assert_eq!(heap_obs, scan_obs);
    }

    /// The mixed-driving invariant in its sharpest form: scripted
    /// deliveries and drops interleaved with timed steps never make the
    /// heap scheduler deliver a message twice or lose one.
    #[test]
    fn conservation_under_mixed_driving(
        seed in 0u64..10_000,
        cmds in proptest::collection::vec(cmd_strategy(), 1..60),
    ) {
        let mut w = world_of(seed);
        for cmd in &cmds {
            apply(&mut w, cmd, false);
        }
        let s = w.stats();
        prop_assert_eq!(
            s.sent,
            s.delivered + s.dropped + w.pending_len() as u64
        );
    }

    /// Digest equality is fingerprint equality, over pairs of runs that
    /// are the same run, differ by seed, differ by a truncated command
    /// tail, or differ only in how much a full trace suppressed.
    #[test]
    fn digest_and_fingerprint_agree_on_every_pair_of_runs(
        seed in 0u64..10_000,
        other_seed in 0u64..10_000,
        cmds in proptest::collection::vec(cmd_strategy(), 1..60),
        cut in 0usize..60,
        capacity in prop_oneof![Just(8usize), Just(64), Just(100_000)],
    ) {
        let run = |seed: u64, cmds: &[Cmd]| {
            let mut w = world_with(seed, capacity);
            for cmd in cmds {
                apply(&mut w, cmd, false);
            }
            let t = w.trace();
            (t.render(), t.suppressed(), t.fingerprint(), t.digest())
        };
        let base = run(seed, &cmds);
        let runs = [
            run(seed, &cmds),
            run(other_seed, &cmds),
            run(seed, &cmds[..cut.min(cmds.len())]),
        ];
        prop_assert_eq!(&runs[0], &base, "the same run twice");
        for other in &runs {
            let same_trace = (&other.0, other.1) == (&base.0, base.1);
            prop_assert_eq!(other.2 == base.2, same_trace, "fingerprint vs stored trace");
            prop_assert_eq!(other.3 == base.3, same_trace, "digest vs stored trace");
        }
    }
}
