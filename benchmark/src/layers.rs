//! The per-layer ledger: direct timed calls into each layer's public
//! functions, and the arithmetic that turns one traced repetition plus
//! those calls into the `PER_LAYER` metrics of `spec.rs`.

use std::hint::black_box;

use fastreg::harness::ClusterBuilder;
use fastreg_atomicity::history::{History, OpKind, RegValue, SharedHistory};
use fastreg_atomicity::streaming::{replay_events, StreamingChecker};
use fastreg_auth::Keychain;
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::envelope::MsgId;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::time::SimTime;
use fastreg_simnet::world::sched::ReadyQueue;
use fastreg_simnet::world::World;
use fastreg_store::router::Router;

use crate::run::{cluster_cfg, Deployment, Rep};
use crate::spec::{self, Kind, Workload, PER_LAYER};
use crate::stats::{median, percentile, spread_frac};
use crate::trace::{now, ns_between};

/// Mean ns of one `f()` over `iters` back-to-back calls.
fn time_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = now();
    for _ in 0..iters {
        f();
    }
    ns_between(start, now()) as f64 / iters.max(1) as f64
}

/// One calibrated pair of clock reads.
pub fn timer_ns(div: u64) -> f64 {
    time_per_call(200_000 / div, || {
        black_box(ns_between(now(), now()));
    })
}

struct Echo;

impl Automaton for Echo {
    type Msg = u8;
    fn on_message(&mut self, from: ProcessId, msg: u8, out: &mut Outbox<u8>) {
        out.send(from, msg);
    }
}

/// One `step_timed` on a world of two echo actors holding `pool`
/// messages in transit: the scheduler and trace with no protocol work.
fn echo_step_ns(pool: u64, sim: SimConfig, div: u64) -> f64 {
    let mut world: World<u8> = World::new(sim);
    let a = world.add_actor(Box::new(Echo));
    let b = world.add_actor(Box::new(Echo));
    for i in 0..pool.max(1) {
        if i % 2 == 0 {
            world.send_from_external(a, b, 0);
        } else {
            world.send_from_external(b, a, 0);
        }
    }
    time_per_call(400_000 / div, || {
        black_box(world.step_timed());
    })
}

/// One `ReadyQueue` push + pop with `depth` entries resident.
fn readyqueue_ns(depth: u64, div: u64) -> f64 {
    let mut q = ReadyQueue::new();
    for i in 0..depth.max(1) {
        q.push(SimTime::from_ticks(i), MsgId(i));
    }
    let mut next = depth.max(1);
    time_per_call(1_000_000 / div, || {
        q.push(SimTime::from_ticks(next), MsgId(next));
        black_box(q.pop());
        next += 1;
    })
}

/// One uncontended `SharedHistory` invoke + respond pair.
fn record_ns(div: u64) -> f64 {
    let iters = 200_000 / div;
    let h = SharedHistory::with_capacity(iters as usize);
    let mut t = 0u64;
    time_per_call(iters, || {
        let id = h.invoke_read(1, t);
        h.respond(id, Some(RegValue::Bottom), t + 1);
        t += 2;
    })
}

fn sign_verify_ns(seed: u64, div: u64) -> f64 {
    let mut chain = Keychain::new(seed);
    let signer = chain.issue();
    let verifier = chain.verifier();
    let mut digest = seed;
    time_per_call(200_000 / div, || {
        let sig = signer.sign(black_box(digest));
        assert!(verifier.verify(signer.key(), digest, &sig));
        digest = digest.wrapping_add(1);
    })
}

fn route_ns(div: u64) -> f64 {
    let router = Router::new(spec::STORE_SHARDS);
    let mut key = 0u64;
    time_per_call(2_000_000 / div, || {
        black_box(router.shard_of(black_box(key)));
        key = (key + 1) % spec::STORE_KEYS;
    })
}

/// Median wall ns of building one deployment the way the workload does
/// (the store builds one cluster per key, cycling its three backends).
fn build_ns(w: &Workload, seed: u64, div: u64) -> Result<f64, String> {
    let builds = match w.kind {
        Kind::Threads { .. } => 20,
        _ => 160,
    } / div as usize;
    let mut samples = Vec::with_capacity(builds);
    for i in 0..builds {
        let start = now();
        match w.kind {
            Kind::Store => {
                let id = spec::STORE_BACKENDS[i % spec::STORE_BACKENDS.len()];
                black_box(
                    ClusterBuilder::new(cluster_cfg())
                        .seed(seed)
                        .build(id)
                        .map_err(|e| e.to_string())?,
                );
            }
            _ => {
                black_box(Deployment::build(w, seed)?);
            }
        }
        samples.push(ns_between(start, now()) as f64);
    }
    Ok(median(&samples))
}

/// Replay + streaming check of every harvested history:
/// `(replay ns, check ns)` totals.
fn check_ns(histories: &[History]) -> (u64, u64) {
    let (mut replay, mut check) = (0, 0);
    for h in histories {
        let t0 = now();
        let events = replay_events(h);
        let t1 = now();
        let mut checker = StreamingChecker::new_atomic();
        checker.on_events(&events);
        black_box(checker.verdict());
        let t2 = now();
        replay += ns_between(t0, t1);
        check += ns_between(t1, t2);
    }
    (replay, check)
}

/// Sorted `(read, write)` latencies of the completed operations.
fn latencies(histories: &[History]) -> (Vec<u64>, Vec<u64>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for op in histories.iter().flat_map(|h| h.ops()) {
        if let Some(resp) = op.responded_at {
            match op.kind {
                OpKind::Read => reads.push(resp - op.invoked_at),
                OpKind::Write { .. } => writes.push(resp - op.invoked_at),
            }
        }
    }
    reads.sort_unstable();
    writes.sort_unstable();
    (reads, writes)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every `PER_LAYER` metric for one workload, in `PER_LAYER` order.
/// `untraced` are the plain repetitions (the last one kept its
/// histories); `traced` is the one repetition run through the spans;
/// `quick` cuts the direct measurements' iteration counts.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    untraced: &[Rep],
    traced: &Rep,
    quick: bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    let last = untraced.last().ok_or("no untraced repetition")?;
    let tracer = traced.layers.tracer.as_ref().ok_or("no traced spans")?;
    let n = traced.n_ops as f64;
    let run_ns = traced.layers.traced_run_ns as f64;
    let on_sim = matches!(w.kind, Kind::Sim(_));
    let on_rt = matches!(w.kind, Kind::Threads { .. });
    let on_store = w.kind == Kind::Store;
    let span_per_op =
        |names: &[&str]| names.iter().map(|s| tracer.total_ns(s)).sum::<u64>() as f64 / n;

    let div = if quick { crate::QUICK_DIVISOR } else { 1 };
    let timer = timer_ns(div);
    // The store's per-key worlds hold one operation's messages at most.
    let pool = last.layers.sched.heap_high_water.max(10);
    // Nothing on threads runs the simnet: its direct measurements are 0.
    let simnet = |f: &dyn Fn() -> f64| if on_rt { 0.0 } else { f() };
    let echo = simnet(&|| echo_step_ns(pool, SimConfig::default(), div));
    let notrace = SimConfig::default().with_trace_capacity(0);
    let echo_notrace = simnet(&|| echo_step_ns(pool, notrace.clone(), div));
    let step_ns = ratio(
        tracer.total_ns("step_timed") as f64,
        tracer.count("step_timed") as f64,
    );

    let histories = &last.layers.histories;
    let (replay, check) = check_ns(histories);
    let (reads, writes) = latencies(histories);
    // What run_closed_loop does between deployment calls besides its own
    // loop: feed the online checker (after a replay where the runtime
    // does not journal), measured directly above.
    let checker_in_run = if on_sim {
        check as f64
    } else if on_rt {
        (replay + check) as f64
    } else {
        0.0
    };
    let timer_in_run = tracer.calls() as f64 * timer;
    let self_ns = tracer.self_ns() as f64;

    let rt = &last.layers.rt;
    let fe = &traced.layers.frontend;
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let untraced_rate: Vec<f64> = untraced.iter().map(Rep::ops_per_s).collect();

    let value = |name: &str| -> Result<f64, String> {
        let sim = |v: f64| if on_sim { v } else { 0.0 };
        let threads = |v: f64| if on_rt { v } else { 0.0 };
        let store = |v: f64| if on_store { v } else { 0.0 };
        Ok(match name {
            "core.build_ns" => build_ns(w, seed, div)?,
            "core.issue_ns_per_op" => span_per_op(&["write_by", "read_async"]),
            "core.automaton_step_ns" => sim(step_ns - echo),
            "simnet.step_ns" => sim(step_ns),
            "simnet.steps_per_op" => sim(tracer.count("step_timed") as f64 / n),
            "simnet.echo_step_ns" => echo,
            "simnet.echo_step_notrace_ns" => echo_notrace,
            "simnet.trace_append_ns" => echo - echo_notrace,
            "simnet.readyqueue_ns" => simnet(&|| readyqueue_ns(pool, div)),
            "simnet.pops_per_delivery" => sim(ratio(
                last.layers.sched.popped as f64,
                last.layers.delivered as f64,
            )),
            "simnet.heap_high_water" => sim(last.layers.sched.heap_high_water as f64),
            "rt.msgs_per_batch" => {
                threads(ratio(rt.drained_messages as f64, rt.drained_batches as f64))
            }
            "rt.wakeups_per_op" => threads(rt.drained_batches as f64 / last.n_ops as f64),
            "rt.max_batch" => threads(rt.max_batch as f64),
            "rt.busy_frac" => threads(ratio(
                rt.busy_us as f64,
                last.layers.rt_workers as f64 * last.wall_s * 1e6,
            )),
            "rt.busy_us_per_op" => threads(rt.busy_us as f64 / last.n_ops as f64),
            "rt.polls_per_op" => threads(tracer.count("step_timed") as f64 / n),
            "rt.driver_wait_frac" => threads(ratio(
                span_per_op(&["step_timed", "advance_to_ticks", "try_settle"]) * n,
                run_ns,
            )),
            "rt.hop_us_est" => threads(last.read_mean / 3.0),
            "atomicity.stream_check_ns_per_op" => check as f64 / last.n_ops as f64,
            "atomicity.replay_ns_per_op" => replay as f64 / last.n_ops as f64,
            "atomicity.journal_drain_ns_per_op" => span_per_op(&["drain_history_events"]),
            "atomicity.snapshot_ns_per_op" => span_per_op(&["snapshot"]),
            "atomicity.record_ns" => record_ns(div),
            "atomicity.checker_high_water" => last.layers.checker_high_water as f64,
            "workload.driver_self_ns_per_op" => self_ns / n,
            "workload.unattributed_frac" => ratio(self_ns - checker_in_run - timer_in_run, run_ns),
            "workload.read_p50_ticks" => percentile(&reads, 500) as f64,
            "workload.read_p99_ticks" => percentile(&reads, 990) as f64,
            "workload.read_p999_ticks" => percentile(&reads, 999) as f64,
            "workload.write_p99_ticks" => percentile(&writes, 990) as f64,
            "workload.lat_samples" => reads.len() as f64,
            "workload.rep_spread_frac" => spread_frac(&untraced_rate),
            "store.route_ns_per_op" => store(route_ns(div)),
            "store.submit_ns_per_op" => store(span_per_op(&["submit", "finish"])),
            "store.global_history_ns_per_op" => store(span_per_op(&["global_history"])),
            "store.check_ns_per_op" => store(span_per_op(&["check_streaming"])),
            "store.fingerprint_ns_per_op" => store(span_per_op(&["fingerprint"])),
            "store.ops_per_wave" => store(ratio(fe.ops as f64, fe.waves as f64)),
            "store.ops_per_flush" => store(ratio(fe.ops as f64, fe.flushes as f64)),
            "store.shard_batches_per_flush" => {
                store(ratio(fe.shard_batches as f64, fe.flushes as f64))
            }
            "store.shard_imbalance" => store(traced.layers.shard_imbalance),
            "store.keys_built" => store(traced.layers.keys_built as f64),
            "auth.sign_verify_ns" => store(sign_verify_ns(seed, div)),
            "bench.trace_overhead_frac" => ratio(traced.wall_s, median(&untraced_wall)) - 1.0,
            "bench.timer_ns" => timer,
            other => return Err(format!("no definition for per-layer metric {other}")),
        })
    };
    PER_LAYER
        .iter()
        .map(|m| Ok((m.name, value(m.name)?)))
        .collect()
}
