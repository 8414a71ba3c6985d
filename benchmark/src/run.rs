//! One repetition of a workload, and the checks on what it produced.
//!
//! A repetition is: set-up (a warm-up run of `n_ops/10` on a throw-away
//! deployment, then building the timed deployment at the same seed),
//! then the one timed library call — `run_closed_loop` or
//! `run_kv_workload` — which issues, delivers, records and checks every
//! operation to a verdict.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, DynCluster, FastCrash, RegisterOps};
use fastreg::threads::{RtConfig, ThreadCluster};
use fastreg_atomicity::history::History;
use fastreg_rt::RtStats;
use fastreg_simnet::world::SchedStats;
use fastreg_store::frontend::{BatchedFrontend, FrontendStats};
use fastreg_store::kv::KvOp;
use fastreg_store::store::{ShardedStore, StoreBuilder};
use fastreg_store::StoreChecker;
use fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_workload::kv::{run_kv_workload, KeyDist, KvWorkloadSpec};
use fastreg_workload::metrics::OpBreakdown;

use crate::spec::{self, Kind, Workload};
use crate::trace::{now, ns_between, TimedOps, Tracer};

/// What one repetition measured and produced.
#[derive(Debug)]
pub struct Rep {
    pub n_ops: u64,
    pub completed: u64,
    pub incomplete: u64,
    /// Every verdict clean (store: one verdict per distinct key, too).
    pub clean: bool,
    /// Wall seconds of the one timed library call.
    pub wall_s: f64,
    pub setup_s: f64,
    pub read_mean: f64,
    pub write_mean: f64,
    pub messages_sent: u64,
    /// The process's peak resident memory (`VmHWM`) when this repetition
    /// ended.
    pub rss_mb: f64,
    /// Outputs that must agree exactly between repetitions at one seed:
    /// simnet `messages_sent`, `duration_ticks`, `trace_fingerprint`;
    /// the store's `fingerprint`. Empty on threads.
    pub exact: Vec<u64>,
    pub layers: Harvest,
}

/// Counters harvested from the deployment for the per-layer ledger.
#[derive(Debug, Default)]
pub struct Harvest {
    /// Kept only when the caller asked for it (`n_ops` records in all):
    /// the register's history, or one history per key of the store.
    pub histories: Vec<History>,
    pub checker_high_water: u64,
    pub sched: SchedStats,
    pub delivered: u64,
    pub rt_workers: u64,
    pub rt: RtStats,
    pub frontend: FrontendStats,
    pub keys_built: u64,
    pub shard_imbalance: f64,
    /// The traced repetition's spans.
    pub tracer: Option<Tracer>,
    /// Wall ns of `workload.run` as the tracer saw it.
    pub traced_run_ns: u64,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.n_ops as f64 / self.wall_s
    }

    pub fn msgs_per_op(&self) -> f64 {
        self.messages_sent as f64 / self.completed.max(1) as f64
    }
}

/// `VmHWM` from `/proc/self/status`, in MB (0 where there is no procfs).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cluster_cfg() -> ClusterConfig {
    ClusterConfig::crash_stop(spec::SERVERS, spec::FAULTS, spec::READERS)
        .expect("S=5, t=1, R=2 is a valid crash-stop configuration")
}

/// A register deployment on either substrate. The threads side is the
/// concrete `ThreadCluster` so its `rt_stats()` stay reachable.
pub enum Deployment {
    Sim(DynCluster),
    Threads(ThreadCluster<FastCrash>),
}

impl Deployment {
    pub fn build(w: &Workload, seed: u64) -> Result<Deployment, String> {
        match w.kind {
            Kind::Sim(id) => ClusterBuilder::new(cluster_cfg())
                .seed(seed)
                .build(id)
                .map(Deployment::Sim)
                .map_err(|e| e.to_string()),
            Kind::Threads { workers } => Ok(Deployment::Threads(ThreadCluster::spawn(
                cluster_cfg(),
                seed,
                RtConfig::new(workers),
            ))),
            Kind::Store => Err("the store is not a register deployment".into()),
        }
    }

    pub fn ops(&mut self) -> &mut dyn RegisterOps {
        match self {
            Deployment::Sim(c) => c,
            Deployment::Threads(c) => c,
        }
    }
}

pub fn build_store(seed: u64) -> Result<ShardedStore, String> {
    StoreBuilder::new(cluster_cfg())
        .shards(spec::STORE_SHARDS)
        .seed(seed)
        .backends(spec::STORE_BACKENDS.to_vec())
        .build()
        .map_err(|e| e.to_string())
}

fn register_spec(w: &Workload, seed: u64, n_ops: u64) -> WorkloadSpec {
    WorkloadSpec {
        n_ops,
        write_fraction: w.write_fraction,
        think_time: w.think_time,
        seed,
    }
}

fn kv_spec(w: &Workload, seed: u64, n_ops: u64) -> KvWorkloadSpec {
    KvWorkloadSpec {
        n_ops,
        n_keys: spec::STORE_KEYS,
        n_clients: spec::STORE_CLIENTS,
        put_fraction: w.write_fraction,
        dist: KeyDist::Zipf {
            exponent: spec::STORE_ZIPF,
        },
        seed,
    }
}

/// What `run_rep` should do beyond measuring.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepMode {
    /// Time every call into the deployment (the per-layer run).
    pub traced: bool,
    /// Keep the harvested history in the result.
    pub keep_history: bool,
}

/// Runs one repetition: set-up, then the timed library call.
pub fn run_rep(w: &Workload, seed: u64, n_ops: u64, mode: RepMode) -> Result<Rep, String> {
    match w.kind {
        Kind::Store => store_rep(w, seed, n_ops, mode),
        _ => register_rep(w, seed, n_ops, mode),
    }
}

fn mean(stats: &Option<fastreg_workload::LatencyStats>) -> f64 {
    stats.as_ref().map_or(0.0, |s| s.mean)
}

fn register_rep(w: &Workload, seed: u64, n_ops: u64, mode: RepMode) -> Result<Rep, String> {
    let rep_start = now();
    {
        let mut warm = Deployment::build(w, seed)?;
        run_closed_loop(warm.ops(), &register_spec(w, seed, (n_ops / 10).max(1)))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut dep = Deployment::build(w, seed)?;
    let spec = register_spec(w, seed, n_ops);
    let run_start = now();
    let (report, tracer, traced_run_ns) = if mode.traced {
        let mut timed = TimedOps::new(dep.ops(), Tracer::new());
        timed.tracer.get_mut().start_run();
        let report = run_closed_loop(&mut timed, &spec);
        let mut tracer = timed.tracer.into_inner();
        let run_ns = tracer.end_run(run_start, rep_start);
        (report, Some(tracer), run_ns)
    } else {
        (run_closed_loop(dep.ops(), &spec), None, 0)
    };
    let run_end = now();
    let report = report.map_err(|e| e.to_string())?;

    let mut layers = Harvest {
        checker_high_water: report.checker_high_water_mark as u64,
        tracer,
        traced_run_ns,
        ..Harvest::default()
    };
    let mut exact = Vec::new();
    match &dep {
        Deployment::Sim(c) => {
            let sim = c
                .sim_control_ref()
                .ok_or("a simnet deployment without SimControl")?;
            exact = vec![
                report.messages_sent,
                report.duration_ticks,
                sim.trace_fingerprint(),
            ];
            layers.sched = sim.sched_counters();
            layers.delivered = sim.net_stats().delivered;
        }
        Deployment::Threads(c) => {
            layers.rt_workers = c.workers() as u64;
            layers.rt = c.rt_stats();
        }
    }
    if mode.keep_history {
        layers.histories = vec![report.history];
    }
    Ok(Rep {
        n_ops,
        completed: report.breakdown.completed,
        incomplete: report.breakdown.incomplete,
        clean: report.streaming_verdict.is_clean(),
        wall_s: ns_between(run_start, run_end) as f64 / 1e9,
        setup_s: ns_between(rep_start, run_start) as f64 / 1e9,
        read_mean: mean(&report.breakdown.reads),
        write_mean: mean(&report.breakdown.writes),
        messages_sent: report.messages_sent,
        rss_mb: peak_rss_mb(),
        exact,
        layers,
    })
}

fn store_rep(w: &Workload, seed: u64, n_ops: u64, mode: RepMode) -> Result<Rep, String> {
    let rep_start = now();
    {
        let warm = kv_spec(w, seed, (n_ops / 10).max(1));
        run_kv_workload(build_store(seed)?, &warm, spec::STORE_THREADS)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let store = build_store(seed)?;
    let spec = kv_spec(w, seed, n_ops);
    let run_start = now();
    let (store, out, tracer, traced_run_ns) = if mode.traced {
        let mut tracer = Tracer::new();
        tracer.start_run();
        let (store, out) = traced_kv_workload(store, &spec, &mut tracer)?;
        let run_ns = tracer.end_run(run_start, rep_start);
        (store, out, Some(tracer), run_ns)
    } else {
        let (store, report) =
            run_kv_workload(store, &spec, spec::STORE_THREADS).map_err(|e| e.to_string())?;
        let out = KvOut {
            stats: report.stats,
            clean: report.check.is_clean()
                && report.check.per_key.len() as u64 == report.distinct_keys,
            breakdown: report.breakdown,
            messages_sent: report.messages_sent,
            fingerprint: report.fingerprint,
        };
        (store, out, None, 0)
    };
    let run_end = now();

    let per_shard: Vec<u64> = store.shards().iter().map(|s| s.ops_applied()).collect();
    let mean_ops = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
    let max_ops = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let histories = if mode.keep_history {
        let shards = store.shards().iter();
        shards
            .flat_map(|s| s.keys().filter_map(move |k| s.key_history(k)))
            .collect()
    } else {
        Vec::new()
    };
    Ok(Rep {
        n_ops,
        completed: out.breakdown.completed,
        incomplete: out.breakdown.incomplete,
        clean: out.clean,
        wall_s: ns_between(run_start, run_end) as f64 / 1e9,
        setup_s: ns_between(rep_start, run_start) as f64 / 1e9,
        read_mean: mean(&out.breakdown.reads),
        write_mean: mean(&out.breakdown.writes),
        messages_sent: out.messages_sent,
        rss_mb: peak_rss_mb(),
        exact: vec![out.fingerprint],
        layers: Harvest {
            histories,
            frontend: out.stats,
            keys_built: store.distinct_keys(),
            shard_imbalance: if mean_ops > 0.0 {
                max_ops / mean_ops
            } else {
                0.0
            },
            tracer,
            traced_run_ns,
            ..Harvest::default()
        },
    })
}

/// What the rest of a repetition needs from a `KvReport`.
struct KvOut {
    stats: FrontendStats,
    clean: bool,
    breakdown: OpBreakdown,
    messages_sent: u64,
    fingerprint: u64,
}

/// `run_kv_workload`, stage by stage, with a span around each stage:
/// the same key draws from the same seeded generator, the same frontend
/// window, the same checker call, the same report fields. The caller's
/// exact-agreement check on the store fingerprint proves it drove the
/// same execution.
fn traced_kv_workload(
    store: ShardedStore,
    spec: &KvWorkloadSpec,
    tracer: &mut Tracer,
) -> Result<(ShardedStore, KvOut), String> {
    let KeyDist::Zipf { exponent } = spec.dist else {
        return Err("the traced store run only draws Zipf keys".into());
    };
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5707_e0ad);
    let zipf =
        WeightedIndex::new((0..spec.n_keys).map(|k| 1.0 / f64::powf(k as f64 + 1.0, exponent)))
            .map_err(|e| format!("{e:?}"))?;
    let mut next_value = store.ops_applied();
    let mut frontend = BatchedFrontend::new(store, spec::STORE_THREADS, spec.n_clients as usize);
    let mut issued = 0u64;
    while issued < spec.n_ops {
        for client in 0..spec.n_clients {
            if issued >= spec.n_ops {
                break;
            }
            let op = tracer.span("key_draw", || {
                let key = zipf.sample(&mut rng) as u64;
                if rng.gen_bool(spec.put_fraction.clamp(0.0, 1.0)) {
                    next_value += 1;
                    KvOp::put(client, key, next_value)
                } else {
                    KvOp::get(client, key)
                }
            });
            tracer
                .span("submit", || frontend.submit(op))
                .map_err(|e| e.to_string())?;
            issued += 1;
        }
    }
    let (store, stats) = tracer
        .span("finish", || frontend.finish())
        .map_err(|e| e.to_string())?;
    let global = tracer.span("global_history", || store.global_history());
    let check = tracer.span("check_streaming", || {
        StoreChecker::check_streaming(&store, &global, spec::STORE_THREADS)
    });
    let breakdown = tracer.span("breakdown", || OpBreakdown::of(&global.latency_history()));
    let clean = check.is_clean() && check.per_key.len() as u64 == store.distinct_keys();
    let messages_sent = store.messages_sent();
    let fingerprint = tracer.span("fingerprint", || store.fingerprint());
    Ok((
        store,
        KvOut {
            stats,
            clean,
            breakdown,
            messages_sent,
            fingerprint,
        },
    ))
}

/// The read latency the paper proves, in message delays: exact on simnet.
pub fn expected_read_ticks(w: &Workload) -> Option<f64> {
    match w.kind {
        Kind::Sim(fastreg::protocols::registry::ProtocolId::Abd) => Some(4.0),
        Kind::Sim(_) => Some(2.0),
        _ => None,
    }
}

/// Checks one repetition's outputs; returns one line per miss. It misses
/// when an operation did not complete, a verdict is not clean, its exact
/// outputs differ from `reference` (the first repetition's), or its
/// simnet read latency is not exactly `expected_read_ticks`.
pub fn verify_one(r: &Rep, reference: &[u64], expected_read_ticks: Option<f64>) -> Vec<String> {
    let mut misses = Vec::new();
    if r.completed != r.n_ops || r.incomplete != 0 {
        misses.push(format!(
            "completed {} of {} ({} incomplete)",
            r.completed, r.n_ops, r.incomplete
        ));
    }
    if !r.clean {
        misses.push("verdict not clean".to_string());
    }
    if r.exact != reference {
        misses.push(format!(
            "outputs {:?} differ from repetition 0's {reference:?}",
            r.exact
        ));
    }
    if let Some(want) = expected_read_ticks {
        if r.read_mean != want {
            misses.push(format!(
                "read_mean_ticks {} is not exactly {want}",
                r.read_mean
            ));
        }
    }
    misses
}

/// [`verify_one`] over every repetition: `(repetition index, miss)`.
pub fn verify(reps: &[Rep], expected_read_ticks: Option<f64>) -> Vec<(usize, String)> {
    let check = |(i, r)| {
        verify_one(r, &reps[0].exact, expected_read_ticks)
            .into_iter()
            .map(move |miss| (i, miss))
    };
    reps.iter().enumerate().flat_map(check).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn a_wrong_expected_tick_count_fails_every_repetition() {
        let w = workload("sim_fast_read").unwrap();
        let reps: Vec<Rep> = (0..2)
            .map(|_| run_rep(w, 11, 400, RepMode::default()).unwrap())
            .collect();
        assert_eq!(expected_read_ticks(w), Some(2.0));
        assert!(verify(&reps, Some(2.0)).is_empty());
        let misses = verify(&reps, Some(3.0));
        assert_eq!(misses.len(), 2, "{misses:?}");
        assert!(misses[0].1.contains("not exactly 3"));
    }

    #[test]
    fn abd_reads_take_four_message_delays() {
        let w = workload("sim_abd_read").unwrap();
        let rep = run_rep(w, 3, 300, RepMode::default()).unwrap();
        assert_eq!(expected_read_ticks(w), Some(4.0));
        assert!(verify(&[rep], Some(4.0)).is_empty());
    }

    #[test]
    fn disagreeing_repetitions_are_caught() {
        let w = workload("sim_fast_write").unwrap();
        let a = run_rep(w, 1, 300, RepMode::default()).unwrap();
        let b = run_rep(w, 2, 300, RepMode::default()).unwrap();
        let misses = verify(&[a, b], Some(2.0));
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].0, 1);
        assert!(misses[0].1.contains("differ"));
    }

    #[test]
    fn timed_ops_is_transparent() {
        let w = workload("sim_fast_read").unwrap();
        let keep = RepMode {
            traced: false,
            keep_history: true,
        };
        let bare = run_rep(w, 11, 500, keep).unwrap();
        let traced = run_rep(
            w,
            11,
            500,
            RepMode {
                traced: true,
                ..keep
            },
        )
        .unwrap();
        // Same fingerprint, messages_sent and duration; same history length.
        assert_eq!(bare.exact, traced.exact);
        assert_eq!(bare.layers.histories[0].len(), 500);
        assert_eq!(traced.layers.histories[0].len(), 500);
        let tracer = traced.layers.tracer.unwrap();
        assert_eq!(tracer.count("write_by") + tracer.count("read_async"), 500);
        assert!(tracer.count("step_timed") > 500);
        // Call spans plus the gaps between them are the run's wall time.
        let sum = tracer.children_ns() + tracer.self_ns();
        let wall = traced.layers.traced_run_ns;
        assert!(sum.abs_diff(wall) * 100 <= wall, "{sum} vs {wall}");
    }

    #[test]
    fn the_traced_store_run_is_the_same_execution() {
        let w = workload("store_zipf").unwrap();
        let bare = run_rep(w, 5, 600, RepMode::default()).unwrap();
        let traced = run_rep(
            w,
            5,
            600,
            RepMode {
                traced: true,
                keep_history: false,
            },
        )
        .unwrap();
        assert_eq!(bare.exact, traced.exact);
        assert_eq!(bare.completed, traced.completed);
        assert_eq!(bare.messages_sent, traced.messages_sent);
        assert_eq!(bare.layers.frontend, traced.layers.frontend);
        assert!(verify(&[bare, traced], None).is_empty());
    }

    #[test]
    fn threads_repetitions_complete_and_check_clean() {
        for name in ["rt1_fast_read", "rt2_fast_read"] {
            let w = workload(name).unwrap();
            let rep = run_rep(w, 7, 300, RepMode::default()).unwrap();
            assert!(rep.exact.is_empty());
            assert!(rep.layers.rt.drained_batches > 0);
            assert!(verify(&[rep], expected_read_ticks(w)).is_empty());
        }
    }
}
