//! Instrumented runs: deterministic trace + metrics harvests.
//!
//! This module is the bridge between the runtimes and the
//! [`fastreg_obs`] spine. Rather than threading recorders through every
//! actor step (which would put instrumentation on the hot path *and*
//! inside the determinism contract), it derives the event stream and
//! the [`MetricsRegistry`] *post hoc* from artifacts that are already
//! deterministic on simnet — the world's [`TraceEntry`] log, its
//! [`NetStats`](fastreg_simnet::stats::NetStats) and
//! [`SchedStats`](fastreg_simnet::world::SchedStats) counters, and the
//! recorded operation [`History`]. Same seed ⇒ same artifacts ⇒ same
//! trace bytes and metrics snapshot, at any worker/thread count.
//!
//! ## Track layout
//!
//! Chrome's viewer groups by `pid` (our *track*) then `tid` (our
//! *lane*):
//!
//! | track | contents | lanes |
//! |---|---|---|
//! | `TRACK_NET` | message flight spans, injections, crashes, drops | receiver process |
//! | `TRACK_OPS` | operation spans (`op.read` / `op.write`) | client process |
//! | `TRACK_STORE_BASE`` + shard` | per-key op spans of a sharded-store run | client process |

use std::collections::BTreeMap;

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, SimControl};
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::history::{History, OpKind};
use fastreg_obs::{Event, LatencyStats, MetricsRegistry, Recorder};
use fastreg_simnet::trace::TraceEntry;
use fastreg_store::store::StoreBuilder;
use fastreg_store::ShardedStore;

use crate::driver::{run_closed_loop, DriverError, WorkloadSpec};
use crate::kv::{run_kv_workload, KvWorkloadSpec};

/// Track (Chrome pid) of simnet network events.
pub(crate) const TRACK_NET: u32 = 0;
/// Track (Chrome pid) of register operation spans.
pub(crate) const TRACK_OPS: u32 = 1;
/// First store track: shard `s` renders as track `TRACK_STORE_BASE + s`.
pub(crate) const TRACK_STORE_BASE: u32 = 16;

/// What an instrumented run yields: the merged deterministic event
/// stream plus the metrics snapshot.
#[derive(Clone, Debug)]
pub struct ObsArtifacts {
    /// Merged events in `(time, track, lane, seq)` order — feed to
    /// [`fastreg_obs::chrome_trace`].
    pub events: Vec<Event>,
    /// The run's metrics registry — render with
    /// [`MetricsRegistry::to_json`].
    pub metrics: MetricsRegistry,
}

impl ObsArtifacts {
    /// The events as Chrome `trace_event` JSON (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        fastreg_obs::chrome_trace(&self.events)
    }

    /// The metrics snapshot as deterministic JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

/// Derives network events from a simnet trace: one `msg` flight span
/// per delivered message (send → deliver, on the receiver's lane),
/// instants for injections, crashes, drops, and sends that never
/// resolved within the retained trace.
pub(crate) fn events_from_trace(entries: &[TraceEntry]) -> Vec<Event> {
    fn rec(lanes: &mut BTreeMap<u32, Recorder>, lane: u32) -> &mut Recorder {
        lanes
            .entry(lane)
            .or_insert_with(|| Recorder::new(TRACK_NET, lane))
    }
    let mut lanes: BTreeMap<u32, Recorder> = BTreeMap::new();
    // First pass: index sends; deliveries consume them.
    let mut pending: BTreeMap<u64, (u64, u32, u32)> = BTreeMap::new();
    for e in entries {
        match e {
            TraceEntry::Send {
                at, id, from, to, ..
            } => {
                pending.insert(id.0, (at.ticks(), from.index(), to.index()));
            }
            TraceEntry::Deliver { at, id, from, to } => {
                let sent_at = pending
                    .remove(&id.0)
                    .map(|(t, _, _)| t)
                    .unwrap_or(at.ticks());
                rec(&mut lanes, to.index()).complete(
                    sent_at,
                    at.ticks() - sent_at,
                    "msg",
                    &[("id", id.0), ("from", from.index() as u64)],
                );
            }
            TraceEntry::Inject { at, to, .. } => {
                rec(&mut lanes, to.index()).instant(at.ticks(), "inject", &[]);
            }
            TraceEntry::Crash { at, process, .. } => {
                rec(&mut lanes, process.index()).instant(at.ticks(), "crash", &[]);
            }
            TraceEntry::Drop { at, id, .. } => {
                let lane = pending.remove(&id.0).map(|(_, _, to)| to).unwrap_or(0);
                rec(&mut lanes, lane).instant(at.ticks(), "msg.drop", &[("id", id.0)]);
            }
        }
    }
    // Sends never delivered or dropped (still in transit, or resolved
    // past the trace bound) stay visible as instants.
    for (id, (at, from, to)) in pending {
        rec(&mut lanes, to).instant(at, "msg.unresolved", &[("id", id), ("from", from as u64)]);
    }
    lanes
        .into_values()
        .flat_map(Recorder::into_events)
        .collect()
}

/// Derives operation spans from a history onto `track`: completed ops
/// become balanced `op.read` / `op.write` Begin/End pairs on the
/// client's lane, incomplete ops an `op.incomplete` instant.
pub(crate) fn events_from_history(history: &History, track: u32) -> Vec<Event> {
    let mut lanes: BTreeMap<u32, Recorder> = BTreeMap::new();
    for op in history.ops() {
        let rec = lanes
            .entry(op.proc)
            .or_insert_with(|| Recorder::new(track, op.proc));
        let name = match op.kind {
            OpKind::Read => "op.read",
            OpKind::Write { .. } => "op.write",
        };
        match op.responded_at {
            Some(resp) => {
                rec.begin(op.invoked_at, name, &[("op", op.id.0 as u64)]);
                rec.end(resp, name);
            }
            None => rec.instant(op.invoked_at, "op.incomplete", &[("op", op.id.0 as u64)]),
        }
    }
    lanes
        .into_values()
        .flat_map(Recorder::into_events)
        .collect()
}

/// Records a history's per-kind latencies into `reg`: log2 histograms
/// (`<prefix>.read` / `<prefix>.write`) plus exact summary gauges via
/// [`LatencyStats::record`].
pub(crate) fn record_history_metrics(history: &History, reg: &mut MetricsRegistry, prefix: &str) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut incomplete = 0u64;
    for op in history.ops() {
        match op.responded_at {
            Some(resp) => {
                let lat = resp - op.invoked_at;
                let (hist, bucket) = match op.kind {
                    OpKind::Read => ("read", &mut reads),
                    OpKind::Write { .. } => ("write", &mut writes),
                };
                reg.observe(&format!("{prefix}.{hist}"), lat);
                bucket.push(lat);
            }
            None => incomplete += 1,
        }
    }
    reg.counter_add(
        &format!("{prefix}.completed"),
        (reads.len() + writes.len()) as u64,
    );
    reg.counter_add(&format!("{prefix}.incomplete"), incomplete);
    if let Some(s) = LatencyStats::from_latencies(reads) {
        s.record(reg, &format!("{prefix}.read"));
    }
    if let Some(s) = LatencyStats::from_latencies(writes) {
        s.record(reg, &format!("{prefix}.write"));
    }
}

/// Harvests a simulated deployment's network + scheduler counters into
/// `reg` (the `net.*` and `sched.*` namespaces).
pub(crate) fn record_sim_metrics(sim: &dyn SimControl, reg: &mut MetricsRegistry) {
    let net = sim.net_stats();
    reg.counter_add("net.sent", net.sent);
    reg.counter_add("net.delivered", net.delivered);
    reg.counter_add("net.dropped", net.dropped);
    reg.counter_add("net.steps", net.steps);
    reg.counter_add("net.in_transit", net.in_transit());
    let sched = sim.sched_counters();
    reg.counter_add("sched.pushed", sched.pushed);
    reg.counter_add("sched.popped", sched.popped);
    reg.counter_add("sched.parked", sched.parked);
    reg.counter_add("sched.healed", sched.healed);
    reg.counter_add("sched.heap_pushed", sched.heap_pushed);
    reg.gauge_max("sched.heap_high_water", sched.heap_high_water);
    reg.gauge_max("net.reorder_depth", sim.max_reorder_depth());
}

/// Runs an instrumented closed-loop register workload on simnet.
///
/// Builds the deployment, drives [`run_closed_loop`], then derives the
/// event stream (network track + operation track) and the metrics
/// snapshot (`net.*`, `sched.*`, `ops.*`, `checker.*`). Deterministic:
/// same `(protocol, cfg, seed, spec)` ⇒ byte-identical artifacts.
///
/// # Errors
///
/// Propagates [`DriverError`] from the workload driver.
///
/// # Panics
///
/// Panics if `cfg` is infeasible for `protocol` (callers pass
/// registry-vetted configs).
pub fn trace_register_run(
    protocol: ProtocolId,
    cfg: ClusterConfig,
    seed: u64,
    spec: &WorkloadSpec,
) -> Result<ObsArtifacts, DriverError> {
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(seed)
        .build(protocol)
        .unwrap_or_else(|e| panic!("trace_register_run: infeasible config for {protocol}: {e}"));
    let report = run_closed_loop(&mut cluster, spec)?;

    let mut metrics = MetricsRegistry::new();
    let sim = cluster
        .sim_control_ref()
        .expect("trace_register_run builds on the simnet runtime");
    record_sim_metrics(sim, &mut metrics);
    record_history_metrics(&report.history, &mut metrics, "ops");
    metrics.gauge_max("checker.high_water", report.checker_high_water_mark as u64);
    metrics.counter_add(
        &format!("checker.verdict.{}", report.streaming_verdict.code()),
        1,
    );
    metrics.gauge_max("run.duration_ticks", report.duration_ticks);

    let events = fastreg_obs::merge(vec![
        events_from_trace(&sim.trace_entries()),
        events_from_history(&report.history, TRACK_OPS),
    ]);
    Ok(ObsArtifacts { events, metrics })
}

/// Runs an instrumented sharded-store KV workload.
///
/// Store events are derived from the global per-key history: each op
/// becomes a span on track `TRACK_STORE_BASE + shard_of(key)`, lane =
/// client process, tagged with its key. The metrics registry carries
/// the frontend counters (`store.frontend.*`), per-shard op/message
/// counters (`store.shard<i>.*`) and the aggregate latency namespaces.
/// Thread-count independent: `threads` is a tuning knob, never an
/// observable.
///
/// # Errors
///
/// Propagates [`StoreError`](fastreg_store::StoreError) from the KV
/// driver.
///
/// # Panics
///
/// Panics if `cfg` is infeasible for `protocol`.
pub fn trace_store_run(
    protocol: ProtocolId,
    cfg: ClusterConfig,
    shards: u32,
    seed: u64,
    spec: &KvWorkloadSpec,
    threads: usize,
) -> Result<ObsArtifacts, fastreg_store::StoreError> {
    let store = StoreBuilder::new(cfg)
        .shards(shards)
        .seed(seed)
        .protocol(protocol)
        .build()
        .unwrap_or_else(|e| panic!("trace_store_run: infeasible config for {protocol}: {e}"));
    let (store, report) = run_kv_workload(store, spec, threads)?;

    let mut metrics = MetricsRegistry::new();
    record_store_metrics(&store, &mut metrics);
    metrics.counter_add("store.frontend.ops", report.stats.ops);
    metrics.counter_add("store.frontend.flushes", report.stats.flushes);
    metrics.counter_add("store.frontend.shard_batches", report.stats.shard_batches);
    metrics.counter_add("store.frontend.waves", report.stats.waves);
    metrics.gauge_max("store.frontend.max_flush_ops", report.stats.max_flush_ops);
    metrics.counter_add("store.puts", report.puts);
    metrics.counter_add("store.gets", report.gets);

    let router = store.router();
    let global = store.global_history();
    let mut latencies = Vec::new();
    let mut lanes: BTreeMap<(u32, u32), Recorder> = BTreeMap::new();
    for (key, h) in global.histories() {
        let shard = router.shard_of(key);
        let track = TRACK_STORE_BASE + shard;
        metrics.counter_add(&format!("store.shard{shard}.ops"), h.len() as u64);
        for op in h.ops() {
            let rec = lanes
                .entry((track, op.proc))
                .or_insert_with(|| Recorder::new(track, op.proc));
            let name = match op.kind {
                OpKind::Read => "kv.get",
                OpKind::Write { .. } => "kv.put",
            };
            match op.responded_at {
                Some(resp) => {
                    rec.complete(op.invoked_at, resp - op.invoked_at, name, &[("key", key)]);
                    latencies.push(resp - op.invoked_at);
                }
                None => rec.instant(op.invoked_at, "kv.incomplete", &[("key", key)]),
            }
            metrics.observe(
                "store.lat",
                op.responded_at.map_or(0, |r| r - op.invoked_at),
            );
        }
    }
    if let Some(s) = LatencyStats::from_latencies(latencies) {
        s.record(&mut metrics, "store.lat");
    }

    let events = fastreg_obs::merge(lanes.into_values().map(Recorder::into_events).collect());
    Ok(ObsArtifacts { events, metrics })
}

/// Harvests a store's per-shard counters and identity into `reg`.
pub fn record_store_metrics(store: &ShardedStore, reg: &mut MetricsRegistry) {
    reg.counter_add("store.ops_applied", store.ops_applied());
    reg.counter_add("store.messages_sent", store.messages_sent());
    reg.gauge_max("store.distinct_keys", store.distinct_keys());
    reg.gauge_max("store.fingerprint", store.fingerprint());
    for shard in store.shards() {
        let i = shard.index();
        reg.counter_add(
            &format!("store.shard{i}.messages_sent"),
            shard.messages_sent(),
        );
        reg.gauge_max(&format!("store.shard{i}.keys"), shard.key_count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg_obs::spans_balanced;

    fn cfg() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 1, 2).unwrap()
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            n_ops: 60,
            write_fraction: 0.3,
            think_time: 1,
            seed: 11,
        }
    }

    #[test]
    fn register_artifacts_are_seed_deterministic() {
        let a = trace_register_run(ProtocolId::FastCrash, cfg(), 7, &spec()).unwrap();
        let b = trace_register_run(ProtocolId::FastCrash, cfg(), 7, &spec()).unwrap();
        assert_eq!(a.chrome_trace(), b.chrome_trace());
        assert_eq!(a.metrics_json(), b.metrics_json());
        // And a different workload seed actually changes the artifact.
        let other = WorkloadSpec { seed: 12, ..spec() };
        let c = trace_register_run(ProtocolId::FastCrash, cfg(), 7, &other).unwrap();
        assert_ne!(a.chrome_trace(), c.chrome_trace());
    }

    #[test]
    fn register_spans_balance_and_invariants_hold() {
        let a = trace_register_run(ProtocolId::Abd, cfg(), 3, &spec()).unwrap();
        spans_balanced(&a.events).unwrap();
        let m = &a.metrics;
        assert_eq!(
            m.counter("net.delivered"),
            m.counter("net.sent") - m.counter("net.dropped"),
            "post-settle delivery conservation"
        );
        assert_eq!(m.counter("net.in_transit"), 0);
        assert_eq!(m.counter("ops.completed"), 60);
        assert!(m.histogram("ops.read").is_some());
        assert!(m.counter("sched.pushed") >= m.counter("net.sent"));
    }

    #[test]
    fn store_artifacts_are_thread_count_independent() {
        let spec = KvWorkloadSpec {
            n_ops: 120,
            n_keys: 16,
            n_clients: 8,
            put_fraction: 0.3,
            dist: crate::kv::KeyDist::Uniform,
            seed: 9,
        };
        let runs: Vec<ObsArtifacts> = [1usize, 2, 4]
            .iter()
            .map(|&t| trace_store_run(ProtocolId::FastCrash, cfg(), 4, 2, &spec, t).unwrap())
            .collect();
        assert_eq!(runs[0].chrome_trace(), runs[1].chrome_trace());
        assert_eq!(runs[0].chrome_trace(), runs[2].chrome_trace());
        assert_eq!(runs[0].metrics_json(), runs[1].metrics_json());
        assert_eq!(runs[0].metrics_json(), runs[2].metrics_json());
        spans_balanced(&runs[0].events).unwrap();
        assert_eq!(runs[0].metrics.counter("store.frontend.ops"), 120);
    }
}
