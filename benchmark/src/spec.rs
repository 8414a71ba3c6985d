//! The benchmark's contract as data: the six workloads and every metric.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds below; a unit test keeps the two in step.

use fastreg::protocols::registry::ProtocolId;

/// What a workload drives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// One register on the simnet oracle (default `SimConfig`).
    Sim(ProtocolId),
    /// One fast-crash register on `fastreg_rt` with this many workers.
    Threads { workers: usize },
    /// The sharded KV store (8 shards, mixed backends, Zipf keys).
    Store,
}

/// One named workload. All are closed loops: a client issues its next
/// operation only after the previous one completed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Share of operations that are writes (puts on the store).
    pub write_fraction: f64,
    /// Virtual ticks a client waits between operations (simnet only).
    pub think_time: u64,
    /// Operations per repetition at full scale.
    pub n_ops: u64,
    pub what: &'static str,
    pub why: &'static str,
}

/// Register deployments: S = 5, t = 1, R = 2 (inside `R < S/t − 2`),
/// one writer and two readers, one operation outstanding each.
pub const SERVERS: u32 = 5;
pub const FAULTS: u32 = 1;
pub const READERS: u32 = 2;

/// Store shape (`store_zipf`).
pub const STORE_SHARDS: u32 = 8;
pub const STORE_KEYS: u64 = 1_500;
pub const STORE_CLIENTS: u32 = 64;
pub const STORE_ZIPF: f64 = 1.2;
pub const STORE_THREADS: usize = 2;
pub const STORE_BACKENDS: [ProtocolId; 3] =
    [ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz];

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_fast_read",
        kind: Kind::Sim(ProtocolId::FastCrash),
        write_fraction: 0.1,
        think_time: 1,
        n_ops: 75_000,
        what: "simnet, fast-crash, 10 % writes, think 1",
        why: "the paper's headline path on the oracle: reader predicate, server seen sets, \
              scheduler, journal and online checker do all the work; rt and store do none",
    },
    Workload {
        name: "sim_fast_write",
        kind: Kind::Sim(ProtocolId::FastCrash),
        write_fraction: 0.9,
        think_time: 1,
        n_ops: 75_000,
        what: "simnet, fast-crash, 90 % writes, think 1",
        why: "the same layers used the other way (write path, seen resets, predicate almost \
              idle): a read-path gain paid for on writes shows here",
    },
    Workload {
        name: "sim_abd_read",
        kind: Kind::Sim(ProtocolId::Abd),
        write_fraction: 0.1,
        think_time: 1,
        n_ops: 75_000,
        what: "simnet, abd, 10 % writes, think 1",
        why: "bypasses fast-crash-specific work (prediction: no change) and loads the \
              scheduler hardest (57 % more deliveries per op); the paper's comparison: \
              a read is 4 message delays, not 2",
    },
    Workload {
        name: "rt1_fast_read",
        kind: Kind::Threads { workers: 1 },
        write_fraction: 0.1,
        think_time: 0,
        n_ops: 75_000,
        what: "threads, 1 worker, fast-crash, 10 % writes, think 0",
        why: "fastreg_rt channel spine, mailbox drain, SharedHistory lock and the driver's \
              yield_now polling with no cross-core traffic; simnet does nothing",
    },
    Workload {
        name: "rt2_fast_read",
        kind: Kind::Threads { workers: 2 },
        write_fraction: 0.1,
        think_time: 0,
        n_ops: 25_000,
        what: "threads, 2 workers (3 OS threads with the driver), fast-crash, 10 % writes",
        why: "the negative-scaling case: i mod workers placement makes every hop \
              cross-thread; placement, history shards and completion notification should \
              move this and not rt1 or sim_*",
    },
    Workload {
        name: "store_zipf",
        kind: Kind::Store,
        write_fraction: 0.2,
        think_time: 0,
        n_ops: 25_000,
        what: "store, 8 shards, backends fast-crash/abd/fast-byz, 1500 keys, 64 clients, \
               20 % puts, Zipf 1.2, 2 threads",
        why: "router, wave formation under hot keys, lazy per-key cluster builds, per-key \
              streaming checks, and the only workload that executes auth (fast-byz shards)",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: `bound` is `Some` on the gated end-to-end metrics, and
/// `moves` names what a layer metric should move, on which workload.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub def: &'static str,
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    def: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        def,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    def: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        def,
        moves,
    }
}

use Better::{Higher, Lower};

/// The gated ledger: measured with tracing off. The value is the quartile
/// over repetitions on the metric's bad side (q1 of a higher-is-better
/// metric, q3 of a lower-is-better one).
pub const END_TO_END: [Metric; 6] = [
    e2e(
        "ops_per_s",
        "ops/s",
        Higher,
        0.20,
        "n_ops / wall seconds of the one library call (run_closed_loop / run_kv_workload): \
         issue, deliver, record and check to a verdict",
    ),
    e2e(
        "read_mean_ticks",
        "ticks",
        Lower,
        0.20,
        "mean invoke-to-respond of completed reads/gets; simnet and store: virtual ticks = \
         message delays (exact); threads: microseconds of processor time (delivery is instant)",
    ),
    e2e(
        "write_mean_ticks",
        "ticks",
        Lower,
        0.20,
        "the same for writes/puts",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "per repetition: a warm-up run (n_ops/10 on a throw-away deployment) plus building \
         the timed deployment",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.10,
        "VmHWM from /proc/self/status after the first repetition (warm-up + timed run) of a \
         fresh process",
    ),
    e2e(
        "msgs_per_op",
        "msgs",
        Lower,
        0.02,
        "messages_sent / completed operations: the protocol's cost in the paper's currency",
    ),
];

/// The per-layer ledger: one traced repetition plus direct timed calls
/// into each layer. 0 means the workload does not run that layer.
pub const PER_LAYER: [Metric; 46] = [
    layer(
        "core.build_ns",
        "ns",
        Lower,
        "median wall time of building one deployment (ClusterBuilder::build, ThreadCluster::spawn)",
        "setup_s everywhere; ops_per_s on store_zipf (one build per key)",
    ),
    layer(
        "core.issue_ns_per_op",
        "ns",
        Lower,
        "time inside write_by + read_async per operation (traced run)",
        "ops_per_s on sim_* and rt*",
    ),
    layer(
        "core.automaton_step_ns",
        "ns",
        Lower,
        "derived: simnet.step_ns - simnet.echo_step_ns (protocol automaton work per delivery)",
        "ops_per_s on sim_* and store_zipf; rt.busy_us_per_op on rt*",
    ),
    layer(
        "simnet.step_ns",
        "ns",
        Lower,
        "mean time of one step_timed call that delivered (traced run)",
        "ops_per_s on sim_* (times msgs_per_op it is the bulk of 1/ops_per_s)",
    ),
    layer(
        "simnet.steps_per_op",
        "count",
        Lower,
        "step_timed calls per operation",
        "ops_per_s on sim_*",
    ),
    layer(
        "simnet.echo_step_ns",
        "ns",
        Lower,
        "one step_timed on a World<u8> of two echo actors, pool = the run's heap_high_water",
        "simnet.step_ns, so ops_per_s on sim_*, most on sim_abd_read",
    ),
    layer(
        "simnet.echo_step_notrace_ns",
        "ns",
        Lower,
        "the same with trace_capacity 0",
        "simnet.step_ns",
    ),
    layer(
        "simnet.trace_append_ns",
        "ns",
        Lower,
        "derived: echo_step_ns - echo_step_notrace_ns",
        "simnet.step_ns",
    ),
    layer(
        "simnet.readyqueue_ns",
        "ns",
        Lower,
        "one ReadyQueue push + pop at the run's heap depth",
        "simnet.step_ns",
    ),
    layer(
        "simnet.pops_per_delivery",
        "ratio",
        Lower,
        "scheduler entries popped / messages delivered (exact; 1.0 = no wasted pops)",
        "simnet.step_ns",
    ),
    layer(
        "simnet.heap_high_water",
        "count",
        Lower,
        "high-water mark of the ready heap (exact)",
        "simnet.readyqueue_ns",
    ),
    layer(
        "rt.msgs_per_batch",
        "msgs",
        Higher,
        "drained messages / drained batches",
        "ops_per_s and read_mean_ticks on rt* only",
    ),
    layer(
        "rt.wakeups_per_op",
        "count",
        Lower,
        "drained batches (one blocking recv each) per operation",
        "ops_per_s on rt*",
    ),
    layer(
        "rt.max_batch",
        "msgs",
        Higher,
        "largest mailbox drain",
        "informational",
    ),
    layer(
        "rt.busy_frac",
        "fraction",
        Higher,
        "actor busy time / (workers x run wall)",
        "ops_per_s on rt*",
    ),
    layer(
        "rt.busy_us_per_op",
        "us",
        Lower,
        "actor busy microseconds per operation",
        "ops_per_s and read_mean_ticks on rt*",
    ),
    layer(
        "rt.polls_per_op",
        "count",
        Lower,
        "driver step_timed calls (one yield_now each) per operation",
        "ops_per_s on rt1 and rt2",
    ),
    layer(
        "rt.driver_wait_frac",
        "fraction",
        Lower,
        "share of the run's wall time the driver spends inside step_timed/advance_to_ticks",
        "ops_per_s on rt1 and rt2",
    ),
    layer(
        "rt.hop_us_est",
        "us",
        Lower,
        "derived: read_mean_ticks / 3 (invoke, request, reply)",
        "read_mean_ticks, mostly on rt2",
    ),
    layer(
        "atomicity.stream_check_ns_per_op",
        "ns",
        Lower,
        "StreamingChecker::on_events over the harvested history, per operation",
        "ops_per_s on all six",
    ),
    layer(
        "atomicity.replay_ns_per_op",
        "ns",
        Lower,
        "replay_events over the harvested history, per operation",
        "ops_per_s on rt* (no journal there) and store_zipf",
    ),
    layer(
        "atomicity.journal_drain_ns_per_op",
        "ns",
        Lower,
        "time inside drain_history_events per operation (traced run)",
        "ops_per_s on sim_*",
    ),
    layer(
        "atomicity.snapshot_ns_per_op",
        "ns",
        Lower,
        "time inside snapshot per operation (traced run)",
        "ops_per_s and peak_rss_mb",
    ),
    layer(
        "atomicity.record_ns",
        "ns",
        Lower,
        "one uncontended SharedHistory invoke + respond pair",
        "ops_per_s; under contention rt2_fast_read",
    ),
    layer(
        "atomicity.checker_high_water",
        "count",
        Lower,
        "peak operations resident in the online checker",
        "peak_rss_mb",
    ),
    layer(
        "workload.driver_self_ns_per_op",
        "ns",
        Lower,
        "self time of the workload.run span (run wall - time inside deployment calls) per op",
        "ops_per_s on sim_* and rt*",
    ),
    layer(
        "workload.unattributed_frac",
        "fraction",
        Lower,
        "share of the run's wall time no span or direct measurement explains",
        "bounds how far the layer sums can be trusted",
    ),
    layer(
        "workload.read_p50_ticks",
        "ticks",
        Lower,
        "read latency median, last untraced repetition",
        "informational",
    ),
    layer(
        "workload.read_p99_ticks",
        "ticks",
        Lower,
        "read latency p99",
        "informational",
    ),
    layer(
        "workload.read_p999_ticks",
        "ticks",
        Lower,
        "read latency p99.9",
        "informational",
    ),
    layer(
        "workload.write_p99_ticks",
        "ticks",
        Lower,
        "write latency p99",
        "informational",
    ),
    layer(
        "workload.lat_samples",
        "count",
        Higher,
        "completed reads behind the read percentiles",
        "informational",
    ),
    layer(
        "workload.rep_spread_frac",
        "fraction",
        Lower,
        "IQR / median of ops_per_s over the untraced repetitions",
        "how far one process's median can be trusted",
    ),
    layer(
        "store.route_ns_per_op",
        "ns",
        Lower,
        "Router::shard_of per operation",
        "ops_per_s on store_zipf only",
    ),
    layer(
        "store.submit_ns_per_op",
        "ns",
        Lower,
        "time inside BatchedFrontend::submit + finish (route, waves, shard worlds) per operation",
        "ops_per_s on store_zipf only",
    ),
    layer(
        "store.global_history_ns_per_op",
        "ns",
        Lower,
        "ShardedStore::global_history per operation",
        "ops_per_s on store_zipf only",
    ),
    layer(
        "store.check_ns_per_op",
        "ns",
        Lower,
        "StoreChecker::check_streaming per operation",
        "ops_per_s on store_zipf only",
    ),
    layer(
        "store.fingerprint_ns_per_op",
        "ns",
        Lower,
        "ShardedStore::fingerprint (every key's trace, for the report) per operation",
        "ops_per_s on store_zipf only",
    ),
    layer(
        "store.ops_per_wave",
        "ops",
        Higher,
        "operations / waves (hot keys serialise into more waves)",
        "ops_per_s on store_zipf",
    ),
    layer(
        "store.ops_per_flush",
        "ops",
        Higher,
        "operations / frontend flushes",
        "ops_per_s on store_zipf",
    ),
    layer(
        "store.shard_batches_per_flush",
        "count",
        Higher,
        "shard batches / flushes (parallel parts per flush; the slowest sets its time)",
        "ops_per_s on store_zipf",
    ),
    layer(
        "store.shard_imbalance",
        "ratio",
        Lower,
        "max / mean operations per shard",
        "ops_per_s on store_zipf",
    ),
    layer(
        "store.keys_built",
        "count",
        Lower,
        "distinct keys, one lazily built cluster each",
        "ops_per_s and peak_rss_mb on store_zipf",
    ),
    layer(
        "auth.sign_verify_ns",
        "ns",
        Lower,
        "one SignerHandle::sign + Verifier::verify",
        "ops_per_s on store_zipf only (fast-byz shards)",
    ),
    layer(
        "bench.trace_overhead_frac",
        "fraction",
        Lower,
        "traced run wall / untraced median wall - 1",
        "none; bounds how far traced numbers can be trusted",
    ),
    layer(
        "bench.timer_ns",
        "ns",
        Lower,
        "one calibrated pair of clock reads",
        "none",
    ),
];
