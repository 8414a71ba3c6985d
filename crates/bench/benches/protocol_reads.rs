//! E2/E9 companion: per-operation cost of each protocol over the
//! simulated cluster (simulation overhead included — the interesting
//! output is the *relative* cost, mirroring the message/round structure:
//! fast < regular < max–min < ABD for reads).
//!
//! The main groups sweep the protocol registry through the type-erased
//! [`DynCluster`]; the `read_static_dispatch` group keeps two
//! deliberately monomorphized `Cluster<P>` benchmarks so the cost of the
//! `dyn RegisterOps` indirection itself stays measured.
//!
//! The `automaton_step` group is the layer underneath all of them: the
//! fast protocols' automata alone, fed a recorded message tape with a
//! lent outbox — no `World`, no scheduler, no trace — so its `ns/iter` is
//! nanoseconds per automaton step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg::config::ClusterConfig;
use fastreg::harness::{
    Abd, Cluster, ClusterBuilder, FastByz, FastCrash, ProtocolFamily, RegisterOps,
};
use fastreg::layout::Layout;
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::history::SharedHistory;
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::time::SimTime;
use fastreg_simnet::trace::TraceEntry;
use fastreg_workload::driver::{run_closed_loop, WorkloadSpec};

fn cfg_label(cfg: &ClusterConfig) -> String {
    format!("S{}t{}R{}", cfg.s, cfg.t, cfg.r)
}

/// Read cost for every registered protocol, enumerated as data.
fn dyn_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("read");
    for id in ProtocolId::ALL {
        let cfg = id.sample_config();
        g.bench_function(BenchmarkId::new(id.name(), cfg_label(&cfg)), |b| {
            let mut cluster = ClusterBuilder::new(cfg)
                .seed(1)
                .build(id)
                .expect("sample configs are feasible");
            cluster.write_sync(1);
            b.iter(|| {
                cluster.read_async(0);
                cluster.settle();
            });
        });
    }
    g.finish();
}

/// Write cost through the registry (writer 0 on each protocol).
fn dyn_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("write");
    for id in [ProtocolId::FastCrash, ProtocolId::Abd] {
        let cfg = id.sample_config();
        g.bench_function(BenchmarkId::new(id.name(), format!("S{}", cfg.s)), |b| {
            let mut cluster = ClusterBuilder::new(cfg)
                .seed(1)
                .build(id)
                .expect("sample configs are feasible");
            let mut v = 0u64;
            b.iter(|| {
                v += 1;
                cluster.write(v);
                cluster.settle();
            });
        });
    }
    g.finish();
}

/// The zero-cost path, deliberately monomorphized: `Cluster<P>` with
/// static dispatch, to compare against the `read` group's `dyn` numbers.
fn static_dispatch_reads<P: ProtocolFamily>(c: &mut Criterion, name: &str, cfg: ClusterConfig) {
    let mut g = c.benchmark_group("read_static_dispatch");
    g.bench_function(BenchmarkId::new(name, cfg_label(&cfg)), |b| {
        let mut cluster: Cluster<P> = ClusterBuilder::new(cfg).seed(1).build_typed().unwrap();
        cluster.write_sync(1);
        b.iter(|| {
            cluster.read_async(0);
            cluster.settle();
        });
    });
    g.finish();
}

/// Scaling with the server count (Table-style series over S).
fn scaling_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_scaling");
    for s in [5u32, 10, 20, 40] {
        let cfg = ClusterConfig::crash_stop(s, 1, 2).expect("valid");
        g.bench_function(
            BenchmarkId::new(ProtocolId::FastCrash.name(), cfg_label(&cfg)),
            |b| {
                let mut cluster = ClusterBuilder::new(cfg)
                    .seed(1)
                    .build(ProtocolId::FastCrash)
                    .expect("feasible");
                cluster.write_sync(1);
                b.iter(|| {
                    cluster.read_async(0);
                    cluster.settle();
                });
            },
        );
    }
    g.finish();
}

/// One step of a recorded run: sender, receiver, time, message.
type Step<M> = (ProcessId, ProcessId, SimTime, M);

const TAPE_SEED: u64 = 1;

/// Records the message tape of a closed loop on `P`'s sample
/// configuration — every invocation and delivery, in the order the
/// simulator made them — and how many operations it completed.
fn record_tape<P: ProtocolFamily>() -> (Vec<Step<P::Msg>>, usize) {
    let mut cluster: Cluster<P> = ClusterBuilder::new(P::ID.sample_config())
        .seed(TAPE_SEED)
        .build_typed()
        .expect("simnet is the default runtime");
    let spec = WorkloadSpec {
        n_ops: 400,
        write_fraction: 0.1,
        ..WorkloadSpec::default()
    };
    run_closed_loop(&mut cluster, &spec).expect("quiesces");
    let trace = cluster.world.trace();
    assert_eq!(trace.suppressed(), 0, "the tape must be the whole run");
    let mut in_transit = std::collections::BTreeMap::new();
    let mut tape = Vec::new();
    for line in trace.lines() {
        match line.entry {
            TraceEntry::Send { id, .. } => {
                in_transit.insert(id, line.payload.expect("sends carry a message").clone());
            }
            TraceEntry::Inject { at, to } => {
                let msg = line.payload.expect("injections carry a message").clone();
                tape.push((ProcessId::EXTERNAL, to, at, msg));
            }
            TraceEntry::Deliver { at, id, from, to } => {
                let msg = in_transit.remove(&id).expect("delivered after sent");
                tape.push((from, to, at, msg));
            }
            TraceEntry::Crash { .. } | TraceEntry::Drop { .. } => unreachable!("fault-free run"),
        }
    }
    (tape, cluster.history.completed_count())
}

/// A deployment's automata with nothing around them: stepped by hand,
/// their sends discarded into one reused buffer.
struct Bare<P: ProtocolFamily> {
    actors: Vec<Box<dyn Automaton<Msg = P::Msg>>>,
    history: SharedHistory,
    sends: Vec<(ProcessId, P::Msg)>,
}

impl<P: ProtocolFamily> Bare<P> {
    /// Fresh automata, in layout address order, keyed like the recording.
    fn new() -> Self {
        let cfg = P::ID.sample_config();
        let (layout, history) = (Layout::of(&cfg), SharedHistory::new());
        let mut ctx = P::make_ctx(&cfg, TAPE_SEED);
        let mut actors = Vec::new();
        for i in 0..cfg.w {
            actors.push(P::writer(&cfg, layout, i, history.clone(), &mut ctx));
        }
        for i in 0..cfg.r {
            actors.push(P::reader(&cfg, layout, i, history.clone(), &mut ctx));
        }
        for j in 0..cfg.s {
            actors.push(P::server(&cfg, layout, j, &mut ctx));
        }
        Bare {
            actors,
            history,
            sends: Vec::new(),
        }
    }

    fn step(&mut self, (from, to, at, msg): &Step<P::Msg>) {
        let mut out = Outbox::with_buffer(*to, *at, std::mem::take(&mut self.sends));
        self.actors[to.index() as usize].on_message(*from, msg.clone(), &mut out);
        self.sends = out.into_messages();
    }
}

/// Nanoseconds per automaton step of a fast protocol, network-free: the
/// tape cycles through bare automata, rebuilt each time it wraps (once
/// per ≈ 4 000 steps).
fn automaton_steps<P: ProtocolFamily>(c: &mut Criterion) {
    let (tape, completed) = record_tape::<P>();
    // The tape is faithful: replayed, the automata complete the same
    // operations the simulated run did.
    let mut replay = Bare::<P>::new();
    tape.iter().for_each(|step| replay.step(step));
    assert_eq!(replay.history.completed_count(), completed);

    let mut g = c.benchmark_group("automaton_step");
    let label = cfg_label(&P::ID.sample_config());
    g.bench_function(BenchmarkId::new(P::ID.name(), label), |b| {
        let mut bare = Bare::<P>::new();
        let mut next = 0;
        b.iter(|| {
            if next == tape.len() {
                bare = Bare::new();
                next = 0;
            }
            bare.step(&tape[next]);
            next += 1;
        });
    });
    g.finish();
}

fn protocol_reads(c: &mut Criterion) {
    automaton_steps::<FastCrash>(c);
    automaton_steps::<FastByz>(c);
    dyn_reads(c);
    dyn_writes(c);
    scaling_reads(c);
    static_dispatch_reads::<FastCrash>(c, "fast_crash", ProtocolId::FastCrash.sample_config());
    static_dispatch_reads::<Abd>(c, "abd", ProtocolId::Abd.sample_config());
}

criterion_group!(benches, protocol_reads);
criterion_main!(benches);
