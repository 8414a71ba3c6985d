//! E2/E9 companion: per-operation cost of each protocol over the
//! simulated cluster (simulation overhead included — the interesting
//! output is the *relative* cost, mirroring the message/round structure:
//! fast < regular < max–min < ABD for reads).
//!
//! The main groups sweep the protocol registry through the type-erased
//! [`DynCluster`]; the `read_static_dispatch` group keeps two
//! deliberately monomorphized `Cluster<P>` benchmarks so the cost of the
//! `dyn RegisterOps` indirection itself stays measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg::config::ClusterConfig;
use fastreg::harness::{Abd, Cluster, ClusterBuilder, FastCrash, ProtocolFamily, RegisterOps};
use fastreg::protocols::registry::ProtocolId;

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

fn protocol_reads(c: &mut Criterion) {
    dyn_reads(c);
    dyn_writes(c);
    scaling_reads(c);
    static_dispatch_reads::<FastCrash>(c, "fast_crash", ProtocolId::FastCrash.sample_config());
    static_dispatch_reads::<Abd>(c, "abd", ProtocolId::Abd.sample_config());
}

criterion_group!(benches, protocol_reads);
criterion_main!(benches);
