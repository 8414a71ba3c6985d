//! Wall-clock cost of the protocols over OS threads and channels: the
//! same automata as the simulation, one worker thread per actor on the
//! [`fastreg_rt`] runtime. This measures real synchronization cost per
//! operation; the round-structure advantage of the fast read shows up as
//! fewer channel hops per op.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg::config::ClusterConfig;
use fastreg::harness::{Abd, FastCrash, ProtocolFamily, RegisterOps};
use fastreg::threads::{RtConfig, ThreadCluster};

fn bench_reads<P: ProtocolFamily>(c: &mut Criterion, name: &str, cfg: ClusterConfig) {
    let mut g = c.benchmark_group("threaded_read");
    g.bench_function(BenchmarkId::new(name, format!("S{}", cfg.s)), |b| {
        let actors = (cfg.w + cfg.r + cfg.s) as usize;
        let mut cluster: ThreadCluster<P> = ThreadCluster::spawn(cfg, 99, RtConfig::new(actors));
        // One write so reads return a real value.
        cluster.write_sync(1);
        b.iter(|| {
            cluster.read_async(0);
            cluster.settle();
        });
    });
    g.finish();
}

fn threaded_reads(c: &mut Criterion) {
    let fast_cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let abd_cfg = ClusterConfig::crash_stop(5, 2, 2).expect("valid");
    bench_reads::<FastCrash>(c, "fast_crash", fast_cfg);
    bench_reads::<Abd>(c, "abd", abd_cfg);
}

criterion_group!(benches, threaded_reads);
criterion_main!(benches);
