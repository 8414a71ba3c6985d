//! Cost of executing the full lower-bound proof constructions (§5, §6.2,
//! §7): each bench runs the complete chain of scripted partial runs plus
//! the mechanical atomicity check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg::config::ClusterConfig;
use fastreg_adversary::{run_lower_bound, run_mwmr_lb};

fn lower_bounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("lower_bounds");

    for (s, t, r) in [(5u32, 1u32, 3u32), (8, 2, 2), (12, 2, 4)] {
        let cfg = ClusterConfig::crash_stop(s, t, r).expect("valid");
        g.bench_function(
            BenchmarkId::new("crash_prC", format!("S{s}t{t}R{r}")),
            |b| b.iter(|| run_lower_bound(cfg, 0).expect("construction applies")),
        );
    }

    for (s, t, bz, r) in [(7u32, 1u32, 1u32, 2u32), (9, 1, 1, 3)] {
        let cfg = ClusterConfig::byzantine(s, t, bz, r).expect("valid");
        g.bench_function(
            BenchmarkId::new("byz_fig6", format!("S{s}t{t}b{bz}R{r}")),
            |b| b.iter(|| run_lower_bound(cfg, 0).expect("construction applies")),
        );
    }

    for s in [3u32, 5] {
        g.bench_function(BenchmarkId::new("mwmr_refutation", format!("S{s}")), |b| {
            b.iter(|| run_mwmr_lb(s, 0).expect("construction applies"))
        });
    }

    g.finish();
}

criterion_group!(benches, lower_bounds);
criterion_main!(benches);
