//! Cost of the mechanical checkers on histories of growing size: the
//! specialized four-condition SWMR checker is polynomial; the Wing–Gong
//! linearizability oracle is exponential in the worst case but fast on
//! realistic histories. The `checker_scaling` group compares the batch
//! checker against the bounded-memory streaming checker at 10k/100k/1M
//! ops — batch is quadratic in the number of reads, so it stops at
//! 100k; streaming runs the full ladder in O(frontier) memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg_atomicity::history::{History, RegValue};
use fastreg_atomicity::linearizability::check_linearizable;
use fastreg_atomicity::streaming::{replay_events, StreamingChecker};
use fastreg_atomicity::swmr::check_swmr_atomicity;

/// A clean sequential history with `n_writes` writes each followed by two
/// reads.
fn sequential_history(n_writes: u64) -> History {
    let mut h = History::with_capacity(n_writes as usize * 3);
    let mut t = 0u64;
    for v in 1..=n_writes {
        let w = h.invoke_write(0, v, t);
        h.respond(w, None, t + 1);
        let r1 = h.invoke_read(1, t + 2);
        h.respond(r1, Some(RegValue::Val(v)), t + 3);
        let r2 = h.invoke_read(2, t + 4);
        h.respond(r2, Some(RegValue::Val(v)), t + 5);
        t += 6;
    }
    h
}

/// A history of heavily overlapping reads around one slow write.
fn concurrent_history(n_reads: u64) -> History {
    let mut h = History::with_capacity(n_reads as usize + 1);
    let w = h.invoke_write(0, 1, 0);
    h.respond(w, None, 1000);
    for i in 0..n_reads {
        let r = h.invoke_read(1 + (i % 3) as u32, 10 + i);
        let ret = if i % 2 == 0 {
            RegValue::Val(1)
        } else {
            RegValue::Bottom
        };
        h.respond(r, Some(ret), 500 + i);
    }
    h
}

fn checkers(c: &mut Criterion) {
    let mut g = c.benchmark_group("swmr_checker");
    for n in [10u64, 100, 500] {
        let h = sequential_history(n);
        g.bench_function(BenchmarkId::new("sequential", n * 3), |b| {
            b.iter(|| check_swmr_atomicity(&h).unwrap())
        });
    }
    for n in [10u64, 50, 200] {
        let h = concurrent_history(n);
        g.bench_function(BenchmarkId::new("concurrent", n + 1), |b| {
            b.iter(|| check_swmr_atomicity(&h).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("linearizability_oracle");
    for n in [5u64, 10, 18] {
        let h = sequential_history(n);
        g.bench_function(BenchmarkId::new("sequential", n * 3), |b| {
            b.iter(|| check_linearizable(&h).unwrap())
        });
    }
    for n in [8u64, 16, 30] {
        let h = concurrent_history(n);
        g.bench_function(BenchmarkId::new("concurrent", n + 1), |b| {
            b.iter(|| check_linearizable(&h).unwrap())
        });
    }
    g.finish();

    // Streaming vs batch at scale. The event list is prepared outside
    // the streaming iteration so the measured cost is the checker's
    // per-event work, matching how the workload driver feeds it live;
    // batch (quadratic in reads) is skipped at 1M — that asymmetry is
    // the result, not a gap in the bench.
    let mut g = c.benchmark_group("checker_scaling");
    for n_ops in [10_000u64, 100_000, 1_000_000] {
        let h = sequential_history(n_ops / 3);
        let events = replay_events(&h);
        g.bench_function(BenchmarkId::new("streaming", n_ops), |b| {
            b.iter(|| {
                let mut ck = StreamingChecker::new_atomic();
                ck.on_events(&events);
                assert!(ck.verdict().is_clean());
                ck.high_water_mark()
            })
        });
        if n_ops <= 100_000 {
            g.bench_function(BenchmarkId::new("batch", n_ops), |b| {
                b.iter(|| check_swmr_atomicity(&h).unwrap())
            });
        }
    }
    g.finish();
}

criterion_group!(benches, checkers);
criterion_main!(benches);
