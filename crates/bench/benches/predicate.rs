//! Cost of the fast-read predicate (Fig. 2 line 19), the only nontrivial
//! local computation in the protocol. Series over the population and the
//! number of maxTS messages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg::predicate::{predicate_witness, PredicateModel};
use fastreg::types::{ClientId, ClientSet};

fn random_seens(s: u32, r: u32, n_msgs: usize, seed: u64) -> Vec<ClientSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clients: Vec<ClientId> = std::iter::once(ClientId::WRITER)
        .chain((0..r).map(ClientId::reader))
        .collect();
    let _ = s;
    (0..n_msgs)
        .map(|_| {
            clients
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.6))
                .collect()
        })
        .collect()
}

fn predicate(c: &mut Criterion) {
    let mut g = c.benchmark_group("predicate");
    for (s, t, r) in [(5u32, 1u32, 2u32), (10, 2, 2), (20, 2, 7), (40, 3, 10)] {
        let n_msgs = (s - t) as usize;
        let seens = random_seens(s, r, n_msgs, 42);
        g.bench_function(BenchmarkId::new("crash", format!("S{s}t{t}R{r}")), |b| {
            b.iter(|| predicate_witness(s, t, r, PredicateModel::Crash, &seens))
        });
    }
    for (s, t, b_, r) in [(9u32, 1u32, 1u32, 1u32), (20, 2, 1, 4), (40, 3, 2, 6)] {
        let n_msgs = (s - t) as usize;
        let seens = random_seens(s, r, n_msgs, 43);
        g.bench_function(
            BenchmarkId::new("byzantine", format!("S{s}t{t}b{b_}R{r}")),
            |b| b.iter(|| predicate_witness(s, t, r, PredicateModel::Byzantine { b: b_ }, &seens)),
        );
    }
    g.finish();
}

criterion_group!(benches, predicate);
criterion_main!(benches);
