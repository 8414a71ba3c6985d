//! Property suite for the store's key → shard routing (and the
//! determinism of everything built on it).
//!
//! The two properties the sharded store leans on:
//!
//! * **stability** — `shard_of` is a pure function of `(key, shard
//!   count)`: identical across router instances, runs, and thread
//!   counts (the mapping is computed on worker threads in production,
//!   so the suite recomputes it through `map_ordered` at several pool
//!   sizes);
//! * **balance** — for uniformly distributed keys no shard carries more
//!   than 2× the mean load, whatever the keyspace shape (random 64-bit
//!   keys, dense sequential ids, or strided ids).

use proptest::prelude::*;

use fastreg_rt::threaded::map_ordered;
use fastreg_store::router::Router;

proptest! {
    #[test]
    fn mapping_is_in_range(shards in 1u32..64, key in any::<u64>()) {
        let router = Router::new(shards);
        prop_assert!(router.shard_of(key) < shards);
    }

    #[test]
    fn mapping_is_stable_across_instances_and_runs(
        shards in 1u32..64,
        keys in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let a = Router::new(shards);
        let b = Router::new(shards);
        for &key in &keys {
            let first = a.shard_of(key);
            prop_assert_eq!(first, b.shard_of(key));
            prop_assert_eq!(first, a.shard_of(key), "repeat calls agree");
        }
    }

    #[test]
    fn mapping_is_identical_at_any_thread_count(
        shards in 1u32..32,
        keys in proptest::collection::vec(any::<u64>(), 1..128),
    ) {
        // Recompute the routing on worker pools of several sizes — the
        // shape the batched frontend uses it in. The mapping must be a
        // pure function of the key, never of the executing thread.
        let reference: Vec<u32> = keys.iter().map(|&k| Router::new(shards).shard_of(k)).collect();
        for threads in [1usize, 2, 4, 8] {
            let mapped = map_ordered(keys.clone(), threads, |_, k| Router::new(shards).shard_of(k));
            prop_assert_eq!(&mapped, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn uniform_keys_balance_within_2x_of_the_mean(
        shards in 1u32..17,
        seed in any::<u64>(),
    ) {
        // ≥ 128 keys per shard keeps the binomial tail far below the 2×
        // line, so this is a real property, not a flaky sample.
        let n_keys = (shards as u64) * 128;
        let mut loads = vec![0u64; shards as usize];
        let router = Router::new(shards);
        // Uniform 64-bit keys derived from a splitmix-style stream.
        let mut state = seed;
        for _ in 0..n_keys {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            loads[router.shard_of(z ^ (z >> 31)) as usize] += 1;
        }
        let mean = n_keys as f64 / shards as f64;
        let max = *loads.iter().max().expect("at least one shard") as f64;
        prop_assert!(
            max <= 2.0 * mean,
            "shard load {} exceeds 2x the mean {} (loads {:?})",
            max, mean, loads
        );
    }

    #[test]
    fn sequential_and_strided_keys_balance_too(
        shards in 2u32..17,
        start in any::<u64>(),
        stride in 1u64..1024,
    ) {
        // The adversarial-but-common keyspaces: dense counters and
        // strided ids. The pre-modulo mixing must spread these as well
        // as random keys — a bare `key % shards` would fail this at
        // every stride that shares a factor with the shard count.
        let n_keys = (shards as u64) * 128;
        let mut loads = vec![0u64; shards as usize];
        let router = Router::new(shards);
        for i in 0..n_keys {
            loads[router.shard_of(start.wrapping_add(i * stride)) as usize] += 1;
        }
        let mean = n_keys as f64 / shards as f64;
        let max = *loads.iter().max().expect("at least one shard") as f64;
        prop_assert!(
            max <= 2.0 * mean,
            "stride {}: shard load {} exceeds 2x the mean {} (loads {:?})",
            stride, max, mean, loads
        );
    }
}

/// End-to-end determinism: the full store pipeline (router → shards →
/// per-key registers) produces byte-identical histories and fingerprints
/// at every thread count, on randomized op streams.
mod store_pipeline {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;
    use fastreg_store::kv::KvOp;
    use fastreg_store::store::StoreBuilder;
    use fastreg_store::StoreChecker;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn pipeline_is_thread_count_independent(
            seed in any::<u64>(),
            raw_ops in proptest::collection::vec(
                (0u64..24, 0u32..4, any::<bool>()), 1..80
            ),
        ) {
            let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
            let mut value = 0u64;
            let ops: Vec<KvOp> = raw_ops
                .iter()
                .map(|&(key, client, is_put)| {
                    if is_put {
                        value += 1; // distinct values keep histories checkable
                        KvOp::put(client, key, value)
                    } else {
                        KvOp::get(client, key)
                    }
                })
                .collect();
            let run = |threads: usize| {
                let mut store = StoreBuilder::new(cfg)
                    .shards(4)
                    .seed(seed)
                    .backends(vec![ProtocolId::FastCrash, ProtocolId::Abd])
                    .build()
                    .expect("feasible backends");
                for chunk in ops.chunks(16) {
                    store.apply_batch(chunk, threads).expect("no stalls");
                }
                let report = StoreChecker::check(&store);
                prop_assert!(report.is_clean(), "sound backends stay clean");
                let rendered: Vec<String> = report
                    .per_key
                    .iter()
                    .map(|kv| format!("{} {} {}", kv.key, kv.protocol, kv.verdict))
                    .collect();
                Ok((store.fingerprint(), rendered))
            };
            let single = run(1)?;
            for threads in [2usize, 4] {
                prop_assert_eq!(&run(threads)?, &single, "threads = {}", threads);
            }
        }
    }
}
