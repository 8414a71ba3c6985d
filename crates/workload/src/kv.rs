//! The key–value workload lane: closed-loop multi-client traffic against
//! a [`ShardedStore`].
//!
//! This is the multi-object sibling of [`run_closed_loop`]
//! (one register, one history): a population of simulated clients issues
//! `get`/`put` operations over a keyspace, the store's
//! [`BatchedFrontend`] coalesces them per shard, and the per-key
//! contract is checked at the end through the
//! [`StoreChecker`]'s history projection. The loop is *closed at round
//! granularity*: each client has at most one operation per round in
//! flight (the frontend window equals the client count, so every round
//! is one flush), the KV analogue of the register driver's
//! one-outstanding-op-per-client discipline.
//!
//! Key skew comes from the vendored
//! [`WeightedIndex`] sampler:
//! [`KeyDist::Zipf`] draws keys with probability `∝ 1/(rank+1)^s`, the
//! standard hot-key model.
//!
//! [`run_closed_loop`]: crate::driver::run_closed_loop

use std::fmt;

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg_store::checker::{StoreCheckReport, StoreChecker};
use fastreg_store::frontend::{BatchedFrontend, FrontendStats};
use fastreg_store::kv::{Key, KvOp};
use fastreg_store::shard::StoreError;
use fastreg_store::store::ShardedStore;

use crate::metrics::OpBreakdown;

/// How keys are drawn from the keyspace `0..n_keys`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-like skew: key of rank `k` drawn with probability
    /// `∝ 1/(k+1)^exponent` — a handful of hot keys carry most of the
    /// traffic (larger exponents skew harder; 0.0 degenerates to
    /// uniform).
    Zipf {
        /// The skew exponent `s`.
        exponent: f64,
    },
}

impl fmt::Display for KeyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyDist::Uniform => f.write_str("uniform"),
            KeyDist::Zipf { exponent } => write!(f, "zipf({exponent})"),
        }
    }
}

/// Parameters of a closed-loop KV run.
#[derive(Clone, Debug)]
pub struct KvWorkloadSpec {
    /// Total operations to issue (across all clients).
    pub n_ops: u64,
    /// Keyspace size (keys are `0..n_keys`).
    pub n_keys: u64,
    /// Simulated client population (also the frontend window: each round
    /// flushes one op per client).
    pub n_clients: u32,
    /// Fraction of operations that are puts.
    pub put_fraction: f64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Seed for op scheduling (independent of the store seed).
    pub seed: u64,
}

impl Default for KvWorkloadSpec {
    fn default() -> Self {
        KvWorkloadSpec {
            n_ops: 1_000,
            n_keys: 100,
            n_clients: 16,
            put_fraction: 0.2,
            dist: KeyDist::Uniform,
            seed: 0,
        }
    }
}

/// What a closed-loop KV run produced.
#[derive(Clone, Debug)]
pub struct KvReport {
    /// Frontend counters (ops, flushes, per-shard batches, waves).
    pub stats: FrontendStats,
    /// Per-key contract verdicts from the [`StoreChecker`] projection.
    pub check: StoreCheckReport,
    /// Latency breakdown over every operation of every key (ticks of
    /// each key's own world — valid per op, aggregated across keys).
    pub breakdown: OpBreakdown,
    /// Distinct keys actually touched.
    pub distinct_keys: u64,
    /// Puts issued.
    pub puts: u64,
    /// Gets issued.
    pub gets: u64,
    /// Total messages the store's registers sent.
    pub messages_sent: u64,
    /// The store's execution fingerprint
    /// ([`ShardedStore::fingerprint`]): thread-count independent, and an
    /// *in-process* identity — equal across event-identical runs of one
    /// process (and, up to a 64-bit hash collision, only across those),
    /// but built from structural trace digests, so it is compared, never
    /// persisted. The identity that may be written to a file is the
    /// rendered per-trace fingerprint.
    pub fingerprint: u64,
}

impl KvReport {
    /// Messages per completed operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.breakdown.completed == 0 {
            return 0.0;
        }
        self.messages_sent as f64 / self.breakdown.completed as f64
    }
}

/// Runs a closed-loop KV workload against `store` and checks every
/// key's contract. `threads` sizes both fan-outs: the store flushes its
/// shards on up to `threads` workers (each shard on a fixed one, see
/// [`ShardedStore::apply_batch`]), and the checker grades keys on up to
/// `threads` scoped threads. The report is the same at any `threads`.
///
/// Put values are globally unique (`1, 2, 3, …`), so every per-key
/// sub-history stays checkable by the SWMR machinery (distinct written
/// values). The run consumes the store and hands it back in the result,
/// so callers can keep layering workloads onto the same keyspace.
///
/// # Errors
///
/// Propagates the store's [`StoreError`] if a shard stalls.
pub fn run_kv_workload(
    store: ShardedStore,
    spec: &KvWorkloadSpec,
    threads: usize,
) -> Result<(ShardedStore, KvReport), StoreError> {
    assert!(spec.n_keys > 0, "keyspace must be non-empty");
    assert!(spec.n_clients > 0, "at least one client");
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5707_e0ad);
    let zipf = match spec.dist {
        KeyDist::Uniform => None,
        KeyDist::Zipf { exponent } => Some(
            WeightedIndex::new((0..spec.n_keys).map(|k| 1.0 / f64::powf(k as f64 + 1.0, exponent)))
                .expect("non-empty keyspace, finite positive weights"),
        ),
    };
    // Values start above anything a previous workload on this store can
    // have written (puts ≤ ops applied), keeping written values distinct
    // per key across *layered* runs — the SWMR checker's precondition.
    let mut next_value = store.ops_applied();
    let mut frontend = BatchedFrontend::new(store, threads, spec.n_clients as usize);
    let mut issued = 0u64;
    let mut puts = 0u64;
    let mut gets = 0u64;
    while issued < spec.n_ops {
        // One round: each client issues at most one op, then the window
        // flushes — the closed loop at batch granularity.
        for client in 0..spec.n_clients {
            if issued >= spec.n_ops {
                break;
            }
            let key: Key = match &zipf {
                None => rng.gen_range(0..spec.n_keys),
                Some(dist) => dist.sample(&mut rng) as Key,
            };
            let op = if rng.gen_bool(spec.put_fraction.clamp(0.0, 1.0)) {
                next_value += 1;
                puts += 1;
                KvOp::put(client, key, next_value)
            } else {
                gets += 1;
                KvOp::get(client, key)
            };
            frontend.submit(op)?;
            issued += 1;
        }
    }
    let (store, stats) = frontend.finish()?;
    let global = store.global_history();
    // Per-key checks run concurrently on the same worker-thread budget
    // that drove the shards (the report is thread-count independent).
    let check = StoreChecker::check_streaming(&store, &global, threads);
    let breakdown = OpBreakdown::of_ops(global.records().iter().map(|r| &r.op));
    let report = KvReport {
        stats,
        check,
        breakdown,
        distinct_keys: store.distinct_keys(),
        puts,
        gets,
        messages_sent: store.messages_sent(),
        fingerprint: store.fingerprint(),
    };
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;
    use fastreg_store::store::StoreBuilder;

    fn store(shards: u32, seed: u64) -> ShardedStore {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        StoreBuilder::new(cfg)
            .shards(shards)
            .seed(seed)
            .protocol(ProtocolId::FastCrash)
            .build()
            .unwrap()
    }

    #[test]
    fn closed_loop_completes_and_checks_every_key() {
        let spec = KvWorkloadSpec {
            n_ops: 400,
            n_keys: 40,
            n_clients: 8,
            put_fraction: 0.3,
            dist: KeyDist::Uniform,
            seed: 5,
        };
        let (store, report) = run_kv_workload(store(4, 1), &spec, 2).unwrap();
        assert_eq!(report.stats.ops, 400);
        assert_eq!(report.puts + report.gets, 400);
        assert_eq!(report.breakdown.completed, 400, "every op settled");
        assert_eq!(report.breakdown.incomplete, 0);
        assert!(report.check.is_clean(), "fast-crash per-key contract");
        assert_eq!(report.check.per_key.len() as u64, report.distinct_keys);
        assert!(report.distinct_keys > 20, "uniform keys spread wide");
        assert!(report.messages_per_op() > 0.0);
        assert_eq!(store.ops_applied(), 400);
        // Rounds of 8 clients: 50 flushes.
        assert_eq!(report.stats.flushes, 50);
    }

    #[test]
    fn zipf_concentrates_traffic_on_hot_keys() {
        let base = KvWorkloadSpec {
            n_ops: 600,
            n_keys: 60,
            n_clients: 12,
            put_fraction: 0.2,
            seed: 9,
            dist: KeyDist::Uniform,
        };
        let uniform_spec = base.clone();
        let zipf_spec = KvWorkloadSpec {
            dist: KeyDist::Zipf { exponent: 1.3 },
            ..base
        };
        let (_, uniform) = run_kv_workload(store(8, 2), &uniform_spec, 2).unwrap();
        let (zstore, zipf) = run_kv_workload(store(8, 2), &zipf_spec, 2).unwrap();
        assert!(
            zipf.distinct_keys < uniform.distinct_keys,
            "skew touches fewer keys ({} vs {})",
            zipf.distinct_keys,
            uniform.distinct_keys
        );
        // The hottest key under zipf carries far more than the mean.
        let global = zstore.global_history();
        let hottest = global
            .keys()
            .into_iter()
            .map(|k| global.project(k).len())
            .max()
            .unwrap() as f64;
        let mean = global.len() as f64 / zipf.distinct_keys as f64;
        assert!(
            hottest > 4.0 * mean,
            "zipf(1.3) hot key: {hottest} ops vs mean {mean:.1}"
        );
        assert!(zipf.check.is_clean());
    }

    /// Every run-dependent field `report store --json` prints: the
    /// fingerprint; completed / incomplete, puts / gets, distinct keys,
    /// messages, flushes, waves, clean / violating / unexpected keys; and
    /// each shard's (index, protocol, keys, ops, messages).
    type Printed = (u64, [u64; 11], Vec<(u32, &'static str, usize, u64, u64)>);

    /// Runs `spec` on `store` at each thread count and returns what
    /// `report store --json` would print for each.
    fn printed_at(
        store: impl Fn() -> ShardedStore,
        spec: &KvWorkloadSpec,
        threads: &[usize],
    ) -> Vec<Printed> {
        let printed = |threads: usize| {
            let (store, r) = run_kv_workload(store(), spec, threads).unwrap();
            let counts = [
                r.breakdown.completed,
                r.breakdown.incomplete,
                r.puts,
                r.gets,
                r.distinct_keys,
                r.messages_sent,
                r.stats.flushes,
                r.stats.waves,
                r.check.clean_count() as u64,
                r.check.violations().count() as u64,
                r.check.unexpected().count() as u64,
            ];
            let shards = store
                .shards()
                .iter()
                .map(|s| {
                    let name = s.protocol().name();
                    (
                        s.index(),
                        name,
                        s.key_count(),
                        s.ops_applied(),
                        s.messages_sent(),
                    )
                })
                .collect();
            (r.fingerprint, counts, shards)
        };
        threads.iter().map(|&t| printed(t)).collect()
    }

    #[test]
    fn report_is_deterministic_across_thread_counts() {
        let spec = KvWorkloadSpec {
            n_ops: 300,
            n_keys: 30,
            n_clients: 10,
            put_fraction: 0.25,
            dist: KeyDist::Zipf { exponent: 1.1 },
            seed: 3,
        };
        let runs = printed_at(|| store(8, 4), &spec, &[1, 2, 4]);
        assert_eq!(runs[1], runs[0]);
        assert_eq!(runs[2], runs[0]);
    }

    #[test]
    fn report_store_defaults_are_thread_count_independent() {
        // `report store`'s defaults: 8 fast-crash shards of
        // crash_stop(5, 1, 2) at seed 0; 10 000 ops by 64 clients over
        // 1 200 uniform keys, 20 % puts.
        let spec = KvWorkloadSpec {
            n_ops: 10_000,
            n_keys: 1_200,
            n_clients: 64,
            put_fraction: 0.2,
            dist: KeyDist::Uniform,
            seed: 0,
        };
        let runs = printed_at(|| store(8, 0), &spec, &[1, 2, 4]);
        let (_, counts, _) = &runs[0];
        assert_eq!(counts[..2], [10_000, 0], "every op completed");
        assert_eq!(counts[10], 0, "no unexpected violation");
        assert_eq!(runs[1], runs[0], "--threads 2 against 1");
        assert_eq!(runs[2], runs[0], "--threads 4 against 1");
    }

    #[test]
    fn workloads_layer_onto_the_same_store() {
        let spec = KvWorkloadSpec {
            n_ops: 100,
            n_keys: 10,
            ..KvWorkloadSpec::default()
        };
        let (store, first) = run_kv_workload(store(2, 7), &spec, 1).unwrap();
        let (store, second) = run_kv_workload(store, &spec, 1).unwrap();
        assert_eq!(store.ops_applied(), 200);
        assert!(second.check.is_clean(), "contracts hold across layers");
        assert!(second.breakdown.completed >= first.breakdown.completed);
    }

    #[test]
    fn key_dist_renders() {
        assert_eq!(KeyDist::Uniform.to_string(), "uniform");
        assert_eq!(KeyDist::Zipf { exponent: 1.5 }.to_string(), "zipf(1.5)");
    }
}
