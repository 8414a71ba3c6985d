//! A shard's world against the design it replaced: one register
//! deployment per key, each in a world of its own.
//!
//! The reference builds one [`ClusterBuilder`] cluster per key, from the
//! key's seed, and drives it with the key's waves of every batch, one
//! settle per wave. A key's register in its shard's world must record
//! what its own cluster records: the same operations in the same order,
//! by the same `proc`, returning the same values with the same latency
//! in ticks, and so the same verdicts.

use std::collections::BTreeMap;

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, DynCluster, RegisterOps};
use fastreg::protocols::registry::{Contract, ProtocolId};
use fastreg_atomicity::history::{History, OpKind, Operation, RegValue};
use fastreg_atomicity::regularity::check_swmr_regularity;
use fastreg_atomicity::swmr::check_swmr_atomicity;
use fastreg_atomicity::verdict::Verdict;

use crate::checker::StoreChecker;
use crate::kv::{Key, KvOp, KvOpKind};
use crate::router::mix64;
use crate::shard::key_seed;
use crate::store::{ShardedStore, StoreBuilder};

const SEED: u64 = 0xE0_1246;
const SHARDS: u32 = 8;
const BACKENDS: [ProtocolId; 4] = [
    ProtocolId::FastCrash,
    ProtocolId::Abd,
    ProtocolId::FastByz,
    ProtocolId::FastRegular,
];
const KEYS: u64 = 300;
const CLIENTS: u32 = 16;

fn cfg() -> ClusterConfig {
    ClusterConfig::crash_stop(5, 1, 2).unwrap()
}

/// `n` ops over keys drawn Zipf(1.2) from `0..KEYS`, 20 % puts of
/// distinct values, op `i` by client `i % CLIENTS`.
fn zipf_ops(n: u64) -> Vec<KvOp> {
    let mut cdf = Vec::with_capacity(KEYS as usize);
    let mut total = 0.0;
    for k in 0..KEYS {
        total += 1.0 / f64::powf(k as f64 + 1.0, 1.2);
        cdf.push(total);
    }
    (0..n)
        .map(|i| {
            let draw = mix64(SEED ^ i);
            let u = (draw >> 11) as f64 / (1u64 << 53) as f64 * total;
            let key = cdf.partition_point(|&c| c <= u).min(KEYS as usize - 1) as Key;
            let client = (i % CLIENTS as u64) as u32;
            if mix64(draw).is_multiple_of(5) {
                KvOp::put(client, key, i + 1)
            } else {
                KvOp::get(client, key)
            }
        })
        .collect()
}

/// The ops of one batch, `batch`, split per key into the waves a shard
/// forms: an op whose process already has one in the key's current
/// wave opens the next.
fn key_waves(cfg: &ClusterConfig, batch: &[KvOp]) -> BTreeMap<Key, Vec<Vec<KvOp>>> {
    let mut per_key: BTreeMap<Key, Vec<Vec<KvOp>>> = BTreeMap::new();
    let mut busy: BTreeMap<Key, Vec<u32>> = BTreeMap::new();
    for op in batch {
        let proc = match op.kind {
            KvOpKind::Put { .. } => op.client % cfg.w,
            KvOpKind::Get => cfg.w + op.client % cfg.r,
        };
        let waves = per_key.entry(op.key).or_insert_with(|| vec![Vec::new()]);
        let busy = busy.entry(op.key).or_default();
        if busy.contains(&proc) {
            waves.push(Vec::new());
            busy.clear();
        }
        busy.push(proc);
        waves.last_mut().unwrap().push(*op);
    }
    per_key
}

/// The reference: every key's history from a cluster of its own, driven
/// batch by batch, one settle per wave; and the settles it ran.
fn reference(ops: &[KvOp], window: usize) -> (BTreeMap<Key, History>, u64) {
    let cfg = cfg();
    let router = crate::router::Router::new(SHARDS);
    let mut clusters: BTreeMap<Key, DynCluster> = BTreeMap::new();
    let mut settles = 0;
    for batch in ops.chunks(window) {
        for (key, waves) in key_waves(&cfg, batch) {
            let shard = router.shard_of(key);
            let cluster = clusters.entry(key).or_insert_with(|| {
                let protocol = BACKENDS[shard as usize % BACKENDS.len()];
                ClusterBuilder::new(cfg)
                    .seed(key_seed(SEED, shard, key))
                    .build(protocol)
                    .unwrap()
            });
            for wave in waves {
                for op in wave {
                    match op.kind {
                        KvOpKind::Put { value } => cluster.write_by(op.client % cfg.w, value),
                        KvOpKind::Get => cluster.read_async(op.client % cfg.r),
                    }
                }
                cluster.try_settle().unwrap();
                settles += 1;
            }
        }
    }
    let histories = (clusters.into_iter())
        .map(|(key, c)| (key, c.snapshot()))
        .collect();
    (histories, settles)
}

fn store() -> ShardedStore {
    StoreBuilder::new(cfg())
        .shards(SHARDS)
        .seed(SEED)
        .backends(BACKENDS.to_vec())
        .build()
        .unwrap()
}

/// What must agree per operation: order (the index), `proc`, kind,
/// returned value and latency — not the invocation tick, which counts
/// from the start of a different world.
fn shape(op: Operation) -> (u32, OpKind, Option<RegValue>, Option<u64>) {
    let latency = op.responded_at.map(|at| at - op.invoked_at);
    (op.proc, op.kind, op.returned, latency)
}

fn batch_oracle(contract: Contract, h: &History) -> Verdict {
    match contract {
        Contract::Atomic => Verdict::from_atomicity(&check_swmr_atomicity(h)),
        Contract::Regular => Verdict::from_regularity(&check_swmr_regularity(h)),
        Contract::Unsound => unreachable!("every backend here is sound"),
    }
}

#[test]
fn every_key_records_what_its_own_cluster_records() {
    let (ops, window) = (zipf_ops(1_500), 32);
    let (reference, settles) = reference(&ops, window);
    let hot = reference.values().map(History::len).max().unwrap();
    assert!(
        reference.len() > 100 && hot > 100,
        "a hot key and a long tail"
    );
    let split = ops.chunks(window).any(|batch| {
        let waves = key_waves(&cfg(), batch);
        waves.values().any(|key| key.len() > 1)
    });
    assert!(split, "some key's ops split into waves");
    for threads in [1, 2, 4] {
        let mut store = store();
        store.claim_cores(4);
        let mut waves = 0;
        for batch in ops.chunks(window) {
            waves += store.apply_batch(batch, threads).unwrap().waves;
        }
        assert!(waves < settles, "{waves} settles, against {settles}");
        let global = store.global_history();
        let keys: Vec<Key> = global.histories().map(|(key, _)| key).collect();
        assert_eq!(keys, reference.keys().copied().collect::<Vec<_>>());
        for ((key, got), want) in global.histories().zip(reference.values()) {
            let got: Vec<_> = got.ops().map(shape).collect();
            let want: Vec<_> = want.ops().map(shape).collect();
            assert_eq!(got, want, "key {key}, threads = {threads}");
        }
        let report = StoreChecker::check_streaming(&store, &global, threads);
        assert_eq!(report.per_key.len(), reference.len());
        for (kv, want) in report.per_key.iter().zip(reference.values()) {
            assert_eq!(
                kv.verdict,
                batch_oracle(kv.contract, want),
                "key {}, threads = {threads}",
                kv.key
            );
            assert!(kv.verdict.is_clean(), "key {}", kv.key);
        }
        let contracts: Vec<Contract> = report.per_key.iter().map(|kv| kv.contract).collect();
        assert!(contracts.contains(&Contract::Regular) && contracts.contains(&Contract::Atomic));
    }
}
