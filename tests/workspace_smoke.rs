//! Workspace smoke test: the facade `prelude` must keep re-exporting the
//! names the crate-level doc example uses. If a re-export breaks, this
//! fails fast with a clear message instead of a doctest error buried in a
//! larger run.

use fastreg_suite::prelude::*;

/// The `src/lib.rs` doc example, as a plain test: 5 servers tolerating 1
/// crash admit 2 fast readers, since `R < S/t − 2` gives `2 < 3`.
#[test]
fn prelude_round_trip_matches_lib_doc_example() {
    let config = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    assert!(config.fast_feasible());
}

/// One step past the bound must be infeasible: `R = 3` violates `3 < 3`.
#[test]
fn bound_is_tight_at_the_doc_example_config() {
    let config = ClusterConfig::crash_stop(5, 1, 3).expect("valid");
    assert!(!config.fast_feasible());
}

/// The prelude's protocol and checker re-exports stay usable end to end:
/// run a tiny cluster through a write/read and check the history.
#[test]
fn prelude_protocol_and_checker_round_trip() {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let mut cluster: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(42).build_typed().unwrap();
    cluster.write(7);
    cluster.settle();
    assert_eq!(cluster.read(0), RegValue::Val(7));
    let history = cluster.snapshot();
    assert!(check_swmr_atomicity(&history).is_ok());
    assert_eq!(check_linearizable(&history), Ok(true));
}

/// The registry surface — `ProtocolId`, `ClusterBuilder`,
/// `DynCluster`, `RegisterOps`, `BuildError` — is re-exported by the
/// prelude and usable end to end: build by id, drive through the trait.
#[test]
fn prelude_registry_and_builder_round_trip() {
    assert_eq!(ProtocolId::ALL.len(), 8);
    let id: ProtocolId = "fast-crash".parse().expect("registered");
    assert_eq!(id.contract(), Contract::Atomic);

    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let mut cluster: DynCluster = ClusterBuilder::new(cfg)
        .seed(42)
        .build(id)
        .expect("feasible");
    let ops: &mut dyn RegisterOps = &mut cluster;
    ops.write_sync(7);
    assert_eq!(ops.read(0), RegValue::Val(7));
    ops.check_atomic().expect("atomic");

    // Infeasible builds surface the typed error through the prelude too.
    let beyond = ClusterConfig::crash_stop(5, 1, 3).expect("valid");
    let err: BuildError = ClusterBuilder::new(beyond).build(id).unwrap_err();
    assert!(err.to_string().contains("fast-crash"));

    // The typed terminal is reachable through the prelude as well.
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).build_typed().expect("simnet");
    c.write_sync(1);
    assert_eq!(c.read(0), RegValue::Val(1));
}

/// The store surface — `StoreBuilder`, `BatchedFrontend`, `KvOp`,
/// `StoreChecker` — is re-exported by the prelude and usable end to end:
/// shard a keyspace, push a small workload through the frontend, and
/// check every key's contract.
#[test]
fn prelude_store_round_trip() {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let store = StoreBuilder::new(cfg)
        .shards(3)
        .seed(2)
        .backends(vec![ProtocolId::FastCrash, ProtocolId::Abd])
        .build()
        .expect("feasible backends");
    assert_eq!(store.router().shard_of(7), Router::new(3).shard_of(7));
    let mut frontend = BatchedFrontend::new(store, 2, 8);
    for i in 0..24u64 {
        let op = if i % 3 == 0 {
            KvOp::put(0, i % 6, i + 1)
        } else {
            KvOp::get((i % 2) as u32, i % 6)
        };
        frontend.submit(op).expect("no stalls");
    }
    let (store, stats) = frontend.finish().expect("no stalls");
    assert_eq!(stats.ops, 24);
    let report = StoreChecker::check(&store);
    assert!(report.is_clean(), "every key upholds its contract");
}
