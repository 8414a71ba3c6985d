//! Cross-crate integration: the same operation sequences across every
//! SWMR protocol must agree on results wherever both protocols are in
//! their feasible regime.

use fastreg_suite::fastreg_simnet::id::ProcessId;
use fastreg_suite::prelude::*;

/// Drives the same deterministic op sequence and returns the read values.
fn drive<P: ProtocolFamily>(cfg: ClusterConfig, seed: u64) -> Vec<RegValue> {
    let mut c: Cluster<P> = ClusterBuilder::new(cfg).seed(seed).build_typed().unwrap();
    let mut reads = Vec::new();
    reads.push(c.read(0)); // before any write: ⊥
    c.write_sync(11);
    reads.push(c.read(0));
    reads.push(c.read(1 % cfg.r.max(1)));
    c.write_sync(22);
    c.write_sync(33);
    reads.push(c.read(0));
    c.check_atomic().expect("atomic history");
    reads
}

#[test]
fn all_swmr_protocols_agree_on_sequential_runs() {
    let expected = vec![
        RegValue::Bottom,
        RegValue::Val(11),
        RegValue::Val(11),
        RegValue::Val(33),
    ];
    let fast_cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let maj_cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
    let byz_cfg = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();

    assert_eq!(drive::<FastCrash>(fast_cfg, 1), expected);
    assert_eq!(drive::<Abd>(maj_cfg, 1), expected);
    assert_eq!(drive::<MaxMin>(maj_cfg, 1), expected);
    let byz_expected = vec![
        RegValue::Bottom,
        RegValue::Val(11),
        RegValue::Val(11),
        RegValue::Val(33),
    ];
    assert_eq!(drive::<FastByz>(byz_cfg, 1), byz_expected);
}

#[test]
fn regular_register_agrees_when_sequential() {
    // Without concurrency, regular = atomic.
    let cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
    let mut c: Cluster<FastRegular> = ClusterBuilder::new(cfg).seed(3).build_typed().unwrap();
    assert_eq!(c.read(0), RegValue::Bottom);
    c.write_sync(7);
    assert_eq!(c.read(1), RegValue::Val(7));
    c.check_regular().unwrap();
    c.check_atomic().unwrap(); // sequential histories are even atomic
}

#[test]
fn same_seed_same_history_across_protocol_instances() {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let run = || {
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(99).build_typed().unwrap();
        c.write(1);
        c.read_async(0);
        c.read_async(1);
        c.world.run_random_until_quiescent();
        c.snapshot().render()
    };
    assert_eq!(run(), run());
}

#[test]
fn mwmr_abd_handles_interleaved_writers() {
    let cfg = ClusterConfig::mwmr(5, 1, 2, 2).unwrap();
    for seed in 0..10 {
        let mut c: Cluster<MwmrAbd> = ClusterBuilder::new(cfg).seed(seed).build_typed().unwrap();
        c.write_by(0, 1);
        c.write_by(1, 2);
        c.read_async(0);
        c.read_async(1);
        c.world.run_random_until_quiescent();
        assert_eq!(c.check_linearizable(), Ok(true), "seed {seed}");
    }
}

#[test]
fn crashed_quorum_minus_one_still_serves() {
    // Crash exactly t servers in every protocol; everything still works.
    let fast_cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(fast_cfg).seed(2).build_typed().unwrap();
    c.world.crash(c.layout.server(2));
    c.write_sync(5);
    assert_eq!(c.read(0), RegValue::Val(5));

    let maj_cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
    let mut c: Cluster<Abd> = ClusterBuilder::new(maj_cfg).seed(2).build_typed().unwrap();
    c.world.crash(c.layout.server(0));
    c.world.crash(c.layout.server(1));
    c.write_sync(5);
    assert_eq!(c.read(1), RegValue::Val(5));
}

/// Every directed link between the two groups, both ways: blocking them
/// partitions the groups, healing them heals the partition.
fn links_between(group_a: &[ProcessId], group_b: &[ProcessId]) -> Vec<(ProcessId, ProcessId)> {
    group_a
        .iter()
        .flat_map(|&a| group_b.iter().flat_map(move |&b| [(a, b), (b, a)]))
        .collect()
}

#[test]
fn partitioned_minority_does_not_block_fast_register() {
    // Partition t = 1 server away from everyone; the register keeps
    // serving. Heal; the straggler catches up via in-transit messages.
    let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(11).build_typed().unwrap();
    let isolated = c.layout.server(4);
    let everyone: Vec<_> = c.world.actor_ids().filter(|&p| p != isolated).collect();
    let links = links_between(&[isolated], &everyone);
    for &(a, b) in &links {
        c.world.block_link(a, b);
    }

    c.write_sync(1);
    assert_eq!(c.read(0), RegValue::Val(1));
    c.write_sync(2);
    assert_eq!(c.read(1), RegValue::Val(2));

    for &(a, b) in &links {
        c.world.heal_link(a, b);
    }
    c.settle();
    // The healed server received the parked writes.
    let ts = c
        .world
        .with_actor::<fastreg_suite::fastreg::protocols::fast_crash::Server, _, _>(isolated, |s| {
            s.ts
        })
        .unwrap();
    assert_eq!(ts, Timestamp(2));
    c.check_atomic().unwrap();
}

#[test]
fn partition_of_more_than_t_servers_stalls_but_stays_safe() {
    // Isolate 2 > t servers: operations cannot complete (wait-freedom
    // needs S − t responsive servers), but nothing unsafe happens, and
    // healing lets the pending operations finish.
    let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(12).build_typed().unwrap();
    let cut: Vec<_> = vec![c.layout.server(3), c.layout.server(4)];
    let rest: Vec<_> = c.world.actor_ids().filter(|p| !cut.contains(p)).collect();
    let links = links_between(&cut, &rest);
    for &(a, b) in &links {
        c.world.block_link(a, b);
    }

    c.write(1);
    c.settle(); // drains what it can; the write stays pending
    let pending_writes = c.snapshot().writes().filter(|w| !w.is_complete()).count();
    assert_eq!(pending_writes, 1);

    for &(a, b) in &links {
        c.world.heal_link(a, b);
    }
    c.settle();
    assert!(c.snapshot().writes().all(|w| w.is_complete()));
    assert_eq!(c.read(0), RegValue::Val(1));
    c.check_atomic().unwrap();
}
