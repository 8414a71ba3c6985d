//! Integration: the same protocol automata over the wall-clock threaded
//! runtime produce atomic histories, just like under simulation. One
//! worker per actor — the most concurrent shape the runtime has.

use fastreg_suite::fastreg::threads::RtConfig;
use fastreg_suite::prelude::*;

fn thread_per_actor<P: ProtocolFamily>(cfg: ClusterConfig) -> ThreadCluster<P> {
    let actors = (cfg.w + cfg.r + cfg.s) as usize;
    let cluster = ThreadCluster::spawn(cfg, 7, RtConfig::new(actors));
    assert_eq!(cluster.workers(), actors);
    cluster
}

fn run_over_threads<P: ProtocolFamily>(cfg: ClusterConfig) -> History {
    let mut c = thread_per_actor::<P>(cfg);
    for round in 1..=5u64 {
        c.write_sync(round * 10);
        for i in 0..cfg.r {
            c.read(i);
        }
    }
    c.snapshot()
}

#[test]
fn fast_crash_is_atomic_over_real_threads() {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let history = run_over_threads::<FastCrash>(cfg);
    assert_eq!(history.complete_ops().count(), 15);
    check_swmr_atomicity(&history).unwrap_or_else(|e| panic!("{e}\n{}", history.render()));
    // The final read of each round saw that round's write.
    let last = history.reads().last().unwrap();
    assert_eq!(last.returned, Some(RegValue::Val(50)));
}

#[test]
fn fast_byz_is_atomic_over_real_threads() {
    let cfg = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();
    let history = run_over_threads::<FastByz>(cfg);
    check_swmr_atomicity(&history).unwrap_or_else(|e| panic!("{e}\n{}", history.render()));
}

#[test]
fn abd_is_atomic_over_real_threads() {
    let cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
    let history = run_over_threads::<Abd>(cfg);
    check_swmr_atomicity(&history).unwrap_or_else(|e| panic!("{e}\n{}", history.render()));
}

#[test]
fn concurrent_injections_over_threads_stay_atomic() {
    // Fire reads while a write is in flight — real racy interleavings.
    let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
    let mut c = thread_per_actor::<FastCrash>(cfg);
    for round in 1..=10u64 {
        c.write(round);
        c.read_async(0);
        c.read_async(1);
        c.settle();
    }
    let h = c.snapshot();
    assert_eq!(h.complete_ops().count(), 30);
    check_swmr_atomicity(&h).unwrap_or_else(|e| panic!("{e}\n{}", h.render()));
}
