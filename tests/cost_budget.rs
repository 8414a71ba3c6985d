//! Cost budgets that do not depend on the clock.
//!
//! For every registered protocol, a 1 000-op closed loop on a warmed-up
//! simnet deployment is charged three exact integers: heap allocations,
//! bytes allocated, and message deliveries. The run is deterministic at a
//! fixed seed, so [`COST_PINS`] fails on the first regression and a
//! performance change can state its effect ("fast-crash 16.5 → 0.04
//! allocations per op") before any timer is read.
//!
//! The counts cover everything `run_closed_loop` does on this thread:
//! automata, simulator, history, online checker and the driver itself,
//! including the per-run constant (checker set-up, final snapshot, latency
//! breakdown). The allocator is global only in this test binary; its tally
//! is thread-local, so concurrently running tests do not see each other.
//!
//! [`KV_COST_PINS`] charges the sharded store the same way: 1 000 KV
//! operations of fastbench's `store_zipf` shape on one thread, per
//! backend mix, plus the bytes the store still holds per key afterwards,
//! and holds `ShardedStore::fingerprint()` to zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastreg_suite::fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_suite::fastreg_workload::kv::{run_kv_workload, KeyDist, KvWorkloadSpec};
use fastreg_suite::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations, their sizes
/// and the sizes it frees. `realloc` is the trait's default (allocate,
/// copy, free), so a growing `Vec` is charged its new size each time it
/// grows.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one being implemented; the counters are `const`
// thread-local `Cell<u64>`s (no lazy init, no destructor), so touching
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: `layout` comes from our caller under `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: `ptr` was returned by `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Operations in the measured closed loop; the pins are totals over it.
const OPS: u64 = 1_000;

/// Small enough that the warm-up below fills it for every protocol: from
/// then on recording an entry is a counter bump, as in a long run.
const TRACE_CAPACITY: usize = 2_048;

/// `(allocations, bytes allocated, deliveries)` of [`OPS`] operations on
/// each protocol's sample configuration — divide by 1 000 for the per-op
/// figures. A budget may only go down; a change that raises one says why.
///
/// What is left is per run, not per operation: ≈ 40 allocations (history
/// reserve, checker maps, the final snapshot and latency breakdown) and
/// ≈ 160 kB, most of it the history's reserve for the run (1 512
/// operations of 72 B). The final snapshot shares the recorded
/// operations, so it costs one reference-counted handle, not a copy;
/// its replay into the checker adds only its heap of pending responses. Max–min is the
/// exception: each server builds a `Round` per gather, and drops it once
/// all `S` servers have reported.
#[rustfmt::skip] // one row per line: a table, not code
const COST_PINS: [(ProtocolId, u64, u64, u64); 8] = [
    (ProtocolId::FastCrash, 36, 167_996, 10_000),
    (ProtocolId::FastByz, 37, 187_460, 12_000),
    (ProtocolId::Abd, 38, 188_236, 15_260),
    (ProtocolId::MaxMin, 2_976, 520_796, 21_760),
    (ProtocolId::FastRegular, 35, 155_516, 10_000),
    (ProtocolId::SwsrFast, 36, 169_140, 10_000),
    (ProtocolId::MwmrAbd, 35, 159_048, 12_000),
    (ProtocolId::MwmrNaiveFast, 35, 158_920, 6_000),
];

/// This thread's `(allocations, bytes allocated)` so far.
fn tally() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Bytes this thread has allocated and not freed.
fn live() -> u64 {
    BYTES.with(Cell::get) - FREED.with(Cell::get)
}

/// Warms a deployment of `id` up, then charges one [`OPS`]-op closed loop.
fn measure(id: ProtocolId) -> (u64, u64, u64) {
    let sim = SimConfig::default().with_trace_capacity(TRACE_CAPACITY);
    let mut c = ClusterBuilder::new(id.sample_config())
        .sim(sim)
        .seed(0xC057)
        .build(id)
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    // Reads only, so the measured loop's writes (values 1, 2, …) stay
    // distinct: fills the trace and grows every reused buffer to size.
    let warm_up = WorkloadSpec {
        n_ops: 512,
        write_fraction: 0.0,
        seed: 0xC057,
        ..WorkloadSpec::default()
    };
    run_closed_loop(&mut c, &warm_up).unwrap_or_else(|e| panic!("{id} warm-up: {e}"));
    let delivered = |c: &DynCluster| c.sim_control_ref().expect("simnet").net_stats().delivered;
    assert!(
        delivered(&c) >= TRACE_CAPACITY as u64,
        "{id}: the warm-up did not fill the trace"
    );

    let spec = WorkloadSpec {
        n_ops: OPS,
        seed: 0xC057,
        ..WorkloadSpec::default()
    };
    let delivered_before = delivered(&c);
    let before = tally();
    let report = run_closed_loop(&mut c, &spec);
    let after = tally();
    let report = report.unwrap_or_else(|e| panic!("{id}: {e}"));
    assert_eq!(report.breakdown.completed, 512 + OPS, "{id}");
    (
        after.0 - before.0,
        after.1 - before.1,
        delivered(&c) - delivered_before,
    )
}

#[test]
fn per_op_costs_are_pinned_for_every_protocol() {
    let covered: Vec<_> = COST_PINS.iter().map(|p| p.0).collect();
    assert_eq!(covered, ProtocolId::ALL);
    let measured: Vec<_> = COST_PINS
        .iter()
        .map(|&(id, ..)| {
            let (allocs, bytes, deliveries) = measure(id);
            (id, allocs, bytes, deliveries)
        })
        .collect();
    assert_eq!(
        measured, COST_PINS,
        "(protocol, allocations, bytes, deliveries) per {OPS} ops"
    );
}

/// fastbench's `store_zipf` backend assignment; the rows after it take
/// each backend alone.
const MIX: &[ProtocolId] = &[ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz];

/// `(backends, allocations, bytes allocated, worlds built, bytes retained
/// per key)` of [`OPS`] KV operations of the `store_zipf` shape (8
/// shards, 1 500 keys, Zipf 1.2, 64 clients, 10 % puts; 242 keys served)
/// on a fresh store with `threads = 1`, so this thread's tally sees every
/// shard: routing, world and register construction, waves, the history
/// harvest, per-key checks and the report's fingerprint
/// (`threads = 1` is also `w = 1`: the store's crew spawns no helper, and
/// flushes every shard on this thread). Most of a row is building each
/// key's register, a block of actors in its shard's world; the worlds'
/// traces are digest-only and store nothing. The harvest shares each
/// key's recorded operations rather than copying them (one
/// reference-counted handle per key), and the checks and the latency
/// breakdown read them in place. A shard builds its one world at its first operation,
/// so worlds built count the shards that served a key. Bytes retained
/// are what the store still holds once the report is dropped — every
/// key's automata, history and place in its world — divided by the keys
/// served. Same ratchet as [`COST_PINS`].
#[rustfmt::skip] // one row per line: a table, not code
const KV_COST_PINS: [(&[ProtocolId], u64, u64, u64, u64); 4] = [
    (MIX, 6_152, 1_127_310, 8, 3_126),
    (&[ProtocolId::FastCrash], 6_791, 1_202_246, 8, 3_448),
    (&[ProtocolId::Abd], 4_823, 909_302, 8, 2_267),
    (&[ProtocolId::FastByz], 7_517, 1_387_846, 8, 4_124),
];

/// Charges one [`OPS`]-op KV run over `backends`; one more
/// `ShardedStore::fingerprint()` on the result must allocate nothing.
fn measure_kv(backends: &[ProtocolId]) -> (u64, u64, u64, u64) {
    let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("valid");
    let store = StoreBuilder::new(cfg)
        .shards(8)
        .seed(0xC057)
        .backends(backends.to_vec())
        .build()
        .unwrap_or_else(|e| panic!("{backends:?}: {e}"));
    let spec = KvWorkloadSpec {
        n_ops: OPS,
        n_keys: 1_500,
        n_clients: 64,
        put_fraction: 0.1,
        dist: KeyDist::Zipf { exponent: 1.2 },
        seed: 0xC057,
    };
    let (before, held_before) = (tally(), live());
    let run = run_kv_workload(store, &spec, 1);
    let after = tally();
    let (store, report) = run.unwrap_or_else(|e| panic!("{backends:?}: {e}"));
    assert_eq!(report.breakdown.completed, OPS, "{backends:?}");
    assert!(report.check.is_clean(), "{backends:?}");
    let fingerprint = store.fingerprint();
    assert_eq!(tally(), after, "{backends:?}: fingerprint() allocated");
    assert_eq!(fingerprint, report.fingerprint, "{backends:?}");
    let keys = report.distinct_keys;
    drop(report);
    let retained = live() - held_before;
    let worlds = store.shards().iter().filter(|s| s.key_count() > 0).count();
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    (allocs, bytes, worlds as u64, retained / keys)
}

#[test]
fn per_op_costs_are_pinned_for_the_store() {
    let measured: Vec<_> = KV_COST_PINS
        .iter()
        .map(|&(backends, ..)| {
            let (allocs, bytes, worlds, retained) = measure_kv(backends);
            (backends, allocs, bytes, worlds, retained)
        })
        .collect();
    assert_eq!(
        measured, KV_COST_PINS,
        "(backends, allocations, bytes, worlds built, bytes retained per key) per {OPS} KV ops"
    );
}

/// A read harvests its value in place: after 1 000 writes it allocates
/// exactly what it does after 10. A history snapshot per read would be
/// charged for every recorded operation.
#[test]
fn a_read_costs_the_same_however_long_the_history() {
    let sim = SimConfig::default().with_trace_capacity(64);
    let id = ProtocolId::FastCrash;
    let mut c = ClusterBuilder::new(id.sample_config())
        .sim(sim)
        .seed(0xC057)
        .build(id)
        .expect("feasible");
    c.reserve_history(2_048);
    let mut written = 0;
    let mut read_after = |writes: u64| {
        while written < writes {
            written += 1;
            c.write_sync(written);
        }
        // The first read grows the reader's buffers; the second is charged.
        assert_eq!(c.read(0), RegValue::Val(writes));
        let before = tally();
        assert_eq!(c.read(0), RegValue::Val(writes));
        let after = tally();
        (after.0 - before.0, after.1 - before.1)
    };
    let short = read_after(10);
    assert_eq!(read_after(1_000), short, "(allocations, bytes) of one read");
}
