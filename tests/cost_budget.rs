//! Cost budgets that do not depend on the clock.
//!
//! For every registered protocol, a 1 000-op closed loop on a warmed-up
//! simnet deployment is charged three exact integers: heap allocations,
//! bytes allocated, and message deliveries. The run is deterministic at a
//! fixed seed, so [`COST_PINS`] fails on the first regression and a
//! performance change can state its effect ("fast-crash 16.5 → 0.04
//! allocations per op") before any timer is read.
//!
//! Two more columns hold memory to exact integers: the peak of live bytes
//! inside the measured window (above what was live when it opened), and
//! the bytes freed inside it — the churn a growing buffer leaves behind.
//! [`LARGE_ALLOCATION_PINS`] counts, per protocol, the window's
//! allocations of [`LARGE`] bytes or more, so no buffer of a long run
//! outgrows its first size.
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

use fastreg_suite::fastreg_atomicity::verdict::Verdict;
use fastreg_suite::fastreg_workload::driver::{run_closed_loop, WorkloadSpec};
use fastreg_suite::fastreg_workload::kv::{run_kv_workload, KeyDist, KvWorkloadSpec};
use fastreg_suite::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// An allocation of at least this many bytes (64 KiB) is large.
const LARGE: usize = 64 << 10;

/// The system allocator, counting this thread's allocations, their sizes,
/// the sizes it frees, the high-water of its live bytes and its large
/// allocations. `realloc` is the trait's default (allocate, copy, free),
/// so a growing `Vec` is charged its new size each time it grows, and
/// the old and new buffers are both live at that moment.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one being implemented; the counters are `const`
// thread-local `Cell<u64>`s (no lazy init, no destructor), so touching
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        PEAK.with(|n| n.set(n.get().max(live())));
        if layout.size() >= LARGE {
            LARGE_ALLOCS.with(|n| n.set(n.get() + 1));
        }
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

/// `(allocations, bytes allocated, deliveries, peak live bytes, bytes
/// freed)` of [`OPS`] operations on each protocol's sample configuration
/// — divide by 1 000 for the per-op figures. A budget may only go down; a
/// change that raises one says why.
///
/// What is left is per run, not per operation: 11–17 allocations
/// (history reserve, the checker's value array, sized once from the
/// write count, and the final snapshot) and 51–58 kB, most of it the
/// history's reserve for the run (1 512 operations of 32 B). That
/// reserve is also the peak: it is live beside the 512-op list it
/// replaces, and that list's 16 kB is most of the bytes freed. The
/// final snapshot shares the recorded operations, so it costs one
/// reference-counted handle, not a copy; its replay into the checker
/// adds only its heap of pending responses, and the latency breakdown
/// counts latencies per value, on the stack, instead of buffering every
/// latency. Max–min is the exception: each server builds a `Round` per
/// gather, and drops it once all `S` servers have reported.
#[rustfmt::skip] // one row per line: a table, not code
const COST_PINS: [(ProtocolId, u64, u64, u64, u64, u64); 8] = [
    (ProtocolId::FastCrash, 11, 51_648, 10_000, 48_344, 19_648),
    (ProtocolId::FastByz, 11, 54_872, 12_000, 48_344, 21_784),
    (ProtocolId::Abd, 12, 55_760, 15_260, 48_344, 22_352),
    (ProtocolId::MaxMin, 2_951, 405_248, 21_760, 48_344, 373_248),
    (ProtocolId::FastRegular, 12, 51_072, 10_000, 48_344, 19_072),
    (ProtocolId::SwsrFast, 11, 53_872, 10_000, 48_344, 21_232),
    (ProtocolId::MwmrAbd, 17, 57_672, 12_000, 48_344, 24_904),
    (ProtocolId::MwmrNaiveFast, 17, 57_544, 6_000, 48_344, 24_840),
];

/// This thread's `(allocations, bytes allocated)` so far.
fn tally() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Bytes this thread has allocated less those it has freed — negative
/// where it freed more than it allocated (another thread's blocks).
fn live() -> i64 {
    BYTES.with(Cell::get).wrapping_sub(FREED.with(Cell::get)) as i64
}

/// A measured window's memory: opened by [`Window::open`], read by
/// [`Window::close`].
struct Window {
    live: i64,
    freed: u64,
    large: u64,
}

/// What a closed [`Window`] saw.
struct WindowMemory {
    /// The most bytes live at once, above those live when it opened.
    peak: u64,
    /// Bytes freed inside it.
    churn: u64,
    /// Allocations of [`LARGE`] bytes or more.
    large: u64,
}

impl Window {
    fn open() -> Self {
        let live = live();
        PEAK.with(|n| n.set(live));
        Window {
            live,
            freed: FREED.with(Cell::get),
            large: LARGE_ALLOCS.with(Cell::get),
        }
    }

    fn close(self) -> WindowMemory {
        WindowMemory {
            peak: (PEAK.with(Cell::get) - self.live) as u64,
            churn: FREED.with(Cell::get) - self.freed,
            large: LARGE_ALLOCS.with(Cell::get) - self.large,
        }
    }
}

/// Warms a deployment of `id` up, then charges one [`OPS`]-op closed loop.
fn measure(id: ProtocolId) -> (u64, u64, u64, u64, u64) {
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
    let (before, window) = (tally(), Window::open());
    let report = run_closed_loop(&mut c, &spec);
    let (after, memory) = (tally(), window.close());
    let report = report.unwrap_or_else(|e| panic!("{id}: {e}"));
    assert_eq!(report.breakdown.completed, 512 + OPS, "{id}");
    (
        after.0 - before.0,
        after.1 - before.1,
        delivered(&c) - delivered_before,
        memory.peak,
        memory.churn,
    )
}

#[test]
fn per_op_costs_are_pinned_for_every_protocol() {
    let covered: Vec<_> = COST_PINS.iter().map(|p| p.0).collect();
    assert_eq!(covered, ProtocolId::ALL);
    let measured: Vec<_> = COST_PINS
        .iter()
        .map(|&(id, ..)| {
            let (allocs, bytes, deliveries, peak, churn) = measure(id);
            (id, allocs, bytes, deliveries, peak, churn)
        })
        .collect();
    assert_eq!(
        measured, COST_PINS,
        "(protocol, allocations, bytes, deliveries, peak live bytes, bytes freed) per {OPS} ops"
    );
}

/// fastbench's `store_zipf` backend assignment; the rows after it take
/// each backend alone.
const MIX: &[ProtocolId] = &[ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz];

/// `(backends, allocations, bytes allocated, worlds built, bytes retained
/// per key, peak live bytes, bytes freed)` of [`OPS`] KV operations of the `store_zipf` shape (8
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
const KV_COST_PINS: [KvCost; 4] = [
    (MIX, 6_132, 1_000_930, 8, 2_833, 718_522, 309_376),
    (&[ProtocolId::FastCrash], 6_771, 1_075_866, 8, 3_155, 796_402, 306_432),
    (&[ProtocolId::Abd], 4_803, 782_922, 8, 1_974, 510_626, 299_264),
    (&[ProtocolId::FastByz], 7_497, 1_261_466, 8, 3_831, 959_922, 328_512),
];

/// One row of [`KV_COST_PINS`].
type KvCost = (&'static [ProtocolId], u64, u64, u64, u64, u64, u64);

/// Charges one [`OPS`]-op KV run over `backends`; one more
/// `ShardedStore::fingerprint()` on the result must allocate nothing.
fn measure_kv(backends: &[ProtocolId]) -> (u64, u64, u64, u64, u64, u64) {
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
    let (before, held_before, window) = (tally(), live(), Window::open());
    let run = run_kv_workload(store, &spec, 1);
    let (after, memory) = (tally(), window.close());
    let (store, report) = run.unwrap_or_else(|e| panic!("{backends:?}: {e}"));
    assert_eq!(report.breakdown.completed, OPS, "{backends:?}");
    assert!(report.check.is_clean(), "{backends:?}");
    let fingerprint = store.fingerprint();
    assert_eq!(tally(), after, "{backends:?}: fingerprint() allocated");
    assert_eq!(fingerprint, report.fingerprint, "{backends:?}");
    let keys = report.distinct_keys;
    drop(report);
    let retained = (live() - held_before) as u64;
    let worlds = store.shards().iter().filter(|s| s.key_count() > 0).count();
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    let (peak, churn) = (memory.peak, memory.churn);
    (allocs, bytes, worlds as u64, retained / keys, peak, churn)
}

#[test]
fn per_op_costs_are_pinned_for_the_store() {
    let measured: Vec<_> = KV_COST_PINS
        .iter()
        .map(|&(backends, ..)| {
            let (allocs, bytes, worlds, retained, peak, churn) = measure_kv(backends);
            (backends, allocs, bytes, worlds, retained, peak, churn)
        })
        .collect();
    assert_eq!(
        measured, KV_COST_PINS,
        "(backends, allocations, bytes, worlds built, bytes retained per key, peak live bytes, \
         bytes freed) per {OPS} KV ops"
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

/// Operations in [`LARGE_ALLOCATION_PINS`]' runs: the fewest (to the
/// thousand) at which every single-writer protocol writes 8 192 values,
/// so that its checker's value array (8 bytes per write) passes
/// [`LARGE`]. Fast-regular writes least, 8 245 times.
const LONG_OPS: u64 = 45_000;

/// `(protocol, allocations of LARGE bytes or more, verdict)` of building
/// each protocol's sample configuration with the default simulator and
/// running a [`LONG_OPS`]-op closed loop on it. Each large buffer is
/// allocated once: the history's reserve for the run, the trace's
/// entries and its payloads (reserved for the default trace bound up
/// front) and, on a single writer, the checker's value array (sized from
/// the history's write count before the replay). The multi-writer rows
/// have no value array, and their histories outgrow the linearizability
/// search. A buffer that grew by doubling past [`LARGE`] would show as
/// more, and would leave its outgrown copies behind as free heap.
#[rustfmt::skip] // one row per line: a table, not code
const LARGE_ALLOCATION_PINS: [(ProtocolId, u64, Verdict); 8] = [
    (ProtocolId::FastCrash, 4, Verdict::Clean),
    (ProtocolId::FastByz, 4, Verdict::Clean),
    (ProtocolId::Abd, 4, Verdict::Clean),
    (ProtocolId::MaxMin, 4, Verdict::Clean),
    (ProtocolId::FastRegular, 4, Verdict::Clean),
    (ProtocolId::SwsrFast, 4, Verdict::Clean),
    (ProtocolId::MwmrAbd, 3, Verdict::Inconclusive),
    (ProtocolId::MwmrNaiveFast, 3, Verdict::Inconclusive),
];

#[test]
fn a_long_run_allocates_its_large_buffers_once() {
    let covered: Vec<_> = LARGE_ALLOCATION_PINS.iter().map(|p| p.0).collect();
    assert_eq!(covered, ProtocolId::ALL);
    let spec = WorkloadSpec {
        n_ops: LONG_OPS,
        write_fraction: 0.1,
        think_time: 1,
        seed: 0xC057,
    };
    let run = |id: ProtocolId| {
        let window = Window::open();
        let mut c = ClusterBuilder::new(id.sample_config())
            .seed(0xC057)
            .build(id)
            .expect("feasible");
        let report = run_closed_loop(&mut c, &spec).expect("the run completes");
        let memory = window.close();
        let writes = report.history.writes().count();
        assert!(
            id.sample_config().w > 1 || writes * std::mem::size_of::<u64>() >= LARGE,
            "{id}: {writes} writes keep the value array under {LARGE} bytes"
        );
        (id, memory.large, report.streaming_verdict)
    };
    // One thread per row: the tally is per thread, and the rows are the
    // slowest runs in this file.
    let measured: Vec<_> = std::thread::scope(|s| {
        let rows: Vec<_> = covered.iter().map(|&id| s.spawn(move || run(id))).collect();
        rows.into_iter().map(|row| row.join().unwrap()).collect()
    });
    assert_eq!(
        measured, LARGE_ALLOCATION_PINS,
        "(protocol, allocations of {LARGE} bytes or more, verdict) per {LONG_OPS} ops"
    );
}
