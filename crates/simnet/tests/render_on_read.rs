//! Render on read: recording a run never formats a message; reading the
//! trace formats each stored payload exactly once per read, without
//! allocating per entry, and renders byte-for-byte what the eagerly
//! formatted trace used to.
//!
//! A digest-only trace (capacity 0) records without allocating or
//! formatting at all.
//!
//! The message type's `Debug` impl bumps a per-thread counter, and the
//! test binary's allocator counts per-thread allocations, so both claims
//! are observed directly rather than inferred from timings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;

use fastreg_simnet::delay::DelayModel;
use fastreg_simnet::prelude::*;

thread_local! {
    static DEBUG_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one being implemented; the counter is a `const`
// thread-local `Cell<u64>` (no lazy init, no destructor), so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` comes from our caller under `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Clone, Hash)]
enum Msg {
    Ping(u8),
    Ack { seen: Vec<u32> },
}

/// What `#[derive(Debug)]` would print, plus the call counter.
impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        DEBUG_CALLS.with(|n| n.set(n.get() + 1));
        match self {
            Msg::Ping(k) => f.debug_tuple("Ping").field(k).finish(),
            Msg::Ack { seen } => f.debug_struct("Ack").field("seen", seen).finish(),
        }
    }
}

/// Acks every ping and, while the hop budget lasts, pings everyone.
struct Node {
    n: u32,
}

impl Automaton for Node {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        if let Msg::Ping(k) = msg {
            if from != ProcessId::EXTERNAL {
                out.send(
                    from,
                    Msg::Ack {
                        seen: vec![from.index(), k as u32],
                    },
                );
            }
            if k > 0 {
                let me = out.this();
                out.broadcast(
                    (0..self.n).map(ProcessId::new).filter(|&q| q != me),
                    Msg::Ping(k - 1),
                );
            }
        }
    }
}

/// One small run through every recording site: injections, sends, timed
/// and scripted deliveries, a scripted drop, a plain and an armed
/// mid-broadcast crash, drops to crashed receivers.
fn mixed_world(trace_capacity: usize) -> World<Msg> {
    let mut w = World::new(SimConfig {
        seed: 7,
        delay: DelayModel::Uniform { lo: 1, hi: 9 },
        trace_capacity,
        ..SimConfig::default()
    });
    let p: Vec<ProcessId> = (0..4)
        .map(|_| w.add_actor(Box::new(Node { n: 4 })))
        .collect();
    w.inject(p[0], Msg::Ping(1));
    w.drop_matching(|e| e.to == p[3]);
    w.crash(p[2]);
    assert!(w.step_timed());
    w.arm_crash_after_sends(p[1], 2);
    w.inject(p[1], Msg::Ping(1));
    let held = w.send_from_external(p[3], p[0], Msg::Ping(0));
    w.deliver(held).unwrap();
    w.inject(p[3], Msg::Ping(2));
    w.run_until_quiescent().unwrap();
    w
}

fn debug_calls() -> u64 {
    DEBUG_CALLS.with(Cell::get)
}

/// Stored entries that carry a payload.
fn stored_payloads(w: &World<Msg>) -> u64 {
    w.trace()
        .entries()
        .iter()
        .filter(|e| matches!(e, TraceEntry::Send { .. } | TraceEntry::Inject { .. }))
        .count() as u64
}

const DEFAULT_CAPACITY: usize = 100_000;

#[test]
fn recording_formats_nothing_and_each_read_formats_each_stored_payload_once() {
    for (capacity, stored) in [(DEFAULT_CAPACITY, 20), (2, 2), (0, 0)] {
        let w = mixed_world(capacity);
        assert_eq!(debug_calls(), 0, "a message was formatted while recording");
        assert_eq!(w.stats().sent, 17);
        assert_eq!(stored_payloads(&w), stored);

        w.trace().render();
        assert_eq!(debug_calls(), stored, "render at capacity {capacity}");
        w.trace().fingerprint();
        assert_eq!(debug_calls(), 2 * stored, "fingerprint at {capacity}");
        DEBUG_CALLS.with(|n| n.set(0));
    }
}

/// Captured at the parent commit (eagerly formatted `String` payloads),
/// capacity 14: every entry kind, both drop reasons' ids, a suppressed
/// tail.
const GOLDEN_RENDER: &str = "\
[0] inject  -> p0: Ping(1)
[0] send    m0 p0 -> p1: Ping(0)
[0] send    m1 p0 -> p2: Ping(0)
[0] send    m2 p0 -> p3: Ping(0)
[0] drop    m2 (Scripted)
[0] crash   p2 (sent 0 of step)
[5] deliver m0 p0 -> p1
[5] send    m3 p1 -> p0: Ack { seen: [0, 0] }
[5] inject  -> p1: Ping(1)
[5] crash   p1 (sent 2 of step)
[5] send    m4 p1 -> p0: Ping(0)
[5] send    m5 p1 -> p2: Ping(0)
[5] send    m6 p3 -> p0: Ping(0)
[5] deliver m6 p3 -> p0
... and 25 suppressed entries
";

#[test]
fn render_and_fingerprint_match_the_eagerly_formatted_trace() {
    let w = mixed_world(14);
    assert_eq!(w.trace().render(), GOLDEN_RENDER);
    assert_eq!(w.trace().fingerprint(), 0x86eb_a751_8f70_d564);
    // The unbounded run (39 entries, `ReceiverCrashed` drops included)
    // and the empty one, by fingerprint.
    let full = mixed_world(DEFAULT_CAPACITY);
    assert!(full.trace().render().contains("(ReceiverCrashed)"));
    assert_eq!(full.trace().fingerprint(), 0xe358_a6de_2a12_a1cc);
    assert_eq!(mixed_world(0).trace().fingerprint(), 0x6c7e_c1f5_a963_1742);
}

#[test]
fn fingerprint_allocates_nothing() {
    let w = mixed_world(DEFAULT_CAPACITY);
    assert_eq!(w.trace().entries().len(), 39);
    let before = ALLOCS.with(Cell::get);
    let fp = w.trace().fingerprint();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(fp, 0xe358_a6de_2a12_a1cc);
    assert_eq!(allocs, 0, "fingerprint allocated {allocs} times");
}

#[test]
fn a_digest_only_world_records_without_allocating_or_formatting() {
    const SENDS: u64 = 10_000;
    let mut w = World::new(SimConfig {
        trace_capacity: 0,
        ..SimConfig::default()
    });
    let p: Vec<ProcessId> = (0..2)
        .map(|_| w.add_actor(Box::new(Node { n: 2 })))
        .collect();
    // `Node` ignores an `Ack`; an empty `seen` clones without allocating.
    let burst = |w: &mut World<Msg>| {
        for _ in 0..SENDS {
            w.send_from_external(p[0], p[1], Msg::Ack { seen: Vec::new() });
        }
        w.run_until_quiescent().unwrap();
    };
    // The first burst grows the in-transit set and the ready queue.
    burst(&mut w);
    let (allocs, digest) = (ALLOCS.with(Cell::get), w.trace().digest());
    burst(&mut w);
    assert_eq!(ALLOCS.with(Cell::get) - allocs, 0, "recording allocated");
    assert_eq!(debug_calls(), 0, "recording formatted a message");
    assert_eq!(w.stats().sent, 2 * SENDS);
    assert!(w.trace().entries().is_empty());
    assert_eq!(
        w.trace().suppressed(),
        4 * SENDS,
        "a send and a delivery each"
    );
    assert_ne!(w.trace().digest(), digest, "every event reaches the digest");
}

/// Nothing on the delivery path formats a message: no `format!` outside
/// the test modules of the world and the trace.
#[test]
fn nothing_on_the_delivery_path_calls_format() {
    for file in ["src/world/mod.rs", "src/trace.rs"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let code = src.split("#[cfg(test)]").next().unwrap_or_default();
        let hits: Vec<usize> = code
            .lines()
            .enumerate()
            .filter(|(_, line)| line.contains("format!"))
            .map(|(i, _)| i + 1)
            .collect();
        assert!(hits.is_empty(), "{file}: format! on lines {hits:?}");
    }
}
