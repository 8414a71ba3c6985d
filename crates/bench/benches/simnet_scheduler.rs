//! The simnet scheduler hot path: per-delivery cost as a function of the
//! in-transit pool size.
//!
//! Each benchmark keeps a constant pool of `n` in-transit envelopes
//! (every delivery triggers exactly one reply, so the pool never
//! drains) and measures one timed step. The `event_queue` group pops
//! the `(ready_at, MsgId)` heap — per-step cost should grow
//! sublinearly (O(log n)) across the 10²–10⁵ sweep. The
//! `linear_scan_reference` group drives the same worlds through the
//! pre-index full-`mset` scan kept for the equivalence property suite,
//! making the asymptotic gap directly visible in one bench run.
//!
//! Those rows carry `u8` payloads, whose `Clone` and `Debug` are free —
//! a per-message cost that depends on the payload (formatting it,
//! cloning it into the trace) is invisible to them. The
//! `protocol_payload` group runs the same echo step with a
//! `fast_crash::Msg::ReadAck` carrying a 3-element `seen` set, with the
//! trace recording, full, and off.

use std::marker::PhantomData;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastreg::protocols::fast_crash::Msg;
use fastreg::types::{ClientId, TaggedValue, Timestamp};
use fastreg_simnet::delay::DelayModel;
use fastreg_simnet::prelude::*;
use fastreg_simnet::runner::SimConfig;

/// Replies to every message, keeping the in-transit pool at a constant
/// size: one delivery in, one send out.
struct Echo<M>(PhantomData<fn() -> M>);

impl<M: Clone + std::fmt::Debug + Send + 'static> Automaton for Echo<M> {
    type Msg = M;

    fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>) {
        if from != ProcessId::EXTERNAL {
            out.send(from, msg);
        }
    }
}

const POOL_SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// A world with `pool` messages in transit between two echo actors.
fn world_with_pool(pool: usize) -> World<u8> {
    let mut w = World::new(SimConfig {
        seed: 42,
        delay: DelayModel::Uniform { lo: 1, hi: 1_000 },
        // The trace is bounded storage, but skip it entirely here: the
        // benchmark measures the scheduler, not trace recording.
        trace_capacity: 0,
        ..SimConfig::default()
    });
    let a = w.add_actor(Box::new(Echo(PhantomData)));
    let b = w.add_actor(Box::new(Echo(PhantomData)));
    for i in 0..pool {
        w.send_from_external(a, b, (i % 251) as u8);
    }
    w
}

/// One timed step per iteration against the indexed event queue.
fn event_queue_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet_scheduler/event_queue");
    for pool in POOL_SIZES {
        g.bench_function(BenchmarkId::new("step_timed", pool), |bench| {
            let mut w = world_with_pool(pool);
            bench.iter(|| {
                assert!(w.step_timed(), "echo pool never drains");
            });
        });
    }
    g.finish();
}

/// The same worlds through the pre-index linear scan, for contrast.
/// The largest pool is omitted: at 10⁵ envelopes a single scan-step is
/// ~10⁴× the indexed one, which makes even the smoke run crawl.
fn linear_scan_reference_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet_scheduler/linear_scan_reference");
    for pool in &POOL_SIZES[..3] {
        g.bench_function(BenchmarkId::new("step_timed", pool), |bench| {
            let mut w = world_with_pool(*pool);
            bench.iter(|| {
                assert!(w.step_timed_reference(), "echo pool never drains");
            });
        });
    }
    g.finish();
}

/// One timed echo step with a protocol-shaped payload over a pool of 10
/// (one fast read's worth of messages), per trace regime:
///
/// * `recording` — a capacity the run never reaches, so every send is
///   stored (what each of the store's short-lived worlds pays);
/// * `default_trace` — `SimConfig::default()`, which fills during the
///   warm-up exactly as it does ≈ 4 800 ops into a long closed loop, so
///   the timed steps only count;
/// * `trace_capacity_0` — nothing is ever stored.
fn protocol_payload_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet_scheduler/protocol_payload");
    let regimes = [
        ("recording", 1 << 21),
        ("default_trace", SimConfig::default().trace_capacity),
        ("trace_capacity_0", 0),
    ];
    for (regime, trace_capacity) in regimes {
        g.bench_function(BenchmarkId::new("echo_step", regime), |bench| {
            let mut w: World<Msg> = World::new(SimConfig {
                seed: 42,
                trace_capacity,
                ..SimConfig::default()
            });
            let a = w.add_actor(Box::new(Echo(PhantomData)));
            let b = w.add_actor(Box::new(Echo(PhantomData)));
            for i in 0..10 {
                let ack = Msg::ReadAck {
                    ts: Timestamp(i),
                    tags: TaggedValue::INITIAL,
                    seen: (0..3).map(ClientId).collect(),
                    r_counter: i,
                };
                w.send_from_external(a, b, ack);
            }
            bench.iter(|| {
                assert!(w.step_timed(), "echo pool never drains");
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    event_queue_steps,
    linear_scan_reference_steps,
    protocol_payload_steps
);
criterion_main!(benches);
