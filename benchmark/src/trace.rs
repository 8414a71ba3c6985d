//! Spans recorded from outside the program: a delegating `RegisterOps`
//! wrapper that times every call the closed-loop driver makes, an
//! in-memory aggregate per span name, and a sampled Chrome trace.
//!
//! Span tree: `rep` -> `workload.run` -> one span per deployment call.
//! Every call is aggregated (count / total ns / log2 histogram); every
//! 1024th is also kept as a full span. The time between two calls is the
//! driver's own: it accumulates as the self time of `workload.run`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use fastreg::config::ClusterConfig;
use fastreg::harness::RegisterOps;
use fastreg::layout::Layout;
use fastreg::types::{RegValue, Value};
use fastreg_atomicity::history::{History, HistoryEvent};
use fastreg_atomicity::linearizability::LinCheckError;
use fastreg_atomicity::regularity::RegularityViolation;
use fastreg_atomicity::swmr::AtomicityViolation;
use fastreg_obs::{chrome_trace, Histogram, Recorder};
use fastreg_simnet::world::QuiescenceError;

/// The benchmark's one wall-clock read.
#[inline]
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // fastreg-lint: allow(wall-clock): the benchmark measures wall time; its only clock read
    Instant::now()
}

/// Nanoseconds from `from` to `to`.
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// One call in every `SAMPLE_EVERY` is kept as a full span.
pub const SAMPLE_EVERY: u64 = 1024;

/// Span ids of the two fixed ancestors (`parent` argument of a span).
const REP_ID: u64 = 1;
const RUN_ID: u64 = 2;

#[derive(Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub hist: Histogram,
}

/// In-memory span store for one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    aggs: BTreeMap<&'static str, Agg>,
    sampled: Recorder,
    calls: u64,
    /// Exit time of the latest call (or the run's start).
    last_exit: Instant,
    /// Time between calls: the driver's self time so far.
    gap_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let origin = now();
        Tracer {
            origin,
            aggs: BTreeMap::new(),
            sampled: Recorder::new(0, 0),
            calls: 0,
            last_exit: origin,
            gap_ns: 0,
        }
    }

    /// Marks the start of `workload.run`: gaps count from here.
    pub fn start_run(&mut self) {
        self.last_exit = now();
        self.gap_ns = 0;
    }

    /// Closes `workload.run` and its parent `rep` (which began at
    /// `rep_start`) as full spans; returns the run's wall ns.
    pub fn end_run(&mut self, run_start: Instant, rep_start: Instant) -> u64 {
        let end = now();
        self.gap_ns += ns_between(self.last_exit, end);
        let run_ns = ns_between(run_start, end);
        let at = |t| ns_between(self.origin, t);
        self.sampled.complete(
            at(rep_start),
            ns_between(rep_start, end),
            "rep",
            &[("id", REP_ID)],
        );
        self.sampled.complete(
            at(run_start),
            run_ns,
            "workload.run",
            &[("id", RUN_ID), ("parent", REP_ID)],
        );
        run_ns
    }

    /// Times `f` as one `name` span, child of `workload.run`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = now();
        let out = f();
        let end = now();
        self.gap_ns += ns_between(self.last_exit, start);
        self.last_exit = end;
        let dur = ns_between(start, end);
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.hist.observe(dur);
        self.calls += 1;
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.complete(
                ns_between(self.origin, start),
                dur,
                name,
                &[("parent", RUN_ID)],
            );
        }
        out
    }

    pub fn count(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.count)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.total_ns)
    }

    /// Timed calls so far (each cost one pair of clock reads).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Sum over every call span.
    pub fn children_ns(&self) -> u64 {
        self.aggs.values().map(|a| a.total_ns).sum()
    }

    /// Self time of `workload.run`: wall time between calls.
    pub fn self_ns(&self) -> u64 {
        self.gap_ns
    }

    /// Per-name `count total_ns p50<= p99<=` lines for the human report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, a) in &self.aggs {
            out.push_str(&format!(
                "  span {name:<24} n={:<9} total={:>12} ns  mean={:>8.1} ns  p50<={} p99<={}\n",
                a.count,
                a.total_ns,
                a.total_ns as f64 / a.count.max(1) as f64,
                a.hist.quantile_upper_bound(500),
                a.hist.quantile_upper_bound(990),
            ));
        }
        out
    }

    /// The sampled spans as Chrome `trace_event` JSON. Timestamps are
    /// nanoseconds (the viewer labels them microseconds).
    pub fn chrome_json(self) -> String {
        chrome_trace(&fastreg_obs::merge(vec![self.sampled.into_events()]))
    }
}

/// Delegating wrapper that times every call made through it. Trivial
/// getters (`cfg`, `layout`, `now_ticks`, `client_busy`, counters) are
/// passed straight through: a clock pair costs more than they do, and
/// their time is the driver's self time.
pub struct TimedOps<'a> {
    inner: &'a mut dyn RegisterOps,
    pub tracer: RefCell<Tracer>,
}

impl<'a> TimedOps<'a> {
    pub fn new(inner: &'a mut dyn RegisterOps, tracer: Tracer) -> Self {
        TimedOps {
            inner,
            tracer: RefCell::new(tracer),
        }
    }
}

impl RegisterOps for TimedOps<'_> {
    fn cfg(&self) -> ClusterConfig {
        self.inner.cfg()
    }
    fn layout(&self) -> Layout {
        self.inner.layout()
    }
    fn write_by(&mut self, wid: u32, value: Value) {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("write_by", || inner.write_by(wid, value));
    }
    fn read_async(&mut self, index: u32) {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("read_async", || inner.read_async(index));
    }
    fn settle(&mut self) {
        let inner = &mut *self.inner;
        self.tracer.get_mut().span("settle", || inner.settle());
    }
    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("try_settle", || inner.try_settle())
    }
    fn read(&mut self, index: u32) -> RegValue {
        let inner = &mut *self.inner;
        self.tracer.get_mut().span("read", || inner.read(index))
    }
    fn snapshot(&self) -> History {
        self.tracer
            .borrow_mut()
            .span("snapshot", || self.inner.snapshot())
    }
    fn ops_recorded(&self) -> u64 {
        self.inner.ops_recorded()
    }
    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
    fn client_busy(&self, proc: u32) -> bool {
        self.inner.client_busy(proc)
    }
    fn check_atomic(&self) -> Result<(), AtomicityViolation> {
        self.inner.check_atomic()
    }
    fn check_linearizable(&self) -> Result<bool, LinCheckError> {
        self.inner.check_linearizable()
    }
    fn check_regular(&self) -> Result<(), RegularityViolation> {
        self.inner.check_regular()
    }
    fn now_ticks(&self) -> u64 {
        self.inner.now_ticks()
    }
    fn advance_to_ticks(&mut self, ticks: u64) {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("advance_to_ticks", || inner.advance_to_ticks(ticks));
    }
    fn step_timed(&mut self) -> bool {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("step_timed", || inner.step_timed())
    }
    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }
    fn reserve_history(&mut self, additional: usize) {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("reserve_history", || inner.reserve_history(additional));
    }
    fn start_history_journal(&mut self) -> bool {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("start_history_journal", || inner.start_history_journal())
    }
    fn drain_history_events(&mut self) -> Vec<HistoryEvent> {
        let inner = &mut *self.inner;
        self.tracer
            .get_mut()
            .span("drain_history_events", || inner.drain_history_events())
    }
}
