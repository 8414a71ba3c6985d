//! Closed-loop workload driver over any [`RegisterOps`] deployment.
//!
//! The driver issues operations against a cluster — concrete
//! `Cluster<P>` or type-erased
//! [`DynCluster`](fastreg::harness::DynCluster), anything implementing
//! [`RegisterOps`] — under the *timed* scheduler: each client has at
//! most one operation outstanding (the paper's well-formedness
//! assumption), issues the next one after an optional think time, and
//! the simulated network delivers messages according to the cluster's
//! delay model. Client idleness comes from the incremental
//! [`RegisterOps::client_busy`] query (backed by O(1) history counters),
//! which keeps the driver independent of the per-protocol automaton
//! types *and* keeps per-op cost flat: no [`RegisterOps::snapshot`]
//! clone, no rescan of the recorded operations, however long the run.
//! The run is checked once, at the end: its one snapshot is replayed in
//! tick order into an [`OnlineChecker`] ([`OnlineChecker::on_history`]),
//! the same way on every runtime.
//!
//! The loop reads the cluster's clock only where a think-time gate can
//! close. With a think time, that is once per iteration; at think time 0
//! every gate is always open, so it reads the clock only to jump a
//! stalled run forward (nothing issuable, nothing in transit). The
//! report's `duration_ticks` is one more read. On threads each read is a
//! wall-clock read.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg::harness::RegisterOps;
use fastreg_atomicity::history::History;
use fastreg_atomicity::streaming::OnlineChecker;
use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::world::QuiescenceError;

use crate::metrics::OpBreakdown;

/// Parameters of a closed-loop run.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Total operations to issue (across all clients).
    pub n_ops: u64,
    /// Fraction of issued operations that are writes (issued by the
    /// writer; the rest are reads spread over the readers).
    pub write_fraction: f64,
    /// Ticks a client waits after completing an operation before issuing
    /// the next.
    pub think_time: u64,
    /// Seed for operation scheduling (independent of the network seed).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_ops: 100,
            write_fraction: 0.2,
            think_time: 1,
            seed: 0,
        }
    }
}

/// What a closed-loop run produced.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Latency breakdown per operation kind.
    pub breakdown: OpBreakdown,
    /// Total messages sent during the run.
    pub messages_sent: u64,
    /// Virtual time at the end of the run.
    pub duration_ticks: u64,
    /// Verdict from the [`OnlineChecker`] the driver replayed the run's
    /// history into, graded against the contract the deployment promised
    /// ([`RegisterOps::contract`]). Same codes as running the matching
    /// batch checker over [`history`](WorkloadReport::history).
    pub streaming_verdict: Verdict,
    /// Peak operation count resident in the streaming checker (the
    /// frontier high-water mark) — bounded by concurrency, not by
    /// [`n_ops`](WorkloadSpec::n_ops).
    pub checker_high_water_mark: usize,
    /// The recorded history (checked by the caller).
    pub history: History,
}

impl WorkloadReport {
    /// Messages per completed operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.breakdown.completed == 0 {
            return 0.0;
        }
        self.messages_sent as f64 / self.breakdown.completed as f64
    }
}

/// A closed-loop run that could not finish.
///
/// The driver never panics mid-experiment: a deployment that stops
/// making progress (step budget exhausted with messages still in
/// transit — e.g. too many crashed servers for the quorum) surfaces
/// here as a value, with the partial run attached for forensics.
#[derive(Clone, Debug)]
pub enum DriverError {
    /// The world's step budget ran out before the run quiesced.
    DidNotQuiesce {
        /// Operations the driver had issued when the run stalled.
        issued: u64,
        /// Operations that had completed by then.
        completed: u64,
        /// The scheduler's own account of the stall.
        source: QuiescenceError,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::DidNotQuiesce {
                issued,
                completed,
                source,
            } => write!(
                f,
                "closed loop stalled after issuing {issued} ops ({completed} completed): {source}"
            ),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::DidNotQuiesce { source, .. } => Some(source),
        }
    }
}

/// Runs a closed-loop workload on a cluster (writer 0 writes; readers
/// read).
///
/// Values written are `1, 2, 3, …` so histories stay checkable by the
/// SWMR checker (distinct values).
///
/// # Errors
///
/// Returns [`DriverError::DidNotQuiesce`] if the deployment stops making
/// progress before every issued operation settles — the error carries
/// the scheduler's diagnosis instead of panicking mid-experiment.
pub fn run_closed_loop(
    cluster: &mut dyn RegisterOps,
    spec: &WorkloadSpec,
) -> Result<WorkloadReport, DriverError> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x0c10_ced1);
    let layout = cluster.layout();
    let writer = layout.writer(0);
    let cfg = cluster.cfg();
    let n_readers = cfg.r;
    cluster.reserve_history(spec.n_ops as usize);
    let mut next_value = 1u64;
    let mut issued = 0u64;
    // Earliest time each client may issue again (think time gate), by
    // layout address: clients are the first `W + R` addresses.
    let mut ready_at = vec![0u64; (cfg.w + cfg.r) as usize];
    // A client is idle when it has no outstanding op (an O(1) query on
    // the history's counters — no snapshot, no per-op rescan) and its
    // think-time gate has passed.
    fn is_idle(cluster: &dyn RegisterOps, ready_at: &[u64], proc: u32, now: u64) -> bool {
        !cluster.client_busy(proc) && ready_at[proc as usize] <= now
    }
    // At think time 0 no gate ever closes: every gate and `now` stay at
    // 0, so issuing reads no clock.
    let gated = spec.think_time > 0;

    while issued < spec.n_ops {
        let now = if gated { cluster.now_ticks() } else { 0 };
        let mut progressed = false;
        // Writer.
        if rng.gen_bool(spec.write_fraction.clamp(0.0, 1.0))
            && is_idle(cluster, &ready_at, writer.index(), now)
        {
            cluster.write(next_value);
            next_value += 1;
            issued += 1;
            ready_at[writer.index() as usize] = now + spec.think_time;
            progressed = true;
        } else if n_readers > 0 {
            let pick = rng.gen_range(0..n_readers);
            let addr = layout.reader(pick).index();
            if is_idle(cluster, &ready_at, addr, now) {
                cluster.read_async(pick);
                issued += 1;
                ready_at[addr as usize] = now + spec.think_time;
                progressed = true;
            }
        }
        if !progressed {
            // Nothing issuable: advance the network a bit.
            if !cluster.step_timed() {
                let now = if gated { now } else { cluster.now_ticks() };
                // Nothing in transit either: jump past think times. Only
                // *future* ready times count — gates already in the past
                // belong to clients the schedule simply didn't pick, and
                // jumping to their minimum would crawl one tick per
                // iteration instead of leaping to the next real wake-up.
                let next_ready = ready_at
                    .iter()
                    .copied()
                    .filter(|&t| t > now)
                    .min()
                    .unwrap_or(now + 1);
                cluster.advance_to_ticks(next_ready);
            }
        }
    }
    cluster
        .try_settle()
        .map_err(|source| DriverError::DidNotQuiesce {
            issued,
            completed: cluster.ops_completed(),
            source,
        })?;

    let history = cluster.snapshot();
    let mut checker = OnlineChecker::new(cluster.contract().spec(cfg.w));
    checker.on_history(&history);
    Ok(WorkloadReport {
        breakdown: OpBreakdown::of(&history),
        messages_sent: cluster.messages_sent(),
        duration_ticks: cluster.now_ticks(),
        streaming_verdict: checker.verdict(),
        checker_high_water_mark: checker.high_water_mark(),
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::harness::{Cluster, ClusterBuilder, FastCrash};
    use fastreg::layout::Layout;
    use fastreg::protocols::registry::ProtocolId;
    use fastreg::types::{RegValue, Value};
    use fastreg_atomicity::swmr::check_swmr_atomicity;

    /// Delegating wrapper that counts scheduler interactions, so tests
    /// can observe driver *efficiency* (not just its output).
    struct Counting<'a> {
        inner: &'a mut dyn RegisterOps,
        advances: u64,
        steps: u64,
        snapshots: std::cell::Cell<u64>,
        clock_reads: std::cell::Cell<u64>,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a mut dyn RegisterOps) -> Self {
            Counting {
                inner,
                advances: 0,
                steps: 0,
                snapshots: std::cell::Cell::new(0),
                clock_reads: std::cell::Cell::new(0),
            }
        }
    }

    impl RegisterOps for Counting<'_> {
        fn cfg(&self) -> ClusterConfig {
            self.inner.cfg()
        }
        fn layout(&self) -> Layout {
            self.inner.layout()
        }
        fn write_by(&mut self, wid: u32, value: Value) {
            self.inner.write_by(wid, value);
        }
        fn read_async(&mut self, index: u32) {
            self.inner.read_async(index);
        }
        fn try_settle(&mut self) -> Result<u64, fastreg_simnet::world::QuiescenceError> {
            self.inner.try_settle()
        }
        fn read(&mut self, index: u32) -> RegValue {
            self.inner.read(index)
        }
        fn snapshot(&self) -> History {
            self.snapshots.set(self.snapshots.get() + 1);
            self.inner.snapshot()
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
        fn now_ticks(&self) -> u64 {
            self.clock_reads.set(self.clock_reads.get() + 1);
            self.inner.now_ticks()
        }
        fn advance_to_ticks(&mut self, ticks: u64) {
            self.advances += 1;
            self.inner.advance_to_ticks(ticks);
        }
        fn step_timed(&mut self) -> bool {
            self.steps += 1;
            self.inner.step_timed()
        }
        fn messages_sent(&self) -> u64 {
            self.inner.messages_sent()
        }
    }

    #[test]
    fn closed_loop_completes_all_ops() {
        // Deliberately static: a concrete `Cluster<P>` must coerce into
        // the driver's `&mut dyn RegisterOps` unchanged.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(1).build_typed().unwrap();
        let report = run_closed_loop(
            &mut c,
            &WorkloadSpec {
                n_ops: 50,
                ..WorkloadSpec::default()
            },
        )
        .expect("quiesces");
        assert_eq!(report.breakdown.completed, 50);
        assert_eq!(report.breakdown.incomplete, 0);
        check_swmr_atomicity(&report.history).unwrap();
    }

    #[test]
    fn fast_reads_beat_abd_reads() {
        let spec = WorkloadSpec {
            n_ops: 60,
            write_fraction: 0.3,
            think_time: 2,
            seed: 5,
        };
        // The same driver runs both protocols through `dyn RegisterOps`.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let run = |id: ProtocolId| {
            let mut c = ClusterBuilder::new(cfg).seed(1).build(id).unwrap();
            run_closed_loop(&mut c, &spec).expect("quiesces")
        };
        let fast_report = run(ProtocolId::FastCrash);
        let abd_report = run(ProtocolId::Abd);

        let f = fast_report.breakdown.reads.clone().unwrap();
        let a = abd_report.breakdown.reads.clone().unwrap();
        // One round trip vs two: exactly 2 vs 4 ticks at unit delay.
        assert_eq!(f.max, 2);
        assert_eq!(a.max, 4);
        // And fewer messages per op overall.
        assert!(fast_report.messages_per_op() < abd_report.messages_per_op());
    }

    #[test]
    fn zero_write_fraction_issues_only_reads() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(2)
            .build(ProtocolId::FastCrash)
            .unwrap();
        let report = run_closed_loop(
            &mut c,
            &WorkloadSpec {
                n_ops: 20,
                write_fraction: 0.0,
                ..WorkloadSpec::default()
            },
        )
        .expect("quiesces");
        assert!(report.breakdown.writes.is_none());
        assert_eq!(report.breakdown.reads.unwrap().count, 20);
    }

    #[test]
    fn driver_never_snapshots_inside_the_issue_loop() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(3)
            .build(ProtocolId::FastCrash)
            .unwrap();
        let mut counted = Counting::new(&mut c);
        let report = run_closed_loop(
            &mut counted,
            &WorkloadSpec {
                n_ops: 200,
                think_time: 3,
                ..WorkloadSpec::default()
            },
        )
        .expect("quiesces");
        assert_eq!(report.breakdown.completed, 200);
        assert_eq!(
            counted.snapshots.get(),
            1,
            "exactly one snapshot — the final report — regardless of n_ops"
        );
    }

    #[test]
    fn the_loop_reads_the_clock_only_where_a_gate_can_close() {
        use fastreg::harness::Runtime;
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let spec = |think_time| WorkloadSpec {
            n_ops: 300,
            write_fraction: 0.2,
            think_time,
            seed: 6,
        };
        let build = |runtime| {
            ClusterBuilder::new(cfg)
                .seed(6)
                .runtime(runtime)
                .build(ProtocolId::FastCrash)
                .unwrap()
        };
        // Think time 0 opens every gate: the one read is the report's
        // `duration_ticks`, on either runtime.
        for runtime in [Runtime::Simnet, Runtime::Threads { workers: 1 }] {
            let mut c = build(runtime);
            let mut counted = Counting::new(&mut c);
            let report = run_closed_loop(&mut counted, &spec(0)).expect("quiesces");
            assert_eq!(report.breakdown.completed, 300, "{runtime}");
            assert_eq!(counted.clock_reads.get(), 1, "{runtime}");
        }
        // Think time 1: one read per iteration — an issue, or a step when
        // nothing was issuable — and one for the report.
        let mut c = build(Runtime::Simnet);
        let mut counted = Counting::new(&mut c);
        let report = run_closed_loop(&mut counted, &spec(1)).expect("quiesces");
        assert_eq!(report.breakdown.completed, 300);
        assert!(counted.steps > 0, "the fixture must step");
        assert_eq!(counted.clock_reads.get(), 300 + counted.steps + 1);
    }

    #[test]
    fn think_time_gaps_jump_instead_of_crawling() {
        // Regression: with think_time > 1, the no-progress jump target
        // used to be min over *all* recorded ready times. A gate already
        // in the past (a client the schedule didn't pick) dragged the
        // target down to `now + 1`, so the driver crawled one tick per
        // iteration across every think-time gap. The fix jumps to the
        // minimum *future* ready time; the op schedule completes in a
        // bounded number of scheduler interactions.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let spec = WorkloadSpec {
            n_ops: 40,
            write_fraction: 0.5,
            think_time: 50,
            seed: 7,
        };
        let mut c = ClusterBuilder::new(cfg)
            .seed(2)
            .build(ProtocolId::FastCrash)
            .unwrap();
        let mut counted = Counting::new(&mut c);
        let report = run_closed_loop(&mut counted, &spec).expect("quiesces");
        assert_eq!(report.breakdown.completed, 40);
        assert_eq!(report.breakdown.incomplete, 0);
        check_swmr_atomicity(&report.history).unwrap();
        // Every 50-tick gap is one jump, not 50 one-tick crawls: clock
        // advances stay below one per op (the pre-fix driver needs on
        // the order of n_ops * think_time of them). `counted.steps` is
        // deliberately not bounded here — it scales with messages, not
        // with stalling.
        assert!(
            counted.advances < spec.n_ops,
            "driver crawled: {} clock advances for {} ops of think time {}",
            counted.advances,
            spec.n_ops,
            spec.think_time
        );
    }

    #[test]
    fn stalled_deployment_is_an_error_not_a_panic() {
        // A step budget far too small for the issued traffic: the final
        // settle exhausts it with messages still in transit. The driver
        // must hand that back as a typed error, not panic mid-experiment.
        use fastreg_simnet::runner::SimConfig;
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = ClusterBuilder::new(cfg)
            .seed(8)
            .sim(SimConfig::default().with_max_steps(4))
            .build(ProtocolId::FastCrash)
            .unwrap();
        let err = run_closed_loop(
            &mut c,
            &WorkloadSpec {
                n_ops: 3, // one per client: all issuable before any completes
                write_fraction: 1.0,
                think_time: 0,
                seed: 0,
            },
        )
        .expect_err("a 4-step budget cannot settle 3 concurrent ops");
        let DriverError::DidNotQuiesce {
            issued, completed, ..
        } = &err;
        assert_eq!(*issued, 3);
        assert!(completed < issued);
        let msg = err.to_string();
        assert!(msg.contains("stalled"), "got: {msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn streaming_verdict_matches_batch_and_frontier_stays_small() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg).seed(11).build_typed().unwrap();
        let report = run_closed_loop(
            &mut c,
            &WorkloadSpec {
                n_ops: 300,
                write_fraction: 0.3,
                think_time: 2,
                seed: 13,
            },
        )
        .expect("quiesces");
        assert_eq!(
            report.streaming_verdict,
            fastreg_atomicity::verdict::Verdict::from_atomicity(&check_swmr_atomicity(
                &report.history
            ))
        );
        // The replay holds only the frontier: a handful of concurrent
        // clients, not 300 ops.
        assert!(
            report.checker_high_water_mark < 30,
            "frontier grew with history length: hwm = {}",
            report.checker_high_water_mark
        );
    }

    #[test]
    fn streaming_verdict_grades_the_contract_the_deployment_promised() {
        // Regression: the driver picked its checker from the writer count
        // alone, so fast-regular — which promises regularity, not
        // atomicity — was failed for a new/old inversion §8 allows.
        use fastreg::harness::DynCluster;
        use fastreg_atomicity::streaming::Spec;
        use fastreg_simnet::delay::DelayModel;
        use fastreg_simnet::runner::SimConfig;

        let spec = WorkloadSpec {
            n_ops: 300,
            write_fraction: 0.3,
            think_time: 0,
            seed: 0,
        };
        let run = |id: ProtocolId| -> (DynCluster, WorkloadReport) {
            let sim = SimConfig::default().with_delay(DelayModel::Uniform { lo: 1, hi: 40 });
            let mut c = ClusterBuilder::new(id.sample_config())
                .sim(sim)
                .seed(0)
                .build(id)
                .unwrap();
            let report = run_closed_loop(&mut c, &spec).expect("quiesces");
            (c, report)
        };

        let (c, report) = run(ProtocolId::FastRegular);
        let as_atomic = OnlineChecker::check(Spec::SwmrAtomic, &report.history);
        assert!(
            !as_atomic.is_clean(),
            "fixture must contain an inversion, or this test pins nothing"
        );
        c.check_regular().expect("the history is regular");
        assert_eq!(c.contract_verdict(c.contract()), Verdict::Clean);
        assert_eq!(report.streaming_verdict, Verdict::Clean);
        assert_eq!(
            report.streaming_verdict,
            OnlineChecker::check(Spec::SwmrRegular, &report.history)
        );

        // An atomic protocol under the same delays is still held to the
        // atomic spec.
        let (c, report) = run(ProtocolId::FastCrash);
        assert_eq!(c.contract().spec(c.cfg().w), Spec::SwmrAtomic);
        assert_eq!(
            report.streaming_verdict,
            OnlineChecker::check(Spec::SwmrAtomic, &report.history)
        );
        assert_eq!(report.streaming_verdict, Verdict::Clean);
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let spec = WorkloadSpec {
            n_ops: 30,
            seed: 9,
            ..WorkloadSpec::default()
        };
        let run = || {
            let mut c = ClusterBuilder::new(cfg)
                .seed(4)
                .build(ProtocolId::FastCrash)
                .unwrap();
            let r = run_closed_loop(&mut c, &spec).expect("quiesces");
            (r.messages_sent, r.duration_ticks, r.breakdown.completed)
        };
        assert_eq!(run(), run());
    }
}
