//! Cluster assembly over the real-threads runtime.
//!
//! A [`ThreadCluster`] wires the same writer/reader/server automata a
//! [`Cluster`](crate::harness::Cluster) uses into a
//! [`fastreg_rt::ActorPool`] instead of a simulated
//! [`World`](fastreg_simnet::world::World): actors run on OS threads,
//! messages are real channel sends, and time is wall-clock microseconds.
//! It implements the portable [`RegisterOps`] surface — invoke, settle,
//! snapshot, check — so every generic driver runs unchanged; it does
//! *not* implement [`SimControl`](crate::harness::SimControl), because
//! there is no virtual scheduler to step, link to block, or trace to
//! fingerprint. Runs are nondeterministic; the harvested history is
//! judged post hoc by the same checkers the simulator uses.
//!
//! Type-erased construction goes through
//! [`ClusterBuilder::runtime`](crate::harness::ClusterBuilder::runtime)
//! with [`Runtime::Threads`](crate::harness::Runtime::Threads);
//! [`ThreadCluster::spawn`] is the typed terminal (it keeps the pool's
//! [`rt_stats`](ThreadCluster::rt_stats) reachable). Both hand the same
//! `assemble`d automata to the pool.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fastreg_atomicity::history::{History, SharedHistory};
use fastreg_rt::ActorPool;
pub use fastreg_rt::RtConfig;
use fastreg_simnet::world::QuiescenceError;

use crate::config::ClusterConfig;
use crate::harness::{assemble, nth_read_value, ProtocolFamily, RegisterOps};
use crate::layout::Layout;
use crate::protocols::registry::Contract;
use crate::types::{RegValue, Value};

/// How long a [`ThreadCluster`] waits for outstanding operations before
/// declaring the deployment stalled — generous because CI containers can
/// be single-core and heavily shared.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A register deployment running on real OS threads.
///
/// The wall-clock sibling of [`Cluster`](crate::harness::Cluster): same
/// automata, same [`SharedHistory`] harvesting, same checkers — but the
/// scheduler is the operating system, so [`settle`](RegisterOps::settle)
/// waits on real time rather than stepping a virtual queue.
///
/// Unlike the simulator, the window between injecting an invocation and
/// the actor recording it is real: the history's `client_busy` flag lags.
/// The cluster therefore tracks issued counts per client itself and
/// reports a client busy from the moment of injection — the conservative
/// flag that keeps closed-loop drivers from double-invoking a client
/// (the automata assert the paper's well-formedness and would panic).
pub struct ThreadCluster<P: ProtocolFamily> {
    cfg: ClusterConfig,
    layout: Layout,
    history: SharedHistory,
    pool: ActorPool<P::Msg>,
    /// Total operations injected.
    issued: u64,
    /// Operations injected per client address.
    issued_by: BTreeMap<u32, u64>,
}

impl<P: ProtocolFamily> ThreadCluster<P> {
    /// Spawns the deployment: writers, readers, then servers, in layout
    /// order, partitioned over the pool's workers. `seed` feeds the
    /// protocol context (key material for the Byzantine family); there
    /// is no schedule to seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more clients than the protocol can represent
    /// ([`ProtocolId::max_clients`](crate::protocols::registry::ProtocolId::max_clients));
    /// [`ClusterBuilder::build`](crate::harness::ClusterBuilder::build)
    /// reports that as a typed error instead.
    pub fn spawn(cfg: ClusterConfig, seed: u64, rt: RtConfig) -> Self {
        assert!(
            P::ID.population_fits(&cfg),
            "'{}' cannot deploy R = {} readers",
            P::ID,
            cfg.r
        );
        let parts = assemble::<P>(&cfg, seed, &mut P::reader, &mut P::server);
        ThreadCluster {
            cfg,
            layout: parts.layout,
            history: parts.history,
            pool: ActorPool::spawn(parts.automata, rt),
            issued: 0,
            issued_by: BTreeMap::new(),
        }
    }

    /// Number of worker threads actually running.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A snapshot of the underlying pool's runtime counters (drain
    /// batches, mailbox-depth high-water proxy, per-actor busy µs) —
    /// the threads leg of the observability harvest. Wall-clock
    /// derived and informational only.
    pub fn rt_stats(&self) -> fastreg_rt::RtStats {
        self.pool.stats()
    }

    /// Outstanding operations of client `addr` (issued minus completed).
    fn outstanding(&self, addr: u32) -> u64 {
        let issued = self.issued_by.get(&addr).copied().unwrap_or(0);
        issued.saturating_sub(self.history.completed_by(addr))
    }

    /// Blocks until client `addr` has no outstanding operation — the
    /// well-formedness gate: the paper's automata assert that a client
    /// never invokes while an operation is pending.
    ///
    /// # Panics
    ///
    /// Panics if the client's outstanding operation does not complete
    /// within the settle timeout (the deployment is stalled).
    // `threads.rs` is a sanctioned wall-clock site (lint rule D2): settle
    // deadlines on a real-threads deployment are wall deadlines.
    #[allow(clippy::disallowed_methods)]
    fn await_client_idle(&self, addr: u32) {
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        while self.outstanding(addr) > 0 {
            assert!(
                Instant::now() < deadline,
                "client {addr} still busy after {SETTLE_TIMEOUT:?}: deployment stalled"
            );
            std::thread::yield_now();
        }
    }

    fn record_issue(&mut self, addr: u32) {
        self.issued += 1;
        *self.issued_by.entry(addr).or_insert(0) += 1;
    }
}

impl<P: ProtocolFamily> RegisterOps for ThreadCluster<P> {
    fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    fn contract(&self) -> Contract {
        P::ID.contract()
    }

    fn layout(&self) -> Layout {
        self.layout
    }

    fn write_by(&mut self, wid: u32, value: Value) {
        let w = self.layout.writer(wid);
        self.await_client_idle(w.index());
        self.record_issue(w.index());
        self.pool.inject(w, P::invoke_write(value));
    }

    fn read_async(&mut self, index: u32) {
        let r = self.layout.reader(index);
        self.await_client_idle(r.index());
        self.record_issue(r.index());
        self.pool.inject(r, P::invoke_read());
    }

    #[allow(clippy::disallowed_methods)]
    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        let mut polls = 0u64;
        while (self.history.completed_count() as u64) < self.issued {
            if Instant::now() >= deadline {
                return Err(QuiescenceError {
                    steps: polls,
                    in_transit: (self.issued - self.history.completed_count() as u64) as usize,
                });
            }
            polls += 1;
            std::thread::yield_now();
        }
        Ok(polls)
    }

    fn read(&mut self, index: u32) -> RegValue {
        let addr = self.layout.reader(index).index();
        let before = self.history.completed_by(addr);
        self.read_async(index);
        // Waits for this reader only: other clients' operations may
        // legitimately stay in flight across a read.
        self.await_client_idle(addr);
        nth_read_value(&self.history, addr, before)
    }

    fn snapshot(&self) -> History {
        self.history.snapshot()
    }

    fn ops_recorded(&self) -> u64 {
        // Issued is the honest count here: an injected invocation is an
        // operation the environment started, even if the actor has not
        // recorded it yet.
        self.issued.max(self.history.recorded_count() as u64)
    }

    fn ops_completed(&self) -> u64 {
        self.history.completed_count() as u64
    }

    fn client_busy(&self, proc: u32) -> bool {
        self.outstanding(proc) > 0
    }

    fn now_ticks(&self) -> u64 {
        self.pool.now_ticks()
    }

    fn advance_to_ticks(&mut self, ticks: u64) {
        // Real time advances by itself; sleeping the remainder gives the
        // actor threads the core — important on single-core hosts.
        let now = self.pool.now_ticks();
        if ticks > now {
            std::thread::sleep(Duration::from_micros(ticks - now));
        }
    }

    fn step_timed(&mut self) -> bool {
        // The OS is the scheduler: "one step" means yielding it the core
        // while work remains in flight.
        if (self.history.completed_count() as u64) < self.issued {
            std::thread::yield_now();
            true
        } else {
            false
        }
    }

    fn messages_sent(&self) -> u64 {
        self.pool.messages_sent()
    }

    fn reserve_history(&mut self, additional: usize) {
        self.history.reserve(additional);
    }

    // start_history_journal deliberately keeps the default `false`: actor
    // threads stamp real-time ticks concurrently, so the journal's record
    // order is not guaranteed to be tick order, which the streaming
    // checkers require. Callers replay a snapshot instead (sorted).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Abd, FastByz, FastCrash};

    #[test]
    fn fast_crash_over_threads_end_to_end() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: ThreadCluster<FastCrash> = ThreadCluster::spawn(cfg, 7, RtConfig::new(2));
        assert_eq!(c.read(0), RegValue::Bottom);
        c.write_sync(1);
        assert_eq!(c.read(0), RegValue::Val(1));
        c.write_sync(2);
        assert_eq!(c.read(1), RegValue::Val(2));
        c.check_atomic().unwrap();
        assert!(c.messages_sent() > 0);
        assert_eq!(c.ops_completed(), 5);
    }

    #[test]
    fn byzantine_family_runs_over_threads() {
        // The signing context must wire correctly outside the simulator.
        let cfg = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();
        let mut c: ThreadCluster<FastByz> = ThreadCluster::spawn(cfg, 7, RtConfig::new(2));
        c.write_sync(5);
        assert_eq!(c.read(0), RegValue::Val(5));
        c.check_atomic().unwrap();
    }

    #[test]
    fn busy_flag_rises_at_injection_not_at_recording() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: ThreadCluster<Abd> = ThreadCluster::spawn(cfg, 7, RtConfig::new(1));
        let w = c.layout().writer(0).index();
        assert!(!c.client_busy(w));
        c.write(9);
        // Immediately after inject — before the writer thread can have
        // recorded anything — the conservative flag is already up.
        assert!(c.client_busy(w));
        c.settle();
        assert!(!c.client_busy(w));
    }

    #[test]
    fn sequential_writes_respect_well_formedness() {
        // Back-to-back writes without an explicit settle: the second
        // invocation must wait for the first, never panic the automaton.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: ThreadCluster<FastCrash> = ThreadCluster::spawn(cfg, 7, RtConfig::new(2));
        for v in 1..=20 {
            c.write(v);
        }
        c.settle();
        assert_eq!(c.ops_completed(), 20);
        c.check_atomic().unwrap();
        c.check_regular().unwrap();
        assert_eq!(c.check_linearizable(), Ok(true));
    }

    #[test]
    fn wall_clock_advances_and_sleeps() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c: ThreadCluster<FastCrash> = ThreadCluster::spawn(cfg, 7, RtConfig::new(1));
        let t = c.now_ticks();
        c.advance_to_ticks(t + 2_000);
        assert!(c.now_ticks() >= t + 2_000);
        assert!(!c.step_timed(), "idle deployment has nothing in flight");
    }
}
