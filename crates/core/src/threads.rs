//! Cluster assembly over the real-threads runtime.
//!
//! A [`ThreadCluster`] wires the same writer/reader/server automata a
//! [`Cluster`](crate::harness::Cluster) uses into a
//! [`fastreg_rt::ActorPool`] instead of a simulated
//! [`World`](fastreg_simnet::world::World): actors run on OS threads,
//! messages are real queue and channel sends, and time is wall-clock
//! microseconds. It implements the portable [`RegisterOps`] surface —
//! invoke, settle, snapshot, check — so every generic driver runs
//! unchanged; it does *not* implement
//! [`SimControl`](crate::harness::SimControl), because there is no
//! virtual scheduler to step, link to block, or trace to fingerprint.
//! Runs are nondeterministic; the harvested history is judged post hoc
//! by the same checkers the simulator uses.
//!
//! ## Completions reach the driver without a lock
//!
//! The [`SharedHistory`] the clients record into keeps one
//! `(invoked, completed)` counter pair per client, bumped (release) after
//! each record. Every question the driver asks while operations are in
//! flight — [`client_busy`](RegisterOps::client_busy),
//! [`ops_completed`](RegisterOps::ops_completed),
//! [`try_settle`](RegisterOps::try_settle),
//! [`step_timed`](RegisterOps::step_timed) and the well-formedness gate
//! before each invocation — loads those completion counters (acquire) and
//! compares them with the per-client issued counts the driver keeps
//! itself; none of them takes the history's lock.
//!
//! All waiting goes through one helper, and it waits by working: worker
//! 0 of the pool is the driver's own thread, so until its condition
//! holds the helper runs worker 0's queued jobs, and blocks on worker
//! 0's channel only when none are queued. It gives up after 30 s, timed
//! on the pool's clock from its first poll that did not finish the
//! wait, so a wait that one batch of worker 0 satisfies — the common
//! case under a closed loop — reads no clock at all. A wait that gives
//! up marks the deployment *stalled*: from then on every client reads
//! idle, invocations are dropped, `step_timed` reports nothing in flight
//! and `try_settle` returns the [`QuiescenceError`] — so a driver runs
//! out its issue loop and meets the error, and nothing on a wait path
//! panics. [`step_timed`](RegisterOps::step_timed) returns at once while
//! a client the driver has used is idle (the driver can issue);
//! otherwise it waits for the next completion.
//!
//! ## Worker 0 is the clients' quorum home, on the driver's thread
//!
//! The pool gives each of its last `w − 1` actors a worker of its own
//! and leaves the rest on worker 0. The deployment lays out writers,
//! readers, then servers, so worker 0 holds every client and the first
//! `S − w + 1` servers. While `w − 1 ≤ t` that is a full `S − t` quorum:
//! a fast operation's request and the acks it waits for never leave
//! worker 0, and only the servers it does not wait for answer across a
//! channel. Worker 0 runs on the thread that drives the cluster — a
//! deployment of `w` workers spawns `w − 1` threads — so an invocation
//! goes into worker 0's inbox, not across a channel, and the wait that
//! follows it runs the operation.
//!
//! ## Two clock reads per operation
//!
//! A step's [`Outbox::now`](fastreg_simnet::automaton::Outbox::now) is
//! lazy on threads: the pool reads its clock the first time a step asks,
//! and not at all if it never does. The one client automaton asks only
//! where it records into the history — the invocation and the response —
//! so an operation costs two clock reads however many rounds and acks it
//! takes, and a server step costs none.
//! [`RtStats::step_clock_reads`](fastreg_rt::RtStats::step_clock_reads)
//! counts them.
//!
//! Type-erased construction goes through
//! [`ClusterBuilder::runtime`](crate::harness::ClusterBuilder::runtime)
//! with [`Runtime::Threads`](crate::harness::Runtime::Threads);
//! [`ThreadCluster::spawn`] is the typed terminal (it keeps the pool's
//! [`rt_stats`](ThreadCluster::rt_stats) reachable). Both hand the same
//! `assemble`d automata to the pool.

use std::time::Duration;

use fastreg_atomicity::history::{History, SharedHistory};
use fastreg_rt::ActorPool;
pub use fastreg_rt::RtConfig;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::world::QuiescenceError;

use crate::config::ClusterConfig;
use crate::harness::{assemble, nth_read_value, Assembly, ProtocolFamily, RegisterOps};
use crate::layout::Layout;
use crate::protocols::registry::Contract;
use crate::types::{RegValue, Value};

/// How long a [`ThreadCluster`] waits for outstanding operations before
/// declaring the deployment stalled — generous because CI containers can
/// be single-core and heavily shared.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A wait that one poll did not finish reads the pool's clock after its
/// first poll, and once per this many polls from then on.
const POLLS_PER_DEADLINE_CHECK: u64 = 64;

/// How long one poll of a wait may block on worker 0's channel when
/// worker 0 has nothing queued. Bounds how late a wait sees a condition
/// that worker 0 does not make true — a completion of a client placed on
/// another worker, or the deadline.
const HOME_POLL: Duration = Duration::from_millis(1);

/// A register deployment running on real OS threads.
///
/// The wall-clock sibling of [`Cluster`](crate::harness::Cluster): same
/// automata, same [`SharedHistory`] harvesting, same checkers — but the
/// scheduler is the operating system, so [`settle`](RegisterOps::settle)
/// waits on real time rather than stepping a virtual queue.
///
/// Unlike the simulator, the window between injecting an invocation and
/// the actor recording it is real. The cluster therefore tracks issued
/// counts per client itself and reports a client busy from the moment of
/// injection until its completion count catches up — the
/// conservative flag that keeps closed-loop drivers from double-invoking
/// a client (the automata assert the paper's well-formedness and would
/// panic).
pub struct ThreadCluster<P: ProtocolFamily> {
    cfg: ClusterConfig,
    layout: Layout,
    history: SharedHistory,
    pool: ActorPool<P::Msg>,
    /// Operations injected per client address.
    issued_by: Vec<u64>,
    /// Total operations injected.
    issued: u64,
    /// How long one wait may take before the deployment is stalled.
    settle_timeout: Duration,
    /// Set when a wait ran out of time.
    stalled: bool,
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
        Self::deploy(cfg, parts, rt)
    }

    /// Hands assembled automata to a pool.
    fn deploy(cfg: ClusterConfig, parts: Assembly<P>, rt: RtConfig) -> Self {
        ThreadCluster {
            cfg,
            layout: parts.layout,
            history: parts.history,
            pool: ActorPool::spawn(parts.automata, rt),
            issued_by: vec![0; (cfg.w + cfg.r) as usize],
            issued: 0,
            settle_timeout: SETTLE_TIMEOUT,
            stalled: false,
        }
    }

    /// Number of workers actually running: worker 0 on the driver's
    /// thread, and a spawned thread each for the rest.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A snapshot of the underlying pool's runtime counters (drain
    /// batches, mailbox-depth high-water proxy, busy µs, local and
    /// remote sends) — the threads leg of the observability harvest.
    /// Wall-clock derived and informational only.
    pub fn rt_stats(&self) -> fastreg_rt::RtStats {
        self.pool.stats()
    }

    /// Outstanding operations of client `addr` (issued minus completed).
    fn outstanding(&self, addr: u32) -> u64 {
        let issued = self.issued_by.get(addr as usize).copied().unwrap_or(0);
        issued.saturating_sub(self.history.completed_by(addr))
    }

    /// Whether a client the driver has invoked is idle again.
    fn a_used_client_is_idle(&self) -> bool {
        (0..)
            .zip(&self.issued_by)
            .any(|(addr, &issued)| issued > 0 && issued == self.history.completed_by(addr))
    }

    /// The one wait: runs worker 0 until `done` holds and returns the
    /// polls it took. Each poll is one [`ActorPool::run_home`] batch, or
    /// a block of at most [`HOME_POLL`] on worker 0's channel when
    /// nothing is queued. Gives up — marking the deployment stalled —
    /// once `settle_timeout` has passed; on a stalled deployment every
    /// wait fails at once. The deadline comes from the pool's clock,
    /// read first after a poll that did not finish the wait, so a wait
    /// one batch satisfies reads no clock.
    fn wait(&mut self, done: impl Fn(&Self) -> bool) -> Result<u64, QuiescenceError> {
        let mut deadline = None;
        let mut polls = 0u64;
        loop {
            if self.stalled {
                return Err(QuiescenceError {
                    steps: polls,
                    in_transit: self.issued.saturating_sub(self.ops_completed()) as usize,
                });
            }
            if done(self) {
                return Ok(polls);
            }
            if polls % POLLS_PER_DEADLINE_CHECK == 1 {
                let now = self.pool.now_ticks();
                let timeout = self.settle_timeout.as_micros() as u64;
                self.stalled = now >= *deadline.get_or_insert(now + timeout);
            }
            polls += 1;
            self.pool.run_home(HOME_POLL);
        }
    }

    /// Waits until client `addr` has no outstanding operation — the
    /// well-formedness gate: the paper's automata assert that a client
    /// never invokes while an operation is pending. If the wait gives
    /// up, the deployment is stalled.
    fn await_client_idle(&mut self, addr: u32) {
        let _ = self.wait(|c| c.outstanding(addr) == 0);
    }

    /// Injects `msg` at client `addr` once it is idle; a stalled
    /// deployment drops the invocation.
    fn invoke(&mut self, addr: ProcessId, msg: P::Msg) {
        self.await_client_idle(addr.index());
        if self.stalled {
            return;
        }
        self.issued += 1;
        self.issued_by[addr.index() as usize] += 1;
        self.pool.inject(addr, msg);
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
        self.invoke(self.layout.writer(wid), P::invoke_write(value));
    }

    fn read_async(&mut self, index: u32) {
        self.invoke(self.layout.reader(index), P::invoke_read());
    }

    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        self.wait(|c| c.ops_completed() >= c.issued)
    }

    fn read(&mut self, index: u32) -> RegValue {
        let addr = self.layout.reader(index).index();
        // Waits for this reader only: other clients' operations may
        // legitimately stay in flight across a read.
        self.await_client_idle(addr);
        let before = self.history.completed_by(addr);
        self.read_async(index);
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
        self.issued.max(self.history.inspect(History::len) as u64)
    }

    fn ops_completed(&self) -> u64 {
        self.history.completed_count() as u64
    }

    fn client_busy(&self, proc: u32) -> bool {
        !self.stalled && self.outstanding(proc) > 0
    }

    fn now_ticks(&self) -> u64 {
        self.pool.now_ticks()
    }

    fn advance_to_ticks(&mut self, ticks: u64) {
        // Real time advances by itself; worker 0 works until then, and
        // blocks on its channel while it has nothing queued.
        loop {
            let now = self.pool.now_ticks();
            if now >= ticks {
                return;
            }
            self.pool.run_home(Duration::from_micros(ticks - now));
        }
    }

    fn step_timed(&mut self) -> bool {
        // "One step" means running worker 0 until the next completion
        // while work remains in flight — unless a client is already
        // idle, when the driver has an invocation to make.
        // `before` is read first: a completion landing after it ends the
        // wait at once instead of being waited for.
        let before = self.ops_completed();
        if self.stalled || before >= self.issued {
            return false;
        }
        if self.a_used_client_is_idle() {
            return true;
        }
        self.wait(|c| c.ops_completed() != before).is_ok()
    }

    fn messages_sent(&self) -> u64 {
        self.pool.messages_sent()
    }

    fn reserve_history(&mut self, additional: usize) {
        self.history.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Abd, FastByz, FastCrash};
    use fastreg_simnet::automaton::{Automaton, Outbox};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

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

    /// Runs `write_sync(1)`, `read(0)`, `read(R − 1)` on `workers` and
    /// asserts how many of the sends took the local run queue and how
    /// many crossed a channel.
    fn assert_split<P: ProtocolFamily>(cfg: ClusterConfig, workers: usize, split: (u64, u64)) {
        let (local, remote) = split;
        let mut c: ThreadCluster<P> = ThreadCluster::spawn(cfg, 7, RtConfig::new(workers));
        c.write_sync(1);
        c.read(0);
        c.read(cfg.r - 1);
        // A client returns on its quorum's last ack; the others may still
        // be on their way, and every send is counted once it is routed.
        // Mailbox jobs: the three injections (worker 0's inbox) and the
        // remote sends, which worker 0 drains while the driver waits.
        let settled = c
            .wait(|c| {
                let s = c.rt_stats();
                s.local_sends + s.remote_sends == local + remote && s.drained_messages == 3 + remote
            })
            .is_ok();
        let s = c.rt_stats();
        assert!(settled, "{} at workers = {workers}: {s:?}", P::ID);
        assert_eq!((s.local_sends, s.remote_sends), split, "{}", P::ID);
        assert_eq!(c.messages_sent(), local + remote);
    }

    #[test]
    fn sends_split_into_local_and_remote_as_placement_dictates() {
        // The last w − 1 actors get a worker each; worker 0 keeps the
        // rest — every client and the first S − w + 1 servers. Every
        // round is a request and an ack between the client and each
        // server, so it costs 2 remote messages per server off worker 0.
        //
        // fast-crash, S = 5, t = 1, R = 2: writer 0, readers 1 and 2,
        // servers 3..=7; three one-round ops, 10 messages each. At w = 2
        // server 7 is alone on worker 1 (2 remote per op); at w = 3
        // servers 6 and 7 are (4 remote per op).
        let crash = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        for (workers, local, remote) in [(1, 30, 0), (2, 24, 6), (3, 18, 12)] {
            assert_split::<FastCrash>(crash, workers, (local, remote));
        }
        // abd, same deployment: the write is one round, each read two
        // (query, write-back), so 5 rounds of 10 messages; at w = 2 each
        // round has 2 remote.
        assert_split::<Abd>(crash, 2, (40, 10));
        // fast-byz, S = 6, t = 1, b = 1, R = 1: writer 0, reader 1,
        // servers 2..=7; three one-round ops (the reader reads twice) of
        // 12 messages. At w = 2 server 7 is alone on worker 1.
        let byz = ClusterConfig::byzantine(6, 1, 1, 1).unwrap();
        assert_split::<FastByz>(byz, 2, (30, 6));
    }

    /// Ten closed-loop rounds of every client on `P`'s sample
    /// configuration: each client invokes once its previous operation
    /// completed.
    fn closed_loop<P: ProtocolFamily>(workers: usize) -> ThreadCluster<P> {
        let cfg = P::ID.sample_config();
        let mut c: ThreadCluster<P> = ThreadCluster::spawn(cfg, 7, RtConfig::new(workers));
        for v in 1..=10 {
            for wid in 0..cfg.w {
                c.write_by(wid, v);
            }
            for index in 0..cfg.r {
                c.read_async(index);
            }
        }
        assert_eq!(c.try_settle().map(|_| ()), Ok(()), "{}", P::ID);
        assert_eq!(c.ops_completed(), 10 * u64::from(cfg.w + cfg.r));
        c
    }

    /// A step reads the wall clock only if it asks for the time, and a
    /// client asks only where it records: the invocation and the response.
    fn assert_two_clock_reads_per_op<P: ProtocolFamily>() {
        for workers in [1, 2] {
            let mut c = closed_loop::<P>(workers);
            let want = 2 * c.ops_completed();
            // The last response's read is counted after its step returns.
            let _ = c.wait(|c| c.rt_stats().step_clock_reads >= want);
            let reads = c.rt_stats().step_clock_reads;
            assert_eq!(reads, want, "{} at workers = {workers}", P::ID);
        }
    }

    #[test]
    fn every_protocol_reads_the_clock_twice_per_operation() {
        use crate::harness::{FastRegular, MaxMin, MwmrAbd, MwmrNaiveFast, SwsrFast};
        assert_two_clock_reads_per_op::<FastCrash>();
        assert_two_clock_reads_per_op::<FastByz>();
        assert_two_clock_reads_per_op::<Abd>();
        assert_two_clock_reads_per_op::<MaxMin>();
        assert_two_clock_reads_per_op::<FastRegular>();
        assert_two_clock_reads_per_op::<SwsrFast>();
        assert_two_clock_reads_per_op::<MwmrAbd>();
        assert_two_clock_reads_per_op::<MwmrNaiveFast>();
    }

    #[test]
    fn each_clients_operations_are_stamped_in_real_time_order() {
        // A lazily read time is read inside the recording step, so one
        // client's sequential operations never overlap or reorder: each
        // responds no earlier than it was invoked, and no later than the
        // client's next invocation.
        for workers in [1, 2] {
            let c = closed_loop::<FastCrash>(workers);
            let history = c.snapshot();
            for client in 0..c.cfg.w + c.cfg.r {
                let ops: Vec<_> = history.ops().filter(|o| o.proc == client).collect();
                assert_eq!(ops.len(), 10, "client {client}");
                let stamps: Vec<(u64, u64)> = ops
                    .iter()
                    .map(|o| (o.invoked_at, o.responded_at.expect("completed")))
                    .collect();
                for (i, &(inv, resp)) in stamps.iter().enumerate() {
                    assert!(inv <= resp, "client {client}, op {i}: {stamps:?}");
                }
                for (i, pair) in stamps.windows(2).enumerate() {
                    assert!(
                        pair[0].1 <= pair[1].0,
                        "client {client}, ops {i}, {}: {stamps:?}",
                        i + 1
                    );
                }
            }
        }
    }

    /// Panics on every message: a process that crashes when first
    /// addressed.
    struct Crashes<M>(std::marker::PhantomData<M>);

    impl<M: Clone + std::fmt::Debug + Send + 'static> Automaton for Crashes<M> {
        type Msg = M;
        fn on_message(&mut self, _from: ProcessId, _msg: M, _out: &mut Outbox<M>) {
            panic!("crashes on its first message");
        }
    }

    /// A fast-crash deployment whose process at address `crashing`
    /// panics on its first message.
    fn with_crashing(
        cfg: ClusterConfig,
        crashing: ProcessId,
        rt: RtConfig,
    ) -> ThreadCluster<FastCrash> {
        let mut parts =
            assemble::<FastCrash>(&cfg, 7, &mut FastCrash::reader, &mut FastCrash::server);
        parts.automata[crashing.index() as usize] = Box::new(Crashes(std::marker::PhantomData));
        ThreadCluster::deploy(cfg, parts, rt)
    }

    /// Runs `inner`, noting the thread each of its steps runs on.
    struct OnThread<M> {
        inner: Box<dyn Automaton<Msg = M>>,
        id: usize,
        seen: Arc<Mutex<Vec<Vec<ThreadId>>>>,
    }

    impl<M: Clone + std::fmt::Debug + Send + 'static> OnThread<M> {
        fn note(&self) {
            let here = std::thread::current().id();
            let mut seen = self.seen.lock().unwrap();
            if !seen[self.id].contains(&here) {
                seen[self.id].push(here);
            }
        }
    }

    impl<M: Clone + std::fmt::Debug + Send + 'static> Automaton for OnThread<M> {
        type Msg = M;
        fn on_start(&mut self, out: &mut Outbox<M>) {
            self.note();
            self.inner.on_start(out);
        }
        fn on_message(&mut self, from: ProcessId, msg: M, out: &mut Outbox<M>) {
            self.note();
            self.inner.on_message(from, msg, out);
        }
    }

    #[test]
    fn worker_0_steps_on_the_thread_that_drives_the_cluster() {
        // fast-crash, S = 5, t = 1, R = 2: eight actors, the last is
        // server 7. One write and two reads make every actor step.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let n = (cfg.w + cfg.r + cfg.s) as usize;
        let driver = std::thread::current().id();
        for workers in [1, 2] {
            let seen = Arc::new(Mutex::new(vec![Vec::new(); n]));
            let mut parts =
                assemble::<FastCrash>(&cfg, 7, &mut FastCrash::reader, &mut FastCrash::server);
            parts.automata = std::mem::take(&mut parts.automata)
                .into_iter()
                .enumerate()
                .map(|(id, inner)| {
                    let seen = Arc::clone(&seen);
                    Box::new(OnThread { inner, id, seen }) as Box<dyn Automaton<Msg = _>>
                })
                .collect();
            let mut c = ThreadCluster::deploy(cfg, parts, RtConfig::new(workers));
            assert_eq!(c.workers(), workers);
            c.write_sync(1);
            c.read(0);
            c.read(1);
            // Server 7 may answer after the reads return: wait for all
            // 3 × 10 sends.
            assert_eq!(c.wait(|c| c.messages_sent() == 30).map(|_| ()), Ok(()));
            let seen = seen.lock().unwrap();
            for (id, threads) in seen.iter().enumerate() {
                if workers == 2 && id == n - 1 {
                    assert_eq!(threads.len(), 1, "actor {id}: one worker thread");
                    assert_ne!(threads[0], driver, "actor {id} is on worker 1");
                } else {
                    assert_eq!(threads, &[driver], "actor {id} at workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_server_is_one_crash_the_protocol_tolerates() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        for workers in [1, 2] {
            let mut c = with_crashing(cfg, Layout::of(&cfg).server(0), RtConfig::new(workers));
            for v in 1..=30 {
                c.write(v);
                c.read_async(0);
                c.read_async(1);
            }
            assert_eq!(c.try_settle().map(|_| ()), Ok(()));
            assert_eq!(c.ops_completed(), 90);
            c.check_atomic().unwrap();
            assert_eq!(c.rt_stats().panicked, 1, "workers = {workers}");
        }
    }

    #[test]
    fn a_stalled_deployment_stops_issuing_and_reports_the_stall() {
        // A reader that crashes on its invocation never completes it.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let reader = Layout::of(&cfg).reader(0);
        let mut c = with_crashing(cfg, reader, RtConfig::new(1));
        c.settle_timeout = Duration::from_millis(100);
        c.write_sync(1);
        c.read_async(0);
        assert!(c.client_busy(reader.index()));
        // The second invocation waits out the timeout instead of
        // panicking, and is dropped.
        c.read_async(0);
        assert!(
            !c.client_busy(reader.index()),
            "a stalled deployment reads idle"
        );
        c.write(2);
        assert!(!c.step_timed());
        let err = c.try_settle().unwrap_err();
        assert_eq!(err.in_transit, 1);
        assert_eq!(c.ops_completed(), 1);
        assert_eq!(c.ops_recorded(), 2);
    }
}
