//! # fastreg_rt
//!
//! Real-threads actor runtime for the `fastreg` workspace.
//!
//! The discrete-event [`World`](fastreg_simnet::world::World) is the
//! repository's *oracle*: deterministic schedules, virtual time, scripted
//! faults, replayable traces. This crate is the *speed demon*: the same
//! [`Automaton`] implementations run unchanged on a small pool of OS
//! threads — a run queue per worker, unbounded channels only between
//! workers — under wall-clock time. Nothing here knows about register
//! protocols — the pool is generic over any message alphabet — and
//! nothing here fakes the simulator's controls: there is no virtual
//! scheduler to randomize, no link to block, no trace to fingerprint.
//! Runs are nondeterministic; correctness is judged *post hoc* by handing
//! the harvested operation history to the workspace's existing checkers.
//!
//! ## Shape
//!
//! [`ActorPool::spawn`] partitions `n` actors over `w ≤ n` workers by one
//! rule: the last `w − 1` actors get a worker each, and worker 0 keeps
//! the rest. Actor `i` lives on worker `(i + w) − n` (saturating at 0),
//! in slot `i` of worker 0's actor vector or slot 0 of any other
//! worker's. Each worker owns its actors exclusively, so a step —
//! receive, mutate state, emit an [`Outbox`] — is as atomic as under the
//! simulator. Worker count 1 degenerates to a serialized (but still
//! wall-clock) run; worker count `n` is one worker per actor.
//!
//! Worker 0 is the pool owner's thread: only workers `1..w` are spawned
//! OS threads, so a pool of `w` workers runs `w − 1` threads of its own.
//! Worker 0's actors, local run queue and channel stay inside the pool,
//! and they run only when the owner calls [`ActorPool::run_home`] — the
//! owner's wait *is* worker 0's work. An owner that has to wait for
//! something worker 0 does not produce blocks in `run_home` on worker
//! 0's channel, for at most the time it passes.
//!
//! A spawned worker with nothing queued polls its channel before it
//! parks: it tries it [`POLL_TRIES`] times, spinning and yielding its
//! core at a fixed interval, and only then blocks in a receive. So a
//! worker that gets a message every few microseconds stays awake, and
//! its senders do not pay to wake it; an idle one parks once the tries
//! run out. It polls only while the host has a core for every thread
//! of the pool (`workers ≤` [`std::thread::available_parallelism`],
//! read once at spawn); on fewer cores every worker parks at once.
//!
//! The rule is shaped for quorum protocols laid out clients first,
//! servers last — the workspace's writers, readers, then servers. Worker
//! 0 then holds every client and the first `S − w + 1` servers. While
//! `w − 1 ≤ t` that is a full `S − t` quorum: a one-round operation
//! completes on worker 0's local run queue, on the thread that invoked
//! it, and the servers on the other workers (never on its critical
//! path) answer over channels.
//!
//! A message to an actor on the sending worker goes on that worker's
//! local run queue; only a message to another worker's actor crosses a
//! channel. An [`inject`](ActorPool::inject)ion from outside the pool
//! crosses one too, unless its actor is on worker 0: then it waits in
//! worker 0's inbox, a plain queue the owner fills and drains. Each
//! mailbox job — an inbox job or a channel job — runs with the local
//! deliveries it sets off before the next job starts. Per-link FIFO
//! order holds: actor `a` lives on one worker, so every message on the
//! link `a → b` takes the same one of the paths — the local queue when
//! `b` shares `a`'s worker, `b`'s channel otherwise, and the inbox for
//! every injection at a worker-0 actor — and each is FIFO in send order.
//!
//! A step reads the wall clock at most once, when it asks: its outbox
//! carries a [`LazyNow`] over the pool's clock, so the first
//! [`Outbox::now`] of the step reads it and later calls return that
//! reading. A register client asks only in the steps that record an
//! invocation or a response — two per operation — and a server never
//! does. Readings are microseconds since the pool started, so histories
//! recorded here are directly comparable with simulated ones (one tick =
//! one microsecond). The only other reads are a pair per drained batch,
//! which measures busy time.
//!
//! An actor whose step panics has crashed: its slot is emptied, that
//! step's sends are dropped, and so is every later message to it — what
//! the simulator's crashed receivers do. The pool keeps running;
//! [`ActorPool::shutdown`] reports the crashed actors.
//!
//! ## Threads for other work
//!
//! This crate is the workspace's one home for OS threads (lint rule D6
//! exempts `crates/rt/` and nothing else). Besides the actor pool,
//! [`threaded`] holds the two fan-out tools for work that is not
//! automata, both with results independent of the thread count:
//! [`threaded::map_ordered`], scoped threads spawned per call over
//! items that may borrow, and [`threaded::Crew`], helper threads kept
//! for a crew's life over owned items — the sharded store's shards, one
//! fixed worker each. They are two tools because a long-lived thread
//! cannot hold a borrow; a crew waits for work by the same polling rule
//! as a spawned pool worker.
//!
//! ## Example
//!
//! ```
//! use std::time::{Duration, Instant};
//!
//! use fastreg_rt::{ActorPool, RtConfig};
//! use fastreg_simnet::automaton::{Automaton, Outbox};
//! use fastreg_simnet::id::ProcessId;
//!
//! /// Forwards each value to the next actor, bumping it by one; the last
//! /// actor of the chain reports what it got.
//! struct Relay {
//!     next: Option<ProcessId>,
//!     seen: std::sync::mpsc::Sender<u64>,
//! }
//!
//! impl Automaton for Relay {
//!     type Msg = u64;
//!     fn on_message(&mut self, _from: ProcessId, msg: u64, out: &mut Outbox<u64>) {
//!         match self.next {
//!             Some(next) => out.send(next, msg + 1),
//!             None => drop(self.seen.send(msg)),
//!         }
//!     }
//! }
//!
//! let (tx, rx) = std::sync::mpsc::channel();
//! let relay = |next: Option<u32>| -> Box<dyn Automaton<Msg = u64>> {
//!     let next = next.map(ProcessId::new);
//!     Box::new(Relay { next, seen: tx.clone() })
//! };
//! // Two workers: actors 0 and 1 on worker 0, actor 2 on worker 1. The
//! // chain 0 → 2 → 1 crosses to worker 1 and back.
//! let actors = vec![relay(Some(2)), relay(None), relay(Some(1))];
//! let mut pool = ActorPool::spawn(actors, RtConfig::new(2));
//! pool.inject(ProcessId::new(0), 41);
//! // Worker 0 runs on this thread: drive it until the value is back.
//! let deadline = Instant::now() + Duration::from_secs(30);
//! let got = loop {
//!     if let Ok(v) = rx.try_recv() {
//!         break v;
//!     }
//!     assert!(Instant::now() < deadline, "the chain stalled");
//!     pool.run_home(Duration::from_millis(1));
//! };
//! assert_eq!(got, 43);
//! pool.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod threaded;

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use fastreg_obs::MonoClock;
use fastreg_simnet::automaton::{Automaton, LazyNow, Outbox};
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::time::SimTime;

/// Configuration of an [`ActorPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RtConfig {
    /// Requested workers; clamped to `1..=n_actors` at spawn. Worker 0
    /// runs on the pool owner's thread, each other worker on its own.
    pub workers: usize,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig::new(1)
    }
}

impl RtConfig {
    /// A pool of `workers` workers.
    pub fn new(workers: usize) -> Self {
        RtConfig { workers }
    }
}

/// What [`ActorPool::shutdown`] reports about a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// These actors panicked in a step and were dropped from the pool,
    /// as crashed processes (in id order).
    ActorPanicked {
        /// The crashed actors.
        actors: Vec<ProcessId>,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::ActorPanicked { actors } => write!(f, "actors {actors:?} panicked"),
        }
    }
}

impl std::error::Error for RtError {}

/// One message on its way to actor `to`.
struct Delivery<M> {
    to: u32,
    from: ProcessId,
    msg: M,
}

enum Job<M> {
    Deliver(Delivery<M>),
    Shutdown,
}

/// Upper bound on how many queued jobs a worker drains per wakeup, and
/// on how many local deliveries it runs before it looks at its mailbox
/// again. Bounds the latency penalty any single actor pays to batching
/// while still amortizing a wakeup across a burst.
pub const DRAIN_BATCH_MAX: usize = 256;

/// How many times a spawned worker with nothing queued tries its channel
/// before it parks in a blocking receive, when the host has a core for
/// every thread of the pool (with fewer cores it parks at once). Counted
/// in tries, not time: a worker that keeps getting work every few
/// microseconds never parks, so a sender rarely pays to wake it, and an
/// idle one parks soon after (the tries took about 1 ms on a 2-core
/// x86-64 VM). Worker 0 does not poll: it runs on the owner's thread,
/// and [`ActorPool::run_home`] blocks for the time its caller passes.
pub const POLL_TRIES: u32 = 1 << 14;

/// A polling worker yields its core once per this many tries (under a
/// microsecond of spinning), so other threads on a shared host still get
/// it.
const TRIES_PER_YIELD: u32 = 1 << 4;

/// One worker's runtime counters. Only that worker writes them — a plain
/// load and store, no read-modify-write — and [`ActorPool::stats`] sums
/// them. Aligned so two workers' counters never share a cache line.
/// Wall-clock derived and scheduling dependent — strictly informational,
/// never part of a determinism contract (unlike
/// [`SchedStats`](fastreg_simnet::world::SchedStats), its simnet
/// sibling).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Counters {
    drained_batches: AtomicU64,
    drained_messages: AtomicU64,
    max_batch: AtomicU64,
    busy_us: AtomicU64,
    local_sends: AtomicU64,
    remote_sends: AtomicU64,
    step_clock_reads: AtomicU64,
}

/// Adds `n` to a counter only the calling thread writes.
fn add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A snapshot of an [`ActorPool`]'s runtime counters
/// ([`ActorPool::stats`]).
///
/// The `drained_*` counters and `max_batch` see the mailboxes only:
/// injections (worker 0's inbox jobs among them) and cross-worker sends.
/// Deliveries through a worker's local run queue are counted by
/// `local_sends` and by nothing else, so messages per batch and wakeups
/// per operation derived from them exclude local deliveries.
///
/// The channels expose no queue-length probe, so mailbox depth is
/// observed through its consumption: every worker wakeup (on worker 0,
/// every [`ActorPool::run_home`] that finds work; on a spawned worker,
/// every job it finds by polling or by blocking) drains up to
/// [`DRAIN_BATCH_MAX`] queued jobs in one batch, and the batch length
/// *is* the backlog that had accumulated — `max_batch` is therefore the
/// pool's observed mailbox-depth high-water mark (saturating at the
/// drain cap). A batch a spawned worker catches while polling counts as
/// a wakeup, though the worker never slept.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Worker wakeups that drained at least one mailbox job; a batch a
    /// spawned worker caught while polling counts as one.
    pub drained_batches: u64,
    /// Total mailbox jobs drained across all batches.
    pub drained_messages: u64,
    /// Largest single drain batch (mailbox-depth high-water proxy,
    /// capped at [`DRAIN_BATCH_MAX`]); polled batches included.
    pub max_batch: u64,
    /// Total microseconds workers spent running drained batches (actor
    /// steps, routing and the local deliveries they set off), summed
    /// across workers.
    pub busy_us: u64,
    /// Actor-to-actor sends whose receiver is on the sender's worker:
    /// delivered through that worker's local run queue.
    pub local_sends: u64,
    /// Actor-to-actor sends whose receiver is on another worker:
    /// delivered through that worker's channel.
    pub remote_sends: u64,
    /// Actor steps that read the wall clock (asked for
    /// [`Outbox::now`]); the busy-time reads are not counted.
    pub step_clock_reads: u64,
}

/// A running set of actors partitioned over a pool of workers: worker 0
/// on the owner's thread, the others on threads of their own.
///
/// Construct with [`ActorPool::spawn`], drive with [`ActorPool::inject`]
/// and [`ActorPool::run_home`], and stop with [`ActorPool::shutdown`]
/// (or just drop the pool — the destructor shuts it down too, and never
/// panics). Actor ids are assigned in vector order, exactly like
/// [`World::add_actor`](fastreg_simnet::world::World), so the same layout
/// addressing works on both runtimes.
pub struct ActorPool<M> {
    /// Worker 0, run by [`run_home`](ActorPool::run_home). Its `peers`
    /// are every worker's channel, its own included.
    home: Worker<M>,
    /// Worker 0's channel: the other workers' sends to its actors.
    home_rx: Receiver<Job<M>>,
    /// Injections at worker 0's actors, in injection order.
    inbox: VecDeque<Delivery<M>>,
    /// The buffer every `run_home` batch borrows.
    batch: Vec<Job<M>>,
    /// Workers `1..w`; each thread returns the actors that panicked on it.
    handles: Vec<JoinHandle<Vec<ProcessId>>>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> ActorPool<M> {
    /// Spawns the pool: `automata[i]` becomes actor `ProcessId(i)`. The
    /// last `workers − 1` actors get a worker each and worker 0 owns the
    /// rest, so with clients laid out before servers, worker 0 is every
    /// client's quorum home whenever `workers − 1 ≤ t` (see the crate
    /// docs). Workers `1..w` get a thread each, and each automaton's
    /// `on_start` runs on its worker before that worker processes any
    /// message — worker 0's on the caller's thread, before this returns.
    pub fn spawn(automata: Vec<Box<dyn Automaton<Msg = M>>>, cfg: RtConfig) -> Self {
        let workers = cfg.workers.clamp(1, automata.len().max(1));
        Self::spawn_polling(automata, workers, poll_tries(workers, available_cores()))
    }

    /// [`spawn`](Self::spawn) over `workers` (already clamped), whose
    /// spawned workers try their channels `poll_tries` times before they
    /// park.
    // The rt crate is the sanctioned habitat of the wall clock (lint
    // rules D2/D7): real threads need real time for uptime accounting
    // and busy-time measurement, via the quarantined obs::MonoClock.
    fn spawn_polling(
        automata: Vec<Box<dyn Automaton<Msg = M>>>,
        workers: usize,
        poll_tries: u32,
    ) -> Self {
        let n_actors = automata.len();
        let clock = Arc::new(MonoClock::new());
        let counters: Arc<[Counters]> = (0..workers).map(|_| Counters::default()).collect();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| unbounded::<Job<M>>()).unzip();

        let mut owned: Vec<Vec<Slot<M>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, a) in automata.into_iter().enumerate() {
            let (worker, slot) = place(i, n_actors, workers);
            debug_assert_eq!(owned[worker].len(), slot);
            owned[worker].push(Some(a));
        }

        let mut all = receivers
            .into_iter()
            .zip(owned)
            .enumerate()
            .map(|(index, (rx, actors))| {
                let worker = Worker {
                    index,
                    workers,
                    n_actors,
                    actors,
                    local: VecDeque::new(),
                    peers: senders.clone(),
                    clock: Arc::clone(&clock),
                    counters: Arc::clone(&counters),
                    buf: Vec::new(),
                    panicked: Vec::new(),
                };
                (worker, rx)
            });
        let (mut home, home_rx) = all.next().expect("a pool has worker 0");
        let handles = all
            .map(|(worker, rx)| {
                std::thread::Builder::new()
                    .name(format!("fastreg-rt-{}", worker.index))
                    .spawn(move || worker.run(rx, poll_tries))
                    .expect("spawn rt worker thread")
            })
            .collect();
        home.start();

        ActorPool {
            home,
            home_rx,
            inbox: VecDeque::new(),
            batch: Vec::with_capacity(DRAIN_BATCH_MAX),
            handles,
        }
    }

    /// Sends `msg` to actor `to` from the external environment
    /// ([`ProcessId::EXTERNAL`]) — the entry point operation invocations
    /// use, exactly like `World::inject`. An actor on worker 0 gets it
    /// through worker 0's inbox, at the next [`run_home`](Self::run_home);
    /// any other actor through its worker's channel. Unknown ids are
    /// ignored.
    pub fn inject(&mut self, to: ProcessId, msg: M) {
        let idx = to.index() as usize;
        if idx >= self.len() {
            return;
        }
        let delivery = Delivery {
            to: to.index(),
            from: ProcessId::EXTERNAL,
            msg,
        };
        match place(idx, self.len(), self.workers()).0 {
            0 => self.inbox.push_back(delivery),
            worker => {
                let _ = self.home.peers[worker].send(Job::Deliver(delivery));
            }
        }
    }

    /// Runs one batch of worker 0 on the calling thread and returns how
    /// many mailbox jobs it held: up to [`DRAIN_BATCH_MAX`] jobs, inbox
    /// jobs first, then channel jobs, each followed by the local
    /// deliveries it sets off. If nothing is queued — inbox, channel and
    /// local run queue all empty — it first blocks on worker 0's channel
    /// for at most `wait`, and returns 0 if nothing came.
    pub fn run_home(&mut self, wait: Duration) -> usize {
        let mut batch = std::mem::take(&mut self.batch);
        let from_inbox = self.inbox.len().min(DRAIN_BATCH_MAX);
        batch.extend(self.inbox.drain(..from_inbox).map(Job::Deliver));
        fill(&self.home_rx, &mut batch);
        if batch.is_empty() && self.home.local.is_empty() {
            let Ok(job) = self.home_rx.recv_timeout(wait) else {
                self.batch = batch;
                return 0;
            };
            batch.push(job);
            fill(&self.home_rx, &mut batch);
        }
        let jobs = batch.len();
        // Nothing sends worker 0 a shutdown marker: the batch runs whole.
        self.home.run_batch(&mut batch);
        self.batch = batch;
        jobs
    }
}

impl<M> ActorPool<M> {
    /// Number of actors in the pool.
    pub fn len(&self) -> usize {
        self.home.n_actors
    }

    /// Returns `true` if the pool has no actors.
    pub fn is_empty(&self) -> bool {
        self.home.n_actors == 0
    }

    /// Number of workers (the configured count clamped to `1..=len()`):
    /// worker 0 on the owner's thread, and one spawned thread each for
    /// the rest.
    pub fn workers(&self) -> usize {
        self.home.workers
    }

    /// Total actor-to-actor messages routed so far — local plus remote
    /// sends (injections are not counted: they are environment events,
    /// not network traffic).
    pub fn messages_sent(&self) -> u64 {
        let stats = self.stats();
        stats.local_sends + stats.remote_sends
    }

    /// Microseconds elapsed since the pool started — the wall-clock
    /// analogue of the simulator's virtual `now`.
    pub fn now_ticks(&self) -> u64 {
        self.home.clock.elapsed_us()
    }

    /// A snapshot of the pool's runtime counters (drain batches, the
    /// mailbox-depth high-water proxy, busy time, local and remote
    /// sends). Wall-clock derived: informational only, never under a
    /// byte-identity contract.
    pub fn stats(&self) -> RtStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.home
            .counters
            .iter()
            .fold(RtStats::default(), |s, c| RtStats {
                drained_batches: s.drained_batches + load(&c.drained_batches),
                drained_messages: s.drained_messages + load(&c.drained_messages),
                max_batch: s.max_batch.max(load(&c.max_batch)),
                busy_us: s.busy_us + load(&c.busy_us),
                local_sends: s.local_sends + load(&c.local_sends),
                remote_sends: s.remote_sends + load(&c.remote_sends),
                step_clock_reads: s.step_clock_reads + load(&c.step_clock_reads),
            })
    }

    /// Stops workers `1..w` after each drains the jobs already queued on
    /// its channel, and joins their threads. Worker 0 runs no further:
    /// jobs still queued for it are dropped. Dropping the pool does the
    /// same, discarding the report.
    ///
    /// # Errors
    ///
    /// [`RtError::ActorPanicked`] if any actor's step panicked during
    /// the run, on worker 0 or on any other worker.
    pub fn shutdown(mut self) -> Result<(), RtError> {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> Result<(), RtError> {
        for tx in &self.home.peers[1..] {
            let _ = tx.send(Job::Shutdown);
        }
        let (n, workers) = (self.len(), self.workers());
        let mut actors = std::mem::take(&mut self.home.panicked);
        for (w, handle) in (1..).zip(self.handles.drain(..)) {
            match handle.join() {
                Ok(panicked) => actors.extend(panicked),
                // The worker itself died outside an actor step: every
                // actor it owned is gone.
                Err(_) => actors.extend(
                    (0..n)
                        .filter(|&i| place(i, n, workers).0 == w)
                        .map(|i| ProcessId::new(i as u32)),
                ),
            }
        }
        if actors.is_empty() {
            Ok(())
        } else {
            actors.sort();
            Err(RtError::ActorPanicked { actors })
        }
    }
}

impl<M> Drop for ActorPool<M> {
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

/// Moves already-queued channel jobs into `batch` until it holds
/// [`DRAIN_BATCH_MAX`].
fn fill<M>(rx: &Receiver<Job<M>>, batch: &mut Vec<Job<M>>) {
    while batch.len() < DRAIN_BATCH_MAX {
        match rx.try_recv() {
            Ok(job) => batch.push(job),
            Err(_) => break,
        }
    }
}

/// The host's cores as [`std::thread::available_parallelism`] counts
/// them (1 if it cannot tell): what [`ActorPool::spawn`] reads once per
/// pool, and a [`Crew`](threaded::Crew)'s owner once per crew, to decide
/// whether waiting threads may poll.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// How many times each spawned worker of a pool of `workers` threads on
/// `cores` cores tries its channel before it parks: [`POLL_TRIES`] while
/// every thread has a core of its own, and none on a host with fewer
/// cores. There a polling worker can hold the core that the thread with
/// work needs: with polling, E17's four-worker rows on two cores ran
/// anywhere from 2× faster to 4× slower than without, run to run.
fn poll_tries(workers: usize, cores: usize) -> u32 {
    if workers <= cores {
        POLL_TRIES
    } else {
        0
    }
}

/// The next job on a spawned worker's channel (or, in a
/// [`Crew`](threaded::Crew), on a helper's or the waiting caller's):
/// tried up to `poll_tries` times — spinning, and yielding the core
/// every [`TRIES_PER_YIELD`] tries — before the worker parks in a
/// blocking receive. `None` once every sender is gone.
fn next_job<J>(rx: &Receiver<J>, poll_tries: u32) -> Option<J> {
    for tries in 1..=poll_tries {
        if let Ok(job) = rx.try_recv() {
            return Some(job);
        }
        if tries % TRIES_PER_YIELD == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    rx.recv().ok()
}

/// An actor slot; `None` once its actor panicked.
type Slot<M> = Option<Box<dyn Automaton<Msg = M>>>;

/// Where actor `i` of `n` lives on `w` workers: `(worker, slot)`. The
/// last `w − 1` actors get a worker each (slot 0); worker 0 keeps the
/// rest, each in the slot of its own id.
fn place(i: usize, n: usize, w: usize) -> (usize, usize) {
    let worker = (i + w).saturating_sub(n);
    (worker, if worker == 0 { i } else { 0 })
}

/// One worker's state: its actors, its local run queue, and the
/// channels to every worker (itself included, for injections).
struct Worker<M> {
    index: usize,
    workers: usize,
    n_actors: usize,
    /// Actor `i` of this worker is at the slot [`place`] gives it.
    actors: Vec<Slot<M>>,
    /// Deliveries between actors of this worker, in send order.
    local: VecDeque<Delivery<M>>,
    peers: Vec<Sender<Job<M>>>,
    clock: Arc<MonoClock>,
    counters: Arc<[Counters]>,
    /// The outbox buffer every step borrows.
    buf: Vec<(ProcessId, M)>,
    panicked: Vec<ProcessId>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Worker<M> {
    /// A spawned worker's thread: start every actor, then drain the
    /// channel in batches until a shutdown marker. Returns the actors
    /// that panicked.
    fn run(mut self, rx: Receiver<Job<M>>, poll_tries: u32) -> Vec<ProcessId> {
        self.start();
        // Batched drain: one wait per backlog burst (polled, then
        // blocking), then opportunistic try_recv up to the cap. The batch
        // length is the observed mailbox depth. The worker waits only
        // when its local queue is empty: a capped local drain leaves work
        // behind.
        let mut batch: Vec<Job<M>> = Vec::with_capacity(DRAIN_BATCH_MAX);
        loop {
            if self.local.is_empty() {
                match next_job(&rx, poll_tries) {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
            fill(&rx, &mut batch);
            if !self.run_batch(&mut batch) {
                break;
            }
        }
        self.panicked
    }

    /// Runs every actor's `on_start`, and the local deliveries they set
    /// off.
    fn start(&mut self) {
        let busy_since = self.clock.elapsed_us();
        for i in 0..self.n_actors {
            if place(i, self.n_actors, self.workers).0 == self.index {
                self.step(i as u32, None);
            }
        }
        self.drain_local();
        self.end_batch(busy_since);
    }

    /// Runs one batch of mailbox jobs, each followed by the local
    /// deliveries it sets off, then what is left on the local run queue,
    /// and records the batch's busy time and counters. Returns `false`
    /// at a shutdown marker: the jobs after it are dropped.
    fn run_batch(&mut self, batch: &mut Vec<Job<M>>) -> bool {
        let busy_since = self.clock.elapsed_us();
        if !batch.is_empty() {
            let c = &self.counters[self.index];
            add(&c.drained_batches, 1);
            add(&c.drained_messages, batch.len() as u64);
            if batch.len() as u64 > c.max_batch.load(Ordering::Relaxed) {
                c.max_batch.store(batch.len() as u64, Ordering::Relaxed);
            }
        }
        for job in batch.drain(..) {
            match job {
                Job::Deliver(Delivery { to, from, msg }) => {
                    self.step(to, Some((from, msg)));
                    self.drain_local();
                }
                Job::Shutdown => return false,
            }
        }
        self.drain_local();
        self.end_batch(busy_since);
        true
    }

    /// Runs queued local deliveries in send order, at most
    /// [`DRAIN_BATCH_MAX`] of them, so a chain of local sends cannot keep
    /// the worker from its channel.
    fn drain_local(&mut self) {
        for _ in 0..DRAIN_BATCH_MAX {
            let Some(Delivery { to, from, msg }) = self.local.pop_front() else {
                return;
            };
            self.step(to, Some((from, msg)));
        }
    }

    /// One actor step: `on_message`, or `on_start` when `input` is
    /// `None`. Messages to a crashed actor are dropped; a step that
    /// panics crashes its actor and sends nothing.
    fn step(&mut self, to: u32, input: Option<(ProcessId, M)>) {
        let (_, slot) = place(to as usize, self.n_actors, self.workers);
        let Some(actor) = self.actors[slot].as_mut() else {
            return;
        };
        let clock = || SimTime::from_ticks(self.clock.elapsed_us());
        let now = LazyNow::new(&clock);
        let me = ProcessId::new(to);
        let mut out = Outbox::with_lazy_now(me, &now, std::mem::take(&mut self.buf));
        let stepped = catch_unwind(AssertUnwindSafe(|| match input {
            Some((from, msg)) => actor.on_message(from, msg, &mut out),
            None => actor.on_start(&mut out),
        }));
        let mut msgs = out.into_messages();
        if now.reading().is_some() {
            add(&self.counters[self.index].step_clock_reads, 1);
        }
        if stepped.is_ok() {
            self.route(me, &mut msgs);
        } else {
            self.actors[slot] = None;
            self.panicked.push(me);
            msgs.clear();
        }
        self.buf = msgs;
    }

    /// Routes one step's sends: onto the local run queue when the
    /// receiver is on this worker, onto its worker's channel otherwise.
    /// Sends to unknown ids, and to a worker that already shut down, are
    /// dropped — the same "stays in transit forever" semantics as the
    /// simulator's closed links.
    fn route(&mut self, from: ProcessId, msgs: &mut Vec<(ProcessId, M)>) {
        let (mut local, mut remote) = (0, 0);
        for (to, msg) in msgs.drain(..) {
            let idx = to.index() as usize;
            if idx >= self.n_actors {
                continue;
            }
            let delivery = Delivery {
                to: to.index(),
                from,
                msg,
            };
            let (worker, _) = place(idx, self.n_actors, self.workers);
            if worker == self.index {
                self.local.push_back(delivery);
                local += 1;
            } else {
                let _ = self.peers[worker].send(Job::Deliver(delivery));
                remote += 1;
            }
        }
        let c = &self.counters[self.index];
        if local > 0 {
            add(&c.local_sends, local);
        }
        if remote > 0 {
            add(&c.remote_sends, remote);
        }
    }

    /// Closes the busy interval of a batch that started at `since`.
    fn end_batch(&self, since: u64) {
        let busy = self.clock.elapsed_us().saturating_sub(since);
        add(&self.counters[self.index].busy_us, busy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    struct Responder;
    impl Automaton for Responder {
        type Msg = Msg;
        fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            if matches!(msg, Msg::Ping) {
                out.send(from, Msg::Pong);
            }
        }
    }

    struct Initiator {
        peer: ProcessId,
        pongs: usize,
        expect: usize,
        done: mpsc::Sender<usize>,
    }
    impl Automaton for Initiator {
        type Msg = Msg;
        fn on_message(&mut self, _from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            match msg {
                Msg::Ping => out.send(self.peer, Msg::Ping),
                Msg::Pong => {
                    self.pongs += 1;
                    if self.pongs == self.expect {
                        let _ = self.done.send(self.pongs);
                    }
                }
            }
        }
    }

    /// Panics on every message.
    struct Panicker;
    impl Automaton for Panicker {
        type Msg = Msg;
        fn on_message(&mut self, _from: ProcessId, _msg: Msg, _out: &mut Outbox<Msg>) {
            panic!("this actor crashes on its first message");
        }
    }

    fn initiator(peer: u32, expect: usize, done: mpsc::Sender<usize>) -> Box<Initiator> {
        Box::new(Initiator {
            peer: ProcessId::new(peer),
            pongs: 0,
            expect,
            done,
        })
    }

    /// Runs worker 0 on this thread until `done` holds; gives up after
    /// 30 s. Returns whether `done` held.
    fn drive<M: Clone + std::fmt::Debug + Send + 'static>(
        pool: &mut ActorPool<M>,
        mut done: impl FnMut(&ActorPool<M>) -> bool,
    ) -> bool {
        let deadline = pool.now_ticks() + 30_000_000;
        while !done(pool) {
            if pool.now_ticks() >= deadline {
                return false;
            }
            pool.run_home(Duration::from_millis(1));
        }
        true
    }

    /// Drives worker 0 until `rx` yields a value, and returns it.
    fn recv<M: Clone + std::fmt::Debug + Send + 'static, T>(
        pool: &mut ActorPool<M>,
        rx: &mpsc::Receiver<T>,
    ) -> T {
        let mut got = None;
        let arrived = drive(pool, |_| {
            got = got.take().or_else(|| rx.try_recv().ok());
            got.is_some()
        });
        assert!(arrived, "nothing arrived within 30 s");
        got.expect("arrived")
    }

    fn ping_pong(workers: usize) {
        let (tx, rx) = mpsc::channel();
        let mut pool = ActorPool::spawn(
            vec![
                initiator(1, 10, tx) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(workers),
        );
        for _ in 0..10 {
            pool.inject(ProcessId::new(0), Msg::Ping);
        }
        assert_eq!(recv(&mut pool, &rx), 10, "all pongs arrive");
        // 10 pings forwarded + 10 pongs back.
        assert_eq!(pool.messages_sent(), 20);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn round_trips_complete_on_one_worker() {
        ping_pong(1);
    }

    #[test]
    fn round_trips_complete_on_more_workers_than_actors() {
        // Requested 4, clamped to 2 actors.
        ping_pong(4);
    }

    #[test]
    fn worker_count_is_clamped() {
        let pool: ActorPool<Msg> =
            ActorPool::spawn(vec![Box::new(Responder), Box::new(Responder)], {
                RtConfig::new(16)
            });
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn zero_workers_means_one() {
        let pool: ActorPool<Msg> = ActorPool::spawn(vec![Box::new(Responder)], RtConfig::new(0));
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn empty_pool_spawns_and_shuts_down() {
        let mut pool: ActorPool<u32> = ActorPool::spawn(vec![], RtConfig::default());
        assert!(pool.is_empty());
        assert_eq!(pool.workers(), 1);
        pool.inject(ProcessId::new(0), 1); // ignored, no panic
        assert_eq!(pool.run_home(Duration::ZERO), 0);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn on_start_runs_before_messages() {
        struct Starter {
            tx: mpsc::Sender<&'static str>,
        }
        impl Automaton for Starter {
            type Msg = ();
            fn on_start(&mut self, _out: &mut Outbox<()>) {
                let _ = self.tx.send("start");
            }
            fn on_message(&mut self, _f: ProcessId, _m: (), _o: &mut Outbox<()>) {
                let _ = self.tx.send("msg");
            }
        }
        let (tx, rx) = mpsc::channel();
        let mut pool = ActorPool::spawn(
            vec![Box::new(Starter { tx }) as Box<dyn Automaton<Msg = ()>>],
            RtConfig::new(1),
        );
        pool.inject(ProcessId::new(0), ());
        assert_eq!(recv(&mut pool, &rx), "start");
        assert_eq!(recv(&mut pool, &rx), "msg");
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let (tx, _rx) = mpsc::channel();
        let pool = ActorPool::spawn(
            vec![
                initiator(1, 1, tx) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(2),
        );
        drop(pool); // must not hang or panic
    }

    #[test]
    fn stats_count_drained_jobs() {
        let (tx, rx) = mpsc::channel();
        let mut pool = ActorPool::spawn(
            vec![
                initiator(1, 10, tx) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(2),
        );
        for _ in 0..10 {
            pool.inject(ProcessId::new(0), Msg::Ping);
        }
        recv(&mut pool, &rx);
        let stats = pool.stats();
        // Two workers, one actor each: every routed message crosses a
        // channel. 10 injections (worker 0's inbox jobs) + 20 routed
        // messages, all drained in batches.
        assert_eq!((stats.local_sends, stats.remote_sends), (0, 20));
        assert!(stats.drained_messages >= 30);
        assert!(stats.drained_batches >= 1);
        assert!(stats.drained_batches <= stats.drained_messages);
        assert!(stats.max_batch >= 1);
        assert!(stats.max_batch <= DRAIN_BATCH_MAX as u64);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn a_step_reads_the_clock_once_when_it_asks_and_never_otherwise() {
        /// Asks for the time twice, 2 ms apart, and reports both answers.
        struct Stamper(mpsc::Sender<(u64, u64)>);
        impl Automaton for Stamper {
            type Msg = Msg;
            fn on_message(&mut self, _from: ProcessId, _msg: Msg, out: &mut Outbox<Msg>) {
                let first = out.now().ticks();
                std::thread::sleep(Duration::from_millis(2));
                let _ = self.0.send((first, out.now().ticks()));
            }
        }
        for workers in [1, 2] {
            let (tx, rx) = mpsc::channel();
            let (stamps, stamped) = mpsc::channel();
            let mut pool = ActorPool::spawn(
                vec![
                    initiator(1, 10, tx) as Box<dyn Automaton<Msg = Msg>>,
                    Box::new(Responder),
                    Box::new(Stamper(stamps)),
                ],
                RtConfig::new(workers),
            );
            for _ in 0..10 {
                pool.inject(ProcessId::new(0), Msg::Ping);
            }
            recv(&mut pool, &rx);
            assert_eq!(pool.stats().step_clock_reads, 0, "echo actors never ask");
            for _ in 0..3 {
                pool.inject(ProcessId::new(2), Msg::Ping);
            }
            for _ in 0..3 {
                let (first, second) = recv(&mut pool, &stamped);
                assert_eq!(first, second, "one reading per step, not one per ask");
            }
            // A step's read is counted after the step returns.
            drive(&mut pool, |p| p.stats().step_clock_reads >= 3);
            assert_eq!(pool.stats().step_clock_reads, 3, "workers = {workers}");
            assert_eq!(pool.shutdown(), Ok(()));
        }
    }

    #[test]
    fn clock_ticks_are_monotonic_microseconds() {
        let pool: ActorPool<u32> = ActorPool::spawn(vec![], RtConfig::default());
        let a = pool.now_ticks();
        std::thread::sleep(Duration::from_millis(2));
        let b = pool.now_ticks();
        assert!(b >= a + 1_000, "2ms sleep advances ≥ 1000 ticks (µs)");
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn a_same_worker_link_and_a_cross_worker_link_both_deliver_in_send_order() {
        const N: u64 = 500;
        /// On any message, sends `1..=N` to actor 2 (alone on the other
        /// worker at two workers) and to actor 1 (on actor 0's worker).
        struct Burst;
        impl Automaton for Burst {
            type Msg = u64;
            fn on_message(&mut self, _from: ProcessId, _msg: u64, out: &mut Outbox<u64>) {
                for v in 1..=N {
                    out.send(ProcessId::new(2), v);
                    out.send(ProcessId::new(1), v);
                }
            }
        }
        /// Reports every value it receives, tagged with its own id.
        struct Collect(mpsc::Sender<(u32, u64)>);
        impl Automaton for Collect {
            type Msg = u64;
            fn on_message(&mut self, _from: ProcessId, v: u64, out: &mut Outbox<u64>) {
                let _ = self.0.send((out.this().index(), v));
            }
        }
        let (tx, rx) = mpsc::channel();
        let mut pool = ActorPool::spawn(
            vec![
                Box::new(Burst) as Box<dyn Automaton<Msg = u64>>,
                Box::new(Collect(tx.clone())),
                Box::new(Collect(tx)),
            ],
            RtConfig::new(2),
        );
        pool.inject(ProcessId::new(0), 0);
        let mut got: [Vec<u64>; 3] = Default::default();
        for _ in 0..2 * N {
            let (who, v) = recv(&mut pool, &rx);
            got[who as usize].push(v);
        }
        let want: Vec<u64> = (1..=N).collect();
        assert_eq!(got[1], want, "same-worker link");
        assert_eq!(got[2], want, "cross-worker link");
        let stats = pool.stats();
        assert_eq!((stats.local_sends, stats.remote_sends), (N, N));
        assert_eq!(pool.messages_sent(), 2 * N);
        assert_eq!(pool.shutdown(), Ok(()));
    }

    #[test]
    fn a_parked_worker_wakes_and_a_polling_worker_keeps_link_order() {
        // A pool polls only with a core for each of its threads.
        assert_eq!(poll_tries(2, 2), POLL_TRIES);
        assert_eq!(poll_tries(2, 1), 0);
        assert_eq!(poll_tries(4, 2), 0);
        const BURST: u64 = 200;
        /// Forwards every value to actor 0.
        struct Forward;
        impl Automaton for Forward {
            type Msg = u64;
            fn on_message(&mut self, _from: ProcessId, v: u64, out: &mut Outbox<u64>) {
                out.send(ProcessId::new(0), v);
            }
        }
        /// Reports `(sender, value)` for every value it receives.
        struct Report(mpsc::Sender<(u32, u64)>);
        impl Automaton for Report {
            type Msg = u64;
            fn on_message(&mut self, from: ProcessId, v: u64, _out: &mut Outbox<u64>) {
                let _ = self.0.send((from.index(), v));
            }
        }
        for workers in [2, 4] {
            // Actor 0 on worker 0, and one forwarder on each spawned worker.
            let (tx, rx) = mpsc::channel();
            let mut actors: Vec<Box<dyn Automaton<Msg = u64>>> = vec![Box::new(Report(tx))];
            actors.extend((1..workers).map(|_| Box::new(Forward) as Box<dyn Automaton<Msg = u64>>));
            // Polling whatever this host's cores: the test is about the
            // polled path and the park after it.
            let mut pool = ActorPool::spawn_polling(actors, workers, POLL_TRIES);
            let forwarders: Vec<u32> = (1..workers as u32).collect();
            // Idle far longer than the poll budget: every spawned worker
            // has parked, and a message must wake it.
            std::thread::sleep(Duration::from_millis(20));
            for &a in &forwarders {
                pool.inject(ProcessId::new(a), 0);
            }
            let mut woke: Vec<u32> = forwarders
                .iter()
                .map(|_| recv(&mut pool, &rx))
                .map(|(from, v)| {
                    assert_eq!(v, 0, "workers = {workers}");
                    from
                })
                .collect();
            woke.sort_unstable();
            assert_eq!(woke, forwarders, "workers = {workers}");
            // Each worker has just run a batch and polls again: a burst
            // sent now is caught polling, and each link stays in order.
            for v in 1..=BURST {
                for &a in &forwarders {
                    pool.inject(ProcessId::new(a), v);
                }
            }
            let mut got = vec![Vec::new(); workers];
            for _ in 0..BURST * forwarders.len() as u64 {
                let (from, v) = recv(&mut pool, &rx);
                got[from as usize].push(v);
            }
            let want: Vec<u64> = (1..=BURST).collect();
            for &a in &forwarders {
                assert_eq!(got[a as usize], want, "workers = {workers}, actor {a}");
            }
            assert_eq!(pool.shutdown(), Ok(()));
        }
    }

    #[test]
    fn placement_is_a_bijection_onto_dense_slots_per_worker() {
        for n in 0..=12 {
            for w in 1..=n {
                let mut slots: Vec<Vec<usize>> = vec![Vec::new(); w];
                for i in 0..n {
                    let (worker, slot) = place(i, n, w);
                    slots[worker].push(slot);
                    if w == 1 {
                        assert_eq!((worker, slot), (0, i), "n = {n}: w = 1 is the identity");
                    }
                    if w == n {
                        assert_eq!((worker, slot), (i, 0), "n = {n}: w = n is one per worker");
                    }
                }
                for (worker, got) in slots.iter().enumerate() {
                    let dense: Vec<usize> = (0..got.len()).collect();
                    assert_eq!(got, &dense, "n = {n}, w = {w}, worker {worker}");
                    assert!(!got.is_empty(), "n = {n}, w = {w}: worker {worker} is idle");
                }
                assert_eq!(
                    slots[0].len(),
                    n - w + 1,
                    "n = {n}, w = {w}: worker 0 keeps the rest"
                );
            }
        }
    }

    #[test]
    fn injections_and_sends_reach_the_actor_built_with_that_id() {
        /// A message addressed to actor `.0`, to be forwarded to `.1`.
        type Hop = (u32, Option<u32>);
        /// Reports `(id it was built as, id the message was for)`, then
        /// forwards the message if it has a next hop.
        struct Tagged {
            built: u32,
            seen: mpsc::Sender<(u32, u32)>,
        }
        impl Automaton for Tagged {
            type Msg = Hop;
            fn on_message(&mut self, _from: ProcessId, (to, next): Hop, out: &mut Outbox<Hop>) {
                let _ = self.seen.send((self.built, to));
                if let Some(next) = next {
                    out.send(ProcessId::new(next), (next, None));
                }
            }
        }
        const N: u32 = 5;
        for workers in 1..=N as usize {
            let (tx, rx) = mpsc::channel();
            let mut pool = ActorPool::spawn(
                (0..N)
                    .map(|built| {
                        let seen = tx.clone();
                        Box::new(Tagged { built, seen }) as Box<dyn Automaton<Msg = Hop>>
                    })
                    .collect(),
                RtConfig::new(workers),
            );
            for i in 0..N {
                for j in 0..N {
                    pool.inject(ProcessId::new(i), (i, Some(j)));
                }
            }
            for _ in 0..2 * N * N {
                let (built, to) = recv(&mut pool, &rx);
                assert_eq!(built, to, "workers = {workers}");
            }
            assert_eq!(pool.shutdown(), Ok(()));
        }
    }

    #[test]
    fn a_panicking_actor_is_a_crash_reported_at_shutdown() {
        let (tx, rx) = mpsc::channel();
        let mut pool = ActorPool::spawn(
            vec![
                initiator(2, 10, tx) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Panicker),
                Box::new(Responder),
            ],
            RtConfig::new(2),
        );
        // Crashes actor 1; the second message to it is dropped.
        pool.inject(ProcessId::new(1), Msg::Ping);
        pool.inject(ProcessId::new(1), Msg::Ping);
        // The rest of the pool keeps running.
        for _ in 0..10 {
            pool.inject(ProcessId::new(0), Msg::Ping);
        }
        assert_eq!(recv(&mut pool, &rx), 10, "the survivors keep answering");
        assert_eq!(
            pool.shutdown(),
            Err(RtError::ActorPanicked {
                actors: vec![ProcessId::new(1)]
            })
        );
    }

    #[test]
    fn dropping_a_pool_while_unwinding_does_not_abort() {
        let unwound = std::panic::catch_unwind(|| {
            let mut pool: ActorPool<Msg> =
                ActorPool::spawn(vec![Box::new(Panicker)], RtConfig::new(1));
            pool.inject(ProcessId::new(0), Msg::Ping);
            // The actor crashes on this thread, before the caller panics.
            assert_eq!(pool.run_home(Duration::ZERO), 1);
            panic!("the caller unwinds with the pool alive");
        });
        assert!(unwound.is_err());
    }
}
