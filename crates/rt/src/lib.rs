//! # fastreg_rt
//!
//! Real-threads actor runtime for the `fastreg` workspace.
//!
//! The discrete-event [`World`](fastreg_simnet::world::World) is the
//! repository's *oracle*: deterministic schedules, virtual time, scripted
//! faults, replayable traces. This crate is the *speed demon*: the same
//! [`Automaton`] implementations run unchanged on a small pool of OS
//! threads connected by an unbounded-channel spine, under wall-clock time.
//! Nothing here knows about register protocols — the pool is generic over
//! any message alphabet — and nothing here fakes the simulator's controls:
//! there is no virtual scheduler to randomize, no link to block, no trace
//! to fingerprint. Runs are nondeterministic; correctness is judged
//! *post hoc* by handing the harvested operation history to the
//! workspace's existing checkers.
//!
//! ## Shape
//!
//! [`ActorPool::spawn`] partitions `n` actors over `w ≤ n` worker threads
//! (actor `i` lives on worker `i mod w`). Each worker owns its actors
//! exclusively, so a step — receive, mutate state, emit an [`Outbox`] —
//! is as atomic as under the simulator, and per-sender FIFO order is
//! preserved by the channels. Worker count 1 degenerates to a serialized
//! (but still wall-clock) run; worker count `n` is one thread per actor.
//!
//! Times reported through [`Outbox::now`] are microseconds since the pool
//! started, so histories recorded here are directly comparable with
//! simulated ones (one tick = one microsecond).
//!
//! ## Example
//!
//! ```
//! use fastreg_rt::{ActorPool, RtConfig};
//! use fastreg_simnet::automaton::{Automaton, Outbox};
//! use fastreg_simnet::id::ProcessId;
//!
//! /// Forwards each value to the next actor, bumping it by one.
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
//! let pool = ActorPool::spawn(
//!     vec![
//!         Box::new(Relay { next: Some(ProcessId::new(1)), seen: tx.clone() }),
//!         Box::new(Relay { next: None, seen: tx }),
//!     ],
//!     RtConfig::new(2),
//! );
//! pool.inject(ProcessId::new(0), 41);
//! assert_eq!(rx.recv().unwrap(), 42);
//! pool.shutdown();
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use fastreg_obs::MonoClock;
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::time::SimTime;

/// Configuration of an [`ActorPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RtConfig {
    /// Requested worker threads; clamped to `1..=n_actors` at spawn.
    pub workers: usize,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig::new(1)
    }
}

impl RtConfig {
    /// A pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        RtConfig { workers }
    }
}

enum Job<M> {
    Deliver { to: u32, from: ProcessId, msg: M },
    Shutdown,
}

/// Upper bound on how many queued jobs a worker drains per wakeup.
/// Bounds the latency penalty any single actor pays to batching while
/// still amortizing the blocking-recv wakeup across a burst.
pub const DRAIN_BATCH_MAX: usize = 256;

/// Shared runtime counters, updated with relaxed atomics on the worker
/// hot path. Wall-clock derived and scheduling dependent — strictly
/// informational, never part of a determinism contract (unlike
/// [`SchedStats`](fastreg_simnet::world::SchedStats), its simnet
/// sibling).
#[derive(Debug, Default)]
struct RtCounters {
    drained_batches: AtomicU64,
    drained_messages: AtomicU64,
    max_batch: AtomicU64,
    busy_us: AtomicU64,
}

/// A snapshot of an [`ActorPool`]'s runtime counters
/// ([`ActorPool::stats`]).
///
/// The channel spine exposes no queue-length probe, so mailbox depth is
/// observed through its consumption: every worker wakeup drains up to
/// [`DRAIN_BATCH_MAX`] queued jobs in one batch, and the batch length
/// *is* the backlog that had accumulated — `max_batch` is therefore the
/// pool's observed mailbox-depth high-water mark (saturating at the
/// drain cap).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Worker wakeups that drained at least one job.
    pub drained_batches: u64,
    /// Total jobs drained across all batches.
    pub drained_messages: u64,
    /// Largest single drain batch (mailbox-depth high-water proxy,
    /// capped at [`DRAIN_BATCH_MAX`]).
    pub max_batch: u64,
    /// Total microseconds workers spent inside actor steps (`on_start`
    /// / `on_message` plus routing), summed across workers.
    pub busy_us: u64,
    /// Per-actor busy microseconds, indexed by actor id.
    pub busy_us_by_actor: Vec<u64>,
}

/// A running set of actors partitioned over a pool of worker threads.
///
/// Construct with [`ActorPool::spawn`], drive with [`ActorPool::inject`],
/// and stop with [`ActorPool::shutdown`] (or just drop the pool — the
/// destructor shuts it down too). Actor ids are assigned in vector order,
/// exactly like [`World::add_actor`](fastreg_simnet::world::World), so
/// the same layout addressing works on both runtimes.
pub struct ActorPool<M> {
    senders: Vec<Sender<Job<M>>>,
    handles: Vec<JoinHandle<()>>,
    n_actors: usize,
    sent: Arc<AtomicU64>,
    clock: Arc<MonoClock>,
    counters: Arc<RtCounters>,
    busy_by_actor: Arc<Vec<AtomicU64>>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> ActorPool<M> {
    /// Spawns the pool: `automata[i]` becomes actor `ProcessId(i)` owned
    /// by worker `i mod workers`. Each automaton's `on_start` runs on its
    /// worker before that worker processes any message.
    // The rt crate is the sanctioned habitat of the wall clock (lint
    // rules D2/D7): real threads need real time for uptime accounting
    // and busy-time attribution, via the quarantined obs::MonoClock.
    pub fn spawn(automata: Vec<Box<dyn Automaton<Msg = M>>>, cfg: RtConfig) -> Self {
        let n_actors = automata.len();
        let workers = cfg.workers.clamp(1, n_actors.max(1));
        let clock = Arc::new(MonoClock::new());
        let sent = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(RtCounters::default());
        let busy_by_actor: Arc<Vec<AtomicU64>> =
            Arc::new((0..n_actors).map(|_| AtomicU64::new(0)).collect());

        type Channel<M> = (Sender<Job<M>>, Receiver<Job<M>>);
        let channels: Vec<Channel<M>> = (0..workers).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Job<M>>> = channels.iter().map(|(s, _)| s.clone()).collect();

        // Partition the actors: worker w owns actor i iff i mod workers == w.
        let mut owned: Vec<BTreeMap<u32, Box<dyn Automaton<Msg = M>>>> =
            (0..workers).map(|_| BTreeMap::new()).collect();
        for (i, a) in automata.into_iter().enumerate() {
            owned[i % workers].insert(i as u32, a);
        }

        let mut handles = Vec::with_capacity(workers);
        for (w, ((_, rx), mut actors)) in channels.into_iter().zip(owned).enumerate() {
            let peers = senders.clone();
            let sent = Arc::clone(&sent);
            let clock = Arc::clone(&clock);
            let counters = Arc::clone(&counters);
            let busy_by_actor = Arc::clone(&busy_by_actor);
            let handle = std::thread::Builder::new()
                .name(format!("fastreg-rt-{w}"))
                .spawn(move || {
                    let now = || SimTime::from_ticks(clock.elapsed_us());
                    // Routes one step's outbox onto the spine. Sends to a
                    // worker that already shut down are dropped — the
                    // same "stays in transit forever" semantics as the
                    // simulator's closed links.
                    let route = |me: ProcessId, out: Outbox<M>| {
                        for (to, msg) in out.into_messages() {
                            let idx = to.index() as usize;
                            if idx < n_actors {
                                sent.fetch_add(1, Ordering::Relaxed);
                                let _ = peers[idx % workers].send(Job::Deliver {
                                    to: to.index(),
                                    from: me,
                                    msg,
                                });
                            }
                        }
                    };
                    // One actor step with busy-time attribution.
                    let step = |actors: &mut BTreeMap<u32, Box<dyn Automaton<Msg = M>>>,
                                id: u32,
                                from: Option<(ProcessId, M)>| {
                        if let Some(actor) = actors.get_mut(&id) {
                            let me = ProcessId::new(id);
                            let t0 = clock.elapsed_us();
                            let mut out = Outbox::new(me, now());
                            match from {
                                Some((from, msg)) => actor.on_message(from, msg, &mut out),
                                None => actor.on_start(&mut out),
                            }
                            route(me, out);
                            let dt = clock.elapsed_us().saturating_sub(t0);
                            busy_by_actor[id as usize].fetch_add(dt, Ordering::Relaxed);
                            counters.busy_us.fetch_add(dt, Ordering::Relaxed);
                        }
                    };
                    let ids: Vec<u32> = actors.keys().copied().collect();
                    for id in ids {
                        step(&mut actors, id, None);
                    }
                    // Batched drain: one blocking recv per backlog burst,
                    // then opportunistic try_recv up to the cap. The
                    // batch length is the observed mailbox depth.
                    let mut batch: Vec<Job<M>> = Vec::with_capacity(DRAIN_BATCH_MAX);
                    'run: while let Ok(first) = rx.recv() {
                        batch.push(first);
                        while batch.len() < DRAIN_BATCH_MAX {
                            match rx.try_recv() {
                                Ok(job) => batch.push(job),
                                Err(_) => break,
                            }
                        }
                        counters.drained_batches.fetch_add(1, Ordering::Relaxed);
                        counters
                            .drained_messages
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        counters
                            .max_batch
                            .fetch_max(batch.len() as u64, Ordering::Relaxed);
                        for job in batch.drain(..) {
                            match job {
                                Job::Deliver { to, from, msg } => {
                                    step(&mut actors, to, Some((from, msg)));
                                }
                                // Stop exactly here: jobs drained after
                                // the Shutdown marker are dropped, same
                                // as the unbatched loop's semantics.
                                Job::Shutdown => break 'run,
                            }
                        }
                    }
                })
                .expect("spawn rt worker thread");
            handles.push(handle);
        }

        ActorPool {
            senders,
            handles,
            n_actors,
            sent,
            clock,
            counters,
            busy_by_actor,
        }
    }

    /// Sends `msg` to actor `to` from the external environment
    /// ([`ProcessId::EXTERNAL`]) — the entry point operation invocations
    /// use, exactly like `World::inject`. Unknown ids are ignored.
    pub fn inject(&self, to: ProcessId, msg: M) {
        let idx = to.index() as usize;
        if idx < self.n_actors {
            let _ = self.senders[idx % self.senders.len()].send(Job::Deliver {
                to: to.index(),
                from: ProcessId::EXTERNAL,
                msg,
            });
        }
    }
}

impl<M> ActorPool<M> {
    /// Number of actors in the pool.
    pub fn len(&self) -> usize {
        self.n_actors
    }

    /// Returns `true` if the pool has no actors.
    pub fn is_empty(&self) -> bool {
        self.n_actors == 0
    }

    /// Number of worker threads actually running (the configured count
    /// clamped to `1..=len()`).
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Total actor-to-actor messages routed so far (injections are not
    /// counted — they are environment events, not network traffic).
    pub fn messages_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Microseconds elapsed since the pool started — the wall-clock
    /// analogue of the simulator's virtual `now`.
    pub fn now_ticks(&self) -> u64 {
        self.clock.elapsed_us()
    }

    /// A snapshot of the pool's runtime counters (drain batches, the
    /// mailbox-depth high-water proxy, per-actor busy time). Wall-clock
    /// derived: informational only, never under a byte-identity
    /// contract.
    pub fn stats(&self) -> RtStats {
        RtStats {
            drained_batches: self.counters.drained_batches.load(Ordering::Relaxed),
            drained_messages: self.counters.drained_messages.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
            busy_us: self.counters.busy_us.load(Ordering::Relaxed),
            busy_us_by_actor: self
                .busy_by_actor
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Stops every worker after it drains the jobs already queued, and
    /// joins the threads. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("rt worker thread panicked");
        }
    }
}

impl<M> Drop for ActorPool<M> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

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

    fn ping_pong(workers: usize) {
        let (tx, rx) = mpsc::channel();
        let pool = ActorPool::spawn(
            vec![
                Box::new(Initiator {
                    peer: ProcessId::new(1),
                    pongs: 0,
                    expect: 10,
                    done: tx,
                }) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(workers),
        );
        for _ in 0..10 {
            pool.inject(ProcessId::new(0), Msg::Ping);
        }
        let pongs = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("all pongs arrive");
        assert_eq!(pongs, 10);
        // 10 pings forwarded + 10 pongs back.
        assert_eq!(pool.messages_sent(), 20);
        pool.shutdown();
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
        pool.shutdown();
    }

    #[test]
    fn zero_workers_means_one() {
        let pool: ActorPool<Msg> = ActorPool::spawn(vec![Box::new(Responder)], RtConfig::new(0));
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }

    #[test]
    fn empty_pool_spawns_and_shuts_down() {
        let pool: ActorPool<u32> = ActorPool::spawn(vec![], RtConfig::default());
        assert!(pool.is_empty());
        assert_eq!(pool.workers(), 1);
        pool.inject(ProcessId::new(0), 1); // ignored, no panic
        pool.shutdown();
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
        let pool = ActorPool::spawn(
            vec![Box::new(Starter { tx }) as Box<dyn Automaton<Msg = ()>>],
            RtConfig::new(1),
        );
        pool.inject(ProcessId::new(0), ());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok("start")
        );
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok("msg")
        );
        pool.shutdown();
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let (tx, _rx) = mpsc::channel();
        let pool = ActorPool::spawn(
            vec![
                Box::new(Initiator {
                    peer: ProcessId::new(1),
                    pongs: 0,
                    expect: 1,
                    done: tx,
                }) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(2),
        );
        drop(pool); // must not hang or panic
    }

    #[test]
    fn stats_count_drained_jobs() {
        let (tx, rx) = mpsc::channel();
        let pool = ActorPool::spawn(
            vec![
                Box::new(Initiator {
                    peer: ProcessId::new(1),
                    pongs: 0,
                    expect: 10,
                    done: tx,
                }) as Box<dyn Automaton<Msg = Msg>>,
                Box::new(Responder),
            ],
            RtConfig::new(2),
        );
        for _ in 0..10 {
            pool.inject(ProcessId::new(0), Msg::Ping);
        }
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("all pongs arrive");
        let stats = pool.stats();
        // 10 injections + 20 routed messages, all drained in batches.
        assert!(stats.drained_messages >= 30);
        assert!(stats.drained_batches >= 1);
        assert!(stats.drained_batches <= stats.drained_messages);
        assert!(stats.max_batch >= 1);
        assert!(stats.max_batch <= DRAIN_BATCH_MAX as u64);
        assert_eq!(stats.busy_us_by_actor.len(), 2);
        pool.shutdown();
    }

    #[test]
    fn clock_ticks_are_monotonic_microseconds() {
        let pool: ActorPool<u32> = ActorPool::spawn(vec![], RtConfig::default());
        let a = pool.now_ticks();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = pool.now_ticks();
        assert!(b >= a + 1_000, "2ms sleep advances ≥ 1000 ticks (µs)");
        pool.shutdown();
    }
}
