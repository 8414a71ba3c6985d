//! Threads for work that is not actors: two fan-out tools whose results
//! never depend on the thread count.
//!
//! * [`map_ordered`] spawns scoped threads per call. Its items and its
//!   closure may borrow from the caller, so it suits a one-off fan-out
//!   whose work dwarfs a spawn: the exploration engine's cells, the
//!   store checker's keys.
//! * [`Crew`] keeps its helper threads for its whole life and hands them
//!   owned (`'static`) items on every [`run`](Crew::run), so it suits
//!   work that comes back many times in small slices: the sharded
//!   store's flushes, tens of microseconds per shard, which a spawn per
//!   call would cost more than.
//!
//! They stay two tools because one borrows and the other cannot: a
//! long-lived thread outlives every borrow its caller could lend it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

use crate::{next_job, poll_tries};

/// Runs `f(index, item)` over every item on a pool of `threads` OS
/// threads, returning the results **in item order**.
///
/// Work is claimed from a shared atomic cursor, so threads self-balance
/// across items of uneven cost; each result is written to its item's
/// slot, so the output vector is a pure function of the inputs and `f` —
/// the thread count changes only the wall-clock, never the result. This
/// is the property the schedule-exploration engine leans on for its
/// "same cells, same verdicts, any `--threads`" guarantee.
///
/// `threads` is clamped to `1..=items.len()`; `threads <= 1` runs inline
/// on the calling thread (no spawn).
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated).
///
/// # Examples
///
/// ```
/// use fastreg_rt::threaded::map_ordered;
///
/// let squares = map_ordered((0u64..8).collect(), 3, |i, x| {
///     assert_eq!(i as u64, x);
///     x * x
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let r = f(i, item);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// One worker's share of a [`Crew::run`]: its items, in index order, and
/// what the step returned for each — for every item, unless the step
/// panicked, whose payload then travels back too. Its vectors keep their
/// capacity from run to run, so a warm crew allocates nothing.
struct Load<T, R> {
    items: Vec<T>,
    results: Vec<R>,
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, R> Default for Load<T, R> {
    fn default() -> Self {
        Load {
            items: Vec::new(),
            results: Vec::new(),
            panic: None,
        }
    }
}

impl<T, R> Load<T, R> {
    /// Steps every item in order, catching a panic so the items survive
    /// it. Results a caller left unread from the last run are dropped.
    fn run(&mut self, step: fn(&mut T) -> R) {
        let Load {
            items,
            results,
            panic,
        } = self;
        results.clear();
        *panic = catch_unwind(AssertUnwindSafe(|| {
            results.extend(items.iter_mut().map(step));
        }))
        .err();
    }
}

/// A helper thread of a [`Crew`]: `None` on its job channel stops it.
struct Helper<T, R> {
    jobs: Sender<Option<Load<T, R>>>,
    done: Receiver<Load<T, R>>,
    handle: Option<JoinHandle<()>>,
}

impl<T, R> Drop for Helper<T, R> {
    fn drop(&mut self) {
        let _ = self.jobs.send(None);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A fixed set of workers that repeatedly steps a vector of owned items:
/// worker 0 is the caller's thread, and workers `1..w` are threads the
/// crew spawns once and keeps until it is dropped (or until a run asks
/// for another `w`).
///
/// [`run`](Crew::run) moves item `i` to worker `i mod w`, steps every
/// item there, and moves it back to index `i`, so the items, the order
/// of the results and everything the step did to each item are the same
/// at any `w`; only the wall-clock differs. `w` is the requested count
/// clamped to the host's cores and to the number of items: on one core,
/// or for one item, the crew spawns nothing and the caller steps
/// everything.
///
/// A helper waits for work by rt's polling rule (it tries its channel
/// `POLL_TRIES` times, yielding its core every 16
/// tries, then parks), and so does the caller waiting for a helper: a
/// crew run every few microseconds never parks, and an idle crew stops
/// spinning within about a millisecond.
///
/// # Examples
///
/// ```
/// use fastreg_rt::threaded::Crew;
///
/// fn bump(x: &mut u64) -> u64 {
///     *x += 1;
///     *x * 10
/// }
///
/// let mut crew = Crew::new(bump, 2);
/// let mut items: Vec<u64> = (0..5).collect();
/// let results: Vec<u64> = crew.run(&mut items, 2).collect();
/// assert_eq!(items, vec![1, 2, 3, 4, 5]);
/// assert_eq!(results, vec![10, 20, 30, 40, 50]);
/// ```
pub struct Crew<T, R> {
    step: fn(&mut T) -> R,
    cores: usize,
    /// One load per worker, worker 0's first. A helper's load is here
    /// between runs and on its thread during one.
    loads: Vec<Load<T, R>>,
    /// Workers `1..w`.
    helpers: Vec<Helper<T, R>>,
}

impl<T: Send + 'static, R: Send + 'static> Crew<T, R> {
    /// A crew that runs `step` on a host of `cores` cores (read once by
    /// the caller, e.g. with [`available_cores`](crate::available_cores)).
    /// It starts with worker 0 alone; the first [`run`](Self::run) that
    /// asks for more spawns them.
    pub fn new(step: fn(&mut T) -> R, cores: usize) -> Self {
        Crew {
            step,
            cores: cores.max(1),
            loads: vec![Load::default()],
            helpers: Vec::new(),
        }
    }

    /// Workers now running, the caller's thread included.
    pub fn workers(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Steps every item of `items` on `w = min(workers, cores,
    /// items.len())` workers (at least 1) and returns the step's results
    /// in item order. `items` is whole and in its old order when this
    /// returns, and when it panics.
    ///
    /// # Panics
    ///
    /// If the step panics on any item, every item is first moved back
    /// into `items`, then the first panic (by worker) resumes here.
    pub fn run<'a>(
        &'a mut self,
        items: &mut Vec<T>,
        workers: usize,
    ) -> impl Iterator<Item = R> + 'a {
        let n = items.len();
        let w = workers.min(self.cores).min(n).max(1);
        self.resize(w);
        for (i, item) in items.drain(..).enumerate() {
            self.loads[i % w].items.push(item);
        }
        for (helper, load) in self.helpers.iter().zip(&mut self.loads[1..]) {
            let _ = helper.jobs.send(Some(std::mem::take(load)));
        }
        self.loads[0].run(self.step);
        let tries = poll_tries(w, self.cores);
        for (helper, load) in self.helpers.iter().zip(&mut self.loads[1..]) {
            *load = next_job(&helper.done, tries).expect("a crew helper returns every load");
        }
        // Item `i` is at slot `i / w` of load `i % w`: reversed, each
        // load hands its items (and results) out from the back in order.
        for load in &mut self.loads {
            load.items.reverse();
            load.results.reverse();
        }
        let loads = &mut self.loads;
        items.extend((0..n).map(|i| loads[i % w].items.pop().expect("one slot per item")));
        if let Some(panic) = loads.iter_mut().find_map(|load| load.panic.take()) {
            resume_unwind(panic);
        }
        (0..n).map(move |i| loads[i % w].results.pop().expect("one result per item"))
    }

    /// Stops or spawns helpers until the crew has `w` workers.
    fn resize(&mut self, w: usize) {
        if w == self.workers() {
            return;
        }
        self.helpers.truncate(w - 1);
        let tries = poll_tries(w, self.cores);
        while self.helpers.len() < w - 1 {
            let (jobs, job_rx) = channel::<Option<Load<T, R>>>();
            let (done_tx, done) = channel();
            let step = self.step;
            let handle = std::thread::Builder::new()
                .name(format!("fastreg-crew-{}", self.helpers.len() + 1))
                .spawn(move || {
                    while let Some(Some(mut load)) = next_job(&job_rx, tries) {
                        load.run(step);
                        if done_tx.send(load).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn crew helper thread");
            self.helpers.push(Helper {
                jobs,
                done,
                handle: Some(handle),
            });
        }
        self.loads.resize_with(w, Load::default);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn map_ordered_preserves_item_order_across_thread_counts() {
        let work = |items: Vec<u64>, threads: usize| {
            map_ordered(items, threads, |i, x| {
                // Uneven per-item cost: later items finish out of claim
                // order on a real pool, which is exactly what the
                // order-preserving contract must absorb.
                let mut acc = x;
                for _ in 0..(x % 7) * 1_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                }
                (i, acc)
            })
        };
        let items: Vec<u64> = (0..64).collect();
        let one = work(items.clone(), 1);
        for threads in [2, 4, 8] {
            assert_eq!(work(items.clone(), threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn map_ordered_handles_empty_and_oversized_pools() {
        let empty: Vec<u32> = map_ordered(Vec::<u32>::new(), 4, |_, x| x);
        assert!(empty.is_empty());
        // More threads than items: clamped, still complete and ordered.
        let out = map_ordered(vec![10u32, 20, 30], 16, |i, x| x + i as u32);
        assert_eq!(out, vec![10, 21, 32]);
    }

    /// An item that records the thread that last stepped it.
    #[derive(Debug)]
    struct Tagged {
        index: usize,
        ran_on: Option<ThreadId>,
    }

    fn tag(item: &mut Tagged) -> usize {
        item.ran_on = Some(std::thread::current().id());
        item.index
    }

    fn tagged(n: usize) -> Vec<Tagged> {
        (0..n)
            .map(|index| Tagged {
                index,
                ran_on: None,
            })
            .collect()
    }

    #[test]
    fn item_i_runs_on_worker_i_mod_w_and_comes_back_in_place() {
        // Four claimed cores, whatever the host has: the helpers exist
        // and park or poll, and the placement is still exact.
        let mut crew = Crew::new(tag, 4);
        let mut items = tagged(10);
        for w in [4, 2, 4] {
            let results: Vec<usize> = crew.run(&mut items, w).collect();
            assert_eq!(crew.workers(), w);
            assert_eq!(results, (0..10).collect::<Vec<_>>(), "w = {w}");
            let order: Vec<usize> = items.iter().map(|t| t.index).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "w = {w}");
            let me = std::thread::current().id();
            for item in &items {
                let peer = &items[item.index % w];
                assert_eq!(item.ran_on, peer.ran_on, "item {} at w = {w}", item.index);
                assert_eq!(item.ran_on == Some(me), item.index % w == 0);
            }
            let distinct: std::collections::BTreeSet<String> =
                items.iter().map(|t| format!("{:?}", t.ran_on)).collect();
            assert_eq!(distinct.len(), w, "one thread per worker at w = {w}");
        }
    }

    #[test]
    fn a_panicking_item_reraises_on_the_caller_with_every_item_back() {
        fn boom(x: &mut u32) -> u32 {
            assert_ne!(*x, 100, "item 100 fails");
            *x += 1;
            *x
        }
        let mut crew = Crew::new(boom, 2);
        // Items 0, 2, 4 run on worker 0 (the caller), 1 and 3 on the
        // helper. A panic stops its worker's load; the other load runs
        // whole, and every item comes back to its index.
        for (before, after) in [
            ([0, 100, 2, 3, 4], [1, 100, 3, 3, 5]), // on the helper
            ([100, 1, 2, 3, 4], [100, 2, 2, 4, 4]), // on the caller
        ] {
            let mut items = before.to_vec();
            let caught = catch_unwind(AssertUnwindSafe(|| crew.run(&mut items, 2).count()));
            assert!(
                caught.is_err(),
                "{before:?}: the panic resumes on the caller"
            );
            assert_eq!(items, after, "{before:?}");
            assert_eq!(crew.workers(), 2);
        }
        // The crew survives: the next run steps every item again, and
        // so does the one after a run whose results were left unread.
        let mut fine = vec![10, 20, 30];
        assert_eq!(crew.run(&mut fine, 2).next(), Some(11));
        let out: Vec<u32> = crew.run(&mut fine, 2).collect();
        assert_eq!(out, vec![12, 22, 32]);
    }

    #[test]
    fn on_one_core_the_caller_runs_everything_and_nothing_spawns() {
        let mut crew = Crew::new(tag, 1);
        let mut items = tagged(6);
        let results: Vec<usize> = crew.run(&mut items, 8).collect();
        assert_eq!(results, (0..6).collect::<Vec<_>>());
        assert_eq!(crew.workers(), 1);
        assert!(crew.helpers.is_empty());
        let me = Some(std::thread::current().id());
        assert!(items.iter().all(|t| t.ran_on == me));
        // One item needs no helper either, on any host.
        let mut crew = Crew::new(tag, 4);
        let _ = crew.run(&mut tagged(1), 4).count();
        assert_eq!(crew.workers(), 1);
    }
}
