//! The workspace's order-preserving worker pool, [`map_ordered`]: the
//! fan-out primitive the schedule-exploration engine and the sharded
//! store's checker use to run independent work on real threads while
//! keeping results — and therefore verdicts and counterexample bytes —
//! independent of the thread count. It spawns scoped threads per call,
//! so it suits fan-outs whose work dwarfs a spawn (seconds of cells or
//! keys), not a store flush's microseconds per shard.
//!
//! (Running *automata* on threads is `fastreg_rt`'s job, not this
//! module's.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// use fastreg_simnet::threaded::map_ordered;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
