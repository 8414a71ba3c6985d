//! General linearizability checking for register histories.
//!
//! A Wing–Gong style search with memoization (in the spirit of Lowe's
//! *Testing for linearizability*): the checker looks for a total order of
//! operations that (a) respects real-time precedence, (b) matches the
//! sequential specification of a read/write register, and (c) contains every
//! completed operation. Incomplete operations may be included (they took
//! effect) or left out (they never did) — exactly the completion semantics
//! of §3 of the paper.
//!
//! This checker is independent of the writer count, so it validates MWMR
//! histories (§7) and serves as an oracle to cross-check the specialized
//! SWMR checker on single-writer histories.

#[allow(clippy::disallowed_types)]
use std::collections::HashSet; // fastreg-lint: allow(nondet-order): DFS memo set, membership tests only, never iterated

use crate::history::{History, OpKind, Operation, RegValue};

/// Why a linearizability check could not be performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinCheckError {
    /// Histories are checked with a 64-bit operation mask; longer histories
    /// must be split or sampled.
    TooManyOps {
        /// The number of operations found.
        found: usize,
    },
}

impl std::fmt::Display for LinCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinCheckError::TooManyOps { found } => {
                write!(f, "history has {found} ops; checker supports at most 63")
            }
        }
    }
}

impl std::error::Error for LinCheckError {}

/// Checks whether a register history is linearizable.
///
/// Returns `Ok(true)` if a valid linearization exists, `Ok(false)` if none
/// does.
///
/// # Errors
///
/// Returns [`LinCheckError::TooManyOps`] for histories longer than 63
/// operations (the search uses a 64-bit mask).
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::linearizability::check_linearizable;
///
/// let mut h = History::new();
/// let w = h.invoke_write(0, 1, 0);
/// h.respond(w, None, 1);
/// let r = h.invoke_read(1, 2);
/// h.respond(r, Some(RegValue::Val(1)), 3);
/// assert_eq!(check_linearizable(&h), Ok(true));
/// ```
pub fn check_linearizable(history: &History) -> Result<bool, LinCheckError> {
    let ops: Vec<Operation> = history.ops().collect();
    if ops.len() >= 64 {
        return Err(LinCheckError::TooManyOps { found: ops.len() });
    }
    if ops.is_empty() {
        return Ok(true);
    }

    let n = ops.len();
    let complete_mask: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_complete())
        .fold(0, |m, (i, _)| m | (1 << i));

    // Precedence: op i must be linearized before op j if i precedes j in
    // real time. We drive the search by candidate sets: an op can be
    // linearized next iff every op that precedes it is already linearized.
    let mut preds: Vec<u64> = vec![0; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && ops[i].precedes(&ops[j]) {
                preds[j] |= 1 << i;
            }
        }
    }

    // DFS over (linearized mask, current register value), memoized.
    #[allow(clippy::disallowed_types)]
    // fastreg-lint: allow(nondet-order): memo set for insert/contains only; the verdict never depends on its order
    let mut seen: HashSet<(u64, RegValue)> = HashSet::new();
    let mut stack: Vec<(u64, RegValue)> = vec![(0, RegValue::Bottom)];
    let full = complete_mask;

    while let Some((mask, value)) = stack.pop() {
        if mask & full == full {
            return Ok(true);
        }
        if !seen.insert((mask, value)) {
            continue;
        }
        for i in 0..n {
            let bit = 1u64 << i;
            if mask & bit != 0 {
                continue;
            }
            if preds[i] & !mask != 0 {
                continue; // an op preceding i is not yet linearized
            }
            match ops[i].kind {
                OpKind::Write { value: v } => {
                    stack.push((mask | bit, RegValue::Val(v)));
                }
                OpKind::Read => {
                    // An incomplete read can be linearized with any outcome
                    // (or skipped); a complete read must match the register.
                    match ops[i].returned {
                        Some(ret) if ops[i].is_complete() => {
                            if ret == value {
                                stack.push((mask | bit, value));
                            }
                        }
                        _ => {
                            stack.push((mask | bit, value));
                        }
                    }
                }
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpId;
    use crate::swmr::check_swmr_atomicity;

    fn w(h: &mut History, proc: u32, v: u64, inv: u64, resp: u64) -> OpId {
        let id = h.invoke_write(proc, v, inv);
        h.respond(id, None, resp);
        id
    }

    fn r(h: &mut History, proc: u32, ret: RegValue, inv: u64, resp: u64) -> OpId {
        let id = h.invoke_read(proc, inv);
        h.respond(id, Some(ret), resp);
        id
    }

    #[test]
    fn empty_is_linearizable() {
        assert_eq!(check_linearizable(&History::new()), Ok(true));
    }

    #[test]
    fn simple_write_read() {
        let mut h = History::new();
        w(&mut h, 0, 1, 0, 1);
        r(&mut h, 1, RegValue::Val(1), 2, 3);
        assert_eq!(check_linearizable(&h), Ok(true));
    }

    #[test]
    fn stale_read_is_not_linearizable() {
        let mut h = History::new();
        w(&mut h, 0, 1, 0, 1);
        r(&mut h, 1, RegValue::Bottom, 2, 3);
        assert_eq!(check_linearizable(&h), Ok(false));
    }

    #[test]
    fn new_old_inversion_is_not_linearizable() {
        let mut h = History::new();
        h.invoke_write(0, 1, 0); // incomplete write
        r(&mut h, 1, RegValue::Val(1), 2, 4);
        r(&mut h, 2, RegValue::Bottom, 5, 7);
        assert_eq!(check_linearizable(&h), Ok(false));
    }

    #[test]
    fn concurrent_read_either_value() {
        for ret in [RegValue::Bottom, RegValue::Val(9)] {
            let mut h = History::new();
            let wr = h.invoke_write(0, 9, 0);
            h.respond(wr, None, 10);
            r(&mut h, 1, ret, 3, 5);
            assert_eq!(check_linearizable(&h), Ok(true), "ret={ret}");
        }
    }

    #[test]
    fn incomplete_write_optional() {
        // Incomplete write never observed: fine.
        let mut h = History::new();
        h.invoke_write(0, 5, 0);
        r(&mut h, 1, RegValue::Bottom, 1, 2);
        assert_eq!(check_linearizable(&h), Ok(true));

        // Incomplete write observed then lost: not linearizable.
        let mut h2 = History::new();
        h2.invoke_write(0, 5, 0);
        r(&mut h2, 1, RegValue::Val(5), 1, 2);
        r(&mut h2, 2, RegValue::Bottom, 3, 4);
        assert_eq!(check_linearizable(&h2), Ok(false));
    }

    #[test]
    fn mwmr_interleaving_is_checked() {
        // Two writers write concurrently; readers see them in a consistent
        // order.
        let mut h = History::new();
        let w1 = h.invoke_write(0, 1, 0);
        let w2 = h.invoke_write(1, 2, 1);
        h.respond(w1, None, 10);
        h.respond(w2, None, 11);
        r(&mut h, 2, RegValue::Val(1), 12, 13);
        // A later read seeing 2 is fine: linearize w1 then w2? No — w2 would
        // then be after the read of 1... order w1, read(1)? read is at 12,
        // both writes ended by 11. Sequence: w2, w1, read(1), read(2)?
        // read(2) after read(1) would need value 2 after 1... Not possible;
        // 2 must come after 1's read but w2 precedes the read in real time?
        // w2 responds at 11 < 12, so w2 must linearize before read(1) —
        // contradiction. The only valid continuation is reading 1 forever.
        r(&mut h, 3, RegValue::Val(2), 14, 15);
        assert_eq!(check_linearizable(&h), Ok(false));
    }

    #[test]
    fn mwmr_concurrent_writes_order_freely() {
        let mut h = History::new();
        let w1 = h.invoke_write(0, 1, 0);
        let w2 = h.invoke_write(1, 2, 0);
        h.respond(w1, None, 10);
        h.respond(w2, None, 10);
        r(&mut h, 2, RegValue::Val(1), 11, 12);
        assert_eq!(check_linearizable(&h), Ok(true));
        let mut h2 = History::new();
        let w1 = h2.invoke_write(0, 1, 0);
        let w2 = h2.invoke_write(1, 2, 0);
        h2.respond(w1, None, 10);
        h2.respond(w2, None, 10);
        r(&mut h2, 2, RegValue::Val(2), 11, 12);
        assert_eq!(check_linearizable(&h2), Ok(true));
    }

    #[test]
    fn repeated_values_are_supported() {
        // The SWMR checker rejects duplicates; the linearizability checker
        // handles them.
        let mut h = History::new();
        w(&mut h, 0, 5, 0, 1);
        w(&mut h, 0, 5, 2, 3);
        r(&mut h, 1, RegValue::Val(5), 4, 5);
        assert_eq!(check_linearizable(&h), Ok(true));
    }

    #[test]
    fn too_many_ops_is_an_error() {
        let mut h = History::new();
        for i in 0..64 {
            w(&mut h, 0, i, i * 2, i * 2 + 1);
        }
        assert_eq!(
            check_linearizable(&h),
            Err(LinCheckError::TooManyOps { found: 64 })
        );
        assert!(!format!("{}", LinCheckError::TooManyOps { found: 64 }).is_empty());
    }

    #[test]
    fn incomplete_read_never_blocks() {
        let mut h = History::new();
        w(&mut h, 0, 1, 0, 1);
        h.invoke_read(1, 2); // pending
        r(&mut h, 2, RegValue::Val(1), 3, 4);
        assert_eq!(check_linearizable(&h), Ok(true));
    }

    /// On random single-writer histories, the SWMR checker and the
    /// linearizability oracle agree.
    #[test]
    fn agrees_with_swmr_checker_on_random_histories() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(2004);
        let mut checked = 0;
        let mut rejected = 0;
        for _ in 0..400 {
            let h = random_swmr_history(&mut rng);
            let lin = check_linearizable(&h).unwrap();
            match check_swmr_atomicity(&h) {
                Ok(()) => {
                    checked += 1;
                    assert!(lin, "swmr ok but not linearizable:\n{}", h.render());
                }
                Err(e) => {
                    use crate::swmr::AtomicityViolation as V;
                    match e {
                        V::DuplicateWrittenValue { .. } | V::MalformedWrites { .. } => {}
                        _ => {
                            rejected += 1;
                            assert!(!lin, "swmr violation {e} but linearizable:\n{}", h.render());
                        }
                    }
                }
            }
        }
        // The generator must exercise both outcomes for the test to mean
        // anything.
        assert!(checked > 20, "only {checked} accepted histories generated");
        assert!(
            rejected > 20,
            "only {rejected} rejected histories generated"
        );
    }

    /// Generates a small single-writer history with sequential writes of
    /// distinct values and random (possibly wrong) reads.
    fn random_swmr_history(rng: &mut impl rand::Rng) -> History {
        let mut h = History::new();
        let n_writes: u64 = rng.gen_range(0..4);
        let mut t = 0u64;
        for v in 1..=n_writes {
            let inv = t;
            t += rng.gen_range(1..4);
            let id = h.invoke_write(0, v, inv);
            if v < n_writes || rng.gen_bool(0.8) {
                h.respond(id, None, t);
                t += 1;
            }
        }
        let horizon = t + 6;
        for proc in 1..=rng.gen_range(1..4u32) {
            let inv = rng.gen_range(0..horizon);
            let resp = inv + rng.gen_range(0..4);
            let ret = if rng.gen_bool(0.3) || n_writes == 0 {
                RegValue::Bottom
            } else {
                RegValue::Val(rng.gen_range(1..=n_writes))
            };
            let id = h.invoke_read(proc, inv);
            h.respond(id, Some(ret), resp);
        }
        h
    }
}
