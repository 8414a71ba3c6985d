//! The paper's single-writer atomicity checker.
//!
//! §3.1 defines atomicity of a partial run for SWMR registers through four
//! conditions over the history, using the natural order of writes (the
//! writer is sequential, so writes are totally ordered by invocation and
//! `val_k` denotes the value of the k-th write, with `val_0 = ⊥`):
//!
//! 1. if a read returns `x` then there is `k` such that `val_k = x`;
//! 2. if a read `rd` is complete and succeeds some write `wr_k` (`k ≥ 1`),
//!    then `rd` returns `val_l` with `l ≥ k`;
//! 3. if a read `rd` returns `val_k` (`k ≥ 1`), then `wr_k` precedes `rd`
//!    or is concurrent with `rd`;
//! 4. if some read `rd1` returns `val_k` (`k ≥ 0`) and a read `rd2` that
//!    succeeds `rd1` returns `val_l`, then `l ≥ k`.
//!
//! The checker requires written values to be pairwise distinct so that the
//! mapping from a returned value to its write index `k` is unambiguous (the
//! workloads in this repository always write distinct values; for histories
//! with repeated values use the [`linearizability`](crate::linearizability)
//! checker instead).

#[allow(clippy::disallowed_types)]
use std::collections::HashMap; // fastreg-lint: allow(nondet-order): pure keyed lookup (value -> write index), never iterated
use std::fmt;

use crate::history::{History, OpId, OpKind, Operation, RegValue};

/// Why a history is not SWMR-atomic (or not checkable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtomicityViolation {
    /// Two writes wrote the same value; the value→index map is ambiguous.
    DuplicateWrittenValue {
        /// The repeated value.
        value: u64,
    },
    /// The "single sequential writer" assumption is broken: two writes
    /// overlap or multiple procs wrote.
    MalformedWrites {
        /// Human-readable description.
        detail: String,
    },
    /// Condition (1): a read returned a value that was never written.
    UnwrittenValue {
        /// The offending read.
        read: OpId,
        /// The value it returned.
        value: RegValue,
    },
    /// Condition (2): a read missed a write that completed before it.
    MissedPrecedingWrite {
        /// The offending read.
        read: OpId,
        /// Index of the latest write preceding the read.
        preceding_write_index: usize,
        /// Index of the write whose value was returned.
        returned_index: usize,
    },
    /// Condition (3): a read returned a value from the future (the write
    /// began only after the read completed).
    ReadFromFuture {
        /// The offending read.
        read: OpId,
        /// The write whose value was returned.
        write: OpId,
    },
    /// Condition (4): a later read returned an older value than an earlier
    /// read (new/old inversion).
    NewOldInversion {
        /// The earlier read.
        first_read: OpId,
        /// Write index it returned.
        first_index: usize,
        /// The later read.
        second_read: OpId,
        /// Write index it returned.
        second_index: usize,
    },
}

impl fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicityViolation::DuplicateWrittenValue { value } => {
                write!(
                    f,
                    "value {value} written more than once; history not checkable"
                )
            }
            AtomicityViolation::MalformedWrites { detail } => {
                write!(f, "writes are not single-writer sequential: {detail}")
            }
            AtomicityViolation::UnwrittenValue { read, value } => {
                write!(
                    f,
                    "condition 1 violated: {read:?} returned unwritten value {value}"
                )
            }
            AtomicityViolation::MissedPrecedingWrite {
                read,
                preceding_write_index,
                returned_index,
            } => write!(
                f,
                "condition 2 violated: {read:?} returned val_{returned_index} but write \
                 {preceding_write_index} already completed before it"
            ),
            AtomicityViolation::ReadFromFuture { read, write } => {
                write!(f, "condition 3 violated: {read:?} returned the value of {write:?} which started after the read ended")
            }
            AtomicityViolation::NewOldInversion {
                first_read,
                first_index,
                second_read,
                second_index,
            } => write!(
                f,
                "condition 4 violated: {first_read:?} returned val_{first_index} but later \
                 {second_read:?} returned older val_{second_index}"
            ),
        }
    }
}

impl std::error::Error for AtomicityViolation {}

/// Checks the four SWMR atomicity conditions of §3.1.
///
/// Incomplete operations are allowed anywhere (the definition quantifies
/// over completed reads; incomplete writes still define `val_k`).
///
/// # Errors
///
/// Returns the first violation found, with the offending operation ids.
/// Returns `DuplicateWrittenValue` / `MalformedWrites` if the history does
/// not satisfy the checker's preconditions.
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::swmr::check_swmr_atomicity;
///
/// let mut h = History::new();
/// let w = h.invoke_write(0, 1, 0);
/// h.respond(w, None, 2);
/// let r = h.invoke_read(1, 3);
/// h.respond(r, Some(RegValue::Val(1)), 4);
/// assert!(check_swmr_atomicity(&h).is_ok());
/// ```
pub fn check_swmr_atomicity(history: &History) -> Result<(), AtomicityViolation> {
    let writes = collect_writes(history)?;
    let index_of = index_writes(&writes)?;

    // Completed reads, with their resolved write index.
    let mut resolved: Vec<(Operation, usize)> = Vec::new();
    for read in history.reads().filter(|r| r.is_complete()) {
        let returned = match read.returned {
            Some(v) => v,
            // A complete read with no recorded value is a recording bug;
            // flag it as condition (1).
            None => {
                return Err(AtomicityViolation::UnwrittenValue {
                    read: read.id,
                    value: RegValue::Bottom,
                })
            }
        };
        let k = match returned {
            RegValue::Bottom => 0,
            RegValue::Val(v) => match index_of.get(&v) {
                Some(&k) => k,
                None => {
                    return Err(AtomicityViolation::UnwrittenValue {
                        read: read.id,
                        value: returned,
                    })
                }
            },
        };
        resolved.push((read, k));
    }

    // Condition (2): read succeeds wr_k (complete) => returns val_l, l >= k.
    for (read, l) in &resolved {
        let l = *l;
        let latest_preceding = writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.precedes(read))
            .map(|(i, _)| i + 1) // write indices are 1-based
            .max()
            .unwrap_or(0);
        if l < latest_preceding {
            return Err(AtomicityViolation::MissedPrecedingWrite {
                read: read.id,
                preceding_write_index: latest_preceding,
                returned_index: l,
            });
        }
    }

    // Condition (3): read returns val_k (k >= 1) => wr_k precedes or is
    // concurrent with the read (i.e. the read does not precede wr_k).
    for (read, k) in &resolved {
        if *k >= 1 {
            let wr_k = &writes[k - 1];
            if read.precedes(wr_k) {
                return Err(AtomicityViolation::ReadFromFuture {
                    read: read.id,
                    write: wr_k.id,
                });
            }
        }
    }

    // Condition (4): rd2 succeeds rd1 => index(rd2) >= index(rd1).
    for (rd1, k1) in &resolved {
        for (rd2, k2) in &resolved {
            let (k1, k2) = (*k1, *k2);
            if rd1.precedes(rd2) && k2 < k1 {
                return Err(AtomicityViolation::NewOldInversion {
                    first_read: rd1.id,
                    first_index: k1,
                    second_read: rd2.id,
                    second_index: k2,
                });
            }
        }
    }

    Ok(())
}

/// Collects writes in invocation order and validates single-writer
/// sequentiality.
fn collect_writes(history: &History) -> Result<Vec<Operation>, AtomicityViolation> {
    let mut writes: Vec<Operation> = history.writes().collect();
    writes.sort_by_key(|w| w.invoked_at);

    if let Some(first) = writes.first() {
        if writes.iter().any(|w| w.proc != first.proc) {
            return Err(AtomicityViolation::MalformedWrites {
                detail: "multiple writer processes".to_string(),
            });
        }
    }
    for pair in writes.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        // The writer is sequential: the earlier write must respond before
        // the later one is invoked — unless the earlier one never completes,
        // in which case it must be the last write. Ties (`r ==
        // b.invoked_at`) are allowed: the recorder guarantees call order,
        // and clock ticks are coarser than steps.
        match a.responded_at {
            Some(r) if r <= b.invoked_at => {}
            _ => {
                return Err(AtomicityViolation::MalformedWrites {
                    detail: format!("{:?} and {:?} overlap", a.id, b.id),
                });
            }
        }
    }
    Ok(writes)
}

/// Maps each written value to its 1-based write index.
#[allow(clippy::disallowed_types)]
pub(crate) fn index_writes(
    writes: &[Operation],
    // fastreg-lint: allow(nondet-order): O(1) keyed lookup on the checker hot path; only get/insert, never iterated
) -> Result<HashMap<u64, usize>, AtomicityViolation> {
    // fastreg-lint: allow(nondet-order): same map as the signature above
    let mut index_of = HashMap::new();
    for (i, w) in writes.iter().enumerate() {
        let value = match w.kind {
            OpKind::Write { value } => value,
            OpKind::Read => unreachable!("collect_writes filters reads"),
        };
        if index_of.insert(value, i + 1).is_some() {
            return Err(AtomicityViolation::DuplicateWrittenValue { value });
        }
    }
    Ok(index_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_write(h: &mut History, value: u64, inv: u64, resp: u64) {
        let w = h.invoke_write(0, value, inv);
        h.respond(w, None, resp);
    }

    fn complete_read(h: &mut History, proc: u32, ret: RegValue, inv: u64, resp: u64) -> OpId {
        let r = h.invoke_read(proc, inv);
        h.respond(r, Some(ret), resp);
        r
    }

    #[test]
    fn empty_history_is_atomic() {
        assert!(check_swmr_atomicity(&History::new()).is_ok());
    }

    #[test]
    fn reads_of_bottom_before_any_write_are_atomic() {
        let mut h = History::new();
        complete_read(&mut h, 1, RegValue::Bottom, 0, 1);
        complete_read(&mut h, 2, RegValue::Bottom, 2, 3);
        assert!(check_swmr_atomicity(&h).is_ok());
    }

    #[test]
    fn sequential_write_then_read_is_atomic() {
        let mut h = History::new();
        complete_write(&mut h, 10, 0, 2);
        complete_read(&mut h, 1, RegValue::Val(10), 3, 5);
        assert!(check_swmr_atomicity(&h).is_ok());
    }

    #[test]
    fn condition1_unwritten_value() {
        let mut h = History::new();
        complete_write(&mut h, 10, 0, 2);
        let r = complete_read(&mut h, 1, RegValue::Val(99), 3, 5);
        assert_eq!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::UnwrittenValue {
                read: r,
                value: RegValue::Val(99)
            })
        );
    }

    #[test]
    fn condition2_missed_completed_write() {
        let mut h = History::new();
        complete_write(&mut h, 10, 0, 2);
        let r = complete_read(&mut h, 1, RegValue::Bottom, 3, 5);
        assert_eq!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::MissedPrecedingWrite {
                read: r,
                preceding_write_index: 1,
                returned_index: 0
            })
        );
    }

    #[test]
    fn concurrent_read_may_return_old_or_new() {
        // Write [0,10]; read [2,3] inside it may return ⊥ or 10.
        for ret in [RegValue::Bottom, RegValue::Val(10)] {
            let mut h = History::new();
            let w = h.invoke_write(0, 10, 0);
            h.respond(w, None, 10);
            complete_read(&mut h, 1, ret, 2, 3);
            assert!(check_swmr_atomicity(&h).is_ok(), "ret={ret}");
        }
    }

    #[test]
    fn condition3_read_from_future() {
        let mut h = History::new();
        let r = complete_read(&mut h, 1, RegValue::Val(10), 0, 1);
        complete_write(&mut h, 10, 5, 6);
        assert_eq!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::ReadFromFuture {
                read: r,
                write: OpId(1)
            })
        );
    }

    #[test]
    fn condition4_new_old_inversion() {
        // This is exactly the violation the paper's lower-bound proof
        // exhibits in prC: a read returns 1, a subsequent read returns ⊥.
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0); // incomplete write(1)
        let _ = w;
        let r1 = complete_read(&mut h, 1, RegValue::Val(1), 2, 4);
        let r2 = complete_read(&mut h, 2, RegValue::Bottom, 5, 7);
        assert_eq!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::NewOldInversion {
                first_read: r1,
                first_index: 1,
                second_read: r2,
                second_index: 0
            })
        );
    }

    #[test]
    fn concurrent_reads_may_disagree_in_any_order() {
        // Two overlapping reads during a write may return different values
        // without violating condition 4.
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0);
        h.respond(w, None, 100);
        complete_read(&mut h, 1, RegValue::Val(1), 10, 50);
        complete_read(&mut h, 2, RegValue::Bottom, 20, 60);
        assert!(check_swmr_atomicity(&h).is_ok());
    }

    #[test]
    fn incomplete_write_value_may_be_read() {
        let mut h = History::new();
        h.invoke_write(0, 7, 0); // never completes
        complete_read(&mut h, 1, RegValue::Val(7), 5, 9);
        assert!(check_swmr_atomicity(&h).is_ok());
    }

    #[test]
    fn incomplete_read_is_ignored() {
        let mut h = History::new();
        complete_write(&mut h, 1, 0, 1);
        h.invoke_read(1, 2); // pending forever
        assert!(check_swmr_atomicity(&h).is_ok());
    }

    #[test]
    fn duplicate_written_values_are_rejected() {
        let mut h = History::new();
        complete_write(&mut h, 5, 0, 1);
        complete_write(&mut h, 5, 2, 3);
        assert_eq!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::DuplicateWrittenValue { value: 5 })
        );
    }

    #[test]
    fn overlapping_writes_are_rejected() {
        let mut h = History::new();
        let w1 = h.invoke_write(0, 1, 0);
        h.respond(w1, None, 10);
        let _w2 = h.invoke_write(0, 2, 5);
        assert!(matches!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::MalformedWrites { .. })
        ));
    }

    #[test]
    fn incomplete_write_must_be_last() {
        let mut h = History::new();
        h.invoke_write(0, 1, 0); // incomplete
        complete_write(&mut h, 2, 5, 6);
        assert!(matches!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::MalformedWrites { .. })
        ));
    }

    #[test]
    fn multiple_writer_procs_are_rejected() {
        let mut h = History::new();
        let w1 = h.invoke_write(0, 1, 0);
        h.respond(w1, None, 1);
        let w2 = h.invoke_write(3, 2, 2);
        h.respond(w2, None, 3);
        assert!(matches!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::MalformedWrites { .. })
        ));
    }

    #[test]
    fn chain_of_reads_must_be_monotone() {
        let mut h = History::new();
        complete_write(&mut h, 1, 0, 1);
        complete_write(&mut h, 2, 2, 3);
        // write(3) stays concurrent with all the reads below, so reads may
        // return val_2 or val_3 individually — but not regress across reads.
        let w3 = h.invoke_write(0, 3, 4);
        h.respond(w3, None, 100);
        complete_read(&mut h, 1, RegValue::Val(3), 6, 7);
        complete_read(&mut h, 2, RegValue::Val(3), 8, 9);
        assert!(check_swmr_atomicity(&h).is_ok());

        // Regressing to val_2 afterwards is an inversion.
        complete_read(&mut h, 1, RegValue::Val(2), 10, 11);
        assert!(matches!(
            check_swmr_atomicity(&h),
            Err(AtomicityViolation::NewOldInversion { .. })
        ));
    }

    #[test]
    fn violation_messages_are_informative() {
        let violations: Vec<AtomicityViolation> = vec![
            AtomicityViolation::DuplicateWrittenValue { value: 5 },
            AtomicityViolation::MalformedWrites { detail: "x".into() },
            AtomicityViolation::UnwrittenValue {
                read: OpId(1),
                value: RegValue::Val(9),
            },
            AtomicityViolation::MissedPrecedingWrite {
                read: OpId(1),
                preceding_write_index: 2,
                returned_index: 1,
            },
            AtomicityViolation::ReadFromFuture {
                read: OpId(1),
                write: OpId(0),
            },
            AtomicityViolation::NewOldInversion {
                first_read: OpId(1),
                first_index: 1,
                second_read: OpId(2),
                second_index: 0,
            },
        ];
        for v in violations {
            assert!(!format!("{v}").is_empty());
        }
    }
}
