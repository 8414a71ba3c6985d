//! Lamport regular-register semantics for SWMR histories.
//!
//! §8 of the paper contrasts fast *atomic* registers with fast *regular*
//! ones: a regular register allows a fast implementation whenever
//! `t < S/2`, irrespective of the number of readers, at the price of weaker
//! consistency — "a reader might not return the last value written" under
//! concurrency, and in particular new/old inversions across readers are
//! allowed.
//!
//! A complete read of a regular register must return either the value of
//! the *last write preceding* the read, or the value of *some write
//! concurrent* with the read (with `⊥` standing for the absent zeroth
//! write). Unlike atomicity there is no condition linking different reads.

#[allow(clippy::disallowed_types)]
use std::collections::HashMap; // fastreg-lint: allow(nondet-order): pure keyed lookup (value -> write index), never iterated
use std::fmt;

use crate::history::{History, OpId, OpKind, Operation, RegValue};
use crate::swmr::AtomicityViolation;

/// Why a history is not regular.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegularityViolation {
    /// Preconditions (single sequential writer, distinct values) failed;
    /// reuses the atomicity checker's descriptions.
    Precondition(AtomicityViolation),
    /// A read returned a value that was never written.
    UnwrittenValue {
        /// The offending read.
        read: OpId,
        /// The value it returned.
        value: RegValue,
    },
    /// A read returned a value that is neither the last preceding write's
    /// nor a concurrent write's.
    StaleOrFutureValue {
        /// The offending read.
        read: OpId,
        /// Index of the write it returned (0 for ⊥).
        returned_index: usize,
        /// Index of the last write preceding the read (0 if none).
        last_preceding_index: usize,
    },
}

impl fmt::Display for RegularityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegularityViolation::Precondition(v) => write!(f, "precondition: {v}"),
            RegularityViolation::UnwrittenValue { read, value } => {
                write!(f, "{read:?} returned unwritten value {value}")
            }
            RegularityViolation::StaleOrFutureValue {
                read,
                returned_index,
                last_preceding_index,
            } => write!(
                f,
                "{read:?} returned val_{returned_index}, which is neither the last preceding \
                 write (val_{last_preceding_index}) nor concurrent with the read"
            ),
        }
    }
}

impl std::error::Error for RegularityViolation {}

/// Checks SWMR regularity.
///
/// # Errors
///
/// Returns the first violation found. Requires the same preconditions as
/// [`check_swmr_atomicity`](crate::swmr::check_swmr_atomicity): one
/// sequential writer, distinct written values.
///
/// # Examples
///
/// ```
/// use fastreg_atomicity::history::{History, RegValue};
/// use fastreg_atomicity::regularity::check_swmr_regularity;
///
/// // A new/old inversion across two readers: not atomic, but regular, as
/// // long as both reads overlap the write.
/// let mut h = History::new();
/// let w = h.invoke_write(0, 1, 0);
/// h.respond(w, None, 100);
/// let r1 = h.invoke_read(1, 10);
/// h.respond(r1, Some(RegValue::Val(1)), 20);
/// let r2 = h.invoke_read(2, 30);
/// h.respond(r2, Some(RegValue::Bottom), 40);
/// assert!(check_swmr_regularity(&h).is_ok());
/// ```
pub fn check_swmr_regularity(history: &History) -> Result<(), RegularityViolation> {
    let mut writes: Vec<Operation> = history.writes().collect();
    writes.sort_by_key(|w| w.invoked_at);

    // Reuse the atomicity checker's structural validation by re-deriving
    // its preconditions here.
    if let Some(first) = writes.first() {
        if writes.iter().any(|w| w.proc != first.proc) {
            return Err(RegularityViolation::Precondition(
                AtomicityViolation::MalformedWrites {
                    detail: "multiple writer processes".to_string(),
                },
            ));
        }
    }
    for pair in writes.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        match a.responded_at {
            Some(r) if r <= b.invoked_at => {}
            _ => {
                return Err(RegularityViolation::Precondition(
                    AtomicityViolation::MalformedWrites {
                        detail: format!("{:?} and {:?} overlap", a.id, b.id),
                    },
                ));
            }
        }
    }

    #[allow(clippy::disallowed_types)]
    // fastreg-lint: allow(nondet-order): O(1) keyed lookup on the checker hot path; only get/insert, never iterated
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    for (i, w) in writes.iter().enumerate() {
        let value = match w.kind {
            OpKind::Write { value } => value,
            OpKind::Read => unreachable!(),
        };
        if index_of.insert(value, i + 1).is_some() {
            return Err(RegularityViolation::Precondition(
                AtomicityViolation::DuplicateWrittenValue { value },
            ));
        }
    }

    for read in history.reads().filter(|r| r.is_complete()) {
        let returned = read.returned.unwrap_or(RegValue::Bottom);
        let k = match returned {
            RegValue::Bottom => 0,
            RegValue::Val(v) => match index_of.get(&v) {
                Some(&k) => k,
                None => {
                    return Err(RegularityViolation::UnwrittenValue {
                        read: read.id,
                        value: returned,
                    })
                }
            },
        };
        let last_preceding = writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.precedes(&read))
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        let ok = if k == last_preceding {
            true
        } else if k == 0 {
            // ⊥ is only legal if no write precedes the read.
            last_preceding == 0
        } else {
            // Legal iff wr_k is concurrent with the read.
            writes[k - 1].concurrent_with(&read)
        };
        if !ok {
            return Err(RegularityViolation::StaleOrFutureValue {
                read: read.id,
                returned_index: k,
                last_preceding_index: last_preceding,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swmr::check_swmr_atomicity;

    fn w(h: &mut History, v: u64, inv: u64, resp: u64) {
        let id = h.invoke_write(0, v, inv);
        h.respond(id, None, resp);
    }

    fn r(h: &mut History, proc: u32, ret: RegValue, inv: u64, resp: u64) -> OpId {
        let id = h.invoke_read(proc, inv);
        h.respond(id, Some(ret), resp);
        id
    }

    #[test]
    fn empty_is_regular() {
        assert!(check_swmr_regularity(&History::new()).is_ok());
    }

    #[test]
    fn sequential_history_is_regular() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        r(&mut h, 1, RegValue::Val(1), 2, 3);
        w(&mut h, 2, 4, 5);
        r(&mut h, 1, RegValue::Val(2), 6, 7);
        assert!(check_swmr_regularity(&h).is_ok());
    }

    #[test]
    fn new_old_inversion_is_regular_but_not_atomic() {
        let mut h = History::new();
        let wr = h.invoke_write(0, 1, 0);
        h.respond(wr, None, 100);
        r(&mut h, 1, RegValue::Val(1), 10, 20);
        r(&mut h, 2, RegValue::Bottom, 30, 40);
        assert!(check_swmr_regularity(&h).is_ok());
        assert!(check_swmr_atomicity(&h).is_err());
    }

    #[test]
    fn missing_completed_write_is_not_regular() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        let rd = r(&mut h, 1, RegValue::Bottom, 2, 3);
        assert_eq!(
            check_swmr_regularity(&h),
            Err(RegularityViolation::StaleOrFutureValue {
                read: rd,
                returned_index: 0,
                last_preceding_index: 1
            })
        );
    }

    #[test]
    fn skipping_back_two_writes_is_not_regular() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        w(&mut h, 2, 2, 3);
        // Read concurrent with write(3) may return 2 or 3, but not 1.
        let wr3 = h.invoke_write(0, 3, 4);
        h.respond(wr3, None, 10);
        let rd = r(&mut h, 1, RegValue::Val(1), 5, 6);
        assert_eq!(
            check_swmr_regularity(&h),
            Err(RegularityViolation::StaleOrFutureValue {
                read: rd,
                returned_index: 1,
                last_preceding_index: 2
            })
        );
    }

    #[test]
    fn concurrent_write_value_is_regular() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        let wr2 = h.invoke_write(0, 2, 2);
        h.respond(wr2, None, 10);
        r(&mut h, 1, RegValue::Val(2), 3, 4);
        assert!(check_swmr_regularity(&h).is_ok());
    }

    #[test]
    fn future_value_is_not_regular() {
        let mut h = History::new();
        let rd = r(&mut h, 1, RegValue::Val(1), 0, 1);
        w(&mut h, 1, 5, 6);
        assert!(matches!(
            check_swmr_regularity(&h),
            Err(RegularityViolation::StaleOrFutureValue { read, .. }) if read == rd
        ));
    }

    #[test]
    fn unwritten_value_is_not_regular() {
        let mut h = History::new();
        w(&mut h, 1, 0, 1);
        let rd = r(&mut h, 1, RegValue::Val(42), 2, 3);
        assert_eq!(
            check_swmr_regularity(&h),
            Err(RegularityViolation::UnwrittenValue {
                read: rd,
                value: RegValue::Val(42)
            })
        );
    }

    #[test]
    fn atomic_implies_regular_on_random_histories() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..300 {
            let mut h = History::new();
            let n_writes: u64 = rng.gen_range(0..4);
            let mut t = 0u64;
            for v in 1..=n_writes {
                let inv = t;
                t += rng.gen_range(1..4);
                let id = h.invoke_write(0, v, inv);
                h.respond(id, None, t);
                t += 1;
            }
            for proc in 1..=rng.gen_range(1..4u32) {
                let inv = rng.gen_range(0..t + 5);
                let resp = inv + rng.gen_range(0..4);
                let ret = if n_writes == 0 || rng.gen_bool(0.3) {
                    RegValue::Bottom
                } else {
                    RegValue::Val(rng.gen_range(1..=n_writes))
                };
                let id = h.invoke_read(proc, inv);
                h.respond(id, Some(ret), resp);
            }
            if check_swmr_atomicity(&h).is_ok() {
                assert!(
                    check_swmr_regularity(&h).is_ok(),
                    "atomic history not regular:\n{}",
                    h.render()
                );
            }
        }
    }

    #[test]
    fn precondition_failures_reported() {
        let mut h = History::new();
        w(&mut h, 5, 0, 1);
        w(&mut h, 5, 2, 3);
        assert!(matches!(
            check_swmr_regularity(&h),
            Err(RegularityViolation::Precondition(_))
        ));
        let msg = format!("{}", check_swmr_regularity(&h).unwrap_err());
        assert!(msg.contains("precondition"));
    }
}
