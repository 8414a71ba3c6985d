//! Property suite: the one production verdict path,
//! `OnlineChecker::check(spec, h)`, emits verdicts byte-identical (by
//! stable code) to the batch oracle for every `Spec`, on random
//! histories with pending operations, crashes, duplicate and unwritten
//! values, overlapping writes, and both single- and multi-writer
//! populations.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg_atomicity::history::{History, RegValue};
use fastreg_atomicity::linearizability::check_linearizable;
use fastreg_atomicity::regularity::check_swmr_regularity;
use fastreg_atomicity::streaming::{OnlineChecker, Spec};
use fastreg_atomicity::swmr::check_swmr_atomicity;
use fastreg_atomicity::verdict::Verdict;

const SWMR_CASES: u64 = 192;
const LIN_CASES: u64 = 64;

/// One synthesized operation, pre-recording.
struct GenOp {
    proc: u32,
    /// `Some(v)` writes `v`; `None` reads.
    write: Option<u64>,
    inv: u64,
    /// `None`: the op never responds (crashed client / still pending).
    resp: Option<u64>,
    /// What a responding read returns (`None` models a crashed response
    /// carrying no value).
    returned: Option<RegValue>,
}

/// Builds a history from generated ops the way a live run records them:
/// invocations in time order, responses as they happen.
fn record(ops: Vec<GenOp>) -> History {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (ops[i].inv, i));
    let mut h = History::with_capacity(ops.len());
    let mut responses: Vec<(u64, usize, fastreg_atomicity::history::OpId)> = Vec::new();
    for &i in &order {
        let op = &ops[i];
        let id = match op.write {
            Some(v) => h.invoke_write(op.proc, v, op.inv),
            None => h.invoke_read(op.proc, op.inv),
        };
        if let Some(r) = op.resp {
            responses.push((r, i, id));
        }
    }
    responses.sort();
    for (r, i, id) in responses {
        let returned = if ops[i].write.is_some() {
            None
        } else {
            ops[i].returned
        };
        h.respond(id, returned, r);
    }
    h
}

/// A random SWMR-shaped history: one (usually) sequential writer,
/// several readers, reads drawn from the whole write set (past and
/// future), plus low-probability corruption — duplicate values,
/// overlapping writes, a second writing process, unwritten returns,
/// crashes — and, rarely, a fresh value below every earlier one, which
/// spills the online checker's ascending value index.
fn gen_swmr(seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n_ops = rng.gen_range(4..=60usize);
    let n_readers = rng.gen_range(1..=3u32);
    let mut t = 0u64;
    let mut next_value = 100u64;
    let mut low_value = 100u64;
    let mut values: Vec<u64> = Vec::new();
    let mut writer_free = 0u64;
    let mut reader_free = vec![0u64; n_readers as usize];
    let mut ops: Vec<GenOp> = Vec::new();
    for _ in 0..n_ops {
        t += rng.gen_range(0..3);
        if rng.gen_bool(0.35) {
            // A write. Rarely: from a second process, or overlapping the
            // previous write, or duplicating an old value, or below them all.
            let proc = if rng.gen_bool(0.03) { 99 } else { 0 };
            let inv = if rng.gen_bool(0.05) {
                t
            } else {
                t.max(writer_free)
            };
            let value = if rng.gen_bool(0.04) && !values.is_empty() {
                values[rng.gen_range(0..values.len())]
            } else if rng.gen_bool(0.05) {
                low_value -= 1;
                low_value
            } else {
                next_value += 1;
                next_value
            };
            values.push(value);
            let resp = (!rng.gen_bool(0.07)).then(|| inv + rng.gen_range(0..6));
            writer_free = resp.map_or(writer_free, |r| r + 1).max(writer_free);
            ops.push(GenOp {
                proc,
                write: Some(value),
                inv,
                resp,
                returned: None,
            });
        } else {
            let reader = rng.gen_range(0..n_readers);
            let inv = t.max(reader_free[reader as usize]);
            let resp = (!rng.gen_bool(0.07)).then(|| inv + rng.gen_range(0..6));
            reader_free[reader as usize] = resp.map_or(reader_free[reader as usize], |r| r + 1);
            ops.push(GenOp {
                proc: reader + 1,
                write: None,
                inv,
                resp,
                returned: gen_return(&mut rng, &values),
            });
        }
    }
    record(ops)
}

/// What a read comes back with: usually some written value (past or
/// future — the generator draws from the full write list, so stale,
/// fresh, future and inverted reads all occur), sometimes ⊥, rarely an
/// unwritten value or a valueless response.
fn gen_return(rng: &mut StdRng, values: &[u64]) -> Option<RegValue> {
    if rng.gen_bool(0.03) {
        return None;
    }
    Some(if values.is_empty() || rng.gen_bool(0.15) {
        RegValue::Bottom
    } else if rng.gen_bool(0.06) {
        RegValue::Val(1_000_000 + rng.gen_range(0..100))
    } else {
        RegValue::Val(values[rng.gen_range(0..values.len())])
    })
}

/// A random MWMR history, capped at 30 ops so the batch Wing–Gong
/// oracle stays within its 64-bit budget and the comparison is exact.
fn gen_mwmr(seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    let n_ops = rng.gen_range(3..=30usize);
    let n_writers = rng.gen_range(2..=3u32);
    let n_readers = rng.gen_range(1..=3u32);
    let mut t = 0u64;
    let mut next_value = 1u64;
    let mut values: Vec<u64> = Vec::new();
    let mut free = vec![0u64; (n_writers + n_readers) as usize];
    let mut ops: Vec<GenOp> = Vec::new();
    for _ in 0..n_ops {
        t += rng.gen_range(0..4);
        let is_write = rng.gen_bool(0.4);
        let proc = if is_write {
            rng.gen_range(0..n_writers)
        } else {
            n_writers + rng.gen_range(0..n_readers)
        };
        let inv = t.max(free[proc as usize]);
        let resp = (!rng.gen_bool(0.10)).then(|| inv + rng.gen_range(0..6));
        free[proc as usize] = resp.map_or(free[proc as usize], |r| r + 1);
        if is_write {
            next_value += 1;
            values.push(next_value);
            ops.push(GenOp {
                proc,
                write: Some(next_value),
                inv,
                resp,
                returned: None,
            });
        } else {
            ops.push(GenOp {
                proc,
                write: None,
                inv,
                resp,
                returned: gen_return(&mut rng, &values),
            });
        }
    }
    record(ops)
}

#[test]
fn swmr_streaming_matches_batch_on_random_histories() {
    let mut atomic_codes: BTreeSet<String> = BTreeSet::new();
    let mut regular_codes: BTreeSet<String> = BTreeSet::new();
    for case in 0..SWMR_CASES {
        let h = gen_swmr(case);
        let batch_atomic = Verdict::from_atomicity(&check_swmr_atomicity(&h));
        let batch_regular = Verdict::from_regularity(&check_swmr_regularity(&h));
        atomic_codes.insert(batch_atomic.code().to_string());
        regular_codes.insert(batch_regular.code().to_string());

        assert_eq!(
            OnlineChecker::check(Spec::SwmrAtomic, &h),
            batch_atomic,
            "case {case}: streaming atomicity diverged\n{}",
            h.render()
        );
        assert_eq!(
            OnlineChecker::check(Spec::SwmrRegular, &h),
            batch_regular,
            "case {case}: streaming regularity diverged\n{}",
            h.render()
        );
    }
    // The generator must actually exercise the code space, or the
    // equivalence above is vacuous.
    assert!(
        atomic_codes.len() >= 5,
        "atomicity suite too tame: only {atomic_codes:?}"
    );
    assert!(
        atomic_codes.contains("clean"),
        "no clean case in {atomic_codes:?}"
    );
    assert!(
        regular_codes.len() >= 3,
        "regularity suite too tame: only {regular_codes:?}"
    );
}

#[test]
fn lin_streaming_matches_batch_on_random_mwmr_histories() {
    let mut codes: BTreeSet<String> = BTreeSet::new();
    for case in 0..LIN_CASES {
        let h = gen_mwmr(case);
        let batch = Verdict::from_linearizable(&check_linearizable(&h));
        codes.insert(batch.code().to_string());
        assert_eq!(
            OnlineChecker::check(Spec::Linearizable, &h),
            batch,
            "case {case}: streaming linearizability diverged\n{}",
            h.render()
        );
    }
    assert!(
        codes.contains("clean") && codes.contains("not-linearizable"),
        "lin suite too tame: only {codes:?}"
    );
}
