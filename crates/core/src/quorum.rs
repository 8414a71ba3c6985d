//! Quorum arithmetic: the predicates' message-set sizes.
//!
//! The fast read's predicate (Figs. 2 and 5) needs a message set of
//! `S − a·t` servers at witness level `a` under crashes, and of
//! `S − a·t − (a−1)·b` under Byzantine faults. The lower-bound proofs'
//! partition of the servers into blocks (§5, §6.2) lives with the
//! constructions that use it, in `fastreg_adversary::blocks`.

/// Required size of the message set `MS` for witness level `a` in the
/// crash-stop predicate (Fig. 2 line 19): `S − a·t`.
///
/// Returns `None` if the requirement is non-positive (the level is
/// unusable; a feasible configuration never produces this for
/// `a ≤ R + 1`).
pub fn crash_ms_size(s: u32, t: u32, a: u32) -> Option<u32> {
    let need = s as i64 - (a as i64) * (t as i64);
    (need >= 1).then_some(need as u32)
}

/// Required size of `MS` for witness level `a` in the arbitrary-failure
/// predicate (Fig. 5 line 19): `S − a·t − (a−1)·b`.
pub fn byz_ms_size(s: u32, t: u32, b: u32, a: u32) -> Option<u32> {
    let need = s as i64 - (a as i64) * (t as i64) - ((a - 1) as i64) * (b as i64);
    (need >= 1).then_some(need as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_sizes_match_formulas() {
        assert_eq!(crash_ms_size(5, 1, 1), Some(4));
        assert_eq!(crash_ms_size(5, 1, 3), Some(2));
        assert_eq!(crash_ms_size(5, 2, 3), None); // 5 - 6 < 1
        assert_eq!(byz_ms_size(9, 1, 1, 2), Some(6)); // 9 - 2 - 1
        assert_eq!(byz_ms_size(9, 1, 1, 1), Some(8)); // a=1: no b term
        assert_eq!(byz_ms_size(4, 1, 1, 3), None);
    }

    #[test]
    fn byz_reduces_to_crash_when_b_zero() {
        for a in 1..5 {
            assert_eq!(byz_ms_size(10, 2, 0, a), crash_ms_size(10, 2, a));
        }
    }
}
