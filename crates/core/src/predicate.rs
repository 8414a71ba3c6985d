//! The fast-read safety predicate — the heart of both algorithms.
//!
//! Fig. 2 line 19 (crash-stop): a read that computed `maxTS` may return it
//! iff
//!
//! > ∃ a ∈ [1, R+1], ∃ MS ⊆ maxTSmsg : |MS| ≥ S − a·t ∧ |∩_{m ∈ MS} m.seen| ≥ a
//!
//! Fig. 5 line 19 (arbitrary failures) replaces the size requirement with
//! `|MS| ≥ S − a·t − (a−1)·b`.
//!
//! Intuition (§4): if the newest timestamp has been *seen* by `a` client
//! processes at each of `S − a·t` servers, then even after `t` servers are
//! missed by each of a chain of future readers, enough evidence survives
//! for every subsequent read to either find the timestamp again (with
//! witness level `a + 1`) or to have already been propagated to the reader
//! itself. Otherwise the read conservatively returns the previous value.
//!
//! ## Deciding the predicate exactly
//!
//! The existential over subsets `MS` looks expensive, but it collapses:
//! there is a set `MS` of size ≥ m whose seen-intersection has size ≥ a
//! **iff** there is a set `A` of `a` client processes such that at least
//! `m` messages' seen-sets contain all of `A` (take `MS` = exactly those
//! messages; conversely take `A` ⊆ the intersection). A seen-set is a
//! [`ClientSet`] — one machine word — so "message `i` contains all of
//! `A`" is `seen[i] & A == A`, and a level is decided by counting:
//!
//! 1. a member of `A` must on its own be in ≥ m seen-sets; the clients
//!    that are form the *frequent* mask, and a level with fewer than `a`
//!    of them fails without a search;
//! 2. otherwise the `a`-client submasks of the frequent mask are grown
//!    one client at a time, and a partial `A` that fewer than `m`
//!    seen-sets contain is abandoned with everything above it (adding a
//!    client never raises that count).
//!
//! [`predicate_witness`] is this scan; tests cross-check it against
//! [`predicate_witness_bruteforce`], which enumerates the subsets `MS`
//! themselves over plain ordered sets.

use std::collections::BTreeSet;

use crate::quorum::{byz_ms_size, crash_ms_size};
use crate::types::{ClientId, ClientSet};

/// Which failure model's size family to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredicateModel {
    /// Fig. 2: sizes `S − a·t`.
    Crash,
    /// Fig. 5: sizes `S − a·t − (a−1)·b`.
    Byzantine {
        /// Maximum malicious servers `b`.
        b: u32,
    },
}

impl PredicateModel {
    fn ms_size(self, s: u32, t: u32, a: u32) -> Option<u32> {
        match self {
            PredicateModel::Crash => crash_ms_size(s, t, a),
            PredicateModel::Byzantine { b } => byz_ms_size(s, t, b, a),
        }
    }
}

/// Decides the fast-read predicate over the seen-sets of the `readack`
/// messages that carried `maxTS`.
///
/// Returns the smallest witness level `a` for which the predicate holds,
/// or `None` if it fails for every `a ∈ [1, R+1]`.
///
/// # Examples
///
/// ```
/// use fastreg::predicate::{predicate_witness, PredicateModel};
/// use fastreg::types::{ClientId, ClientSet};
///
/// // S = 5, t = 1, R = 2. All four acks carry maxTS and their seen-sets
/// // all contain the writer: a = 1 works (4 ≥ S − t = 4).
/// let seen = ClientSet::from(ClientId::WRITER);
/// assert_eq!(
///     predicate_witness(5, 1, 2, PredicateModel::Crash, &[seen; 4]),
///     Some(1),
/// );
/// ```
pub fn predicate_witness(
    s: u32,
    t: u32,
    r: u32,
    model: PredicateModel,
    max_ts_seens: &[ClientSet],
) -> Option<u32> {
    let anywhere = max_ts_seens
        .iter()
        .fold(ClientSet::EMPTY, |all, &seen| all.union(seen));
    (1..=r + 1).find(|&a| {
        let Some(m) = model.ms_size(s, t, a) else {
            return false;
        };
        if max_ts_seens.len() < m as usize {
            return false;
        }
        let frequent: ClientSet = anywhere
            .iter()
            .filter(|&c| containing(max_ts_seens, c.into()) >= m)
            .collect();
        grows_to(max_ts_seens, m, ClientSet::EMPTY, frequent, a)
    })
}

/// How many of `seens` contain all of `clients`.
fn containing(seens: &[ClientSet], clients: ClientSet) -> u32 {
    seens
        .iter()
        .filter(|seen| seen.is_superset(clients))
        .count() as u32
}

/// Whether `chosen` — contained in at least `m` of `seens` — can take
/// `need` more clients out of `candidates` and still be.
fn grows_to(
    seens: &[ClientSet],
    m: u32,
    chosen: ClientSet,
    candidates: ClientSet,
    need: u32,
) -> bool {
    if need == 0 {
        return true;
    }
    let mut rest = candidates;
    for c in candidates.iter() {
        rest.remove(c);
        if rest.len() + 1 < need {
            return false;
        }
        let grown = chosen.union(c.into());
        if containing(seens, grown) >= m && grows_to(seens, m, grown, rest, need - 1) {
            return true;
        }
    }
    false
}

/// Brute-force reference: enumerates all non-empty subsets `MS` of the
/// messages directly, intersecting ordered sets (exponential; for tests
/// and small inputs only).
///
/// Returns the smallest `a` with a witnessing subset, like
/// [`predicate_witness`].
pub fn predicate_witness_bruteforce(
    s: u32,
    t: u32,
    r: u32,
    model: PredicateModel,
    max_ts_seens: &[ClientSet],
) -> Option<u32> {
    let n = max_ts_seens.len();
    assert!(n <= 20, "brute force limited to 20 messages");
    let seens: Vec<BTreeSet<ClientId>> = max_ts_seens.iter().map(|s| s.iter().collect()).collect();
    for a in 1..=(r + 1) {
        let Some(m) = model.ms_size(s, t, a) else {
            continue;
        };
        for mask in 1u32..(1 << n) {
            if (mask.count_ones() as usize) < m as usize {
                continue;
            }
            let members = seens
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0);
            let common = members
                .map(|(_, seen)| seen.clone())
                .reduce(|acc, seen| &acc & &seen);
            if common.is_some_and(|common| common.len() as u32 >= a) {
                return Some(a);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(ids: &[ClientId]) -> ClientSet {
        ids.iter().copied().collect()
    }

    const W: ClientId = ClientId::WRITER;

    fn r(i: u32) -> ClientId {
        ClientId::reader(i)
    }

    #[test]
    fn empty_acks_fail() {
        assert_eq!(predicate_witness(5, 1, 2, PredicateModel::Crash, &[]), None);
    }

    #[test]
    fn lemma2_case_all_quorum_contains_reader() {
        // Lemma 2 case (2): all S − t acks carry maxTS with the reader in
        // seen → a = 1.
        let acks: Vec<_> = (0..4).map(|_| seen(&[r(0)])).collect();
        assert_eq!(
            predicate_witness(5, 1, 2, PredicateModel::Crash, &acks),
            Some(1)
        );
    }

    #[test]
    fn lemma3_case_write_completed_before_read() {
        // Lemma 3 case z = k: S − 2t messages contain {w, rj} → a = 2.
        // S = 5, t = 1, R = 2: need S − 2t = 3 messages with 2 common.
        let acks = vec![seen(&[W, r(0)]), seen(&[W, r(0)]), seen(&[W, r(0)])];
        assert_eq!(
            predicate_witness(5, 1, 2, PredicateModel::Crash, &acks),
            Some(2)
        );
    }

    #[test]
    fn insufficient_evidence_fails() {
        // Only t servers saw the new timestamp: no level works.
        // S = 5, t = 1, R = 2: one message with one common client needs
        // a = 1, m = 4. Fails.
        let acks = vec![seen(&[W])];
        assert_eq!(
            predicate_witness(5, 1, 2, PredicateModel::Crash, &acks),
            None
        );
    }

    #[test]
    fn higher_level_compensates_smaller_ms() {
        // S = 7, t = 1, R = 3. 4 messages all containing {w, r1, r2}:
        // a = 3 needs m = 4. a = 1 needs 6, a = 2 needs 5 — too big.
        let common = seen(&[W, r(0), r(1)]);
        let acks = [common; 4];
        assert_eq!(
            predicate_witness(7, 1, 3, PredicateModel::Crash, &acks),
            Some(3)
        );
    }

    #[test]
    fn intersection_must_be_common_to_same_subset() {
        // S = 6, t = 1, R = 2: a=2 needs m=4 messages with 2 common
        // clients. Four messages each of size 2 but pairwise different
        // intersections must fail.
        let acks = vec![
            seen(&[W, r(0)]),
            seen(&[W, r(1)]),
            seen(&[r(0), r(1)]),
            seen(&[W, r(2)]),
        ];
        // Each client individually appears in <= 3 < 4 messages, and no
        // pair is common to 4.
        assert_eq!(
            predicate_witness(6, 1, 2, PredicateModel::Crash, &acks),
            None
        );
    }

    #[test]
    fn byzantine_sizes_are_stricter() {
        // S = 9, t = 1, b = 1, R = 1. a = 2 needs S − 2t − b = 6 messages.
        let acks6: Vec<_> = (0..6).map(|_| seen(&[W, r(0)])).collect();
        assert_eq!(
            predicate_witness(9, 1, 1, PredicateModel::Byzantine { b: 1 }, &acks6),
            Some(2)
        );
        let acks5: Vec<_> = (0..5).map(|_| seen(&[W, r(0)])).collect();
        assert_eq!(
            predicate_witness(9, 1, 1, PredicateModel::Byzantine { b: 1 }, &acks5),
            None
        );
        // Under the crash model 5 messages would still fail a=2 (needs 7)…
        assert_eq!(
            predicate_witness(9, 1, 1, PredicateModel::Crash, &acks5),
            None
        );
    }

    #[test]
    fn witness_is_smallest_level() {
        // All S − t = 4 messages contain {w, r1}: a = 1 already works.
        let acks: Vec<_> = (0..4).map(|_| seen(&[W, r(0)])).collect();
        assert_eq!(
            predicate_witness(5, 1, 2, PredicateModel::Crash, &acks),
            Some(1)
        );
    }

    #[test]
    fn agrees_with_bruteforce_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2004);
        for case in 0..500 {
            let s = rng.gen_range(3..9u32);
            let t = rng.gen_range(1..=(s / 2).max(1));
            let b = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..=t)
            };
            let r_count = rng.gen_range(1..4u32);
            let model = if b == 0 {
                PredicateModel::Crash
            } else {
                PredicateModel::Byzantine { b }
            };
            let n_msgs = rng.gen_range(0..=(s - t).min(8)) as usize;
            let clients: Vec<ClientId> = std::iter::once(W).chain((0..r_count).map(r)).collect();
            let seens: Vec<ClientSet> = (0..n_msgs)
                .map(|_| {
                    clients
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.5))
                        .collect()
                })
                .collect();
            let fast = predicate_witness(s, t, r_count, model, &seens);
            let brute = predicate_witness_bruteforce(s, t, r_count, model, &seens);
            assert_eq!(
                fast, brute,
                "case {case}: s={s} t={t} b={b} r={r_count} seens={seens:?}"
            );
        }
    }

    #[test]
    fn unusable_levels_are_skipped() {
        // S = 3, t = 2: a = 1 needs m = 1, a = 2+ non-positive → skipped.
        let acks = vec![seen(&[W])];
        assert_eq!(
            predicate_witness(3, 2, 2, PredicateModel::Crash, &acks),
            Some(1)
        );
    }
}
