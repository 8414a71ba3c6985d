//! Property-based tests of the fast-read predicate, the client set it
//! scans, and the feasibility arithmetic.

use std::collections::BTreeSet;

use proptest::prelude::*;

use fastreg::config::ClusterConfig;
use fastreg::predicate::{predicate_witness, predicate_witness_bruteforce, PredicateModel};
use fastreg::quorum::{byz_ms_size, crash_ms_size};
use fastreg::types::{ClientId, ClientSet};

/// Up to `n` seen-sets over the writer and `r` readers.
fn seen_sets(r: u32, n: usize) -> impl Strategy<Value = Vec<ClientSet>> {
    let clients: Vec<ClientId> = (0..=r).map(ClientId).collect();
    let seen =
        proptest::collection::btree_set(proptest::sample::select(clients), 0..=(r as usize + 1))
            .prop_map(|members| members.into_iter().collect::<ClientSet>());
    proptest::collection::vec(seen, 0..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The mask scan is exactly the brute-force subset enumeration over
    /// ordered sets, for both failure models: `S ≤ 8`, `R ≤ 5`, 0–7 acks.
    #[test]
    fn exact_equals_bruteforce(
        s in 3u32..=8,
        t in 1u32..3,
        b in 0u32..3,
        population in (1u32..=5).prop_flat_map(|r| (Just(r), seen_sets(r, 7))),
    ) {
        prop_assume!(t <= s && b <= t);
        let model = if b == 0 { PredicateModel::Crash } else { PredicateModel::Byzantine { b } };
        let (r, seens) = population;
        prop_assert_eq!(
            predicate_witness(s, t, r, model, &seens),
            predicate_witness_bruteforce(s, t, r, model, &seens)
        );
    }

    /// A `ClientSet` renders as the `BTreeSet<ClientId>` with the same
    /// members does, compact and pretty — which is what keeps trace text
    /// and every fingerprint over it unchanged.
    #[test]
    fn client_set_renders_like_the_btreeset_it_replaces(
        members in proptest::collection::btree_set((0..ClientSet::CAPACITY).prop_map(ClientId), 0..=64),
    ) {
        let set: ClientSet = members.iter().copied().collect();
        prop_assert!(set.iter().eq(members.iter().copied()));
        prop_assert_eq!(set.len() as usize, members.len());
        prop_assert_eq!(format!("{set:?}"), format!("{members:?}"));
        prop_assert_eq!(format!("{set:#?}"), format!("{members:#?}"));
    }

    /// Monotonicity: adding a message with a full seen-set never makes the
    /// predicate fail, and removing messages never makes it succeed at a
    /// lower level.
    #[test]
    fn predicate_is_monotone_in_evidence(
        r in 1u32..4,
        seens in (1u32..4).prop_flat_map(|r| seen_sets(r, 6)),
    ) {
        let (s, t) = (9u32, 1u32);
        let before = predicate_witness(s, t, r, PredicateModel::Crash, &seens);
        // Add a message whose seen contains every client.
        let full: ClientSet = (0..=r).map(ClientId).collect();
        let mut more = seens.clone();
        more.push(full);
        let after = predicate_witness(s, t, r, PredicateModel::Crash, &more);
        if let Some(a) = before {
            prop_assert!(after.is_some() && after.unwrap() <= a,
                "adding evidence weakened the predicate: {before:?} -> {after:?}");
        }
    }

    /// The Byzantine size family `S − a·t − (a−1)·b` requires *fewer*
    /// messages than the crash family `S − a·t` (the reader's validity
    /// filter discards malicious acks, so less raw evidence is needed),
    /// with equality at `a = 1` — and a level unusable under crash is
    /// unusable under Byzantine too.
    #[test]
    fn byz_sizes_are_smaller_than_crash_sizes(s in 1u32..40, t in 0u32..6, b in 1u32..6, a in 1u32..8) {
        prop_assume!(t <= s);
        match (crash_ms_size(s, t, a), byz_ms_size(s, t, b, a)) {
            (Some(c), Some(bz)) => {
                prop_assert!(bz <= c);
                if a == 1 {
                    prop_assert_eq!(bz, c);
                }
            }
            (None, Some(_)) => prop_assert!(false, "byz usable where crash is not"),
            _ => {}
        }
    }

    /// Feasibility is monotone: adding servers never breaks it; adding
    /// readers or faults never restores it.
    #[test]
    fn feasibility_is_monotone(s in 1u32..30, t in 0u32..5, b in 0u32..5, r in 0u32..8) {
        prop_assume!(t <= s && b <= t);
        let cfg = ClusterConfig::byzantine(s, t, b, r).expect("valid");
        if cfg.fast_feasible() {
            let bigger = ClusterConfig::byzantine(s + 1, t, b, r).expect("valid");
            prop_assert!(bigger.fast_feasible());
        } else {
            let more_readers = ClusterConfig::byzantine(s, t, b, r + 1).expect("valid");
            prop_assert!(!more_readers.fast_feasible());
        }
    }

    /// `max_fast_readers` is consistent with `fast_feasible`.
    #[test]
    fn max_fast_readers_is_consistent(s in 1u32..30, t in 1u32..5, b in 0u32..5) {
        prop_assume!(t <= s && b <= t);
        let base = ClusterConfig::byzantine(s, t, b, 0).expect("valid");
        let with_readers = |r| ClusterConfig { r, ..base };
        match base.max_fast_readers() {
            Some(max) if max < 1000 => {
                prop_assert!(with_readers(max).fast_feasible());
                prop_assert!(!with_readers(max + 1).fast_feasible());
            }
            Some(_) => {}
            None => prop_assert!(!with_readers(0).fast_feasible()),
        }
    }
}

#[test]
fn the_empty_client_set_renders_like_an_empty_btreeset() {
    let empty = BTreeSet::<ClientId>::new();
    assert_eq!(format!("{:?}", ClientSet::EMPTY), format!("{empty:?}"));
    assert_eq!(format!("{:#?}", ClientSet::EMPTY), format!("{empty:#?}"));
    assert_eq!(format!("{:?}", ClientSet::EMPTY), "{}");
}
