//! End-to-end runs of every experiment in the EXPERIMENTS.md suite.
//!
//! Each experiment function asserts its own qualitative expectations
//! internally (e.g. "the feasible side finds no violation", "prC
//! violates"); these tests additionally sanity-check the rendered tables,
//! and compare the deterministic ones byte for byte with their goldens
//! under `tests/golden/`.

use fastreg_suite::fastreg_workload::experiments as exp;

/// Asserts that `rendered` is the committed golden table: the golden's
/// text after its one-line header, which states the re-pin rule.
fn assert_golden(rendered: &str, golden: &str) {
    let (_header, table) = golden
        .split_once('\n')
        .expect("a golden opens with its header line");
    assert!(
        rendered == table,
        "table differs from its golden under tests/golden/ — a deliberate change \
         re-pins the golden and says so\n--- rendered\n{rendered}\n--- golden\n{table}"
    );
}

#[test]
fn e1_fast_crash_atomicity_is_clean() {
    let t = exp::e1_fast_crash_atomicity(8);
    assert_eq!(t.len(), 6);
    let s = t.render();
    assert!(s.lines().skip(2).all(|l| l.trim_end().ends_with('0')));
    assert_golden(&s, include_str!("golden/e1.txt"));
}

#[test]
fn e2_round_trip_structure() {
    // Protocol name column comes from the registry's kebab-case names.
    let s = exp::e2_round_trips().render();
    assert!(s.contains("fast-crash"));
    assert!(s.contains("max-min"));
    assert!(s.contains("abd"));
}

#[test]
fn e3_lower_bound_both_sides() {
    let s = exp::e3_crash_lower_bound().render();
    assert!(s.contains("ATOMICITY VIOLATED"));
    assert!(s.contains("atomic in"));
    assert_golden(&s, include_str!("golden/e3.txt"));
}

#[test]
fn e4_byzantine_behaviour_matrix() {
    let t = exp::e4_byz_atomicity(6);
    assert_eq!(t.len(), 8); // eight behaviours
}

#[test]
fn e5_byzantine_lower_bound() {
    let s = exp::e5_byz_lower_bound().render();
    assert!(s.contains("ATOMICITY VIOLATED"));
    assert!(s.contains("construction impossible"));
}

#[test]
fn e6_mwmr_refutation() {
    let s = exp::e6_mwmr().render();
    assert!(s.contains("false")); // never linearizable
}

#[test]
fn e7_regular_tradeoff() {
    let s = exp::e7_regular_tradeoff(8).render();
    assert!(s.contains("regularity"));
}

#[test]
fn e8_frontier_agrees_everywhere() {
    let t = exp::e8_frontier();
    // Every row asserts agreement internally; the table must be nonempty
    // and every row says "yes".
    assert!(t.len() > 30);
    let s = t.render();
    for line in s.lines().skip(2) {
        assert!(line.trim_end().ends_with("yes"), "row: {line}");
    }
    assert_golden(&s, include_str!("golden/e8.txt"));
}

#[test]
fn e9_latency_distributions() {
    let s = exp::e9_latency().render();
    assert!(s.contains("uniform"));
    assert!(s.contains("x")); // a ratio column
}

#[test]
fn e10_predicate_internals() {
    let s = exp::e10_predicate().render();
    assert!(s.contains("witness level"));
}

#[test]
fn e15_exploration_finds_violations_only_where_the_paper_allows_them() {
    let t = exp::e15_exploration(108, 3);
    let s = t.render();
    // Hunting rows exist and at least one found a shrunk counterexample
    // (the experiment itself asserts replayability internally).
    assert!(s.contains("hunting"), "{s}");
    // Rows expected to stay clean found no counterexample: their "min
    // shrunk faults" column renders "-" (the experiment itself panics if
    // a sound feasible cell violates, so this is a rendering check).
    for line in s.lines().filter(|l| l.contains("must stay clean")) {
        assert!(
            line.trim_end().ends_with('-'),
            "clean row with a counterexample: {line}"
        );
    }
    assert_golden(&s, include_str!("golden/e15.txt"));
}

#[test]
fn e14_scale_sweep_completes_across_the_registry() {
    // A reduced sweep (the report binary runs the full 1k/10k/100k one);
    // every sound protocol feasible at (5,1,2) must appear and complete.
    let t = exp::e14_scale(&[300, 600]);
    assert_eq!(t.len(), 12); // 6 protocols × 2 sizes
    let s = t.render();
    for name in [
        "fast-crash",
        "fast-byz",
        "abd",
        "max-min",
        "fast-regular",
        "mwmr-abd",
    ] {
        assert!(s.contains(name), "e14 must sweep {name}");
    }
}

#[test]
fn e16_store_sweep_serves_a_keyspace_with_clean_per_key_verdicts() {
    // A reduced headline (the report binary runs the ≥ 10k-op one); the
    // sweep rows must cover homogeneous, heterogeneous and skewed
    // stores, and the experiment's internal assertions guarantee every
    // key's projected sub-history upheld its backend's contract.
    let t = exp::e16_store(3_000, 2);
    assert_eq!(t.len(), 6);
    let s = t.render();
    assert!(s.contains("mixed"), "heterogeneous backends swept");
    assert!(s.contains("zipf(1.2)"), "skewed keyspace swept");
    assert!(s.contains("clean"), "per-key verdict column rendered");
}
