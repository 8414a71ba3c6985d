//! End-to-end runs of every experiment in the EXPERIMENTS.md suite.
//!
//! Each experiment function asserts its own qualitative expectations
//! internally (e.g. "the feasible side finds no violation", "prC
//! violates"). Every table is also compared byte for byte with its
//! golden under `tests/golden/`, and the per-table tests below check
//! the claims a re-pinned golden must still show.

use std::path::Path;
use std::sync::OnceLock;

use fastreg_suite::fastreg_workload::experiments::{self as exp, EXPERIMENTS};
use fastreg_suite::prelude::ProtocolId;

/// The table of experiment `id` at the parameters its golden pins,
/// rendered once per test run. The pins are the `--quick` parameters,
/// except where tier-1 already ran a smaller sweep when the golden was
/// committed (E1, E14, E18) or a thread count that does not change the
/// bytes (E15).
fn rendered(id: &str) -> &'static str {
    static TABLES: [OnceLock<String>; EXPERIMENTS.len()] = [const { OnceLock::new() }; _];
    let i = EXPERIMENTS
        .iter()
        .position(|e| e.id == id)
        .unwrap_or_else(|| panic!("{id} is not a suite experiment"));
    TABLES[i].get_or_init(|| {
        match id {
            "e1" => exp::e1_fast_crash_atomicity(8),
            "e14" => exp::e14_scale(&[300, 600]),
            "e15" => exp::e15_exploration(108, 3),
            "e18" => exp::e18_checker_memory(&[9_000, 60_000], 9_000),
            _ => (EXPERIMENTS[i].run)(true),
        }
        .render()
    })
}

/// The rendered table's data rows (after the header and its underline).
fn rows(table: &str) -> impl Iterator<Item = &str> {
    table.lines().skip(2)
}

#[test]
fn every_table_matches_its_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut differ = Vec::new();
    for e in &EXPERIMENTS {
        let path = dir.join(format!("{}.txt", e.id));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("{}: no golden at {}: {err}", e.id, path.display()));
        // A golden opens with one header line, which states the re-pin rule.
        let (_header, table) = golden
            .split_once('\n')
            .unwrap_or_else(|| panic!("{}: a golden opens with its header line", e.id));
        let got = rendered(e.id);
        if got != table {
            differ.push(format!(
                "--- {} rendered\n{got}\n--- {} golden\n{table}",
                e.id,
                path.display()
            ));
        }
    }
    assert!(
        differ.is_empty(),
        "tables differ from their goldens — a deliberate change re-pins the golden and \
         says so in CHANGES.md\n{}",
        differ.join("\n")
    );
    // Every golden belongs to a suite experiment.
    for entry in std::fs::read_dir(&dir).expect("tests/golden is readable") {
        let name = entry.expect("a directory entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            EXPERIMENTS
                .iter()
                .any(|e| name.strip_suffix(".txt") == Some(e.id)),
            "tests/golden/{name} pins no suite experiment"
        );
    }
}

#[test]
fn e1_fast_crash_atomicity_is_clean() {
    let s = rendered("e1");
    assert_eq!(rows(s).count(), 6);
    assert!(rows(s).all(|l| l.trim_end().ends_with('0')));
}

#[test]
fn e2_round_trip_structure() {
    // Protocol name column comes from the registry's kebab-case names.
    let s = rendered("e2");
    assert_eq!(rows(s).count(), 3);
    assert!(s.contains("fast-crash"));
    assert!(s.contains("max-min"));
    assert!(s.contains("abd"));
}

#[test]
fn e3_lower_bound_both_sides() {
    let s = rendered("e3");
    assert!(s.contains("ATOMICITY VIOLATED"));
    assert!(s.contains("atomic in"));
    assert!(s.contains("impossible (no block partition)"));
}

#[test]
fn e4_byzantine_behaviour_matrix() {
    assert_eq!(rows(rendered("e4")).count(), 8); // eight behaviours
}

#[test]
fn e5_byzantine_lower_bound() {
    let s = rendered("e5");
    assert!(s.contains("ATOMICITY VIOLATED"));
    assert!(s.contains("construction impossible"));
}

#[test]
fn e6_mwmr_refutation() {
    assert!(rendered("e6").contains("false")); // never linearizable
}

#[test]
fn e7_regular_tradeoff() {
    assert!(rendered("e7").contains("regularity"));
}

#[test]
fn e8_frontier_agrees_everywhere() {
    // Every row asserts agreement internally; the table must be nonempty
    // and every row says "yes".
    let s = rendered("e8");
    assert!(rows(s).count() > 30);
    for line in rows(s) {
        assert!(line.trim_end().ends_with("yes"), "row: {line}");
    }
}

#[test]
fn e9_latency_distributions() {
    let s = rendered("e9");
    assert!(s.contains("uniform"));
    assert!(s.contains("x")); // a ratio column
}

#[test]
fn e10_predicate_internals() {
    let s = rendered("e10");
    assert!(s.contains("witness level"));
    assert!(s.contains("300/300"));
}

#[test]
fn e15_exploration_finds_violations_only_where_the_paper_allows_them() {
    let s = rendered("e15");
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
}

#[test]
fn e14_scale_sweep_completes_across_the_registry() {
    // A reduced sweep (the report binary runs the full 1k/10k/100k one);
    // every sound protocol feasible at (5,1,2) must appear and complete.
    let s = rendered("e14");
    assert_eq!(rows(s).count(), 12); // 6 protocols × 2 sizes
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
    // The sweep rows must cover homogeneous, heterogeneous and skewed
    // stores, and the experiment's internal assertions guarantee every
    // key's projected sub-history upheld its backend's contract.
    let s = rendered("e16");
    assert_eq!(rows(s).count(), 6);
    assert!(s.contains("mixed"), "heterogeneous backends swept");
    assert!(s.contains("zipf(1.2)"), "skewed keyspace swept");
    assert!(s.contains("clean"), "per-key verdict column rendered");
}

#[test]
fn e18_streaming_holds_a_bounded_frontier_where_batch_holds_every_op() {
    // Streaming at both sizes, batch at the small one only; the
    // experiment itself asserts the resident bound and that the two
    // checkers agree.
    let s = rendered("e18");
    assert_eq!(rows(s).count(), 3);
    assert_eq!(rows(s).filter(|l| l.contains("streaming")).count(), 2);
    assert_eq!(rows(s).filter(|l| l.contains("batch")).count(), 1);
    assert!(rows(s).all(|l| l.trim_end().ends_with("clean")));
}

#[test]
fn e19_holds_the_obs_invariants_for_every_protocol() {
    // One row per registered protocol plus the rt-counters row.
    let s = rendered("e19");
    assert_eq!(rows(s).count(), ProtocolId::ALL.len() + 1);
    for id in ProtocolId::ALL {
        assert!(s.contains(id.name()), "e19 must cover {}", id.name());
    }
    assert!(s.contains("balanced"));
    assert!(s.contains("rt-counters"));
}
