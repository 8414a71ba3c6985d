//! Per-rule fixture checks. Every rule has three fixture trees under
//! `tests/fixtures/<rule>/`: `pos` (must gate), `neg` (must be clean),
//! and `allowed` (findings waived by written annotations). Each tree is
//! a mini repo root, because rule scoping is by repo-relative path.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fastreg_lint::{scan_workspace, Report, Rule};

fn scan(fixture: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    scan_workspace(&root).unwrap_or_else(|e| panic!("scan {fixture}: {e}"))
}

#[test]
fn d1_positive_gates() {
    let r = scan("d1/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 2, "{}", r.table());
    for f in &gating {
        assert_eq!(f.rule, Rule::NondetOrder);
        assert_eq!(f.file, "crates/atomicity/src/lib.rs");
    }
    assert_eq!(gating[0].line, 1);
    assert_eq!(gating[1].line, 3);
    // The table is the self-scan's failure message: it names the rule,
    // the file and line, and that the finding gates.
    let table = r.table();
    for needle in [
        "D1 nondet-order",
        "crates/atomicity/src/lib.rs:1 ",
        "crates/atomicity/src/lib.rs:3 ",
        "FINDING",
    ] {
        assert!(table.contains(needle), "no {needle:?} in:\n{table}");
    }
}

#[test]
fn d1_negative_is_clean() {
    // BTreeMap in scope, HashMap in a string literal, HashMap in an
    // out-of-scope crate: none of it fires.
    let r = scan("d1/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
    assert_eq!(r.files_scanned, 2);
}

#[test]
fn d1_annotations_waive_with_reasons() {
    let r = scan("d1/allowed");
    assert_eq!(r.findings.len(), 2, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
    let reasons: Vec<_> = r.allowed().map(|f| f.allowed.as_deref().unwrap()).collect();
    assert_eq!(
        reasons,
        vec!["pure keyed lookup, never iterated", "membership test only"]
    );
}

#[test]
fn d2_positive_gates() {
    let r = scan("d2/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 1, "{}", r.table());
    assert_eq!(gating[0].rule, Rule::WallClock);
    assert_eq!(gating[0].file, "crates/workload/src/lib.rs");
    assert_eq!(gating[0].line, 4);
    assert_eq!(gating[0].snippet, "let start = Instant::now();");
}

#[test]
fn d2_negative_ignores_comments_and_strings() {
    // The runtime and the bench crate get no exemption: only mentions
    // outside code pass.
    let r = scan("d2/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
    assert_eq!(r.files_scanned, 2);
}

#[test]
fn d2_annotation_waives() {
    let r = scan("d2/allowed");
    assert_eq!(r.findings.len(), 1, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
    assert_eq!(
        r.findings[0].allowed.as_deref(),
        Some("report row only, never feeds a verdict")
    );
}

#[test]
fn d3_positive_gates() {
    let r = scan("d3/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 2, "{}", r.table());
    for f in &gating {
        assert_eq!(f.rule, Rule::SubstrateIsolation);
        assert_eq!(f.file, "crates/rt/src/lib.rs");
    }
    assert_eq!(gating[0].line, 1, "the SimControl import");
    assert_eq!(gating[1].line, 4, "the step_random call");
}

#[test]
fn d3_negative_allows_simnet_side_steering() {
    // The adversary lives on the simnet side: steering is its job.
    let r = scan("d3/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
    assert_eq!(r.files_scanned, 2);
}

#[test]
fn d3_annotation_waives() {
    let r = scan("d3/allowed");
    assert_eq!(r.findings.len(), 1, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
}

#[test]
fn d4_positive_gates() {
    let r = scan("d4/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 2, "{}", r.table());
    assert_eq!(gating[0].rule, Rule::PanicHygiene);
    assert_eq!(gating[0].snippet, "x.unwrap()");
    assert_eq!(gating[1].snippet, "world.settle();");
}

#[test]
fn d4_negative_skips_cfg_test_regions() {
    let r = scan("d4/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
}

#[test]
fn d4_annotation_waives() {
    let r = scan("d4/allowed");
    assert_eq!(r.findings.len(), 1, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
}

#[test]
fn d6_positive_gates_spawn_and_builder() {
    let r = scan("d6/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 3, "{}", r.table());
    assert!(gating.iter().all(|f| f.rule == Rule::ThreadSpawn));
    let at: Vec<_> = gating.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(
        at,
        [
            // The simulator spawns no threads, not even a worker pool.
            ("crates/simnet/src/threaded.rs", 2),
            ("crates/workload/src/lib.rs", 2), // the std::thread::spawn call
            ("crates/workload/src/lib.rs", 7), // the std::thread::Builder path
        ]
    );
}

#[test]
fn d6_negative_exempts_the_thread_substrates() {
    // Raw spawns in crates/rt (the actor pool and the threaded fan-outs)
    // are the point; mentions in comments and string literals are not
    // calls.
    let r = scan("d6/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
    assert_eq!(r.files_scanned, 3);
}

#[test]
fn d6_annotation_waives() {
    let r = scan("d6/allowed");
    assert_eq!(r.findings.len(), 1, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
    assert_eq!(
        r.findings[0].allowed.as_deref(),
        Some("one-shot watchdog, joined before any verdict is read")
    );
}

#[test]
fn d7_positive_gates_monoclock_outside_rt() {
    let r = scan("d7/pos");
    let gating: Vec<_> = r.unannotated().collect();
    assert_eq!(gating.len(), 2, "{}", r.table());
    for f in &gating {
        assert_eq!(f.rule, Rule::ObsClockDiscipline);
        assert_eq!(f.file, "crates/workload/src/lib.rs");
    }
    assert_eq!(gating[0].line, 1, "the import");
    assert_eq!(gating[1].line, 4, "the construction");
}

#[test]
fn d7_negative_exempts_the_clock_owners() {
    // MonoClock in crates/rt (the sanctioned constructor site) and in
    // crates/obs (the definition) is the point; mentions in comments
    // and string literals are not constructions.
    let r = scan("d7/neg");
    assert_eq!(r.findings, vec![], "{}", r.table());
    assert_eq!(r.files_scanned, 3);
}

#[test]
fn d7_annotation_waives() {
    let r = scan("d7/allowed");
    assert_eq!(r.findings.len(), 1, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
    assert_eq!(
        r.findings[0].allowed.as_deref(),
        Some("ad-hoc profiling probe, output never feeds a trace or metric")
    );
}

#[test]
fn d5_positive_names_every_missing_wire() {
    let r = scan("d5/pos");
    assert_eq!(r.registry_variants, 3);
    let gating: BTreeSet<String> = r.unannotated().map(|f| f.snippet.clone()).collect();
    let expected: BTreeSet<String> =
        ["ProtocolId::Beta: never exercised by tests/protocol_conformance.rs"]
            .into_iter()
            .map(String::from)
            .collect();
    assert_eq!(gating, expected, "{}", r.table());
    for f in r.unannotated() {
        assert_eq!(f.rule, Rule::RegistryCompleteness);
        assert_eq!(f.file, "crates/core/src/protocols/registry.rs");
    }
}

#[test]
fn d5_negative_fully_wired_registry_is_clean() {
    let r = scan("d5/neg");
    assert_eq!(r.registry_variants, 2);
    assert_eq!(r.findings, vec![], "{}", r.table());
}

#[test]
fn d5_annotation_on_the_variant_waives_its_findings() {
    let r = scan("d5/allowed");
    assert_eq!(r.registry_variants, 3);
    assert_eq!(r.findings.len(), 2, "{}", r.table());
    assert_eq!(r.unannotated().count(), 0);
    for f in r.allowed() {
        assert!(f.allowed.as_deref().is_some_and(|s| !s.is_empty()));
    }
}
