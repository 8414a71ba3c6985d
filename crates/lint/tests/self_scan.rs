//! The self-scan: the shipped workspace must carry zero unannotated
//! findings. This test is the lint's gate: `cargo test` alone catches a
//! regression (e.g. a HashMap seeded into a checker module), and its
//! failure message is the findings table, naming each rule, file and
//! line. It also holds the workspace to one bench harness, fastbench,
//! to one quorum round and client automaton, and to one lower-bound
//! chain.

use std::path::{Path, PathBuf};

use fastreg_lint::{scan_workspace, Rule};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_unannotated_findings() {
    let report = scan_workspace(&workspace_root()).unwrap();
    assert_eq!(
        report.unannotated().count(),
        0,
        "the workspace gained unannotated lint findings:\n{}",
        report.table()
    );
}

#[test]
fn scan_actually_covered_the_tree() {
    let report = scan_workspace(&workspace_root()).unwrap();
    assert!(
        report.files_scanned >= 80,
        "only {} files scanned — walk regression?",
        report.files_scanned
    );
    assert_eq!(
        report.registry_variants, 8,
        "D5 no longer parses all ProtocolId variants"
    );
    // A known, deliberately annotated site: the SWMR checker's
    // value->index lookup map. If this disappears the allow machinery
    // (or the scan itself) broke.
    assert!(
        report
            .allowed()
            .any(|f| f.rule == Rule::NondetOrder && f.file == "crates/atomicity/src/swmr.rs"),
        "expected the annotated HashMap in the SWMR checker to be reported as allowed:\n{}",
        report.table()
    );
    // D6: every OS thread in the shipped tree is created by crates/rt,
    // so the scan sees no thread-spawn findings at all — not even
    // allowed ones.
    assert!(
        !report.findings.iter().any(|f| f.rule == Rule::ThreadSpawn),
        "raw thread creation leaked outside the sanctioned substrates:\n{}",
        report.table()
    );
    // D7: the observability wall-clock is defined in crates/obs and
    // constructed only by crates/rt, so the shipped tree carries no
    // obs-clock-discipline findings at all — not even allowed ones.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::ObsClockDiscipline),
        "the observability wall-clock leaked outside crates/rt:\n{}",
        report.table()
    );
}

/// Every line of a root, `crates/*` or `vendor/*` manifest that declares
/// a `[[bench]]` target or names criterion, as `path:line: text`.
fn second_bench_harness_lines(root: &Path) -> Vec<String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let mut members: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|entry| entry.unwrap().path().join("Cargo.toml"))
            .filter(|manifest| manifest.is_file())
            .collect();
        members.sort();
        manifests.extend(members);
    }
    let mut hits = Vec::new();
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap();
        for (n, line) in text.lines().enumerate() {
            if line.contains("[[bench]]") || line.contains("criterion") {
                let path = manifest.strip_prefix(root).unwrap_or(manifest);
                hits.push(format!("{}:{}: {line}", path.display(), n + 1));
            }
        }
    }
    hits
}

#[test]
fn fastbench_is_the_one_bench_harness() {
    // Every performance number is gated by fastbench (benchmark/, a
    // package outside the workspace); the workspace carries no second
    // harness.
    let root = workspace_root();
    let hits = second_bench_harness_lines(&root);
    assert!(
        hits.is_empty(),
        "a second bench harness: the benchmark is benchmark/ (fastbench)\n{}",
        hits.join("\n")
    );
    assert!(
        !root.join("vendor/criterion").exists(),
        "vendor/criterion: the benchmark is benchmark/ (fastbench)"
    );
}

/// The `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// `path:line: text` for each line of `files` before the file's first
/// `#[cfg(test)]` that contains one of `patterns(file)`.
fn non_test_hits(
    root: &Path,
    files: &[PathBuf],
    patterns: impl Fn(&Path) -> Vec<&'static str>,
) -> Vec<String> {
    let mut hits = Vec::new();
    for file in files {
        let banned = patterns(file);
        let text = std::fs::read_to_string(file).unwrap();
        let non_test = text
            .lines()
            .take_while(|line| !line.contains("#[cfg(test)]"));
        for (n, line) in non_test.enumerate() {
            if banned.iter().any(|pattern| line.contains(pattern)) {
                let path = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}: {line}", path.display(), n + 1));
            }
        }
    }
    hits
}

#[test]
fn the_quorum_round_and_the_client_automaton_exist_once() {
    // Non-test code of the protocol layer: the quorum comparison, the
    // per-server ack container and the history's invoke_* / respond
    // calls only in protocols/round.rs, whose Client<R> is every client
    // automaton; and nowhere, Byzantine behaviours included, an ordered
    // set of clients or a cloned `seen` (it is a Copy mask).
    let root = workspace_root();
    let mut files = rust_files(&root.join("crates/core/src/protocols"));
    files.push(root.join("crates/core/src/byz.rs"));
    let hits = non_test_hits(&root, &files, |file| {
        let mut banned = vec!["BTreeSet<ClientId>", "seen.clone()"];
        if !file.ends_with("round.rs") && !file.ends_with("byz.rs") {
            banned.extend([
                ">= quorum",
                "acks: BTree",
                "invoke_read(",
                "invoke_write(",
                ".respond(",
            ]);
        }
        banned
    });
    assert!(
        hits.is_empty(),
        "the quorum round and the client automaton are protocols/round.rs; `seen` is a ClientSet\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_lower_bound_chain_exists_once() {
    // §5 and §6.2 are one proof over one partition: no second driver
    // file, one place that builds the memory-losing server, and a chain
    // module that scripts its deliveries through its helper (the two
    // forked files had 24 `deliver_matching(` calls between them).
    let root = workspace_root();
    let src = root.join("crates/adversary/src");
    for fork in ["crash_lb.rs", "byz_lb.rs"] {
        assert!(
            !src.join(fork).exists(),
            "crates/adversary/src/{fork}: the chain is crates/adversary/src/chain.rs"
        );
    }
    let liars = non_test_hits(&root, &rust_files(&src), |_| vec!["TwoFacedLoseWrite::new"]);
    assert!(
        liars.len() <= 1,
        "the memory-losing server is built in more than one place:\n{}",
        liars.join("\n")
    );
    let deliveries = non_test_hits(&root, &[src.join("chain.rs")], |_| {
        vec!["deliver_matching("]
    });
    assert!(
        deliveries.len() <= 12,
        "chain.rs scripts more than 12 deliveries by hand:\n{}",
        deliveries.join("\n")
    );
}

#[test]
fn cell_expansion_exists_once() {
    // A (grid point, fault distribution) pair becomes a cell in one
    // function, `pair_cell` in explore/engine.rs, which both the random
    // grid and the coverage-guided planner call: no second schedule
    // search picks a distribution by indexing the list itself.
    let root = workspace_root();
    let mut files = rust_files(&root.join("src"));
    files.extend(rust_files(&root.join("examples")));
    files.extend(
        rust_files(&root.join("crates"))
            .into_iter()
            .filter(|file| !file.components().any(|c| c.as_os_str() == "tests")),
    );
    let hits = non_test_hits(&root, &files, |_| vec!["FaultDistribution::ALL["]);
    let home = "crates/adversary/src/explore/engine.rs:";
    assert!(
        hits.len() == 1 && hits[0].starts_with(home),
        "cells are expanded once, by pair_cell in {home} (found {} sites)\n{}",
        hits.len(),
        hits.join("\n")
    );
}
