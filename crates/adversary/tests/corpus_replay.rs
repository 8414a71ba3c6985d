//! The committed counterexample corpus, replayed as a regression suite.
//!
//! Every file under `corpus/` at the workspace root is a shrunk,
//! serialized violating schedule found by the exploration engine. This
//! suite re-executes each one and demands exact reproduction: the same
//! verdict and the same trace fingerprint, byte-for-byte determinism
//! across machines and rust versions. A failure here means a protocol or
//! simulator change silently altered a schedule the paper's bounds say
//! must (or must not) exist — the distributed-register analogue of a
//! golden test.

use std::path::PathBuf;

use fastreg_adversary::explore::{CellExpectation, Counterexample};

/// The workspace-root `corpus/` directory.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Every parsed corpus entry with its file name.
fn corpus() -> Vec<(String, Counterexample)> {
    let dir = corpus_dir();
    let mut entries: Vec<(String, Counterexample)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "txt"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()));
            let cx = Counterexample::parse(&text)
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, cx)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[test]
fn corpus_is_nonempty_and_covers_the_seeded_infeasible_config() {
    let corpus = corpus();
    assert!(!corpus.is_empty(), "the committed corpus must not be empty");
    // The headline counterexample: Fig. 2 deployed past the fast bound.
    assert!(
        corpus.iter().any(|(_, cx)| {
            cx.protocol == fastreg::protocols::registry::ProtocolId::FastCrash
                && !cx.cfg.fast_feasible()
        }),
        "corpus must contain a fast-crash counterexample beyond the bound"
    );
}

#[test]
fn every_corpus_entry_replays_to_its_recorded_verdict_and_fingerprint() {
    for (name, cx) in corpus() {
        assert!(
            !cx.verdict.is_clean(),
            "{name}: corpus entries record violations, not clean runs"
        );
        let replay = cx.replay();
        assert!(
            replay.reproduces(&cx),
            "{name}: replay diverged (recorded verdict {}, fingerprint {:016x}; \
             got {}, {:016x})",
            cx.verdict,
            cx.fingerprint,
            replay.verdict,
            replay.fingerprint
        );
    }
}

#[test]
fn every_corpus_entry_is_an_expected_violation() {
    // Corpus entries document *sought* violations (past the bound or on
    // unsound protocols). A sound feasible violation would be a protocol
    // bug and must never be quietly archived here.
    for (name, cx) in corpus() {
        assert_eq!(
            cx.cell().point().expectation(),
            CellExpectation::MayViolate,
            "{name}: a sound feasible cell violating is a bug, not corpus material"
        );
    }
}

#[test]
fn corpus_files_are_in_canonical_form() {
    // render(parse(file)) must equal the file: corpus diffs stay
    // reviewable and load/store cycles cannot churn bytes.
    for (name, cx) in corpus() {
        let path = corpus_dir().join(&name);
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            cx.render(),
            on_disk,
            "{name} is not in canonical serialized form"
        );
    }
}
