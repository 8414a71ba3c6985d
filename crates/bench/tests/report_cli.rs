//! CLI contract of the `report` binary: `--list`, `--protocol`
//! filtering through the registry, and exit code 2 with a helpful
//! message on unknown experiment or protocol names.

use std::process::{Command, Output};

use fastreg::protocols::registry::ProtocolId;
use fastreg_adversary::explore::Counterexample;
use fastreg_workload::experiments::EXPERIMENTS;

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs")
}

#[test]
fn list_prints_experiments_and_registered_protocols() {
    let out = report(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The binary lists the workload crate's one catalogue.
    for eid in EXPERIMENTS.iter().map(|e| e.id) {
        assert!(
            stdout.contains(&format!("{eid} ")),
            "--list must mention {eid}"
        );
    }
    for id in ProtocolId::ALL {
        assert!(
            stdout.contains(id.name()),
            "--list must mention protocol {}",
            id.name()
        );
    }
}

#[test]
fn unknown_protocol_exits_2_with_the_registered_names() {
    let out = report(&["--protocol", "fast-quantum"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fast-quantum"));
    assert!(stderr.contains("fast-crash"), "message lists valid names");
}

#[test]
fn missing_protocol_value_exits_2() {
    let out = report(&["--protocol"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_experiment_exits_2_with_the_valid_ids() {
    let out = report(&["e99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("e99"));
    assert!(stderr.contains("e1"), "message lists valid experiment ids");
}

#[test]
fn list_mode_still_validates_experiment_ids() {
    let out = report(&["--list", "e99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("e99"));
}

#[test]
fn unknown_flag_exits_2() {
    // A typo'd flag must not silently run every experiment.
    let out = report(&["--protocl=fast-byz"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--protocl=fast-byz"));
    assert!(stderr.contains("--protocol"), "message lists valid flags");
}

#[test]
fn disjoint_experiment_and_protocol_filters_exit_2() {
    // e3 is valid, fast-byz is valid, but e3 never runs fast-byz: an
    // empty intersection must refuse rather than print nothing.
    let out = report(&["--protocol", "fast-byz", "e3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fast-byz"));
    assert!(
        stderr.contains("e4"),
        "message names the protocol's experiments"
    );
}

#[test]
fn protocol_filter_selects_only_that_protocols_experiments() {
    // swsr-fast appears in E11, E15 and E19 only.
    let out = report(&["--protocol=swsr-fast", "--quick"]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let banners: Vec<&str> = stdout
        .lines()
        .filter_map(|l| Some(l.split_once(" — ")?.0))
        .collect();
    assert_eq!(banners, ["E11", "E15", "E19"]);
}

/// A scratch file that cleans up after itself.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn with_content(name: &str, content: &str) -> Self {
        let path = std::env::temp_dir().join(format!("report_cli_{}_{name}", std::process::id()));
        std::fs::write(&path, content).expect("temp file writes");
        TempFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn trace_subcommand_writes_deterministic_artifacts() {
    let trace_a = TempFile::with_content("trace_a.json", "");
    let metrics_a = TempFile::with_content("metrics_a.json", "");
    let run = |trace: &str, metrics: &str| {
        let out = report(&[
            "trace",
            "--experiment",
            "register",
            "--protocol",
            "fast-crash",
            "--seed",
            "5",
            "--ops",
            "40",
            "--trace-out",
            trace,
            "--metrics-out",
            metrics,
        ]);
        assert!(out.status.success(), "{out:?}");
    };
    run(trace_a.path(), metrics_a.path());
    let trace = std::fs::read_to_string(trace_a.path()).unwrap();
    let metrics = std::fs::read_to_string(metrics_a.path()).unwrap();
    // Chrome trace_event JSON, the shape Perfetto loads.
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.trim_end().ends_with("]}"), "{trace}");
    assert!(trace.contains("\"ph\":"));
    assert!(metrics.contains("\"counters\""), "{metrics}");
    assert!(metrics.contains("\"net.sent\""), "{metrics}");
    // Same flags ⇒ same bytes.
    let trace_b = TempFile::with_content("trace_b.json", "");
    let metrics_b = TempFile::with_content("metrics_b.json", "");
    run(trace_b.path(), metrics_b.path());
    assert_eq!(trace, std::fs::read_to_string(trace_b.path()).unwrap());
    assert_eq!(metrics, std::fs::read_to_string(metrics_b.path()).unwrap());
}

#[test]
fn trace_store_metrics_are_thread_count_independent() {
    let run = |threads: &str, file: &TempFile| {
        let out = report(&[
            "trace",
            "--experiment",
            "store",
            "--seed",
            "3",
            "--ops",
            "400",
            "--shards",
            "4",
            "--threads",
            threads,
            "--metrics-out",
            file.path(),
        ]);
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(file.path()).unwrap()
    };
    let m1 = TempFile::with_content("store_m1.json", "");
    let m2 = TempFile::with_content("store_m2.json", "");
    let m4 = TempFile::with_content("store_m4.json", "");
    let t1 = run("1", &m1);
    assert_eq!(t1, run("2", &m2));
    assert_eq!(t1, run("4", &m4));
}

#[test]
fn unknown_trace_flag_exits_2() {
    let out = report(&["trace", "--budget", "8"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--budget"));
    assert!(stderr.contains("usage: report trace"));
}

#[test]
fn explore_runs_and_reports_both_directions() {
    let out = report(&[
        "explore",
        "--cells",
        "72",
        "--threads",
        "2",
        "--budget",
        "8",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("explored 72 cells"));
    assert!(stdout.contains("unexpected violations: 0"));
    // Seed 5 deterministically finds hunting-ground violations (this is
    // the CI fuzz-smoke invocation's seed for exactly that reason).
    assert!(stdout.contains("expected violations:"));
    assert!(
        stdout.contains("new-old-inversion") || stdout.contains("not-linearizable"),
        "hunting cells must yield shrunk findings:\n{stdout}"
    );
}

#[test]
fn explore_is_thread_count_independent_at_the_cli() {
    // The acceptance bar for the traversal upgrade: the full --json
    // document (verdicts, findings, coverage report and all) is
    // byte-identical across --threads 1/2/4 under *both* strategies.
    for strategy in ["random-grid", "coverage-guided"] {
        let run = |threads: &str| {
            let out = report(&[
                "explore",
                "--cells",
                "54",
                "--threads",
                threads,
                "--budget",
                "6",
                "--seed",
                "5",
                "--strategy",
                strategy,
                "--json",
            ]);
            assert!(out.status.success(), "{out:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let one = run("1");
        let two = run("2");
        let four = run("4");
        // Identical JSON except the echoed threads line itself.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"threads\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four), "strategy {strategy}");
        assert_eq!(strip(&two), strip(&four), "strategy {strategy}");
        assert!(one.contains(&format!("\"strategy\": \"{strategy}\"")));
    }
}

#[test]
fn explore_coverage_out_writes_the_coverage_document() {
    let path = std::env::temp_dir().join(format!("report_cli_cov_{}.json", std::process::id()));
    let run = |threads: &str| {
        let out = report(&[
            "explore",
            "--cells",
            "54",
            "--threads",
            threads,
            "--budget",
            "6",
            "--seed",
            "5",
            "--strategy",
            "coverage-guided",
            "--coverage-out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(&path).unwrap()
    };
    let doc = run("2");
    assert!(
        doc.starts_with("{ \"strategy\": \"coverage-guided\""),
        "{doc}"
    );
    assert!(doc.contains("\"features_seen\""));
    assert!(doc.contains("\"novel_per_1k_cells\""));
    assert!(doc.contains("\"saturation\": ["));
    // The document carries no thread or wall-clock fields, so its bytes
    // are pinned across worker counts too.
    assert_eq!(doc, run("4"));
    let _ = std::fs::remove_file(&path);
}

/// CI's fuzz-smoke invocation reaches exactly this feature count: the
/// coverage document carries no thread or wall-clock fields, so drift
/// means the engine's determinism contract broke or the search changed
/// on purpose (then re-pin it here).
#[test]
fn ci_exploration_sees_the_pinned_feature_count() {
    let tag = std::process::id();
    let cov = std::env::temp_dir().join(format!("report_cli_ci_cov_{tag}.json"));
    let found = std::env::temp_dir().join(format!("report_cli_ci_found_{tag}"));
    let out = report(&[
        "explore",
        "--cells",
        "144",
        "--threads",
        "4",
        "--budget",
        "8",
        "--seed",
        "5",
        "--strategy",
        "coverage-guided",
        "--coverage-out",
        cov.to_str().unwrap(),
        "--out",
        found.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&cov).unwrap();
    let _ = std::fs::remove_file(&cov);
    let _ = std::fs::remove_dir_all(&found);
    assert!(doc.contains("\"features_seen\": 238,"), "{doc}");
}

#[test]
fn explore_writes_replayable_counterexamples() {
    let dir = std::env::temp_dir().join(format!("report_cli_found_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = report(&[
        "explore",
        "--cells",
        "72",
        "--threads",
        "2",
        "--budget",
        "8",
        "--seed",
        "5",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(!files.is_empty(), "seed 5 findings must be written");
    // And the written files replay green through the CLI.
    let replay = report(&["explore", "--replay", dir.to_str().unwrap()]);
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8(replay.stdout).unwrap();
    assert!(stdout.contains("reproduced"));
    assert!(!stdout.contains("DIVERGED"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_replays_the_committed_corpus() {
    let corpus = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
    let out = report(&["explore", "--replay", &corpus, "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"mode\": \"replay\""));
    assert!(stdout.contains("\"reproduced\": true"));
    assert!(!stdout.contains("\"reproduced\": false"));
}

#[test]
fn explore_replay_divergence_exits_1() {
    // Corrupt a corpus entry's expected verdict: parse succeeds, replay
    // diverges, exit code 1.
    let corpus = format!(
        "{}/../../corpus/fast-crash-s5t1b0r3w1-seed3073235814424963731.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(corpus).unwrap();
    assert!(text.contains("verdict: new-old-inversion"));
    let tampered = text.replace("verdict: new-old-inversion", "verdict: read-from-future");
    let file = TempFile::with_content("tampered.txt", &tampered);
    let out = report(&["explore", "--replay", file.path()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("DIVERGED"));
}

#[test]
fn explore_replay_of_a_protocol_outside_its_hypotheses_diverges_not_panics() {
    // A corpus entry re-addressed to the single-reader protocol with two
    // readers parses; replaying it yields a verdict like any other
    // deployment past its hypotheses — the file's own verdict is not
    // reproduced (exit 1), and nothing panics (exit 101).
    let corpus = format!(
        "{}/../../corpus/fast-crash-s5t1b0r3w1-seed3073235814424963731.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(corpus)
        .unwrap()
        .replace("protocol: fast-crash", "protocol: swsr-fast")
        .replace("config: s=5 t=1 b=0 r=3 w=1", "config: s=5 t=2 b=0 r=2 w=1");
    let cx = Counterexample::parse(&text).expect("still a well-formed file");
    assert_eq!((cx.protocol, cx.cfg.r), (ProtocolId::SwsrFast, 2));
    assert!(!cx.replay().reproduces(&cx));
    let file = TempFile::with_content("swsr_two_readers.txt", &text);
    let out = report(&["explore", "--replay", file.path()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8(out.stdout).unwrap().contains("DIVERGED"));
}

#[test]
fn explore_rejects_bad_flags_and_paths() {
    let out = report(&["explore", "--cells", "not-a-number"]);
    assert_eq!(out.status.code(), Some(2));
    let out = report(&["explore", "--warp", "9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--warp"));
    let out = report(&["explore", "--strategy", "warp"]);
    assert_eq!(out.status.code(), Some(2));
    let out = report(&["explore", "--replay", "/no/such/path"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn store_json_is_byte_identical_across_thread_counts() {
    // The store's determinism contract: shards are independent simulated
    // worlds, so the worker-pool size may change wall-clock only. The
    // JSON document carries no timing fields and must not change by a
    // byte across --threads values.
    let run = |threads: &str| {
        let out = report(&[
            "store",
            "--shards",
            "4",
            "--threads",
            threads,
            "--keys",
            "80",
            "--ops",
            "400",
            "--clients",
            "16",
            "--seed",
            "9",
            "--json",
        ]);
        assert!(out.status.success(), "threads {threads}");
        out.stdout
    };
    let one = run("1");
    assert_eq!(run("2"), one, "threads 2 diverged");
    assert_eq!(run("4"), one, "threads 4 diverged");
    let text = String::from_utf8(one).unwrap();
    assert!(text.contains("\"mode\": \"store\""));
    assert!(text.contains("\"completed\": 400"));
    assert!(text.contains("\"unexpected_violations\": 0"));
    assert!(!text.contains("threads"), "no runtime knobs in the result");
    assert!(!text.contains("wall"), "no timing fields in the result");
}

#[test]
fn store_runs_heterogeneous_backends_and_skew() {
    let out = report(&[
        "store",
        "--shards",
        "3",
        "--threads",
        "2",
        "--keys",
        "60",
        "--ops",
        "300",
        "--protocol",
        "fast-crash,abd,fast-byz",
        "--skew",
        "zipf:1.3",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fast-crash, abd, fast-byz"));
    assert!(stdout.contains("zipf(1.3)"));
    assert!(stdout.contains("keys clean (0 unexpected violations)"));
    // One shard per backend, in round-robin order.
    assert!(stdout.contains("shard 0 [fast-crash]"));
    assert!(stdout.contains("shard 1 [abd]"));
    assert!(stdout.contains("shard 2 [fast-byz]"));
}

#[test]
fn store_rejects_unknown_protocols_and_flags() {
    let out = report(&["store", "--protocol", "fast-quantum"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("fast-quantum"));

    let out = report(&["store", "--warp", "9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--warp"));

    let out = report(&["store", "--skew", "pareto"]);
    assert_eq!(out.status.code(), Some(2));

    let out = report(&["store", "--shards", "0"]);
    assert_eq!(out.status.code(), Some(2));

    let out = report(&["store", "--shards"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn store_default_skew_and_zipf_shorthand_parse() {
    let out = report(&[
        "store", "--shards", "2", "--keys", "40", "--ops", "120", "--skew", "zipf", "--json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"skew\": \"zipf(1.2)\""), "{stdout}");
}

#[test]
fn store_rejects_out_of_range_put_fractions() {
    for bad in ["NaN", "1.5", "-0.1", "inf"] {
        let out = report(&["store", "--put-fraction", bad]);
        assert_eq!(out.status.code(), Some(2), "--put-fraction {bad}");
        assert!(String::from_utf8(out.stderr).unwrap().contains("[0, 1]"));
    }
    let out = report(&[
        "store",
        "--shards",
        "2",
        "--keys",
        "30",
        "--ops",
        "90",
        "--put-fraction",
        "0.5",
        "--json",
    ]);
    assert!(out.status.success());
}
