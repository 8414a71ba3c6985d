//! Regenerates every experiment table from EXPERIMENTS.md, and fronts
//! the schedule-exploration engine.
//!
//! Usage:
//!
//! ```text
//! report                      # run everything
//! report e3 e8                # run a subset
//! report --protocol fast-byz  # only experiments exercising that protocol
//! report --list               # list experiments and registered protocols
//! report --quick              # smaller seed counts (CI-friendly)
//!
//! report explore --cells 64 --threads 4 --budget 8 --seed 0 --out found/
//!                             # fan the exploration grid across a worker
//!                             # pool; shrink violations; write replayable
//!                             # counterexample files to found/. Exit 1 iff
//!                             # a *sound feasible* cell violated.
//! report explore --strategy coverage-guided --coverage-out coverage.json ...
//!                             # coverage-guided traversal (pool + mutation
//!                             # + frontier energy) instead of the uniform
//!                             # random grid; write the coverage report
//!                             # (features seen, saturation curve) as JSON
//! report explore --replay corpus/            # replay a file or directory;
//!                             # exit 1 unless every counterexample
//!                             # reproduces its verdict + fingerprint
//! report explore --json ...   # either mode, machine-readable
//!
//! report store --shards 8 --threads 4 --keys 1200 --ops 10000 --json
//!                             # closed-loop KV workload against a
//!                             # sharded multi-register store; checks
//!                             # every key's contract. The --json bytes
//!                             # are identical at any --threads. Exit 1
//!                             # iff a sound backend violated per key.
//! report store --protocol fast-crash,abd,fast-byz --skew zipf:1.2
//!                             # heterogeneous backends, hot-key skew
//! report store --metrics-out metrics.json ...
//!                             # also write the deterministic metrics
//!                             # snapshot (byte-identical at any
//!                             # --threads); explore accepts the same flag
//!
//! report trace --experiment register --protocol abd --seed 7 --ops 200 \
//!              --trace-out trace.json --metrics-out metrics.json
//!                             # one instrumented closed-loop run; the
//!                             # trace is Chrome trace_event JSON (open
//!                             # in Perfetto), the metrics snapshot is
//!                             # deterministic JSON. Same seed ⇒ same
//!                             # bytes. --experiment store drives the
//!                             # sharded KV store instead (--shards,
//!                             # --threads tune it; the bytes don't move)
//! ```
//!
//! Exploration is deterministic: the same `--cells`/`--budget`/`--seed`
//! produce identical verdicts and identical counterexample bytes at any
//! `--threads`. Every cell runs its schedule to completion, so its
//! fingerprint and coverage features are those of the full run.
//!
//! Protocol names are resolved through the runtime registry
//! (`fastreg::protocols::registry`); unknown experiment or protocol
//! names exit with code 2 and list the valid ones. No table and no
//! subcommand reads a clock, so the output is a function of the
//! arguments; throughput is measured by `fastbench`, under `benchmark/`.

use std::env;
use std::process::ExitCode;

use fastreg::protocols::registry::ProtocolId;
use fastreg_obs::json_escape;
use fastreg_workload::experiments::{Experiment, EXPERIMENTS};

/// How a subcommand ends: `Ok` with its exit code, or `Err` with the
/// code of an early exit already reported on stderr.
type Outcome = Result<ExitCode, ExitCode>;

/// One subcommand's arguments, read front to back: flag names and their
/// values. A missing or malformed value is the subcommand's usage error —
/// its usage line on stderr, exit code 2.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    usage: &'static str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], usage: &'static str) -> Self {
        Flags {
            args: args.iter(),
            usage,
        }
    }

    /// The next argument as it stands.
    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value of the flag just read, or the usage error.
    fn value(&mut self) -> Result<&'a str, ExitCode> {
        self.next().ok_or_else(|| self.usage())
    }

    /// The value of the flag just read, parsed, or the usage error.
    fn parse<T: std::str::FromStr>(&mut self) -> Result<T, ExitCode> {
        self.value()?.parse().map_err(|_| self.usage())
    }

    /// Reports the usage error.
    fn usage(&self) -> ExitCode {
        eprintln!("{}", self.usage);
        ExitCode::from(2)
    }
}

/// A registered protocol by name; an unknown name is reported with the
/// valid ones (exit code 2).
fn parse_protocol(name: &str) -> Result<ProtocolId, ExitCode> {
    ProtocolId::parse(name).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// Writes an output file; a failure is reported (exit code 2).
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("cannot write '{path}': {e}");
        ExitCode::from(2)
    })
}

fn print_list() {
    println!("experiments:");
    for e in &EXPERIMENTS {
        let names: Vec<&str> = e.protocols.iter().map(|p| p.name()).collect();
        println!("  {:<4} {}  [{}]", e.id, e.title, names.join(", "));
    }
    println!("\nregistered protocols:");
    for id in ProtocolId::ALL {
        println!(
            "  {:<16} {}  (feasible iff {})",
            id.name(),
            id.summary(),
            id.requirement()
        );
    }
}

/// Renders a [`CoverageReport`] as a single-line JSON object — the
/// `"coverage"` field of `report explore --json` and the whole document
/// `--coverage-out` writes. No wall-clock or thread-count fields: the
/// bytes are pinned by the determinism contract.
///
/// [`CoverageReport`]: fastreg_adversary::explore::CoverageReport
fn coverage_json(coverage: &fastreg_adversary::explore::CoverageReport) -> String {
    let curve: Vec<String> = coverage
        .saturation
        .iter()
        .map(|p| format!("{{ \"cells\": {}, \"features\": {} }}", p.cells, p.features))
        .collect();
    format!(
        "{{ \"strategy\": \"{}\", \"cells\": {}, \"features_seen\": {}, \
         \"novel_per_1k_cells\": {}, \"saturation\": [{}] }}",
        coverage.strategy,
        coverage.cells,
        coverage.features_seen,
        coverage.novel_per_1k(),
        curve.join(", ")
    )
}

/// `report explore` — the schedule-exploration front end.
fn explore_main(args: &[String]) -> Outcome {
    use fastreg_adversary::explore::{
        default_grid, explore, Counterexample, ExploreConfig, Strategy,
    };

    let mut cells: u32 = 64;
    let mut threads: usize = 4;
    let mut budget: u32 = 8;
    let mut seed: u64 = 0;
    let mut strategy = Strategy::RandomGrid;
    let mut out: Option<&str> = None;
    let mut coverage_out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut replay: Option<&str> = None;
    let mut json = false;

    let mut flags = Flags::new(
        args,
        "usage: report explore [--cells N] [--threads N] [--budget OPS] [--seed N] \
         [--strategy random-grid|coverage-guided] [--out DIR] [--coverage-out FILE] \
         [--metrics-out FILE] [--json] | report explore --replay <file-or-dir> [--json]",
    );
    while let Some(a) = flags.next() {
        match a {
            "--cells" => cells = flags.parse()?,
            "--threads" => threads = flags.parse()?,
            "--budget" => budget = flags.parse()?,
            "--seed" => seed = flags.parse()?,
            "--strategy" => {
                strategy = Strategy::parse(flags.value()?).ok_or_else(|| flags.usage())?
            }
            "--out" => out = Some(flags.value()?),
            "--coverage-out" => coverage_out = Some(flags.value()?),
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--replay" => replay = Some(flags.value()?),
            "--json" => json = true,
            _ => {
                eprintln!("unknown explore flag '{a}'");
                return Err(flags.usage());
            }
        }
    }

    // ---- Replay mode: reproduce a counterexample file or directory. ----
    if let Some(path) = replay {
        let meta = std::fs::metadata(path).map_err(|e| {
            eprintln!("cannot stat '{path}': {e}");
            ExitCode::from(2)
        })?;
        let mut files: Vec<String> = if meta.is_dir() {
            let entries = std::fs::read_dir(path).map_err(|e| {
                eprintln!("cannot read '{path}': {e}");
                ExitCode::from(2)
            })?;
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path().to_string_lossy().into_owned())
                .filter(|p| p.ends_with(".txt"))
                .collect()
        } else {
            vec![path.to_string()]
        };
        files.sort();
        if files.is_empty() {
            eprintln!("'{path}' contains no counterexample (.txt) files");
            return Err(ExitCode::from(2));
        }
        let mut reproduced = 0usize;
        let mut entries: Vec<String> = Vec::new();
        for file in &files {
            let outcome: Result<(String, bool), String> = std::fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    Counterexample::parse(&text)
                        .map_err(|e| e.to_string())
                        .map(|cx| {
                            let r = cx.replay();
                            (r.verdict.to_string(), r.reproduces(&cx))
                        })
                });
            match outcome {
                Ok((verdict, ok)) => {
                    if ok {
                        reproduced += 1;
                    }
                    if json {
                        entries.push(format!(
                            "    {{ \"file\": \"{}\", \"verdict\": \"{}\", \"reproduced\": {} }}",
                            json_escape(file),
                            json_escape(&verdict),
                            ok
                        ));
                    } else {
                        println!(
                            "{file}: {verdict} {}",
                            if ok { "reproduced" } else { "DIVERGED" }
                        );
                    }
                }
                Err(e) => {
                    if json {
                        entries.push(format!(
                            "    {{ \"file\": \"{}\", \"error\": \"{}\", \"reproduced\": false }}",
                            json_escape(file),
                            json_escape(&e)
                        ));
                    } else {
                        println!("{file}: ERROR {e}");
                    }
                }
            }
        }
        if json {
            println!("{{");
            println!("  \"mode\": \"replay\",");
            println!("  \"reproduced\": {reproduced},");
            println!("  \"total\": {},", files.len());
            println!("  \"entries\": [");
            println!("{}", entries.join(",\n"));
            println!("  ]");
            println!("}}");
        } else {
            println!("{reproduced}/{} counterexamples reproduced", files.len());
        }
        return Ok(if reproduced == files.len() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    // ---- Explore mode. -------------------------------------------------
    let config = ExploreConfig {
        cells,
        threads,
        ops: budget,
        base_seed: seed,
        strategy,
        grid: default_grid(),
    };
    let report = explore(&config);
    let expected = report.expected().count();
    let unexpected = report.unexpected().count();

    // Persist every finding as a replayable counterexample file.
    let mut written: Vec<(usize, String)> = Vec::new();
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out dir '{dir}': {e}");
            return Err(ExitCode::from(2));
        }
        for (i, f) in report.findings.iter().enumerate() {
            let path = format!("{dir}/{}", f.counterexample.file_name());
            write_file(&path, f.counterexample.render())?;
            written.push((i, path));
        }
    }

    // Persist the coverage report as a standalone JSON document. Like
    // the `--json` stream, the bytes carry no wall-clock or thread
    // fields — identical at any `--threads`.
    if let Some(path) = coverage_out {
        write_file(path, coverage_json(&report.coverage))?;
    }

    // The exploration metrics snapshot: per-verdict cell counters plus
    // the coverage-novelty numbers, rendered through the shared
    // observability registry. Deterministic at any `--threads`.
    if let Some(path) = metrics_out {
        let mut reg = fastreg_obs::MetricsRegistry::new();
        reg.counter_add("explore.cells", u64::from(cells));
        reg.counter_add("explore.clean", report.clean_count() as u64);
        reg.counter_add("explore.expected_violations", expected as u64);
        reg.counter_add("explore.unexpected_violations", unexpected as u64);
        for f in &report.findings {
            reg.counter_add(
                &format!("explore.verdict.{}", f.counterexample.verdict.code()),
                1,
            );
        }
        reg.counter_add(
            "explore.coverage.features_seen",
            report.coverage.features_seen as u64,
        );
        reg.gauge_max(
            "explore.coverage.novel_per_1k",
            report.coverage.novel_per_1k(),
        );
        write_file(path, reg.to_json())?;
    }

    if json {
        let findings: Vec<String> = report
            .findings
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let cx = &f.counterexample;
                let file = written
                    .iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, p)| format!(", \"file\": \"{}\"", json_escape(p)))
                    .unwrap_or_default();
                format!(
                    "    {{ \"cell\": {}, \"protocol\": \"{}\", \
                     \"config\": \"s={} t={} b={} r={} w={}\", \"verdict\": \"{}\", \
                     \"expected\": {}, \"fault_events\": {}{} }}",
                    f.cell_index,
                    json_escape(cx.protocol.name()),
                    cx.cfg.s,
                    cx.cfg.t,
                    cx.cfg.b,
                    cx.cfg.r,
                    cx.cfg.w,
                    json_escape(cx.verdict.code()),
                    f.expectation == fastreg_adversary::explore::CellExpectation::MayViolate,
                    cx.faults.len(),
                    file
                )
            })
            .collect();
        println!("{{");
        println!("  \"mode\": \"explore\",");
        println!("  \"cells\": {cells},");
        println!("  \"threads\": {threads},");
        println!("  \"budget\": {budget},");
        println!("  \"seed\": {seed},");
        println!("  \"strategy\": \"{}\",", report.coverage.strategy);
        println!("  \"coverage\": {},", coverage_json(&report.coverage));
        println!("  \"clean\": {},", report.clean_count());
        println!("  \"expected_violations\": {expected},");
        println!("  \"unexpected_violations\": {unexpected},");
        println!("  \"findings\": [");
        println!("{}", findings.join(",\n"));
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "explored {cells} cells over {} grid points (threads {threads}, budget {budget}, \
             seed {seed}, strategy {strategy})",
            config.grid.len()
        );
        print!("{}", report.coverage.render());
        println!("  clean:                 {}", report.clean_count());
        println!("  expected violations:   {expected} (hunting cells: past the bound / unsound)");
        println!("  unexpected violations: {unexpected}");
        for f in &report.findings {
            println!(
                "  - cell {}: {} on {} s={} t={} b={} r={} w={} ({} fault events after shrinking)",
                f.cell_index,
                f.counterexample.verdict,
                f.counterexample.protocol.name(),
                f.counterexample.cfg.s,
                f.counterexample.cfg.t,
                f.counterexample.cfg.b,
                f.counterexample.cfg.r,
                f.counterexample.cfg.w,
                f.counterexample.faults.len()
            );
        }
        for (_, path) in &written {
            println!("  wrote {path}");
        }
    }
    if unexpected > 0 {
        eprintln!(
            "{unexpected} sound feasible cell(s) violated their contract — protocol bug; \
             counterexamples{} replay with `report explore --replay <file>`",
            if out.is_some() { " written;" } else { ":" }
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `report store` — the sharded key–value store front end.
///
/// Runs one closed-loop KV workload against a [`ShardedStore`] and
/// prints completion, routing and per-key verdict statistics. The
/// `--json` document carries **no wall-clock fields**, so its bytes are
/// identical at any `--threads` — the determinism contract CI pins.
///
/// Exit codes: 0 clean, 1 if any *sound* backend violated its per-key
/// contract (or the store stalled), 2 on usage errors.
///
/// [`ShardedStore`]: fastreg_store::store::ShardedStore
fn store_main(args: &[String]) -> Outcome {
    use fastreg_store::store::StoreBuilder;
    use fastreg_workload::kv::{run_kv_workload, KeyDist, KvWorkloadSpec};

    let mut shards: u32 = 8;
    let mut threads: usize = 4;
    let mut keys: u64 = 1_200;
    let mut ops: u64 = 10_000;
    let mut clients: u32 = 64;
    let mut seed: u64 = 0;
    let mut put_fraction: f64 = 0.2;
    let mut backends: Vec<ProtocolId> = vec![ProtocolId::FastCrash];
    let mut dist = KeyDist::Uniform;
    let mut metrics_out: Option<&str> = None;
    let mut json = false;

    let mut flags = Flags::new(
        args,
        "usage: report store [--shards N] [--threads N] [--keys N] [--ops N] \
         [--clients N] [--seed N] [--put-fraction F] \
         [--protocol name[,name…]] [--skew uniform|zipf[:EXP]] \
         [--metrics-out FILE] [--json]",
    );
    while let Some(a) = flags.next() {
        match a {
            "--shards" => shards = flags.parse()?,
            "--threads" => threads = flags.parse()?,
            "--keys" => keys = flags.parse()?,
            "--ops" => ops = flags.parse()?,
            "--clients" => clients = flags.parse()?,
            "--seed" => seed = flags.parse()?,
            "--put-fraction" => {
                // Strict like --skew: a typo must be a usage error, not
                // a silently clamped (or NaN-poisoned) workload mix.
                match flags.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(f) if f.is_finite() && (0.0..=1.0).contains(&f) => put_fraction = f,
                    _ => {
                        eprintln!("--put-fraction needs a value in [0, 1]");
                        return Err(ExitCode::from(2));
                    }
                }
            }
            "--protocol" => {
                backends = flags
                    .value()?
                    .split(',')
                    .map(parse_protocol)
                    .collect::<Result<_, _>>()?;
            }
            "--skew" => {
                let v = flags.value()?;
                dist = if v == "uniform" {
                    KeyDist::Uniform
                } else if let Some(rest) = v.strip_prefix("zipf") {
                    let exponent = match rest.strip_prefix(':') {
                        None if rest.is_empty() => 1.2,
                        Some(e) => match e.parse::<f64>() {
                            Ok(x) if x.is_finite() && x >= 0.0 => x,
                            _ => {
                                eprintln!("invalid zipf exponent '{e}'");
                                return Err(ExitCode::from(2));
                            }
                        },
                        None => {
                            eprintln!("unknown skew '{v}' (valid: uniform, zipf, zipf:EXP)");
                            return Err(ExitCode::from(2));
                        }
                    };
                    KeyDist::Zipf { exponent }
                } else {
                    eprintln!("unknown skew '{v}' (valid: uniform, zipf, zipf:EXP)");
                    return Err(ExitCode::from(2));
                };
            }
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--json" => json = true,
            _ => {
                eprintln!("unknown store flag '{a}'");
                return Err(flags.usage());
            }
        }
    }
    if shards == 0 || keys == 0 || clients == 0 {
        eprintln!("--shards, --keys and --clients must be positive");
        return Err(ExitCode::from(2));
    }

    let cfg = fastreg::config::ClusterConfig::crash_stop(5, 1, 2).expect("statically valid");
    let store = StoreBuilder::new(cfg)
        .shards(shards)
        .seed(seed)
        .backends(backends.clone())
        .build()
        .map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        })?;
    let spec = KvWorkloadSpec {
        n_ops: ops,
        n_keys: keys,
        n_clients: clients,
        put_fraction,
        dist,
        seed,
    };
    let (store, report) = run_kv_workload(store, &spec, threads).map_err(|e| {
        eprintln!("store run failed: {e}");
        ExitCode::from(1)
    })?;
    let unexpected = report.check.unexpected().count();

    // The store metrics snapshot through the shared observability
    // registry: per-shard counters plus the frontend's batching
    // numbers. No wall-clock fields — byte-identical at any --threads.
    if let Some(path) = metrics_out {
        let mut reg = fastreg_obs::MetricsRegistry::new();
        fastreg_workload::obsrun::record_store_metrics(&store, &mut reg);
        reg.counter_add("store.frontend.ops", report.stats.ops);
        reg.counter_add("store.frontend.flushes", report.stats.flushes);
        reg.counter_add("store.frontend.shard_batches", report.stats.shard_batches);
        reg.counter_add("store.frontend.waves", report.stats.waves);
        reg.gauge_max("store.frontend.max_flush_ops", report.stats.max_flush_ops);
        reg.counter_add("store.puts", report.puts);
        reg.counter_add("store.gets", report.gets);
        write_file(path, reg.to_json())?;
    }

    let backend_names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    let lat = |s: &Option<fastreg_workload::LatencyStats>| match s {
        Some(s) => format!("p50 {} / p95 {} / max {}", s.p50, s.p95, s.max),
        None => "-".into(),
    };
    if json {
        // Deliberately no wall-clock fields: these bytes are a
        // determinism contract across --threads values.
        let shards_json: Vec<String> = store
            .shards()
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"shard\": {}, \"protocol\": \"{}\", \"keys\": {}, \"ops\": {}, \
                     \"messages\": {} }}",
                    s.index(),
                    json_escape(s.protocol().name()),
                    s.key_count(),
                    s.ops_applied(),
                    s.messages_sent()
                )
            })
            .collect();
        // No "threads" field either: the worker-pool size is a runtime
        // knob that must not leave a trace in the result.
        println!("{{");
        println!("  \"mode\": \"store\",");
        println!("  \"shards\": {shards},");
        println!("  \"keys\": {keys},");
        println!("  \"ops\": {ops},");
        println!("  \"clients\": {clients},");
        println!("  \"seed\": {seed},");
        println!(
            "  \"backends\": [{}],",
            backend_names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!("  \"skew\": \"{}\",", json_escape(&dist.to_string()));
        println!("  \"completed\": {},", report.breakdown.completed);
        println!("  \"incomplete\": {},", report.breakdown.incomplete);
        println!("  \"puts\": {},", report.puts);
        println!("  \"gets\": {},", report.gets);
        println!("  \"distinct_keys\": {},", report.distinct_keys);
        println!("  \"messages\": {},", report.messages_sent);
        println!("  \"flushes\": {},", report.stats.flushes);
        println!("  \"waves\": {},", report.stats.waves);
        println!("  \"fingerprint\": \"{:016x}\",", report.fingerprint);
        println!("  \"keys_clean\": {},", report.check.clean_count());
        println!(
            "  \"keys_violating\": {},",
            report.check.violations().count()
        );
        println!("  \"unexpected_violations\": {unexpected},");
        println!("  \"per_shard\": [");
        println!("{}", shards_json.join(",\n"));
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "store: {shards} shards × [{}] over {keys}-key space, {clients} clients, \
             skew {dist} (threads {threads}, seed {seed})",
            backend_names.join(", ")
        );
        println!(
            "  ops:        {} completed, {} incomplete ({} puts / {} gets)",
            report.breakdown.completed, report.breakdown.incomplete, report.puts, report.gets
        );
        println!(
            "  routing:    {} distinct keys, {} flushes, {} settle waves, {:.1} msgs/op",
            report.distinct_keys,
            report.stats.flushes,
            report.stats.waves,
            report.messages_per_op()
        );
        println!("  get ticks:  {}", lat(&report.breakdown.reads));
        println!("  put ticks:  {}", lat(&report.breakdown.writes));
        println!(
            "  verdicts:   {}/{} keys clean ({} unexpected violations)",
            report.check.clean_count(),
            report.check.per_key.len(),
            unexpected
        );
        println!("  fingerprint {:016x}", report.fingerprint);
        for s in store.shards() {
            println!(
                "  - shard {} [{}]: {} keys, {} ops, {} messages",
                s.index(),
                s.protocol().name(),
                s.key_count(),
                s.ops_applied(),
                s.messages_sent()
            );
        }
    }
    if unexpected > 0 {
        eprintln!(
            "{unexpected} key(s) on sound backends violated their contract — protocol or store bug"
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `report trace` — one instrumented run, exported as observability
/// artifacts: a Chrome `trace_event` JSON document (Perfetto-loadable)
/// and a deterministic metrics snapshot.
///
/// `--experiment register` drives a closed-loop register workload at
/// the protocol's canonical sample configuration; `--experiment store`
/// drives the sharded KV store. Both are simnet runs, so the bytes are
/// a pure function of the flags: same seed ⇒ same artifacts, and for
/// the store the `--threads` worker-pool size never leaks into them —
/// the contract CI pins with `cmp`.
fn trace_main(args: &[String]) -> Outcome {
    use fastreg_workload::kv::{KeyDist, KvWorkloadSpec};
    use fastreg_workload::{trace_register_run, trace_store_run, WorkloadSpec};

    let mut experiment = "register";
    let mut protocol = ProtocolId::FastCrash;
    let mut seed: u64 = 0;
    let mut ops: u64 = 200;
    let mut threads: usize = 4;
    let mut shards: u32 = 4;
    let mut trace_out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;

    let mut flags = Flags::new(
        args,
        "usage: report trace [--experiment register|store] [--protocol <name>] \
         [--seed N] [--ops N] [--shards N] [--threads N] \
         [--trace-out FILE] [--metrics-out FILE]",
    );
    while let Some(a) = flags.next() {
        match a {
            "--experiment" => experiment = flags.value()?,
            "--protocol" => protocol = parse_protocol(flags.value()?)?,
            "--seed" => seed = flags.parse()?,
            "--ops" => ops = flags.parse()?,
            "--threads" => threads = flags.parse()?,
            "--shards" => shards = flags.parse()?,
            "--trace-out" => trace_out = Some(flags.value()?),
            "--metrics-out" => metrics_out = Some(flags.value()?),
            _ => {
                eprintln!("unknown trace flag '{a}'");
                return Err(flags.usage());
            }
        }
    }

    let run = match experiment {
        "register" => {
            let spec = WorkloadSpec {
                n_ops: ops,
                write_fraction: 0.3,
                think_time: 1,
                seed,
            };
            trace_register_run(protocol, protocol.sample_config(), seed, &spec)
                .map_err(|e| e.to_string())
        }
        "store" => {
            let spec = KvWorkloadSpec {
                n_ops: ops,
                n_keys: 64,
                n_clients: 16,
                put_fraction: 0.3,
                dist: KeyDist::Uniform,
                seed,
            };
            trace_store_run(
                protocol,
                protocol.sample_config(),
                shards,
                seed,
                &spec,
                threads,
            )
            .map_err(|e| e.to_string())
        }
        other => {
            eprintln!("unknown --experiment '{other}' (valid: register, store)");
            return Err(ExitCode::from(2));
        }
    };
    let artifacts = run.map_err(|e| {
        eprintln!("trace run failed: {e}");
        ExitCode::from(1)
    })?;

    let trace = artifacts.chrome_trace();
    let metrics = artifacts.metrics_json();
    println!(
        "trace: {} events ({} bytes of chrome trace_event JSON), metrics: {} bytes \
         ({experiment}, {}, seed {seed}, {ops} ops)",
        artifacts.events.len(),
        trace.len(),
        metrics.len(),
        protocol.name()
    );
    if let Some(path) = trace_out {
        write_file(path, &trace)?;
        println!("wrote {path} (open in Perfetto: https://ui.perfetto.dev)");
    }
    if let Some(path) = metrics_out {
        write_file(path, &metrics)?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `report [e1 …] [--protocol <name>] [--quick] [--list]` —
/// the experiment suite, read from [`EXPERIMENTS`].
fn suite_main(args: &[String]) -> Outcome {
    // One parse loop; unknown flags and names are errors, not silent
    // no-ops. Protocol names resolve through the registry.
    let mut quick = false;
    let mut list = false;
    let mut protocol: Option<ProtocolId> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut flags = Flags::new(
        args,
        "--protocol needs a value; see --list for registered names",
    );
    while let Some(a) = flags.next() {
        let Some(rest) = a.strip_prefix("--") else {
            selected.push(a.to_lowercase());
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (rest, None),
        };
        match name {
            "quick" if inline.is_none() => quick = true,
            "list" if inline.is_none() => list = true,
            "protocol" => {
                let v = match inline {
                    Some(v) => v,
                    None => flags.value()?,
                };
                protocol = Some(parse_protocol(v)?);
            }
            _ => {
                eprintln!("unknown flag '{a}' (valid: --list, --protocol <name>, --quick)");
                return Err(ExitCode::from(2));
            }
        }
    }

    // Unknown experiment ids are an error in every mode, --list included.
    for name in &selected {
        if !EXPERIMENTS.iter().any(|e| e.id == name) {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("unknown experiment '{name}' (valid: {})", ids.join(", "));
            return Err(ExitCode::from(2));
        }
    }

    if list {
        print_list();
        return Ok(ExitCode::SUCCESS);
    }

    let want = |e: &Experiment| {
        (selected.is_empty() || selected.iter().any(|s| s == e.id))
            && protocol.is_none_or(|p| e.protocols.contains(&p))
    };

    // Individually valid filters whose intersection is empty (e.g.
    // `--protocol fast-byz e3`) would silently report nothing: refuse.
    if !EXPERIMENTS.iter().any(&want) {
        let p = protocol.expect("empty selection requires a protocol filter");
        let matching: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.protocols.contains(&p))
            .map(|e| e.id)
            .collect();
        eprintln!(
            "no selected experiment exercises protocol '{}' (its experiments: {})",
            p.name(),
            matching.join(", ")
        );
        return Err(ExitCode::from(2));
    }

    for e in EXPERIMENTS.iter().filter(|e| want(e)) {
        println!("{}", "=".repeat(72));
        println!("{}", e.title);
        println!("{}", "=".repeat(72));
        println!("{}", (e.run)(quick).render());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // The explore, store and trace subcommands own their own flag
    // spaces.
    let outcome = match args.first().map(String::as_str) {
        Some("explore") => explore_main(&args[1..]),
        Some("store") => store_main(&args[1..]),
        Some("trace") => trace_main(&args[1..]),
        _ => suite_main(&args),
    };
    outcome.unwrap_or_else(|early| early)
}
