//! `fastbench` — the fastreg performance benchmark.
//!
//! One workload per process, driven from one thread through public APIs
//! only. See `benchmark/README.md` for the workloads, every metric's
//! definition and the layer -> end-to-end interaction table.
//!
//! ```text
//! fastbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! fastbench --all             [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! fastbench --check A.json B.json
//! fastbench --list
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use run::{Rep, RepMode};
use spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use trace::{now, ns_between};

/// Where results and traces go unless `--out` says otherwise.
const OUT_DIR: &str = "target/fastbench";
/// Fewest repetitions a median is taken over.
const MIN_REPS: usize = 3;
/// `--quick` divides every `n_ops` and iteration count by this.
pub const QUICK_DIVISOR: u64 = 20;

#[derive(Clone, Debug)]
struct Opts {
    seed: u64,
    /// Measuring budget: repetitions start until it is spent.
    seconds: f64,
    trace: bool,
    /// One short repetition: smoke runs and tests only.
    quick: bool,
    out: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 11,
            seconds: 10.0,
            trace: false,
            quick: false,
            out: None,
        }
    }
}

/// What one workload's process measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The metrics of the contract line, in table order.
    metrics: Vec<(&'static Metric, f64)>,
    /// Everything, flat, for `--out`.
    flat: Vec<(String, f64)>,
    /// The human-readable report.
    text: String,
    /// Chrome trace of the traced repetition.
    chrome: Option<String>,
}

fn n_ops_for(w: &Workload, quick: bool) -> u64 {
    if quick {
        (w.n_ops / QUICK_DIVISOR).max(1)
    } else {
        w.n_ops
    }
}

/// Runs plain repetitions until `budget_s` is spent (at least
/// `MIN_REPS`; exactly one when quick). With `keep_history` only the
/// latest repetition holds on to its histories.
fn repetitions(
    w: &Workload,
    opts: &Opts,
    n_ops: u64,
    budget_s: f64,
    keep_history: bool,
) -> Result<Vec<Rep>, String> {
    let start = now();
    let mode = RepMode {
        traced: false,
        keep_history,
    };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        if let Some(prev) = reps.last_mut() {
            prev.layers.histories.clear();
        }
        reps.push(run::run_rep(w, opts.seed, n_ops, mode)?);
        let spent = ns_between(start, now()) as f64 / 1e9;
        if opts.quick || (reps.len() >= MIN_REPS && spent >= budget_s) {
            return Ok(reps);
        }
    }
}

fn end_to_end_value(name: &str, r: &Rep, first: &Rep) -> f64 {
    match name {
        "ops_per_s" => r.ops_per_s(),
        "read_mean_ticks" => r.read_mean,
        "write_mean_ticks" => r.write_mean,
        "setup_s" => r.setup_s,
        // Later repetitions only add allocator fragmentation, and how many
        // of them fit in the budget depends on the host's speed.
        "peak_rss_mb" => first.rss_mb,
        "msgs_per_op" => r.msgs_per_op(),
        other => unreachable!("no definition for end-to-end metric {other}"),
    }
}

/// Measures one workload. `expected` is the exact simnet read latency
/// the outputs are checked against (`run::expected_read_ticks`).
fn measure(
    w: &Workload,
    opts: &Opts,
    n_ops: u64,
    expected: Option<f64>,
) -> Result<Outcome, String> {
    // A traced process spends half its budget on the plain repetitions
    // the traced one is compared against.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let reps = repetitions(w, opts, n_ops, budget, opts.trace)?;

    let mut out = Outcome {
        attempted: reps.iter().map(|r| r.n_ops).sum(),
        failed: 0,
        metrics: Vec::new(),
        flat: Vec::new(),
        text: format!(
            "fastbench {}  seed {}  n_ops {}  repetitions {}{}\n  {}\n  closed loop, one \
             operation outstanding per client; every repetition on a freshly built deployment\n  \
             {}\n",
            w.name,
            opts.seed,
            n_ops,
            reps.len(),
            if opts.quick {
                "  QUICK (not comparable)"
            } else {
                ""
            },
            w.what,
            match w.kind {
                Kind::Threads { .. } =>
                    "delivery on threads is instant: latency is processor time only, in microseconds",
                _ => "simnet delays every message by 1 tick: latency is in message delays",
            }
        ),
        chrome: None,
    };
    let misses = run::verify(&reps, expected);
    for (i, miss) in &misses {
        out.text
            .push_str(&format!("  CHECK FAILED repetition {i}: {miss}\n"));
    }
    // A missed check fails every operation of its repetition.
    out.failed = reps
        .iter()
        .enumerate()
        .filter(|(i, _)| misses.iter().any(|(j, _)| j == i))
        .map(|(_, r)| r.n_ops)
        .sum();
    if opts.trace {
        report_per_layer(w, opts, &reps, expected, &mut out)?;
    } else {
        report_end_to_end(&reps, &mut out);
    }
    let failed_frac = out.failed as f64 / out.attempted as f64;
    out.text.push_str(&format!(
        "  attempted_ops {}  failed_ops {}  failed_frac {failed_frac}\n",
        out.attempted, out.failed
    ));
    out.flat.extend([
        ("quick".to_string(), f64::from(u8::from(opts.quick))),
        ("seed".to_string(), opts.seed as f64),
        ("n_ops".to_string(), n_ops as f64),
        ("reps".to_string(), reps.len() as f64),
        ("attempted_ops".to_string(), out.attempted as f64),
        ("failed_ops".to_string(), out.failed as f64),
        ("failed_frac".to_string(), failed_frac),
    ]);
    Ok(out)
}

/// The gated ledger from the plain repetitions: per metric the bad-side
/// quartile, with median, quartiles, range and every repetition beside it.
fn report_end_to_end(reps: &[Rep], out: &mut Outcome) {
    for m in &END_TO_END {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| end_to_end_value(m.name, r, &reps[0]))
            .collect();
        let (q1, med, q3) = stats::quartiles(&per_rep);
        let min = per_rep.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // What three repetitions in four are at least as good as: on a
        // host that runs at two speeds this repeats; the median does not.
        let value = match m.better {
            spec::Better::Higher => q1,
            spec::Better::Lower => q3,
        };
        let shown: Vec<String> = per_rep.iter().map(|v| format!("{v:.6}")).collect();
        out.text.push_str(&format!(
            "  {:<18} {:>14.4} {:<6} ({} is better, bound {:.0} %)  median {:.4}  \
             q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}\n    by repetition: {}\n",
            m.name,
            value,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0) * 100.0,
            med,
            q1,
            q3,
            min,
            max,
            shown.join(" ")
        ));
        out.flat.push((m.name.to_string(), value));
        let around = [
            ("median", med),
            ("q1", q1),
            ("q3", q3),
            ("min", min),
            ("max", max),
        ];
        for (suffix, v) in around {
            out.flat.push((format!("{}.{suffix}", m.name), v));
        }
        out.metrics.push((m, value));
    }
    out.text
        .push_str(&format!("  VmHWM at exit: {:.4} MB\n", run::peak_rss_mb()));
}

/// The per-layer ledger: one more repetition, traced and checked like
/// the others, then the direct measurements.
fn report_per_layer(
    w: &Workload,
    opts: &Opts,
    reps: &[Rep],
    expected: Option<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mode = RepMode {
        traced: true,
        keep_history: false,
    };
    let mut traced = run::run_rep(w, opts.seed, reps[0].n_ops, mode)?;
    let misses = run::verify_one(&traced, &reps[0].exact, expected);
    for miss in &misses {
        out.text
            .push_str(&format!("  CHECK FAILED traced repetition: {miss}\n"));
    }
    out.attempted += traced.n_ops;
    if !misses.is_empty() {
        out.failed += traced.n_ops;
    }
    let values = layers::per_layer(w, opts.seed, reps, &traced, opts.quick)?;
    let tracer = traced.layers.tracer.take().ok_or("no traced spans")?;
    out.text.push_str(&format!(
        "  traced repetition: workload.run {} ns = {} ns inside calls + {} ns between them; \
         per span name:\n{}",
        traced.layers.traced_run_ns,
        tracer.children_ns(),
        tracer.self_ns(),
        tracer.render()
    ));
    out.chrome = Some(tracer.chrome_json());
    for (m, (name, value)) in PER_LAYER.iter().zip(values) {
        assert_eq!(m.name, name, "per_layer() follows PER_LAYER order");
        out.text.push_str(&format!(
            "  {:<36} {:>16.4} {:<8} moves: {}\n",
            m.name, value, m.unit, m.moves
        ));
        out.flat.push((m.name.to_string(), value));
        out.metrics.push((m, value));
    }
    Ok(())
}

/// The contract line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))
}

fn run_workload(w: &Workload, opts: &Opts) -> Result<bool, String> {
    let expected = run::expected_read_ticks(w);
    let outcome = measure(w, opts, n_ops_for(w, opts.quick), expected)?;
    print!("{}", outcome.text);
    if let Some(chrome) = &outcome.chrome {
        let path = format!("{OUT_DIR}/{}.trace.json", w.name);
        write_file(&path, chrome)?;
        println!(
            "  sampled spans (1 call in {}): {path}",
            trace::SAMPLE_EVERY
        );
    }
    if let Some(out) = &opts.out {
        write_file(out, &json::write_flat(&outcome.flat))?;
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}

/// Runs every workload in a process of its own (a process that already
/// ran other workloads measures the next one slower) and merges the
/// children's flat files into one, keyed `workload/metric`.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = vec![
        ("quick".to_string(), f64::from(u8::from(opts.quick))),
        ("seed".to_string(), opts.seed as f64),
    ];
    let mut all_ok = true;
    for w in &WORKLOADS {
        let part = format!("{OUT_DIR}/parts/{}.json", w.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--out", &part])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
        for (k, v) in json::read_flat(&text)? {
            merged.push((format!("{}/{k}", w.name), v));
        }
    }
    let default_out = format!("{OUT_DIR}/result.json");
    let out = opts.out.as_deref().unwrap_or(&default_out);
    write_file(out, &json::write_flat(&merged))?;
    println!("wrote {out}");
    Ok(all_ok)
}

fn run_check(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::read_flat(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = check::compare(&read(a)?, &read(b)?)?;
    print!("{}", check::render(&rows));
    Ok(rows.iter().all(|r| r.status != check::Status::Worse))
}

fn list() -> String {
    let mut out = String::from("workloads (closed loop; S=5 t=1 R=2, 1 writer + 2 readers):\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "  {:<15} {} ops/repetition: {}\n{:18}why: {}\n",
            w.name, w.n_ops, w.what, "", w.why
        ));
    }
    out.push_str("end-to-end metrics (gated; bad-side quartile over untraced repetitions):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<18} [{}] {} is better, bound {:.0} %: {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.def
        ));
    }
    out.push_str("per-layer metrics (--trace 1; 0 = the workload does not run that layer):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<36} [{}] {} is better: {}\n{:39}moves: {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.def,
            "",
            m.moves
        ));
    }
    out
}

enum Cli {
    Workload(&'static Workload, Opts),
    All(Opts),
    Check(String, String),
    List,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = Opts::default();
    let mut workload = None;
    let mut all = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--list" => return Ok(Cli::List),
            "--check" => return Ok(Cli::Check(value("two files")?, value("two files")?)),
            "--all" => all = true,
            "--quick" => opts.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}'; one of: {}", names.join(", "))
                })?);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            // `--trace 0|1` as the driver passes it; a bare `--trace` is 1.
            "--trace" => {
                let given = it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                opts.trace = given.is_none_or(|v| v == "1");
            }
            "--out" => opts.out = Some(value("a file")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (workload, all) {
        (Some(w), false) => Ok(Cli::Workload(w, opts)),
        (None, true) => Ok(Cli::All(opts)),
        _ => Err("give exactly one of --workload <name>, --all, --check A B, --list".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match parse(&args) {
        Err(e) => {
            eprintln!(
                "fastbench: {e}\nusage: fastbench --workload <name> | --all | --check A.json B.json \
                 | --list\n       [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]"
            );
            return ExitCode::from(2);
        }
        Ok(Cli::List) => {
            print!("{}", list());
            Ok(true)
        }
        Ok(Cli::Check(a, b)) => run_check(&a, &b),
        Ok(Cli::All(opts)) => run_all(&opts),
        Ok(Cli::Workload(w, opts)) => run_workload(w, &opts),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fastbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::{flatten, Leaf};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn quick(trace: bool) -> Opts {
        Opts {
            trace,
            quick: true,
            ..Opts::default()
        }
    }

    /// `section/<i>/<field>` string leaves of BENCHMARK.json, by index.
    fn declared(section: &str, field: &str) -> Vec<String> {
        flatten(BENCHMARK_JSON)
            .unwrap()
            .into_iter()
            .filter_map(|(path, leaf)| {
                let rest = path.strip_prefix(&format!("{section}/"))?;
                match (rest.split_once('/'), leaf) {
                    (Some((_, f)), Leaf::Str(s)) if f == field => Some(s),
                    (Some((_, f)), Leaf::Num(n)) if f == field => Some(n.to_string()),
                    _ => None,
                }
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_exactly_the_spec_tables() {
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|m| m.name).collect();
            let units: Vec<&str> = table.iter().map(|m| m.unit).collect();
            let better: Vec<&str> = table.iter().map(|m| m.better.word()).collect();
            assert_eq!(declared(section, "name"), names, "{section} names");
            assert_eq!(declared(section, "unit"), units, "{section} units");
            assert_eq!(declared(section, "better"), better, "{section} directions");
            assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        }
        let bounds: Vec<String> = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap().to_string())
            .collect();
        assert_eq!(declared("end_to_end", "bound"), bounds);
        assert!(declared("per_layer", "bound").is_empty());
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));

        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared("workloads", "name"), workloads);
        assert!(workloads.iter().all(|n| well_formed(n)));
        let whys = declared("workloads", "why");
        assert_eq!(whys.len(), WORKLOADS.len());
        assert!(whys
            .iter()
            .all(|w| !w.is_empty() && w.len() <= 200 && !w.contains('\n')));
        let run_seconds = flatten(BENCHMARK_JSON)
            .unwrap()
            .into_iter()
            .find(|(k, _)| k == "run_seconds")
            .map(|(_, v)| v);
        assert_eq!(run_seconds, Some(Leaf::Num(Opts::default().seconds)));
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_names() {
        let mut merged = vec![("quick".to_string(), 1.0)];
        for w in &WORKLOADS {
            let expected = run::expected_read_ticks(w);
            let plain = measure(w, &quick(false), 300, expected).unwrap();
            let names: Vec<&str> = plain.metrics.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, declared("end_to_end", "name"), "{}", w.name);
            assert_eq!((plain.attempted, plain.failed), (300, 0), "{}", w.name);
            assert!(plain.chrome.is_none());
            // The contract line carries exactly the four keys.
            let line = flatten(&result_line(&plain)).unwrap();
            let top: Vec<&str> = line
                .iter()
                .map(|(k, _)| k.split('/').next().unwrap())
                .collect();
            assert_eq!(top[..3], ["correct", "attempted", "failed"]);
            assert!(top[3..].iter().all(|k| *k == "metrics"));
            assert_eq!(line[0].1, Leaf::Bool(true));
            assert_eq!(line.len(), 3 + 2 * END_TO_END.len());
            for (k, v) in json::read_flat(&json::write_flat(&plain.flat)).unwrap() {
                merged.push((format!("{}/{k}", w.name), v));
            }

            let traced = measure(w, &quick(true), 300, expected).unwrap();
            let names: Vec<&str> = traced.metrics.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, declared("per_layer", "name"), "{}", w.name);
            assert_eq!((traced.attempted, traced.failed), (600, 0), "{}", w.name);
            assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()));
            let chrome = traced.chrome.unwrap();
            assert!(chrome.contains("\"workload.run\"") && chrome.contains("\"rep\""));
            // Layers a workload does not run report 0.
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .unwrap()
                    .1
            };
            let on_sim = matches!(w.kind, Kind::Sim(_));
            let on_rt = matches!(w.kind, Kind::Threads { .. });
            assert_eq!(value("simnet.steps_per_op") > 0.0, on_sim, "{}", w.name);
            assert_eq!(value("rt.wakeups_per_op") > 0.0, on_rt, "{}", w.name);
            assert_eq!(value("store.keys_built") > 0.0, w.kind == Kind::Store);
            assert_eq!(value("auth.sign_verify_ns") > 0.0, w.kind == Kind::Store);
            assert!(
                value("atomicity.stream_check_ns_per_op") > 0.0,
                "{}",
                w.name
            );
            assert!(value("bench.timer_ns") > 0.0);
        }
        // The flat files, merged as --all merges them, pass --check.
        let rows = check::compare(&merged, &merged).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(|r| r.status == check::Status::Ok));
    }

    #[test]
    fn a_wrong_expected_tick_count_fails_the_run() {
        let w = spec::workload("sim_fast_read").unwrap();
        let outcome = measure(w, &quick(false), 300, Some(3.0)).unwrap();
        assert_eq!(outcome.failed, outcome.attempted);
        assert!(outcome.text.contains("CHECK FAILED repetition 0"));
        assert!(result_line(&outcome)
            .starts_with("{\"correct\": false, \"attempted\": 300, \"failed\": 300,"));
    }

    #[test]
    fn the_command_line_parses() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let driver = "--workload rt2_fast_read --seed 7 --seconds 3 --trace 1";
        let Ok(Cli::Workload(w, opts)) = parse(&args(driver)) else {
            panic!("the driver's command line must parse");
        };
        assert_eq!(w.name, "rt2_fast_read");
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.quick),
            (7, 3.0, true, false)
        );
        let all = parse(&args("--all --quick --trace 0"));
        assert!(matches!(all, Ok(Cli::All(o)) if o.quick && !o.trace));
        let check = parse(&args("--check a.json b.json"));
        assert!(matches!(check, Ok(Cli::Check(a, b)) if a == "a.json" && b == "b.json"));
        assert!(matches!(parse(&args("--list")), Ok(Cli::List)));
        let bare = parse(&args("--workload store_zipf --trace --quick"));
        assert!(matches!(bare, Ok(Cli::Workload(_, o)) if o.trace && o.quick));
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--all --workload store_zipf",
            "--trace 2 --all",
            "--seconds -1 --all",
            "--bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            n_ops_for(&WORKLOADS[0], true),
            WORKLOADS[0].n_ops / QUICK_DIVISOR
        );
        assert!(list().contains("store_zipf") && list().contains("bench.timer_ns"));
    }
}
