//! The seven workspace invariants, as named rules with spans.
//!
//! | id | code | invariant |
//! |----|------|-----------|
//! | D1 | `nondet-order` | no `HashMap`/`HashSet` in modules that feed verdicts, traces, fingerprints or counterexample bytes |
//! | D2 | `wall-clock` | no `Instant::now`/`SystemTime` anywhere; the one wall-clock source, `MonoClock::new`, carries a waiver |
//! | D3 | `substrate-isolation` | simnet-only controls (`SimControl` & friends, fault-script types) never referenced from the threads substrate |
//! | D4 | `panic-hygiene` | no `settle()`/bare `unwrap()` in non-test protocol/checker library code |
//! | D5 | `registry-completeness` | every `ProtocolId` variant is exercised by `tests/protocol_conformance.rs` (its wiring is the protocol table's job, enforced by the compiler) |
//! | D6 | `thread-spawn` | raw thread creation (`thread::spawn`/`thread::Builder`) only in `crates/rt` |
//! | D7 | `obs-clock-discipline` | the observability wall-clock (`MonoClock`) is constructed only inside `crates/rt` (and defined in `crates/obs`) |
//!
//! D1–D4, D6 and D7 are per-line token rules scoped by repo-relative
//! path; D5 is a cross-file rule over `registry.rs` and
//! `tests/protocol_conformance.rs`.
//! Any finding can be waived *with a written justification* via
//! `// fastreg-lint: allow(<code>): <reason>` on (or directly above) the
//! offending line; waived findings stay visible in the report.

use std::fmt;

use crate::scanner::{find_token, Scanned};

/// One of the seven enforced invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: nondeterministic iteration order on a verdict-feeding path.
    NondetOrder,
    /// D2: a wall-clock read.
    WallClock,
    /// D3: simnet-only steering referenced from the threads substrate.
    SubstrateIsolation,
    /// D4: panicking shortcuts in non-test protocol/checker library code.
    PanicHygiene,
    /// D5: a `ProtocolId` variant not wired through registry + conformance.
    RegistryCompleteness,
    /// D6: raw thread creation outside the sanctioned runtime sites.
    ThreadSpawn,
    /// D7: the observability wall-clock constructed outside `crates/rt`.
    ObsClockDiscipline,
}

impl Rule {
    /// Every rule, in D1..D7 order.
    pub const ALL: [Rule; 7] = [
        Rule::NondetOrder,
        Rule::WallClock,
        Rule::SubstrateIsolation,
        Rule::PanicHygiene,
        Rule::RegistryCompleteness,
        Rule::ThreadSpawn,
        Rule::ObsClockDiscipline,
    ];

    /// Stable kebab-case code — the name used in allow annotations and
    /// in the report table.
    pub(crate) fn code(self) -> &'static str {
        match self {
            Rule::NondetOrder => "nondet-order",
            Rule::WallClock => "wall-clock",
            Rule::SubstrateIsolation => "substrate-isolation",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::RegistryCompleteness => "registry-completeness",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::ObsClockDiscipline => "obs-clock-discipline",
        }
    }

    /// Short id (`D1`..`D7`).
    pub(crate) fn id(self) -> &'static str {
        match self {
            Rule::NondetOrder => "D1",
            Rule::WallClock => "D2",
            Rule::SubstrateIsolation => "D3",
            Rule::PanicHygiene => "D4",
            Rule::RegistryCompleteness => "D5",
            Rule::ThreadSpawn => "D6",
            Rule::ObsClockDiscipline => "D7",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.code())
    }
}

/// One rule hit: where, what, and whether a written justification waives
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line (trimmed), or the missing-wiring
    /// description for D5.
    pub snippet: String,
    /// `Some(reason)` if a `fastreg-lint: allow` annotation covers the
    /// line.
    pub allowed: Option<String>,
}

impl Finding {
    /// True if the finding carries a justification and does not gate.
    pub(crate) fn is_allowed(&self) -> bool {
        self.allowed.is_some()
    }
}

/// Whether `path` (repo-relative, `/`-separated) lies in a `tests/`
/// tree.
fn in_tests_dir(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// D1 scope: the modules whose iteration order feeds verdicts, traces,
/// fingerprints or counterexample bytes.
fn d1_scope(p: &str) -> bool {
    p.starts_with("crates/atomicity/src/")
        || p == "crates/store/src/checker.rs"
        || p == "crates/store/src/shard.rs"
        || p.starts_with("crates/adversary/src/explore/")
        || p.starts_with("crates/simnet/src/world/")
        || p == "crates/simnet/src/trace.rs"
        || p == "crates/workload/src/driver.rs"
}

/// D3 scope: the threads substrate, which must stay steerable-free.
fn d3_scope(p: &str) -> bool {
    p.starts_with("crates/rt/") || p == "crates/core/src/threads.rs"
}

/// D4 scope: protocol and checker *library* code (tests excluded by
/// path here and by `#[cfg(test)]` region per line).
fn d4_scope(p: &str) -> bool {
    !in_tests_dir(p)
        && (p.starts_with("crates/core/src/protocols/")
            || p.starts_with("crates/atomicity/src/")
            || p == "crates/store/src/checker.rs")
}

/// D6 exemption: the one place allowed to create OS threads. The rt
/// crate holds the actor runtime and the ordered fan-outs
/// (`map_ordered`, `Crew`); everything else must go through them so
/// thread counts stay a tuning knob, never an observable.
fn d6_exempt(p: &str) -> bool {
    p.starts_with("crates/rt/")
}

/// D7 exemptions: `crates/obs` defines `MonoClock` (the quarantined
/// wall-clock source itself) and `crates/rt` is the one substrate
/// allowed to construct it. Everywhere else a `MonoClock` mention is a
/// determinism leak: simnet-side instrumentation must run on
/// simulated ticks so trace and metrics bytes stay a pure function
/// of the seed.
fn d7_exempt(p: &str) -> bool {
    p.starts_with("crates/rt/") || p.starts_with("crates/obs/")
}

const D1_TOKENS: &[&str] = &["HashMap", "HashSet"];
const D2_TOKENS: &[&str] = &["Instant::now", "SystemTime"];
const D3_TOKENS: &[&str] = &[
    "SimControl",
    "step_random",
    "crash_proc",
    "block_link_procs",
    "heal_link_procs",
    "trace_fingerprint",
    "trace_digest",
    "FaultScript",
    "FaultEvent",
    "FaultKind",
];
const D4_TOKENS: &[&str] = &[".unwrap()", ".settle()"];
const D6_TOKENS: &[&str] = &["thread::spawn", "thread::Builder"];
const D7_TOKENS: &[&str] = &["MonoClock"];

/// Applies the per-line rules D1–D4 to one scanned file.
pub(crate) fn check_file(path: &str, scanned: &Scanned) -> Vec<Finding> {
    let mut rules: Vec<(Rule, &[&str], bool)> = Vec::new(); // (rule, tokens, skip_test_lines)
    if d1_scope(path) {
        rules.push((Rule::NondetOrder, D1_TOKENS, false));
    }
    rules.push((Rule::WallClock, D2_TOKENS, false));
    if d3_scope(path) {
        rules.push((Rule::SubstrateIsolation, D3_TOKENS, false));
    }
    if d4_scope(path) {
        rules.push((Rule::PanicHygiene, D4_TOKENS, true));
    }
    if !d6_exempt(path) {
        rules.push((Rule::ThreadSpawn, D6_TOKENS, false));
    }
    if !d7_exempt(path) {
        rules.push((Rule::ObsClockDiscipline, D7_TOKENS, false));
    }
    let mut findings = Vec::new();
    for line in &scanned.lines {
        for (rule, tokens, skip_tests) in &rules {
            if *skip_tests && line.in_test {
                continue;
            }
            if tokens.iter().any(|t| find_token(&line.code, t)) {
                findings.push(Finding {
                    rule: *rule,
                    file: path.to_string(),
                    line: line.number,
                    snippet: snippet_of(&line.raw),
                    allowed: scanned
                        .allow_reason(line.number, rule.code())
                        .map(str::to_string),
                });
            }
        }
    }
    findings
}

/// Trims and bounds a raw line for display.
fn snippet_of(raw: &str) -> String {
    let t = raw.trim();
    if t.chars().count() > 120 {
        let cut: String = t.chars().take(117).collect();
        format!("{cut}...")
    } else {
        t.to_string()
    }
}

/// The cross-file D5 check over a parsed `registry.rs` and the
/// conformance suite.
///
/// A `ProtocolId` variant's wiring — `ProtocolFamily` impl, `ALL` slot,
/// constructor on both runtimes — is generated from one protocol-table
/// row and cannot be partial without a compile error. What the types
/// cannot force is that the conformance suite *runs* it; that is the one
/// leg left here.
///
/// `registry` is the scanned `crates/core/src/protocols/registry.rs`;
/// `conformance` is the scanned `tests/protocol_conformance.rs` (or
/// `None` if that file is missing, which fails every variant).
pub(crate) fn check_registry(
    registry_path: &str,
    registry: &Scanned,
    conformance: Option<&Scanned>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, decl_line) in enum_variants(registry, "ProtocolId") {
        let qualified = format!("ProtocolId::{name}");
        if conformance.is_some_and(|c| c.contains_token(&qualified)) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::RegistryCompleteness,
            file: registry_path.to_string(),
            line: decl_line,
            snippet: format!("{qualified}: never exercised by tests/protocol_conformance.rs"),
            allowed: registry
                .allow_reason(decl_line, Rule::RegistryCompleteness.code())
                .map(str::to_string),
        });
    }
    findings
}

/// The number of `ProtocolId` variants seen by [`check_registry`] —
/// exposed so the self-scan can assert the cross-file rule actually
/// parsed the enum.
pub(crate) fn count_enum_variants(registry: &Scanned) -> usize {
    enum_variants(registry, "ProtocolId").len()
}

/// Extracts `(variant name, declaration line)` from `pub enum <name>`.
fn enum_variants(scanned: &Scanned, enum_name: &str) -> Vec<(String, usize)> {
    let needle = format!("enum {enum_name}");
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut inside = false;
    for line in &scanned.lines {
        if !inside && line.code.contains(&needle) {
            inside = true;
            depth = 0;
        }
        if inside {
            let before = depth;
            for ch in line.code.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if before == 1 && depth == 1 {
                // A body line at depth 1: `Variant,` (attributes and
                // blanks filtered below).
                let t = line.code.trim();
                if let Some(ident) = t.strip_suffix(',') {
                    let ident = ident.trim();
                    if !ident.is_empty()
                        && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                        && ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        out.push((ident.to_string(), line.number));
                    }
                }
            }
            if depth == 0 && before > 0 {
                break; // enum closed
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn rule_codes_round_trip() {
        for (n, rule) in Rule::ALL.into_iter().enumerate() {
            assert_eq!(rule.id(), format!("D{}", n + 1));
            assert_eq!(format!("{rule}"), format!("{} {}", rule.id(), rule.code()));
            let same_code = Rule::ALL.into_iter().filter(|r| r.code() == rule.code());
            assert_eq!(same_code.count(), 1, "{rule}: its code is not unique");
        }
    }

    #[test]
    fn d1_fires_only_in_scope() {
        let s = scan("use std::collections::HashMap;\n");
        assert_eq!(check_file("crates/atomicity/src/swmr.rs", &s).len(), 1);
        assert_eq!(
            check_file("crates/core/src/quorum.rs", &s).len(),
            0,
            "out of D1 scope"
        );
    }

    #[test]
    fn d2_applies_to_every_path() {
        let s = scan("let t = Instant::now();\n");
        assert_eq!(check_file("crates/workload/src/metrics.rs", &s).len(), 1);
        // The runtime reads time through MonoClock; the bench crate reads
        // none.
        assert_eq!(check_file("crates/rt/src/lib.rs", &s).len(), 1);
        assert_eq!(check_file("crates/bench/src/bin/report.rs", &s).len(), 1);
        // ThreadCluster reads time through its pool's clock.
        assert_eq!(check_file("crates/core/src/threads.rs", &s).len(), 1);
    }

    #[test]
    fn d4_skips_test_regions_and_test_paths() {
        let src =
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let s = scan(src);
        let f = check_file("crates/atomicity/src/history.rs", &s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert_eq!(
            check_file("crates/atomicity/tests/properties.rs", &s).len(),
            0
        );
    }

    #[test]
    fn d6_exempts_only_the_thread_substrates() {
        let s = scan("let h = std::thread::spawn(|| ());\n");
        assert_eq!(check_file("crates/workload/src/driver.rs", &s).len(), 1);
        assert_eq!(check_file("crates/rt/src/lib.rs", &s).len(), 0);
        assert_eq!(check_file("crates/rt/src/threaded.rs", &s).len(), 0);
        // The simulator spawns no threads, and may not start.
        assert_eq!(check_file("crates/simnet/src/threaded.rs", &s).len(), 1);
        // thread::Builder is the same capability under another name.
        let b = scan("let b = std::thread::Builder::new();\n");
        assert_eq!(check_file("crates/core/src/quorum.rs", &b).len(), 1);
        // A method named spawn on some pool type is not thread::spawn.
        let p = scan("let pool = ActorPool::spawn(automata, cfg);\n");
        assert_eq!(check_file("crates/workload/src/driver.rs", &p).len(), 0);
    }

    #[test]
    fn d7_exempts_only_the_clock_owners() {
        let s = scan("let clock = MonoClock::new();\n");
        assert_eq!(check_file("crates/workload/src/obsrun.rs", &s).len(), 1);
        assert_eq!(check_file("crates/simnet/src/world/sched.rs", &s).len(), 1);
        assert_eq!(check_file("crates/rt/src/lib.rs", &s).len(), 0);
        assert_eq!(check_file("crates/obs/src/clock.rs", &s).len(), 0);
        // The logical clock is the sanctioned instrument everywhere.
        let l = scan("let clock = LogicalClock::new();\n");
        assert_eq!(check_file("crates/workload/src/obsrun.rs", &l).len(), 0);
    }

    /// The `path = "…"` entries of one list in the workspace's
    /// `clippy.toml`, e.g. `disallowed-methods`.
    fn clippy_paths(list: &str) -> Vec<String> {
        let toml = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../clippy.toml");
        let text = std::fs::read_to_string(toml).expect("the workspace has a clippy.toml");
        let start = format!("{list} = [");
        text.lines()
            .skip_while(|l| !l.starts_with(&start))
            .skip(1)
            .take_while(|l| !l.starts_with(']'))
            .filter(|l| !l.trim_start().starts_with('#'))
            .filter_map(|l| l.split("path = \"").nth(1)?.split('"').next())
            .map(str::to_string)
            .collect()
    }

    /// `clippy.toml` mirrors D1 and D2 in the editor: every path it
    /// disallows carries one of the rule's tokens, and every token is
    /// carried by a path it disallows.
    #[test]
    fn clippy_toml_mirrors_the_d1_and_d2_tokens() {
        for (list, rule, tokens) in [
            ("disallowed-types", Rule::NondetOrder, D1_TOKENS),
            ("disallowed-methods", Rule::WallClock, D2_TOKENS),
        ] {
            let paths = clippy_paths(list);
            assert!(!paths.is_empty(), "clippy.toml has no {list}");
            for path in &paths {
                assert!(
                    tokens.iter().any(|t| path.contains(t)),
                    "clippy.toml's {list} has {path}, which {rule} does not flag"
                );
            }
            for token in tokens {
                assert!(
                    paths.iter().any(|p| p.contains(token)),
                    "{rule} flags {token}, which clippy.toml's {list} does not: {paths:?}"
                );
            }
        }
    }

    #[test]
    fn allowed_findings_carry_the_reason() {
        let s =
            scan("use std::collections::HashMap; // fastreg-lint: allow(nondet-order): keyed\n");
        let f = check_file("crates/atomicity/src/swmr.rs", &s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].allowed.as_deref(), Some("keyed"));
    }
}
