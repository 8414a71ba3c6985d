//! Replayable counterexample files.
//!
//! A [`Counterexample`] is everything needed to re-execute one violating
//! cell byte-for-byte: protocol, configuration, seed, op budget, the
//! (shrunk) fault script, plus the *expected* verdict and trace
//! fingerprint. The text form is line-oriented and diff-friendly, so a
//! `corpus/` of known violations can live in git and run as a regression
//! suite: [`Counterexample::replay`] rebuilds the cell, runs it, and
//! [`ReplayOutcome::reproduces`] demands the identical verdict *and* the
//! identical trace fingerprint — the same evidence standard as the
//! scheduler-equivalence property suite, in one `u64`.
//!
//! ```text
//! fastreg-counterexample v1
//! protocol: fast-crash
//! config: s=5 t=1 b=0 r=3 w=1
//! seed: 11
//! ops: 8
//! distribution: partitioned
//! verdict: new-old-inversion
//! fingerprint: 9a3f5c01d2e4b687
//! faults:
//! 0 block 0 4
//! 0 block 6 1
//! ```

use std::fmt;

use fastreg::config::ClusterConfig;
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::fault::FaultScript;

use super::cell::{Cell, FaultDistribution};

/// The on-disk format version this module reads and writes.
pub(crate) const FORMAT_HEADER: &str = "fastreg-counterexample v1";

/// A serialized, replayable violating run.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The protocol that violated its contract.
    pub protocol: ProtocolId,
    /// The deployment it violated under.
    pub cfg: ClusterConfig,
    /// The cell seed (drives the whole schedule).
    pub seed: u64,
    /// The (possibly shrunk) op budget.
    pub ops: u32,
    /// Provenance: the distribution the original script was drawn from.
    pub dist: FaultDistribution,
    /// The (possibly shrunk) fault script.
    pub faults: FaultScript,
    /// The verdict the run must reproduce.
    pub verdict: Verdict,
    /// The trace fingerprint the run must reproduce.
    pub fingerprint: u64,
}

/// What a replay produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The replayed run's verdict.
    pub verdict: Verdict,
    /// The replayed run's trace fingerprint.
    pub fingerprint: u64,
}

impl ReplayOutcome {
    /// `true` iff the replay matched the counterexample exactly: same
    /// verdict, same trace fingerprint.
    pub fn reproduces(&self, cx: &Counterexample) -> bool {
        self.verdict == cx.verdict && self.fingerprint == cx.fingerprint
    }
}

/// Error parsing a counterexample file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterexampleParseError {
    /// What was wrong.
    pub reason: String,
}

impl CounterexampleParseError {
    fn new(reason: impl Into<String>) -> Self {
        CounterexampleParseError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CounterexampleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counterexample: {}", self.reason)
    }
}

impl std::error::Error for CounterexampleParseError {}

impl Counterexample {
    /// The cell this counterexample re-executes.
    pub fn cell(&self) -> Cell {
        Cell {
            protocol: self.protocol,
            cfg: self.cfg,
            seed: self.seed,
            ops: self.ops,
            dist: self.dist,
        }
    }

    /// Re-executes the run under the stored fault script.
    pub fn replay(&self) -> ReplayOutcome {
        let out = self.cell().run_with(&self.faults);
        ReplayOutcome {
            verdict: out.verdict,
            fingerprint: out.fingerprint,
        }
    }

    /// A descriptive, collision-free file name for a corpus directory.
    pub fn file_name(&self) -> String {
        format!(
            "{}-s{}t{}b{}r{}w{}-seed{}.txt",
            self.protocol.name(),
            self.cfg.s,
            self.cfg.t,
            self.cfg.b,
            self.cfg.r,
            self.cfg.w,
            self.seed
        )
    }

    /// Renders the stable text form (`FORMAT_HEADER` first line).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{FORMAT_HEADER}");
        let _ = writeln!(s, "protocol: {}", self.protocol.name());
        let _ = writeln!(
            s,
            "config: s={} t={} b={} r={} w={}",
            self.cfg.s, self.cfg.t, self.cfg.b, self.cfg.r, self.cfg.w
        );
        let _ = writeln!(s, "seed: {}", self.seed);
        let _ = writeln!(s, "ops: {}", self.ops);
        let _ = writeln!(s, "distribution: {}", self.dist);
        let _ = writeln!(s, "verdict: {}", self.verdict);
        let _ = writeln!(s, "fingerprint: {:016x}", self.fingerprint);
        let _ = writeln!(s, "faults:");
        s.push_str(&self.faults.render());
        s
    }

    /// Parses the text form back.
    ///
    /// # Errors
    ///
    /// Returns a [`CounterexampleParseError`] describing the first
    /// malformed element (header, field, config, or fault line).
    pub fn parse(text: &str) -> Result<Self, CounterexampleParseError> {
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            Some(FORMAT_HEADER) => {}
            Some(other) => {
                return Err(CounterexampleParseError::new(format!(
                    "unsupported header '{other}' (expected '{FORMAT_HEADER}')"
                )))
            }
            None => return Err(CounterexampleParseError::new("empty file")),
        }

        let mut protocol = None;
        let mut cfg = None;
        let mut seed = None;
        let mut ops = None;
        let mut dist = None;
        let mut verdict = None;
        let mut fingerprint = None;
        let mut fault_lines = String::new();
        let mut in_faults = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if in_faults {
                fault_lines.push_str(line);
                fault_lines.push('\n');
                continue;
            }
            if line == "faults:" {
                in_faults = true;
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| CounterexampleParseError::new(format!("malformed line '{line}'")))?;
            let value = value.trim();
            match key.trim() {
                "protocol" => {
                    protocol =
                        Some(ProtocolId::parse(value).map_err(|e| {
                            CounterexampleParseError::new(format!("protocol: {e}"))
                        })?);
                }
                "config" => cfg = Some(parse_config(value)?),
                "seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| {
                        CounterexampleParseError::new(format!("seed '{value}' is not a number"))
                    })?);
                }
                "ops" => {
                    ops = Some(value.parse::<u32>().map_err(|_| {
                        CounterexampleParseError::new(format!("ops '{value}' is not a number"))
                    })?);
                }
                "distribution" => {
                    dist = Some(
                        FaultDistribution::ALL
                            .into_iter()
                            .find(|d| d.name() == value)
                            .ok_or_else(|| {
                                CounterexampleParseError::new(format!(
                                    "unknown distribution '{value}'"
                                ))
                            })?,
                    );
                }
                "verdict" => {
                    verdict = Some(
                        value
                            .parse::<Verdict>()
                            .map_err(|e| CounterexampleParseError::new(format!("verdict: {e}")))?,
                    );
                }
                "fingerprint" => {
                    fingerprint = Some(u64::from_str_radix(value, 16).map_err(|_| {
                        CounterexampleParseError::new(format!("fingerprint '{value}' is not hex"))
                    })?);
                }
                other => {
                    return Err(CounterexampleParseError::new(format!(
                        "unknown field '{other}'"
                    )))
                }
            }
        }
        let faults = FaultScript::parse(&fault_lines)
            .map_err(|e| CounterexampleParseError::new(e.to_string()))?;
        let missing = |what: &str| CounterexampleParseError::new(format!("missing field '{what}'"));
        let protocol = protocol.ok_or_else(|| missing("protocol"))?;
        let cfg = cfg.ok_or_else(|| missing("config"))?;
        // Replay deploys without the feasibility check, so the one limit
        // that deployment cannot exceed is checked where the file enters.
        if !protocol.population_fits(&cfg) {
            return Err(CounterexampleParseError::new(format!(
                "config: '{protocol}' cannot deploy r={} readers",
                cfg.r
            )));
        }
        Ok(Counterexample {
            protocol,
            cfg,
            seed: seed.ok_or_else(|| missing("seed"))?,
            ops: ops.ok_or_else(|| missing("ops"))?,
            dist: dist.ok_or_else(|| missing("distribution"))?,
            faults,
            verdict: verdict.ok_or_else(|| missing("verdict"))?,
            fingerprint: fingerprint.ok_or_else(|| missing("fingerprint"))?,
        })
    }
}

/// Parses `s=5 t=1 b=0 r=3 w=1` back into a validated [`ClusterConfig`].
fn parse_config(value: &str) -> Result<ClusterConfig, CounterexampleParseError> {
    let mut s = None;
    let mut t = None;
    let mut b = None;
    let mut r = None;
    let mut w = None;
    for part in value.split_whitespace() {
        let (key, num) = part.split_once('=').ok_or_else(|| {
            CounterexampleParseError::new(format!("malformed config token '{part}'"))
        })?;
        let num: u32 = num.parse().map_err(|_| {
            CounterexampleParseError::new(format!("config {key} '{num}' is not a number"))
        })?;
        match key {
            "s" => s = Some(num),
            "t" => t = Some(num),
            "b" => b = Some(num),
            "r" => r = Some(num),
            "w" => w = Some(num),
            other => {
                return Err(CounterexampleParseError::new(format!(
                    "unknown config key '{other}'"
                )))
            }
        }
    }
    let missing = |what: &str| CounterexampleParseError::new(format!("config is missing '{what}'"));
    let (s, t, b, r, w) = (
        s.ok_or_else(|| missing("s"))?,
        t.ok_or_else(|| missing("t"))?,
        b.ok_or_else(|| missing("b"))?,
        r.ok_or_else(|| missing("r"))?,
        w.ok_or_else(|| missing("w"))?,
    );
    // Route through the validating constructors so a hand-edited file
    // cannot smuggle in an inconsistent population.
    let cfg = if w > 1 {
        if b != 0 {
            return Err(CounterexampleParseError::new(
                "multi-writer Byzantine configurations are not supported",
            ));
        }
        ClusterConfig::mwmr(s, t, w, r)
    } else {
        ClusterConfig::byzantine(s, t, b, r)
    };
    cfg.map_err(|e| CounterexampleParseError::new(format!("invalid config: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg_simnet::fault::{FaultEvent, FaultKind};
    use fastreg_simnet::id::ProcessId;

    fn sample() -> Counterexample {
        let mut faults = FaultScript::new();
        faults.push(FaultEvent {
            at: 0,
            kind: FaultKind::Block(ProcessId::new(0), ProcessId::new(4)),
        });
        faults.push(FaultEvent {
            at: 3,
            kind: FaultKind::Crash(ProcessId::new(6)),
        });
        Counterexample {
            protocol: ProtocolId::FastCrash,
            cfg: ClusterConfig::crash_stop(5, 1, 3).unwrap(),
            seed: 11,
            ops: 8,
            dist: FaultDistribution::Partitioned,
            faults,
            verdict: "new-old-inversion".parse().unwrap(),
            fingerprint: 0x9a3f_5c01_d2e4_b687,
        }
    }

    #[test]
    fn text_round_trips_exactly() {
        let cx = sample();
        let text = cx.render();
        let back = Counterexample::parse(&text).unwrap();
        // Re-rendering the parse is byte-identical: the corpus is stable
        // under load/store cycles.
        assert_eq!(back.render(), text);
        assert_eq!(back.protocol, cx.protocol);
        assert_eq!(back.cfg, cx.cfg);
        assert_eq!(back.seed, cx.seed);
        assert_eq!(back.ops, cx.ops);
        assert_eq!(back.faults, cx.faults);
        assert_eq!(back.verdict, cx.verdict);
        assert_eq!(back.fingerprint, cx.fingerprint);
    }

    #[test]
    fn mwmr_configs_round_trip() {
        let mut cx = sample();
        cx.protocol = ProtocolId::MwmrNaiveFast;
        cx.cfg = ClusterConfig::mwmr(3, 1, 2, 2).unwrap();
        cx.faults = FaultScript::new();
        let back = Counterexample::parse(&cx.render()).unwrap();
        assert_eq!(back.cfg, cx.cfg);
        assert_eq!(back.cfg.w, 2);
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        assert!(Counterexample::parse("").is_err());
        assert!(Counterexample::parse("not-a-header v9\n").is_err());
        let text = sample().render();
        assert!(Counterexample::parse(&text.replace("fast-crash", "fast-quantum")).is_err());
        assert!(Counterexample::parse(&text.replace("seed: 11", "seed: eleven")).is_err());
        assert!(Counterexample::parse(&text.replace("s=5", "s=nope")).is_err());
        assert!(
            Counterexample::parse(&text.replace("verdict: new-old-inversion", "verdict: ?"))
                .is_err()
        );
        assert!(
            Counterexample::parse(&text.replace("0 block 0 4", "0 teleport 0 4")).is_err(),
            "bad fault lines must be rejected"
        );
        // Hand-edited inconsistent population: t > s.
        assert!(Counterexample::parse(&text.replace("t=1", "t=9")).is_err());
        // More readers than a seen-set protocol can deploy: rejected here,
        // not by a panic when replay builds the cluster; fine elsewhere.
        let crowded = text.replace("r=3", "r=64");
        let err = Counterexample::parse(&crowded).unwrap_err();
        assert!(err.to_string().contains("r=64"), "got: {err}");
        assert!(Counterexample::parse(&crowded.replace("fast-crash", "abd")).is_ok());
        assert!(Counterexample::parse(&text.replace("r=3", "r=63")).is_ok());
    }

    #[test]
    fn file_names_are_descriptive() {
        assert_eq!(sample().file_name(), "fast-crash-s5t1b0r3w1-seed11.txt");
    }
}
