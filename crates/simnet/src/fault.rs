//! Crash-fault injection and serializable fault schedules.
//!
//! The paper's crash model (§2.2): a faulty process takes a last step and
//! then stops; while broadcasting, "the sending process may crash after
//! sending messages to an arbitrary subset". [`CrashState`] holds both:
//! a process is crashed now, or armed to crash after a prefix of its
//! next step's sends.
//!
//! [`FaultScript`] lifts fault injection from imperative calls to *data*:
//! an ordered list of [`FaultEvent`]s, each firing when a run's logical
//! round counter reaches its trigger. Scripts serialize to a stable
//! line-oriented text form ([`FaultScript::render`] /
//! [`FaultScript::parse`]), which is what makes the schedule-exploration
//! counterexample files replayable byte-for-byte: the shrunk script is
//! committed, parsed back, and applied to a fresh world.

use std::fmt;

use crate::id::ProcessId;
use crate::time::SimTime;

/// The crash status of a process inside a world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrashState {
    /// Taking steps normally.
    #[default]
    Up,
    /// Armed to crash during the next step, after that step's first `k`
    /// sends: the rest of the step's messages are lost with the process
    /// (the mid-broadcast crash; see
    /// [`World::arm_crash_after_sends`](crate::world::World::arm_crash_after_sends)).
    Armed(usize),
    /// Crashed (at the given time); takes no further steps.
    Down(SimTime),
}

impl CrashState {
    /// Returns `true` if the process can still take steps.
    pub fn is_up(self) -> bool {
        !matches!(self, CrashState::Down(_))
    }

    /// Returns the crash time, if crashed.
    pub fn crashed_at(self) -> Option<SimTime> {
        match self {
            CrashState::Down(t) => Some(t),
            _ => None,
        }
    }
}

/// One scripted fault action.
///
/// Processes are named by their dense world index (see
/// [`ProcessId::index`]); the interpretation of links follows
/// [`World::block_link`](crate::world::World::block_link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the process immediately.
    Crash(ProcessId),
    /// Arm a mid-broadcast crash: the process crashes during its next
    /// step after emitting exactly `k` messages.
    CrashAfterSends(ProcessId, usize),
    /// Block the directed link `from → to` (messages stay in transit).
    Block(ProcessId, ProcessId),
    /// Heal the directed link `from → to`.
    Heal(ProcessId, ProcessId),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash(p) => write!(f, "crash {}", p.index()),
            FaultKind::CrashAfterSends(p, k) => {
                write!(f, "crash-after-sends {} {k}", p.index())
            }
            FaultKind::Block(a, b) => write!(f, "block {} {}", a.index(), b.index()),
            FaultKind::Heal(a, b) => write!(f, "heal {} {}", a.index(), b.index()),
        }
    }
}

/// A fault action together with its trigger round.
///
/// `at` counts the driving loop's rounds (whatever the driver's notion of
/// a round is — the schedule-exploration engine fires events at the top
/// of its interleaving loop), not virtual time: triggers stay meaningful
/// under any delay model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The round at which the action fires.
    pub at: u64,
    /// The action.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.at, self.kind)
    }
}

/// A fault schedule as a value: an ordered list of [`FaultEvent`]s.
///
/// The order is the application order for events sharing a trigger
/// round; [`FaultScript::render`] and [`FaultScript::parse`] round-trip
/// it exactly, one event per line.
///
/// # Examples
///
/// ```
/// use fastreg_simnet::fault::{FaultEvent, FaultKind, FaultScript};
/// use fastreg_simnet::id::ProcessId;
///
/// let mut script = FaultScript::new();
/// script.push(FaultEvent { at: 2, kind: FaultKind::Crash(ProcessId::new(4)) });
/// script.push(FaultEvent {
///     at: 5,
///     kind: FaultKind::Block(ProcessId::new(0), ProcessId::new(4)),
/// });
/// let text = script.render();
/// assert_eq!(FaultScript::parse(&text).unwrap(), script);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

/// Error from [`FaultScript::parse`]: the 1-based offending line and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultScriptParseError {
    /// 1-based line number within the script text.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultScriptParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault script line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for FaultScriptParseError {}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Appends an event (events fire in push order within a round).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The events, in application order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events firing at round `at`, in application order.
    pub fn due(&self, at: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.at == at)
    }

    /// The script with event `index` removed — the shrinker's move.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn without(&self, index: usize) -> FaultScript {
        let mut events = self.events.clone();
        events.remove(index);
        FaultScript { events }
    }

    /// Every directed link blocked by the script and not later healed —
    /// what a driver must heal to let stalled operations finish.
    pub fn unhealed_blocks(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut blocked: Vec<(ProcessId, ProcessId)> = Vec::new();
        for e in &self.events {
            match e.kind {
                FaultKind::Block(a, b) if !blocked.contains(&(a, b)) => blocked.push((a, b)),
                FaultKind::Heal(a, b) => blocked.retain(|&l| l != (a, b)),
                _ => {}
            }
        }
        blocked
    }

    /// Renders the script, one event per line (empty string for an empty
    /// script). The output parses back to an equal script.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(s, "{e}");
        }
        s
    }

    /// Parses a rendered script. Blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultScriptParseError`] naming the first malformed
    /// line.
    pub fn parse(text: &str) -> Result<Self, FaultScriptParseError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |reason: &str| FaultScriptParseError {
                line: i + 1,
                reason: reason.to_string(),
            };
            let mut parts = line.split_whitespace();
            let at: u64 = parts
                .next()
                .ok_or_else(|| err("missing trigger round"))?
                .parse()
                .map_err(|_| err("trigger round is not a number"))?;
            let verb = parts.next().ok_or_else(|| err("missing action"))?;
            let mut arg = |what: &str| -> Result<u32, FaultScriptParseError> {
                parts
                    .next()
                    .ok_or_else(|| err(&format!("missing {what}")))?
                    .parse()
                    .map_err(|_| err(&format!("{what} is not a number")))
            };
            let kind = match verb {
                "crash" => FaultKind::Crash(ProcessId::new(arg("process")?)),
                "crash-after-sends" => {
                    let p = arg("process")?;
                    let k = arg("send count")?;
                    FaultKind::CrashAfterSends(ProcessId::new(p), k as usize)
                }
                "block" => {
                    let a = arg("source")?;
                    let b = arg("target")?;
                    FaultKind::Block(ProcessId::new(a), ProcessId::new(b))
                }
                "heal" => {
                    let a = arg("source")?;
                    let b = arg("target")?;
                    FaultKind::Heal(ProcessId::new(a), ProcessId::new(b))
                }
                other => return Err(err(&format!("unknown action '{other}'"))),
            };
            if parts.next().is_some() {
                return Err(err("trailing tokens after the action"));
            }
            events.push(FaultEvent { at, kind });
        }
        Ok(FaultScript { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_up() {
        let s = CrashState::default();
        assert!(s.is_up());
        assert_eq!(s.crashed_at(), None);
    }

    #[test]
    fn armed_is_still_up() {
        assert!(CrashState::Armed(2).is_up());
    }

    #[test]
    fn down_reports_time() {
        let s = CrashState::Down(SimTime::from_ticks(5));
        assert!(!s.is_up());
        assert_eq!(s.crashed_at(), Some(SimTime::from_ticks(5)));
    }

    fn sample_script() -> FaultScript {
        let mut s = FaultScript::new();
        s.push(FaultEvent {
            at: 0,
            kind: FaultKind::Block(ProcessId::new(0), ProcessId::new(5)),
        });
        s.push(FaultEvent {
            at: 3,
            kind: FaultKind::CrashAfterSends(ProcessId::new(0), 2),
        });
        s.push(FaultEvent {
            at: 3,
            kind: FaultKind::Crash(ProcessId::new(6)),
        });
        s.push(FaultEvent {
            at: 9,
            kind: FaultKind::Heal(ProcessId::new(0), ProcessId::new(5)),
        });
        s
    }

    #[test]
    fn script_round_trips_through_text() {
        let s = sample_script();
        let text = s.render();
        assert_eq!(FaultScript::parse(&text).unwrap(), s);
        // Rendering is idempotent: parse(render(x)).render() == render(x).
        assert_eq!(FaultScript::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn empty_script_round_trips() {
        let s = FaultScript::new();
        assert!(s.is_empty());
        assert_eq!(s.render(), "");
        assert_eq!(FaultScript::parse("").unwrap(), s);
        assert_eq!(FaultScript::parse("\n  \n").unwrap(), s);
    }

    #[test]
    fn due_filters_by_round_in_order() {
        let s = sample_script();
        let at3: Vec<FaultKind> = s.due(3).map(|e| e.kind).collect();
        assert_eq!(
            at3,
            vec![
                FaultKind::CrashAfterSends(ProcessId::new(0), 2),
                FaultKind::Crash(ProcessId::new(6)),
            ]
        );
        assert_eq!(s.due(7).count(), 0);
    }

    #[test]
    fn without_removes_one_event() {
        let s = sample_script();
        let smaller = s.without(1);
        assert_eq!(smaller.len(), s.len() - 1);
        assert!(!smaller
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CrashAfterSends(..))));
    }

    #[test]
    fn unhealed_blocks_tracks_heals() {
        let s = sample_script();
        // The single block is healed at round 9: nothing left.
        assert!(s.unhealed_blocks().is_empty());
        let unhealed = s.without(3);
        assert_eq!(
            unhealed.unhealed_blocks(),
            vec![(ProcessId::new(0), ProcessId::new(5))]
        );
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = FaultScript::parse("0 crash 1\nnonsense").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err = FaultScript::parse("0 warp 1").unwrap_err();
        assert!(err.reason.contains("unknown action"));
        let err = FaultScript::parse("0 crash").unwrap_err();
        assert!(err.reason.contains("missing process"));
        let err = FaultScript::parse("x crash 1").unwrap_err();
        assert!(err.reason.contains("not a number"));
        let err = FaultScript::parse("0 crash 1 2").unwrap_err();
        assert!(err.reason.contains("trailing"));
    }
}
