//! Checker verdicts as stable, serializable values.
//!
//! The checkers in this crate return rich typed errors
//! ([`AtomicityViolation`], [`RegularityViolation`]) whose payloads name
//! operation ids of one concrete history. Schedule exploration needs the
//! opposite trade-off: a verdict that is *stable across runs* — the same
//! violation found again (or replayed from a counterexample file weeks
//! later) must compare equal, even though the operation ids differ. A
//! [`Verdict`] is that compact form, one of three outcomes:
//! [`Verdict::Clean`]; [`Verdict::Violation`], carrying a
//! [`ViolationKind`] the checker proved; or [`Verdict::Inconclusive`],
//! when the linearizability search outgrew its 64-operation budget and
//! proved nothing either way. Each has a stable kebab-case code that
//! round-trips through text.

use std::fmt;
use std::str::FromStr;

use crate::linearizability::LinCheckError;
use crate::regularity::RegularityViolation;
use crate::swmr::AtomicityViolation;

/// The *kind* of a consistency violation, with the per-history payload
/// erased.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two writes wrote the same value; the SWMR checker cannot map
    /// returns to write indices.
    DuplicateWrittenValue,
    /// The single-sequential-writer assumption was broken.
    MalformedWrites,
    /// §3.1 condition (1): a read returned a never-written value.
    UnwrittenValue,
    /// §3.1 condition (2): a read missed a write completed before it.
    MissedPrecedingWrite,
    /// §3.1 condition (3): a read returned a value from the future.
    ReadFromFuture,
    /// §3.1 condition (4): a new/old inversion between two reads.
    NewOldInversion,
    /// The history is not regular (a read returned neither the last
    /// preceding write nor a concurrent one).
    NotRegular,
    /// The history admits no linearization (MWMR checker).
    NotLinearizable,
}

impl ViolationKind {
    /// The stable kebab-case code (what counterexample files store).
    fn code(self) -> &'static str {
        match self {
            ViolationKind::DuplicateWrittenValue => "duplicate-written-value",
            ViolationKind::MalformedWrites => "malformed-writes",
            ViolationKind::UnwrittenValue => "unwritten-value",
            ViolationKind::MissedPrecedingWrite => "missed-preceding-write",
            ViolationKind::ReadFromFuture => "read-from-future",
            ViolationKind::NewOldInversion => "new-old-inversion",
            ViolationKind::NotRegular => "not-regular",
            ViolationKind::NotLinearizable => "not-linearizable",
        }
    }
}

impl From<&AtomicityViolation> for ViolationKind {
    fn from(v: &AtomicityViolation) -> Self {
        match v {
            AtomicityViolation::DuplicateWrittenValue { .. } => {
                ViolationKind::DuplicateWrittenValue
            }
            AtomicityViolation::MalformedWrites { .. } => ViolationKind::MalformedWrites,
            AtomicityViolation::UnwrittenValue { .. } => ViolationKind::UnwrittenValue,
            AtomicityViolation::MissedPrecedingWrite { .. } => ViolationKind::MissedPrecedingWrite,
            AtomicityViolation::ReadFromFuture { .. } => ViolationKind::ReadFromFuture,
            AtomicityViolation::NewOldInversion { .. } => ViolationKind::NewOldInversion,
        }
    }
}

impl From<&RegularityViolation> for ViolationKind {
    fn from(v: &RegularityViolation) -> Self {
        match v {
            RegularityViolation::Precondition(p) => p.into(),
            RegularityViolation::UnwrittenValue { .. } => ViolationKind::UnwrittenValue,
            RegularityViolation::StaleOrFutureValue { .. } => ViolationKind::NotRegular,
        }
    }
}

/// Error parsing a [`Verdict`] code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownVerdict {
    /// The string that failed to parse.
    pub given: String,
}

impl fmt::Display for UnknownVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown verdict '{}' (valid: {})",
            self.given,
            Verdict::ALL.map(Verdict::code).join(", ")
        )
    }
}

impl std::error::Error for UnknownVerdict {}

/// The outcome of checking one history against one contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The history satisfies the checked contract.
    Clean,
    /// It does not; the stable kind of the first violation found.
    Violation(ViolationKind),
    /// The linearizability search outgrew its 64-operation budget: the
    /// history is neither shown clean nor shown to violate.
    Inconclusive,
}

impl Verdict {
    /// Every verdict, in a stable order (what a code parses against).
    const ALL: [Verdict; 10] = [
        Verdict::Clean,
        Verdict::Inconclusive,
        Verdict::Violation(ViolationKind::DuplicateWrittenValue),
        Verdict::Violation(ViolationKind::MalformedWrites),
        Verdict::Violation(ViolationKind::UnwrittenValue),
        Verdict::Violation(ViolationKind::MissedPrecedingWrite),
        Verdict::Violation(ViolationKind::ReadFromFuture),
        Verdict::Violation(ViolationKind::NewOldInversion),
        Verdict::Violation(ViolationKind::NotRegular),
        Verdict::Violation(ViolationKind::NotLinearizable),
    ];

    /// Lifts an atomicity-checker result.
    pub fn from_atomicity(r: &Result<(), AtomicityViolation>) -> Verdict {
        match r {
            Ok(()) => Verdict::Clean,
            Err(v) => Verdict::Violation(v.into()),
        }
    }

    /// Lifts a regularity-checker result.
    pub fn from_regularity(r: &Result<(), RegularityViolation>) -> Verdict {
        match r {
            Ok(()) => Verdict::Clean,
            Err(v) => Verdict::Violation(v.into()),
        }
    }

    /// Lifts a linearizability-checker result; the checker running out of
    /// budget maps to [`Verdict::Inconclusive`].
    pub fn from_linearizable(r: &Result<bool, LinCheckError>) -> Verdict {
        match r {
            Ok(true) => Verdict::Clean,
            Ok(false) => Verdict::Violation(ViolationKind::NotLinearizable),
            Err(_) => Verdict::Inconclusive,
        }
    }

    /// Returns `true` for [`Verdict::Clean`].
    pub fn is_clean(self) -> bool {
        matches!(self, Verdict::Clean)
    }

    /// The stable code (`"clean"`, `"inconclusive"` or the violation
    /// kind's code).
    pub fn code(self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Violation(k) => k.code(),
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for Verdict {
    type Err = UnknownVerdict;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Verdict::ALL
            .into_iter()
            .find(|v| v.code() == s)
            .ok_or_else(|| UnknownVerdict { given: s.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, RegValue};
    use crate::linearizability::check_linearizable;
    use crate::regularity::check_swmr_regularity;
    use crate::swmr::check_swmr_atomicity;

    #[test]
    fn codes_round_trip() {
        for v in Verdict::ALL {
            assert_eq!(v.to_string().parse::<Verdict>(), Ok(v));
        }
        assert!(Verdict::Clean.is_clean());
        assert!(!Verdict::Inconclusive.is_clean());
        assert_eq!(Verdict::Clean.to_string(), "clean");
        assert_eq!(Verdict::Inconclusive.to_string(), "inconclusive");
    }

    #[test]
    fn unknown_codes_list_the_valid_ones() {
        let err = "atomic-ish".parse::<Verdict>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("atomic-ish"));
        assert!(msg.contains("clean"));
        assert!(msg.contains("inconclusive"));
        assert!(msg.contains("new-old-inversion"));
    }

    /// A history with a new/old inversion: read 1 sees the write, a
    /// strictly later read regresses to ⊥.
    fn inverted_history() -> History {
        let mut h = History::new();
        let w = h.invoke_write(0, 7, 0);
        h.respond(w, None, 10);
        let r1 = h.invoke_read(1, 11);
        h.respond(r1, Some(RegValue::Val(7)), 12);
        let r2 = h.invoke_read(2, 13);
        h.respond(r2, Some(RegValue::Bottom), 14);
        h
    }

    #[test]
    fn lifts_preserve_the_checker_outcome() {
        let h = inverted_history();
        let atomic = Verdict::from_atomicity(&check_swmr_atomicity(&h));
        assert!(
            matches!(
                atomic,
                Verdict::Violation(
                    ViolationKind::MissedPrecedingWrite | ViolationKind::NewOldInversion
                )
            ),
            "got {atomic}"
        );
        // The write completed before the ⊥ read, so regularity fails too.
        let regular = Verdict::from_regularity(&check_swmr_regularity(&h));
        assert!(!regular.is_clean());
        let lin = Verdict::from_linearizable(&check_linearizable(&h));
        assert_eq!(lin, Verdict::Violation(ViolationKind::NotLinearizable));
        // A search past its budget proves nothing either way.
        let too_long = Err(LinCheckError::TooManyOps { found: 64 });
        assert_eq!(Verdict::from_linearizable(&too_long), Verdict::Inconclusive);
    }

    #[test]
    fn clean_histories_lift_to_clean() {
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0);
        h.respond(w, None, 2);
        let r = h.invoke_read(1, 3);
        h.respond(r, Some(RegValue::Val(1)), 4);
        assert!(Verdict::from_atomicity(&check_swmr_atomicity(&h)).is_clean());
        assert!(Verdict::from_regularity(&check_swmr_regularity(&h)).is_clean());
        assert!(Verdict::from_linearizable(&check_linearizable(&h)).is_clean());
    }
}
