//! The instrumentation wall clock, quarantined to one substrate.
//!
//! The workspace's determinism contract (lint rule D2) forbids wall
//! clocks anywhere a verdict, trace or fingerprint is computed. Yet
//! the real-threads runtime needs *some* notion of time. Simnet-side
//! instrumentation stamps events with simulated ticks; [`MonoClock`] —
//! monotonic microseconds since construction — is constructible only
//! inside `crates/rt` (the real-threads substrate, where wall time is
//! already quarantined by D2's exemption), or under a written-reason
//! `fastreg-lint: allow(obs-clock-discipline)` annotation. Lint rule D7
//! (`obs-clock-discipline`) enforces this.

/// Monotonic wall-clock microseconds since construction. **rt-only.**
///
/// Timestamps from this clock differ run to run by construction; they
/// must never feed a verdict, fingerprint, or any artifact under a
/// byte-identity contract. Lint rule D7 pins construction to
/// `crates/rt` so the type cannot leak onto deterministic paths.
#[derive(Debug)]
pub struct MonoClock {
    start: std::time::Instant,
}

impl MonoClock {
    /// Starts the clock. Legal only inside `crates/rt` (rule D7).
    pub fn new() -> Self {
        MonoClock {
            // fastreg-lint: allow(wall-clock): this is the quarantined wall-clock source itself; rule D7 confines its construction to crates/rt
            #[allow(clippy::disallowed_methods)]
            start: std::time::Instant::now(),
        }
    }

    /// Microseconds elapsed since construction.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_clock_is_monotonic() {
        let c = MonoClock::new();
        let a = c.elapsed_us();
        let b = c.elapsed_us();
        assert!(b >= a);
    }
}
