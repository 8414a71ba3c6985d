//! Greedy counterexample shrinking.
//!
//! A raw violating cell carries a fault script drawn from a whole
//! distribution — most of its events are noise. The shrinker re-runs the
//! cell with candidate reductions and keeps any that still violate:
//!
//! 1. **event removal** — drop fault events one at a time, last first,
//!    repeating until a full pass removes nothing (a fixpoint);
//! 2. **op budget reduction** — halve the op budget while the violation
//!    persists, then keep stepping down one op at a time from the
//!    halving floor until a step no longer violates.
//!
//! A candidate counts only if its verdict is still a
//! [`Verdict::Violation`]: a reduction that comes back clean, or
//! [`Verdict::Inconclusive`] because the history outgrew the checker's
//! budget, is rejected.
//!
//! Because a cell's schedule randomness is independent of its fault
//! script (see [`Cell::run_with`]), removing an event never perturbs the
//! remaining decisions: each candidate is a strictly smaller scenario,
//! not a different one. The shrink is deterministic, so the resulting
//! counterexample bytes are too.

use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::fault::FaultScript;

use super::cell::{Cell, CellOutcome};
use super::counterexample::Counterexample;

/// Bookkeeping from one shrink run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate re-runs executed.
    pub attempts: u64,
    /// Fault events removed.
    pub events_removed: usize,
    /// Op budget before / after.
    pub ops_before: u32,
    /// Final op budget.
    pub ops_after: u32,
}

/// Shrinks a violating run to a [`Counterexample`].
///
/// `faults` must be the script the violation was found under (usually
/// `cell.generate_faults()`), and `outcome` its violating
/// [`CellOutcome`]. The returned counterexample stores the *final*
/// verdict and fingerprint — the shrunk scenario's own identity, which
/// is what replays must reproduce.
///
/// # Panics
///
/// Panics if `outcome` is not a violation (there is nothing to shrink).
pub(crate) fn shrink(
    cell: &Cell,
    faults: &FaultScript,
    outcome: &CellOutcome,
) -> (Counterexample, ShrinkStats) {
    assert!(
        matches!(outcome.verdict, Verdict::Violation(_)),
        "shrink() is only defined on violating outcomes"
    );
    let mut attempts = 0u64;
    let mut best_cell = *cell;
    let mut best_faults = faults.clone();
    let mut best = outcome.clone();

    // Pass 1: greedy event removal to a fixpoint. Removing from the back
    // first tends to strip late, irrelevant events before load-bearing
    // early ones.
    loop {
        let mut removed_any = false;
        let mut i = best_faults.len();
        while i > 0 {
            i -= 1;
            let candidate = best_faults.without(i);
            attempts += 1;
            let out = best_cell.run_with(&candidate);
            if matches!(out.verdict, Verdict::Violation(_)) {
                best_faults = candidate;
                best = out;
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }

    // Pass 2: halve the op budget while the violation persists, then
    // step down one op at a time below the halving floor.
    let steps: [fn(u32) -> u32; 2] = [|ops| ops / 2, |ops| ops - 1];
    for step in steps {
        while best_cell.ops > 1 {
            let candidate = Cell {
                ops: step(best_cell.ops),
                ..best_cell
            };
            attempts += 1;
            let out = candidate.run_with(&best_faults);
            if !matches!(out.verdict, Verdict::Violation(_)) {
                break;
            }
            best_cell = candidate;
            best = out;
        }
    }

    let stats = ShrinkStats {
        attempts,
        events_removed: faults.len() - best_faults.len(),
        ops_before: cell.ops,
        ops_after: best_cell.ops,
    };
    let cx = Counterexample {
        protocol: best_cell.protocol,
        cfg: best_cell.cfg,
        seed: best_cell.seed,
        ops: best_cell.ops,
        dist: best_cell.dist,
        faults: best_faults,
        verdict: best.verdict,
        fingerprint: best.fingerprint,
    };
    (cx, stats)
}

#[cfg(test)]
mod tests {
    use super::super::cell::FaultDistribution;
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;

    /// The always-violating cell: the unsound one-round MWMR candidate
    /// under plain concurrent writes.
    fn violating_cell() -> Cell {
        for seed in 0..64u64 {
            let cell = Cell {
                protocol: ProtocolId::MwmrNaiveFast,
                cfg: ClusterConfig::mwmr(3, 1, 2, 2).unwrap(),
                seed,
                ops: 10,
                dist: FaultDistribution::Calm,
            };
            if !cell.run().verdict.is_clean() {
                return cell;
            }
        }
        panic!("no violating mwmr-naive-fast cell in 64 seeds");
    }

    #[test]
    fn shrink_produces_a_replayable_counterexample() {
        let cell = violating_cell();
        let faults = cell.generate_faults();
        let outcome = cell.run_with(&faults);
        let (cx, stats) = shrink(&cell, &faults, &outcome);
        assert!(stats.ops_after <= stats.ops_before);
        assert!(cx.faults.len() <= faults.len());
        // The shrunk scenario reproduces itself.
        let replay = cx.replay();
        assert!(replay.reproduces(&cx), "{replay:?} vs {cx:?}");
    }

    #[test]
    fn shrink_is_deterministic() {
        let cell = violating_cell();
        let faults = cell.generate_faults();
        let outcome = cell.run_with(&faults);
        let (a, sa) = shrink(&cell, &faults, &outcome);
        let (b, sb) = shrink(&cell, &faults, &outcome);
        assert_eq!(a.render(), b.render());
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "only defined on violating outcomes")]
    fn shrinking_a_clean_outcome_is_a_caller_bug() {
        let cell = Cell {
            protocol: ProtocolId::FastCrash,
            cfg: ClusterConfig::crash_stop(5, 1, 2).unwrap(),
            seed: 1,
            ops: 4,
            dist: FaultDistribution::Calm,
        };
        let faults = cell.generate_faults();
        let outcome = cell.run_with(&faults);
        shrink(&cell, &faults, &outcome);
    }
}
