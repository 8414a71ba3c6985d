//! §5, executed: the crash-stop lower-bound construction (Figs. 1, 3, 4).
//!
//! Given an *infeasible* crash-stop configuration (`R ≥ S/t − 2`), this
//! module materializes the paper's final partial run `prC` against the
//! real Fig. 2 implementation:
//!
//! 1. `wr_{R+1}`: `write(1)` whose messages reach only block `B_{R+1}`
//!    (the writer never completes — its acks stay in transit).
//! 2. Reads by `r_1, …, r_{R−1}`, each reaching only
//!    `B_1..B_{h−1} ∪ B_{R+1} ∪ B_{R+2}`; their acks stay in transit
//!    (the reads are incomplete).
//! 3. A **complete** read by `r_R` reaching every block except `B_R`.
//!    Each previous reader left itself in `B_{R+1}`'s `seen` sets, so the
//!    predicate fires at witness level `a = R + 1` and `r_R` returns `1`
//!    — exactly the mechanism the proof's indistinguishability chain
//!    forces.
//! 4. `prA`: `r_1`'s long-delayed first read finally completes using the
//!    acks of every block except `B_{R+1}` — the only block that ever saw
//!    the write — so it returns `⊥` (`r_1` cannot distinguish this run
//!    from `prB`, where no write happened).
//! 5. `prC`: a second read by `r_1`, skipping `B_{R+1}` again: `⊥`.
//!
//! `r_R` returned `1`; the later read by `r_1` returned `⊥`: a new/old
//! inversion, flagged mechanically by the §3.1 checker. The companion
//! run [`run_crash_lb_without_write`] (`prB`/`prD`) shows `r_1`'s view is
//! byte-identical without the write — the indistinguishability at the
//! heart of the proof.

use std::collections::BTreeSet;

use fastreg::config::ClusterConfig;
use fastreg::harness::{Cluster, ClusterBuilder, FastCrash, RegisterOps};
use fastreg::protocols::fast_crash::Msg;
use fastreg::types::RegValue;
use fastreg_atomicity::history::History;
use fastreg_atomicity::swmr::{check_swmr_atomicity, AtomicityViolation};
use fastreg_simnet::time::SimTime;

use crate::blocks::{crash_blocks, BlockPlan};
use crate::LbError;

/// The result of executing the §5 chain of partial runs.
#[derive(Debug)]
pub struct CrashLbOutcome {
    /// The configuration driven into the violation.
    pub cfg: ClusterConfig,
    /// The block partition used.
    pub plan: BlockPlan,
    /// Which partial run of the chain violated atomicity first
    /// (`"pr1"`…`"prR"` or `"prC"`).
    pub violating_run: String,
    /// What `r_R` returned in `prC` (`1`, when the chain reached `prC`).
    pub r_last_return: RegValue,
    /// What `r_1`'s first read returned in the violating run.
    pub r1_first_return: RegValue,
    /// What `r_1`'s second read returned in `prC` (`⊥`, when reached).
    pub r1_second_return: RegValue,
    /// The checker's verdict on the violating run — always a violation.
    pub violation: AtomicityViolation,
    /// The recorded history of the violating run.
    pub history: History,
}

/// Executes the §5 construction against the Fig. 2 implementation.
///
/// The proof's chain `pr_1 … pr_R, prA, prC` is materialized run by run
/// (each in a fresh world). For any fast implementation, *some* member of
/// the chain violates atomicity once `R ≥ S/t − 2`: either an
/// intermediate `pr_i` already exhibits a stale read (the implementation
/// fails the indistinguishability obligation early), or the chain's
/// returns survive to `prC`, which then exhibits the new/old inversion.
/// The first violating run is returned.
///
/// # Errors
///
/// Returns [`LbError`] if the configuration does not satisfy the
/// hypotheses of Proposition 5 (`t ≥ 1`, `R ≥ 2`, infeasible, partition
/// exists).
///
/// # Panics
///
/// Panics if *no* run in the chain violates atomicity — that would
/// contradict Proposition 5 and indicate a bug in the protocol code.
pub fn run_crash_lb(cfg: ClusterConfig, seed: u64) -> Result<CrashLbOutcome, LbError> {
    let plan = crash_blocks(&cfg)?;

    // The intermediate runs pr_1 .. pr_R.
    for i in 1..=cfg.r {
        let history = drive_pr_i(cfg, &plan, seed, i);
        if let Err(violation) = check_swmr_atomicity(&history) {
            let r1_first = completed_read(&history, Layoutish::reader_addr(&cfg, 0), 0);
            return Ok(CrashLbOutcome {
                cfg,
                plan,
                violating_run: format!("pr{i}"),
                r_last_return: RegValue::Bottom,
                r1_first_return: r1_first.unwrap_or(RegValue::Bottom),
                r1_second_return: RegValue::Bottom,
                violation,
                history,
            });
        }
    }

    // The chain survived: prC must violate.
    let (history, returns) = drive_prc(cfg, &plan, seed, true);
    let violation = check_swmr_atomicity(&history)
        .expect_err("the full §5 chain ran clean; prC must violate atomicity (Proposition 5)");
    Ok(CrashLbOutcome {
        cfg,
        plan,
        violating_run: "prC".to_string(),
        r_last_return: returns.r_last,
        r1_first_return: returns.r1_first,
        r1_second_return: returns.r1_second,
        violation,
        history,
    })
}

/// Helper namespace for address arithmetic without a live cluster.
struct Layoutish;

impl Layoutish {
    fn reader_addr(cfg: &ClusterConfig, index: u32) -> u32 {
        fastreg::layout::Layout::of(cfg).reader(index).index()
    }
}

/// The `nth` completed read by actor `proc` in a history.
fn completed_read(history: &History, proc: u32, nth: usize) -> Option<RegValue> {
    history
        .reads()
        .filter(|op| op.proc == proc && op.is_complete())
        .nth(nth)
        .and_then(|op| op.returned)
}

/// Materializes the paper's `pr_i` (1 ≤ i ≤ R): the write `wr_i`
/// delivered to `B_i..B_{R+1}` (completed only for `i = 1`), incomplete
/// reads by `r_1..r_{i−2}`, a complete read by `r_{i−1}` skipping
/// `B_{i−1}`, and a complete read by `r_i` skipping `B_i`.
fn drive_pr_i(cfg: ClusterConfig, plan: &BlockPlan, seed: u64, i: u32) -> History {
    let r = cfg.r;
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed()
        .expect("the default runtime is simnet");
    let layout = c.layout;

    let in_blocks = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.b(k).iter().copied()).collect()
    };

    // Write delivered to B_i..B_{R+1}.
    c.write(1);
    let write_targets = in_blocks(&(i..=r + 1).collect::<Vec<_>>());
    c.world.deliver_matching(|e| {
        matches!(e.msg, Msg::Write { .. })
            && layout
                .server_index(e.to)
                .map(|j| write_targets.contains(&j))
                .unwrap_or(false)
    });
    if i == 1 {
        // pr_1 extends the *complete* write wr: the writer returns.
        c.world.deliver_matching(|e| {
            e.to == layout.writer(0) && matches!(e.msg, Msg::WriteAck { .. })
        });
    }
    c.world.advance_to(SimTime::from_ticks(10));

    // Reads r_1 .. r_i. For h < i: delivered to B_1..B_{h−1} ∪ B_i..B_{R+2}
    // (skipping B_h..B_{i−1}); only r_{i−1}'s acks are delivered. r_i skips
    // B_i alone and completes.
    for h in 1..=i {
        let reader_addr = layout.reader(h - 1);
        let targets: BTreeSet<u32> = if h < i {
            let mut ks: Vec<u32> = (1..h).collect();
            ks.extend(i..=r + 2);
            in_blocks(&ks)
        } else {
            let ks: Vec<u32> = (1..=r + 2).filter(|&k| k != i).collect();
            in_blocks(&ks)
        };
        c.read_async(h - 1);
        c.world.deliver_matching(|e| {
            e.from == reader_addr
                && matches!(e.msg, Msg::Read { .. })
                && layout
                    .server_index(e.to)
                    .map(|j| targets.contains(&j))
                    .unwrap_or(false)
        });
        if h + 1 == i || h == i {
            // r_{i−1} and r_i are complete.
            c.world
                .deliver_matching(|e| e.to == reader_addr && matches!(e.msg, Msg::ReadAck { .. }));
        }
        c.world.advance_to(SimTime::from_ticks(10 + 10 * h as u64));
    }

    c.snapshot()
}

/// Executes the same communication pattern as `prC` but with no write
/// invocation at all — the paper's `prB`/`prD`. Returns `r_1`'s two
/// returned values, which must equal those of `prC` (`⊥`, `⊥`): `r_1`
/// cannot distinguish the runs.
///
/// # Errors
///
/// Same preconditions as [`run_crash_lb`].
pub fn run_crash_lb_without_write(
    cfg: ClusterConfig,
    seed: u64,
) -> Result<(RegValue, RegValue), LbError> {
    let plan = crash_blocks(&cfg)?;
    let (_, returns) = drive_prc(cfg, &plan, seed, false);
    Ok((returns.r1_first, returns.r1_second))
}

struct Returns {
    r_last: RegValue,
    r1_first: RegValue,
    r1_second: RegValue,
}

/// Runs the scripted schedule. With `with_write = false`, the `write(1)`
/// is omitted (prB/prD); everything else is identical.
fn drive_prc(
    cfg: ClusterConfig,
    plan: &BlockPlan,
    seed: u64,
    with_write: bool,
) -> (History, Returns) {
    let r = cfg.r;
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed()
        .expect("the default runtime is simnet");
    let layout = c.layout;

    let in_blocks = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.b(k).iter().copied()).collect()
    };
    let block_range = |lo: u32, hi: u32| -> Vec<u32> { (lo..=hi).collect() };

    // --- wr_{R+1}: write(1) reaches only B_{R+1}. -----------------------
    if with_write {
        c.write(1);
        let target = in_blocks(&[r + 1]);
        c.world.deliver_matching(|e| {
            matches!(e.msg, Msg::Write { .. })
                && layout
                    .server_index(e.to)
                    .map(|j| target.contains(&j))
                    .unwrap_or(false)
        });
        // The writeacks stay in transit: the write is incomplete.
    }
    c.world.advance_to(SimTime::from_ticks(10));

    // --- Reads r_1 .. r_R, each skipping {B_h .. B_R}. ------------------
    for h in 1..=r {
        let reader_addr = layout.reader(h - 1);
        // Delivered blocks: B_1..B_{h-1} ∪ B_{R+1} ∪ B_{R+2}.
        let mut ks = block_range(1, h.saturating_sub(1));
        if h == 1 {
            ks.clear();
        }
        ks.push(r + 1);
        ks.push(r + 2);
        let targets = in_blocks(&ks);
        c.read_async(h - 1);
        c.world.deliver_matching(|e| {
            e.from == reader_addr
                && matches!(e.msg, Msg::Read { .. })
                && layout
                    .server_index(e.to)
                    .map(|j| targets.contains(&j))
                    .unwrap_or(false)
        });
        if h == r {
            // r_R's read completes: deliver its acks.
            c.world
                .deliver_matching(|e| e.to == reader_addr && matches!(e.msg, Msg::ReadAck { .. }));
        }
        c.world.advance_to(SimTime::from_ticks(10 + 10 * h as u64));
    }

    let r_last = read_return(&c, r - 1, 0);

    // --- prA: r_1's first read completes without B_{R+1}. ---------------
    let r1 = layout.reader(0);
    let b_r1 = in_blocks(&[r + 1]);
    // Acks already in transit from B_{R+2} (and none others for r1 yet).
    c.world.deliver_matching(|e| {
        e.to == r1
            && matches!(e.msg, Msg::ReadAck { .. })
            && layout
                .server_index(e.from)
                .map(|j| !b_r1.contains(&j))
                .unwrap_or(false)
    });
    // r1's read messages finally reach B_1..B_R.
    let rest = in_blocks(block_range(1, r).as_slice());
    c.world.deliver_matching(|e| {
        e.from == r1
            && matches!(e.msg, Msg::Read { .. })
            && layout
                .server_index(e.to)
                .map(|j| rest.contains(&j))
                .unwrap_or(false)
    });
    // Their replies reach r1 (still excluding B_{R+1}).
    c.world.deliver_matching(|e| {
        e.to == r1
            && matches!(e.msg, Msg::ReadAck { .. })
            && layout
                .server_index(e.from)
                .map(|j| !b_r1.contains(&j))
                .unwrap_or(false)
    });
    let r1_first = read_return(&c, 0, 0);
    c.world
        .advance_to(SimTime::from_ticks(10 + 10 * (r as u64 + 2)));

    // --- prC: r_1's second read, skipping B_{R+1} again. ----------------
    c.read_async(0);
    c.world.deliver_matching(|e| {
        e.from == r1
            && matches!(e.msg, Msg::Read { r_counter: 2, .. })
            && layout
                .server_index(e.to)
                .map(|j| !b_r1.contains(&j))
                .unwrap_or(false)
    });
    c.world
        .deliver_matching(|e| e.to == r1 && matches!(e.msg, Msg::ReadAck { r_counter: 2, .. }));
    let r1_second = read_return(&c, 0, 1);

    (
        c.snapshot(),
        Returns {
            r_last,
            r1_first,
            r1_second,
        },
    )
}

/// The value returned by the `nth` completed read of `reader` (0-based).
fn read_return(c: &Cluster<FastCrash>, reader: u32, nth: usize) -> RegValue {
    let addr = c.layout.reader(reader).index();
    c.snapshot()
        .reads()
        .filter(|op| op.proc == addr && op.is_complete())
        .nth(nth)
        .unwrap_or_else(|| panic!("read #{nth} of reader {reader} did not complete"))
        .returned
        .expect("complete reads carry values")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical instance: S = 5, t = 1, R = 3 (the smallest
    /// infeasible reader count for S/t = 5).
    fn canonical() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 1, 3).unwrap()
    }

    #[test]
    fn prc_violates_atomicity_canonically() {
        let out = run_crash_lb(canonical(), 0).unwrap();
        // On the canonical instance the whole chain survives to prC, as in
        // the paper's Figures 3 and 4.
        assert_eq!(out.violating_run, "prC");
        assert_eq!(out.r_last_return, RegValue::Val(1));
        assert_eq!(out.r1_first_return, RegValue::Bottom);
        assert_eq!(out.r1_second_return, RegValue::Bottom);
        assert!(
            matches!(out.violation, AtomicityViolation::NewOldInversion { .. }),
            "expected a new/old inversion, got {:?}",
            out.violation
        );
    }

    #[test]
    fn chain_catches_early_violations_in_skewed_geometries() {
        // S = 6, t = 2, R = 4: singleton blocks with t = 2 starve the
        // predicate of evidence before prC — an *intermediate* pr_i of the
        // proof chain already violates atomicity.
        let cfg = ClusterConfig::crash_stop(6, 2, 4).unwrap();
        let out = run_crash_lb(cfg, 0).unwrap();
        assert_ne!(out.violating_run, "prC");
        assert!(out.violating_run.starts_with("pr"));
    }

    #[test]
    fn prd_is_indistinguishable_for_r1() {
        // prB/prD: no write at all. r1 returns exactly what it returned in
        // prC — the indistinguishability the proof leans on.
        let out = run_crash_lb(canonical(), 0).unwrap();
        let (first, second) = run_crash_lb_without_write(canonical(), 0).unwrap();
        assert_eq!(out.r1_first_return, first);
        assert_eq!(out.r1_second_return, second);
    }

    #[test]
    fn construction_scales_to_larger_instances() {
        for (s, t, r) in [
            (6u32, 1u32, 4u32),
            (8, 2, 2),
            (10, 2, 3),
            (12, 3, 2),
            (6, 2, 4),
        ] {
            let cfg = ClusterConfig::crash_stop(s, t, r).unwrap();
            assert!(!cfg.fast_feasible(), "({s},{t},{r}) should be infeasible");
            let out = run_crash_lb(cfg, 1).unwrap_or_else(|e| panic!("({s},{t},{r}): {e}"));
            if out.violating_run == "prC" {
                assert_eq!(out.r_last_return, RegValue::Val(1), "({s},{t},{r})");
                assert_eq!(out.r1_second_return, RegValue::Bottom, "({s},{t},{r})");
            }
        }
    }

    #[test]
    fn feasible_configs_are_rejected() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        assert!(matches!(
            run_crash_lb(cfg, 0),
            Err(LbError::ConfigIsFeasible)
        ));
    }

    #[test]
    fn exactly_at_the_bound_is_infeasible() {
        // R = S/t − 2 exactly: the first infeasible point.
        let cfg = ClusterConfig::crash_stop(8, 2, 2).unwrap();
        assert!(!cfg.fast_feasible());
        let out = run_crash_lb(cfg, 0).unwrap();
        assert!(matches!(
            out.violation,
            AtomicityViolation::NewOldInversion { .. }
        ));
    }

    #[test]
    fn violation_is_deterministic_across_seeds() {
        for seed in 0..5 {
            let out = run_crash_lb(canonical(), seed).unwrap();
            assert!(matches!(
                out.violation,
                AtomicityViolation::NewOldInversion { .. }
            ));
        }
    }
}
