//! §6.2, executed: the arbitrary-failure lower-bound construction (Fig. 6).
//!
//! Given an infeasible Byzantine configuration
//! (`(R + 2)·t + (R + 1)·b ≥ S`, `b ≥ 1`), this module materializes the
//! proof's final partial run against the real Fig. 5 implementation. The
//! structure mirrors the crash construction with two twists:
//!
//! * the partition is `T_1..T_{R+2}` (size ≤ t) plus `B_1..B_{R+1}`
//!   (size ≤ b);
//! * block `B_{R+1}` is **two-faced**: upon receiving the write it keeps
//!   answering everyone honestly *except* `r_1`, whom it answers as if the
//!   write never arrived ("loses its memory") — the signed-timestamp
//!   analogue of simply hiding evidence, which no signature scheme can
//!   prevent.
//!
//! `r_R` still ends up returning `1` (the honest faces plus `T_{R+1}`
//! supply the predicate's evidence), while `r_1` — cut off from `T_{R+1}`
//! and lied to by `B_{R+1}` — returns `⊥` twice, the second time strictly
//! after `r_R` finished. New/old inversion again.

use std::collections::BTreeSet;

use fastreg::byz::TwoFacedLoseWrite;
use fastreg::config::ClusterConfig;
use fastreg::harness::{ByzCtx, Cluster, ClusterBuilder, FastByz, ProtocolFamily, RegisterOps};
use fastreg::protocols::fast_byz::Msg;
use fastreg::types::RegValue;
use fastreg_atomicity::history::History;
use fastreg_atomicity::swmr::{check_swmr_atomicity, AtomicityViolation};
use fastreg_simnet::runner::SimConfig;
use fastreg_simnet::time::SimTime;

use crate::blocks::{byz_blocks, ByzBlockPlan};
use crate::LbError;

/// The result of executing the Fig. 6 construction.
#[derive(Debug)]
pub struct ByzLbOutcome {
    /// The configuration driven into the violation.
    pub cfg: ClusterConfig,
    /// The partition used.
    pub plan: ByzBlockPlan,
    /// Which partial run of the chain violated first (`"pr1"`…`"prR"` or
    /// `"prC"`).
    pub violating_run: String,
    /// What `r_R` returned in `prC` (`1`, when the chain reached `prC`).
    pub r_last_return: RegValue,
    /// What `r_1`'s first read returned in the violating run.
    pub r1_first_return: RegValue,
    /// What `r_1`'s second read returned in `prC` (`⊥`, when reached).
    pub r1_second_return: RegValue,
    /// The checker's verdict — always a violation.
    pub violation: AtomicityViolation,
    /// The recorded history.
    pub history: History,
}

/// Executes the §6.2 construction against the Fig. 5 implementation.
///
/// Like the crash construction, the chain `pr_1 … pr_R, prA, prC` of
/// Fig. 6 is materialized run by run; in each `pr_i`, block `B_i` fails by
/// memory loss towards the currently reading client. The first violating
/// run is returned (usually `prC`; skewed geometries can fail earlier).
///
/// # Errors
///
/// Returns [`LbError`] if the configuration does not satisfy Proposition
/// 10's hypotheses (`t ≥ 1`, `b ≥ 1`, `R ≥ 2`, infeasible, partition
/// exists).
///
/// # Panics
///
/// Panics if no run of the chain violates atomicity — that would
/// contradict Proposition 10.
pub fn run_byz_lb(cfg: ClusterConfig, seed: u64) -> Result<ByzLbOutcome, LbError> {
    let plan = byz_blocks(&cfg)?;

    for i in 1..=cfg.r {
        let history = drive_byz_pr_i(cfg, &plan, seed, i);
        if let Err(violation) = check_swmr_atomicity(&history) {
            let r1_addr = fastreg::layout::Layout::of(&cfg).reader(0).index();
            let r1_first = history
                .reads()
                .find(|op| op.proc == r1_addr && op.is_complete())
                .and_then(|op| op.returned)
                .unwrap_or(RegValue::Bottom);
            return Ok(ByzLbOutcome {
                cfg,
                plan,
                violating_run: format!("pr{i}"),
                r_last_return: RegValue::Bottom,
                r1_first_return: r1_first,
                r1_second_return: RegValue::Bottom,
                violation,
                history,
            });
        }
    }

    drive_byz_prc(cfg, plan, seed)
}

/// Materializes the Fig. 6 `pr_i`: write `wr_i` delivered to
/// `T_i..T_{R+1} ∪ B_i..B_{R+1}` (completed for `i = 1`), incomplete
/// reads `r_1..r_{i−2}`, a complete read by `r_{i−1}` skipping `T_{i−1}`,
/// block `B_i` losing its memory towards `r_i`, and a complete read by
/// `r_i` skipping `T_i`.
fn drive_byz_pr_i(cfg: ClusterConfig, plan: &ByzBlockPlan, seed: u64, i: u32) -> History {
    let r = cfg.r;
    let faulty_block: BTreeSet<u32> = plan.b(i).iter().copied().collect();
    let mut c: Cluster<FastByz> = ClusterBuilder::new(cfg)
        .sim(SimConfig::default().with_seed(seed))
        .build_typed_with(|cfg, layout, index, ctx: &mut ByzCtx| {
            if faulty_block.contains(&index) {
                Box::new(TwoFacedLoseWrite::new(
                    cfg,
                    layout,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                    layout.reader(i - 1),
                ))
            } else {
                FastByz::server(cfg, layout, index, ctx)
            }
        })
        .expect("the default runtime is simnet");
    let layout = c.layout;
    let t_set = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.t(k).iter().copied()).collect()
    };
    let b_set = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.b(k).iter().copied()).collect()
    };
    let union =
        |a: BTreeSet<u32>, b: BTreeSet<u32>| -> BTreeSet<u32> { a.into_iter().chain(b).collect() };

    // Write delivered to T_i..T_{R+1} ∪ B_i..B_{R+1}.
    c.write(1);
    let write_targets = union(
        t_set(&(i..=r + 1).collect::<Vec<_>>()),
        b_set(&(i..=r + 1).collect::<Vec<_>>()),
    );
    c.world.deliver_matching(|e| {
        matches!(e.msg, Msg::Write { .. })
            && layout
                .server_index(e.to)
                .map(|j| write_targets.contains(&j))
                .unwrap_or(false)
    });
    if i == 1 {
        c.world.deliver_matching(|e| {
            e.to == layout.writer(0) && matches!(e.msg, Msg::WriteAck { .. })
        });
    }
    c.world.advance_to(SimTime::from_ticks(10));

    // Reads r_1 .. r_i.
    for h in 1..=i {
        let reader_addr = layout.reader(h - 1);
        let targets: BTreeSet<u32> = if h + 1 < i {
            // Incomplete: skips {T_h..T_{i−1}} ∪ {B_{h+1}..B_{i−1}}.
            let tks: Vec<u32> = (1..h).chain(i..=r + 2).collect();
            let bks: Vec<u32> = (1..=h).chain(i..=r + 1).collect();
            union(t_set(&tks), b_set(&bks))
        } else {
            // r_{i−1} skips T_{i−1}; r_i skips T_i.
            let skip = if h + 1 == i { i - 1 } else { i };
            let tks: Vec<u32> = (1..=r + 2).filter(|&k| k != skip).collect();
            let bks: Vec<u32> = (1..=r + 1).collect();
            union(t_set(&tks), b_set(&bks))
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
            c.world
                .deliver_matching(|e| e.to == reader_addr && matches!(e.msg, Msg::ReadAck { .. }));
        }
        c.world.advance_to(SimTime::from_ticks(10 + 10 * h as u64));
    }

    c.snapshot()
}

/// Materializes `prA`/`prC` (the original Fig. 6 endgame).
fn drive_byz_prc(
    cfg: ClusterConfig,
    plan: ByzBlockPlan,
    seed: u64,
) -> Result<ByzLbOutcome, LbError> {
    let r = cfg.r;

    // Servers in B_{R+1} are two-faced towards r1.
    let liar_block: BTreeSet<u32> = plan.b(r + 1).iter().copied().collect();
    let mut c: Cluster<FastByz> = ClusterBuilder::new(cfg)
        .sim(SimConfig::default().with_seed(seed))
        .build_typed_with(|cfg, layout, index, ctx: &mut ByzCtx| {
            if liar_block.contains(&index) {
                Box::new(TwoFacedLoseWrite::new(
                    cfg,
                    layout,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                    layout.reader(0),
                ))
            } else {
                FastByz::server(cfg, layout, index, ctx)
            }
        })
        .expect("the default runtime is simnet");
    let layout = c.layout;

    let t_set = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.t(k).iter().copied()).collect()
    };
    let b_set = |ks: &[u32]| -> BTreeSet<u32> {
        ks.iter().flat_map(|&k| plan.b(k).iter().copied()).collect()
    };
    let union =
        |a: BTreeSet<u32>, b: BTreeSet<u32>| -> BTreeSet<u32> { a.into_iter().chain(b).collect() };

    // --- wr_{R+1}: write(1) reaches only T_{R+1} ∪ B_{R+1}. -------------
    c.write(1);
    let write_targets = union(t_set(&[r + 1]), b_set(&[r + 1]));
    c.world.deliver_matching(|e| {
        matches!(e.msg, Msg::Write { .. })
            && layout
                .server_index(e.to)
                .map(|j| write_targets.contains(&j))
                .unwrap_or(false)
    });
    c.world.advance_to(SimTime::from_ticks(10));

    // --- Reads r_1 .. r_R. ----------------------------------------------
    for h in 1..=r {
        let reader_addr = layout.reader(h - 1);
        let targets: BTreeSet<u32> = if h < r {
            // Skips {T_h..T_R} ∪ {B_{h+1}..B_R}: delivered to
            // T_1..T_{h−1}, T_{R+1}, T_{R+2}, B_1..B_h, B_{R+1}.
            let mut tks: Vec<u32> = (1..h).collect();
            tks.push(r + 1);
            tks.push(r + 2);
            let bks: Vec<u32> = (1..=h).chain(std::iter::once(r + 1)).collect();
            union(t_set(&tks), b_set(&bks))
        } else {
            // r_R skips T_R only.
            let tks: Vec<u32> = (1..=r + 2).filter(|&k| k != r).collect();
            let bks: Vec<u32> = (1..=r + 1).collect();
            union(t_set(&tks), b_set(&bks))
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
        if h == r {
            c.world
                .deliver_matching(|e| e.to == reader_addr && matches!(e.msg, Msg::ReadAck { .. }));
        }
        c.world.advance_to(SimTime::from_ticks(10 + 10 * h as u64));
    }

    let r_last_return = read_return(&c, r - 1, 0);

    // --- prA: r_1 completes without T_{R+1}. -----------------------------
    let r1 = layout.reader(0);
    let t_r1 = t_set(&[r + 1]);
    c.world.deliver_matching(|e| {
        e.to == r1
            && matches!(e.msg, Msg::ReadAck { .. })
            && layout
                .server_index(e.from)
                .map(|j| !t_r1.contains(&j))
                .unwrap_or(false)
    });
    // r1's read messages finally reach the remaining blocks.
    let late: BTreeSet<u32> = union(
        t_set(&(1..=r).collect::<Vec<_>>()),
        b_set(&(2..=r).collect::<Vec<_>>()),
    );
    c.world.deliver_matching(|e| {
        e.from == r1
            && matches!(e.msg, Msg::Read { .. })
            && layout
                .server_index(e.to)
                .map(|j| late.contains(&j))
                .unwrap_or(false)
    });
    c.world.deliver_matching(|e| {
        e.to == r1
            && matches!(e.msg, Msg::ReadAck { .. })
            && layout
                .server_index(e.from)
                .map(|j| !t_r1.contains(&j))
                .unwrap_or(false)
    });
    let r1_first_return = read_return(&c, 0, 0);
    c.world
        .advance_to(SimTime::from_ticks(10 + 10 * (r as u64 + 2)));

    // --- prC: r_1's second read, skipping T_{R+1}. -----------------------
    c.read_async(0);
    c.world.deliver_matching(|e| {
        e.from == r1
            && matches!(e.msg, Msg::Read { r_counter: 2, .. })
            && layout
                .server_index(e.to)
                .map(|j| !t_r1.contains(&j))
                .unwrap_or(false)
    });
    c.world
        .deliver_matching(|e| e.to == r1 && matches!(e.msg, Msg::ReadAck { r_counter: 2, .. }));
    let r1_second_return = read_return(&c, 0, 1);

    let history = c.snapshot();
    let violation = check_swmr_atomicity(&history)
        .expect_err("the Fig. 6 run must violate atomicity (Proposition 10)");

    Ok(ByzLbOutcome {
        cfg,
        plan,
        violating_run: "prC".to_string(),
        r_last_return,
        r1_first_return,
        r1_second_return,
        violation,
        history,
    })
}

fn read_return(c: &Cluster<FastByz>, reader: u32, nth: usize) -> RegValue {
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

    /// Canonical instance: S = 7 = 4t + 3b with t = b = 1, R = 2 — exactly
    /// at the infeasibility boundary.
    fn canonical() -> ClusterConfig {
        ClusterConfig::byzantine(7, 1, 1, 2).unwrap()
    }

    #[test]
    fn fig6_run_violates_atomicity() {
        let out = run_byz_lb(canonical(), 0).unwrap();
        assert_eq!(out.violating_run, "prC");
        assert_eq!(out.r_last_return, RegValue::Val(1));
        assert_eq!(out.r1_first_return, RegValue::Bottom);
        assert_eq!(out.r1_second_return, RegValue::Bottom);
        assert!(matches!(
            out.violation,
            AtomicityViolation::NewOldInversion { .. }
        ));
    }

    #[test]
    fn feasible_byz_config_is_rejected() {
        let cfg = ClusterConfig::byzantine(8, 1, 1, 2).unwrap();
        assert!(cfg.fast_feasible());
        assert!(matches!(run_byz_lb(cfg, 0), Err(LbError::ConfigIsFeasible)));
    }

    #[test]
    fn crash_only_config_is_redirected() {
        let cfg = ClusterConfig::byzantine(5, 1, 0, 3).unwrap();
        assert!(matches!(run_byz_lb(cfg, 0), Err(LbError::NeedByzantine)));
    }

    #[test]
    fn construction_scales() {
        for (s, t, b, r) in [(9u32, 1u32, 1u32, 3u32), (10, 2, 1, 2)] {
            let cfg = ClusterConfig::byzantine(s, t, b, r).unwrap();
            if cfg.fast_feasible() {
                continue;
            }
            let out = run_byz_lb(cfg, 1).unwrap_or_else(|e| panic!("({s},{t},{b},{r}): {e}"));
            if out.violating_run == "prC" {
                assert_eq!(out.r_last_return, RegValue::Val(1), "({s},{t},{b},{r})");
            }
        }
    }

    #[test]
    fn deterministic_across_seeds() {
        for seed in 0..3 {
            let out = run_byz_lb(canonical(), seed).unwrap();
            assert!(matches!(
                out.violation,
                AtomicityViolation::NewOldInversion { .. }
            ));
        }
    }
}
