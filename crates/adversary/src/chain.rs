//! §5 and §6.2, executed: one chain of partial runs over one partition.
//!
//! The paper proves its arbitrary-failure bound (§6.2, Fig. 6) by
//! re-running the crash-stop proof (§5, Figs. 1, 3, 4) over the finer
//! [`Partition`] `T_1..T_{R+2}`, `B_1..B_{R+1}`, with `B_i` "losing its
//! memory"; with every `B_k` empty the schedule *is* §5's, step for step.
//! This module states that proof once, generic over the implementation it
//! runs against — Fig. 2 when `b = 0`, Fig. 5 otherwise — and
//! [`run_lower_bound`] returns the first run of the chain
//! `pr_1 … pr_R, prA, prC` that the §3.1 checker rejects.
//!
//! Every run is `prefix(i)` for some `i ∈ 1..=R+1`:
//!
//! * `write(1)` reaches `T_i..T_{R+1} ∪ B_i..B_{R+1}` and completes only
//!   for `i = 1` (otherwise its acks stay in transit);
//! * `r_1 … r_min(i, R)` read in turn. The read by `r_h` reaches
//!   - the T-blocks `T_1..T_{h−1} ∪ T_i..T_{R+2}` for `h < i`, and every
//!     T-block but `T_i` for `h = i`;
//!   - the B-blocks `B_1..B_h ∪ B_i..B_{R+1}`, always;
//!
//!   and only `r_{i−1}` and `r_i` receive their acks (complete);
//! * `B_i` is two-faced: it answers `r_i` (`r_1` when `i = R+1`, there
//!   being no `r_{R+1}`) as if the write had never arrived, everyone else
//!   honestly — hiding evidence, which no signature scheme prevents.
//!
//! `prefix(i)` for `i ≤ R` is the paper's `pr_i`, checked as is: a skewed
//! geometry can starve the predicate early and violate right there.
//! `prefix(R+1)` is the common start of `prA`/`prC` — `r_R` has returned
//! `1`, each earlier reader having left itself in the `seen` sets of
//! `T_{R+1}` — and the `endgame` extends it: in `prA`, `r_1`'s
//! long-delayed first read completes on the acks of every server outside
//! `T_{R+1}`, the only honest block that ever saw the write, so it returns
//! `⊥`; in `prC`, `r_1` reads again, skipping `T_{R+1}` again: `⊥`, strictly
//! after `r_R` returned `1` — a new/old inversion. Run without the write
//! ([`run_lower_bound_without_write`], the paper's `prB`/`prD`), `r_1`
//! returns the same two values: it cannot distinguish the runs, which is
//! the heart of the proof.

use std::collections::BTreeSet;

use fastreg::byz::TwoFacedLoseWrite;
use fastreg::config::ClusterConfig;
use fastreg::harness::{
    ByzCtx, Cluster, ClusterBuilder, FastByz, FastCrash, ProtocolFamily, RegisterOps,
};
use fastreg::layout::Layout;
use fastreg::protocols::registry::ProtocolId;
use fastreg::protocols::{fast_byz, fast_crash};
use fastreg::types::RegValue;
use fastreg_atomicity::history::History;
use fastreg_atomicity::swmr::{check_swmr_atomicity, AtomicityViolation};
use fastreg_simnet::automaton::Automaton;
use fastreg_simnet::id::ProcessId;
use fastreg_simnet::time::SimTime;

use crate::blocks::Partition;
use crate::LbError;

/// The result of executing the chain of partial runs.
#[derive(Debug)]
pub struct LbOutcome {
    /// The configuration driven into the violation.
    pub cfg: ClusterConfig,
    /// The implementation the chain ran against: Fig. 2
    /// ([`ProtocolId::FastCrash`]) when `b = 0`, Fig. 5
    /// ([`ProtocolId::FastByz`]) otherwise.
    pub protocol: ProtocolId,
    /// The block partition used.
    pub partition: Partition,
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

/// Executes the lower-bound construction against the fast implementation
/// of `cfg`'s failure model: §5 against Fig. 2 when `cfg.b = 0`, §6.2
/// against Fig. 5 otherwise.
///
/// The chain `pr_1 … pr_R, prA, prC` is materialized run by run (each in
/// a fresh world). For any fast implementation *some* member violates
/// atomicity once `S ≤ (R+2)·t + (R+1)·b`: either an intermediate `pr_i`
/// already exhibits a stale read, or the chain's returns survive to `prC`,
/// which then exhibits the new/old inversion. The first violating run is
/// returned.
///
/// # Errors
///
/// Returns [`LbError`] if the configuration does not satisfy the
/// hypotheses of Propositions 5 and 10 (`t ≥ 1`, `R ≥ 2`, infeasible,
/// partition exists).
///
/// # Panics
///
/// Panics if *no* run in the chain violates atomicity — that would
/// contradict the propositions and indicate a bug in the protocol code.
pub fn run_lower_bound(cfg: ClusterConfig, seed: u64) -> Result<LbOutcome, LbError> {
    if cfg.b == 0 {
        chain::<FastCrash>(cfg, seed)
    } else {
        chain::<FastByz>(cfg, seed)
    }
}

/// Executes the communication pattern of `prC` with no write invocation
/// at all — the paper's `prB`/`prD` — and returns what `r_1`'s two reads
/// returned, which must equal their returns in `prC` (`⊥`, `⊥`).
///
/// # Errors
///
/// Same preconditions as [`run_lower_bound`].
pub fn run_lower_bound_without_write(
    cfg: ClusterConfig,
    seed: u64,
) -> Result<(RegValue, RegValue), LbError> {
    let partition = Partition::of(&cfg)?;
    let history = if cfg.b == 0 {
        prc::<FastCrash>(cfg, &partition, seed, false)
    } else {
        prc::<FastByz>(cfg, &partition, seed, false)
    };
    let r1 = Layout::of(&cfg).reader(0).index();
    Ok((completed(&history, r1, 0), completed(&history, r1, 1)))
}

/// The four protocol messages the chain steers by.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Write,
    WriteAck,
    Read,
    ReadAck,
}

/// Everything the chain knows about the implementation under test.
pub(crate) trait Alphabet: ProtocolFamily {
    /// The kind and `r_counter` of a protocol message; `None` for the
    /// environment's invocations.
    fn kind(msg: &Self::Msg) -> Option<(Kind, u64)>;

    /// A server that answers `victim` as if the write had never arrived
    /// and everyone else honestly: the failure of a `B_k`. Fig. 2 has
    /// none, and needs none: every `B_k` of the crash partition is empty.
    fn memory_loser(
        _cfg: &ClusterConfig,
        _layout: Layout,
        _ctx: &mut Self::Ctx,
        _victim: ProcessId,
    ) -> Box<dyn Automaton<Msg = Self::Msg>> {
        unreachable!("only a non-empty B-block loses its memory")
    }
}

/// Fig. 2 and Fig. 5 name their four messages alike.
macro_rules! kind_of {
    ($protocol:ident) => {
        fn kind(msg: &$protocol::Msg) -> Option<(Kind, u64)> {
            use $protocol::Msg;
            match *msg {
                Msg::Write { r_counter, .. } => Some((Kind::Write, r_counter)),
                Msg::WriteAck { r_counter, .. } => Some((Kind::WriteAck, r_counter)),
                Msg::Read { r_counter, .. } => Some((Kind::Read, r_counter)),
                Msg::ReadAck { r_counter, .. } => Some((Kind::ReadAck, r_counter)),
                Msg::InvokeWrite { .. } | Msg::InvokeRead => None,
            }
        }
    };
}

impl Alphabet for FastCrash {
    kind_of!(fast_crash);
}

impl Alphabet for FastByz {
    kind_of!(fast_byz);

    fn memory_loser(
        cfg: &ClusterConfig,
        layout: Layout,
        ctx: &mut ByzCtx,
        victim: ProcessId,
    ) -> Box<dyn Automaton<Msg = fast_byz::Msg>> {
        let (verifier, key) = (ctx.verifier.clone(), ctx.writer_key);
        Box::new(TwoFacedLoseWrite::new(cfg, layout, verifier, key, victim))
    }
}

/// Delivers `client`'s in-transit `kind` traffic — the requests it sent
/// or the acks addressed to it (with this `r_counter`, if given) — with
/// the servers whose index `on` accepts.
pub(crate) fn exchange<P: Alphabet>(
    c: &mut Cluster<P>,
    client: ProcessId,
    kind: Kind,
    r_counter: Option<u64>,
    on: impl Fn(u32) -> bool,
) {
    let layout = c.layout;
    c.world.deliver_matching(|e| {
        let (sender, server) = match kind {
            Kind::Write | Kind::Read => (e.from, e.to),
            Kind::WriteAck | Kind::ReadAck => (e.to, e.from),
        };
        sender == client
            && layout.server_index(server).is_some_and(&on)
            && P::kind(&e.msg)
                .is_some_and(|(k, rc)| k == kind && r_counter.is_none_or(|want| want == rc))
    });
}

/// The servers of `T_k` for `k` in `ts` and of `B_k` for `k` in `bs`.
fn servers(
    partition: &Partition,
    ts: impl IntoIterator<Item = u32>,
    bs: impl IntoIterator<Item = u32>,
) -> BTreeSet<u32> {
    let ts = ts.into_iter().flat_map(|k| partition.t(k));
    let bs = bs.into_iter().flat_map(|k| partition.b(k));
    ts.chain(bs).copied().collect()
}

/// What the `nth` completed read of the client at address `proc`
/// returned, in a run whose script completes it.
fn completed(history: &History, proc: u32, nth: usize) -> RegValue {
    history
        .nth_completed_read(proc, nth)
        .unwrap_or_else(|| panic!("read #{nth} of the client at address {proc} did not complete"))
}

/// Materializes the run `prefix(i)` of the module header, `1 ≤ i ≤ R+1`.
/// With `with_write = false` the `write(1)` is omitted; everything else
/// is identical.
fn prefix<P: Alphabet>(
    cfg: ClusterConfig,
    partition: &Partition,
    seed: u64,
    i: u32,
    with_write: bool,
) -> Cluster<P> {
    let r = cfg.r;
    let victim = if i <= r { i - 1 } else { 0 };
    let mut c: Cluster<P> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed_with(|cfg, layout, index, ctx| {
            if partition.b(i).contains(&index) {
                P::memory_loser(cfg, layout, ctx, layout.reader(victim))
            } else {
                P::server(cfg, layout, index, ctx)
            }
        })
        .expect("the default runtime is simnet");
    let layout = c.layout;

    if with_write {
        c.write(1);
        let (writer, reach) = (layout.writer(0), servers(partition, i..=r + 1, i..=r + 1));
        exchange(&mut c, writer, Kind::Write, None, |j| reach.contains(&j));
        if i == 1 {
            // pr_1 extends the *complete* write: the writer returns.
            exchange(&mut c, writer, Kind::WriteAck, None, |_| true);
        }
    }
    c.world.advance_to(SimTime::from_ticks(10));

    for h in 1..=i.min(r) {
        let reader = layout.reader(h - 1);
        // r_i itself skips T_i alone; an earlier r_h skips T_h..T_{i−1}.
        let t_resume = if h < i { i } else { i + 1 };
        let reach = servers(
            partition,
            (1..h).chain(t_resume..=r + 2),
            (1..=h).chain(i..=r + 1),
        );
        c.read_async(h - 1);
        exchange(&mut c, reader, Kind::Read, None, |j| reach.contains(&j));
        if h + 1 >= i {
            // r_{i−1} and r_i are complete.
            exchange(&mut c, reader, Kind::ReadAck, None, |_| true);
        }
        c.world
            .advance_to(SimTime::from_ticks(10 + 10 * u64::from(h)));
    }
    c
}

/// Extends `prefix(R+1)` by `prA` and `prC`: from here on only `r_1`
/// takes steps, and it exchanges messages with every server outside
/// `T_{R+1}`.
fn endgame<P: Alphabet>(mut c: Cluster<P>, partition: &Partition) -> History {
    let r = c.cfg.r;
    let r1 = c.layout.reader(0);
    let connected = |j: u32| !partition.t(r + 1).contains(&j);

    // prA: r_1's first read completes — the acks long in transit, then
    // the read finally reaching the blocks it had skipped, then their acks.
    exchange(&mut c, r1, Kind::ReadAck, None, connected);
    exchange(&mut c, r1, Kind::Read, None, connected);
    exchange(&mut c, r1, Kind::ReadAck, None, connected);
    c.world
        .advance_to(SimTime::from_ticks(10 + 10 * (u64::from(r) + 2)));

    // prC: r_1's second read, strictly after r_R's.
    c.read_async(0);
    exchange(&mut c, r1, Kind::Read, Some(2), connected);
    exchange(&mut c, r1, Kind::ReadAck, Some(2), connected);
    c.snapshot()
}

/// The history of `prC` (of `prD`, when `with_write = false`).
fn prc<P: Alphabet>(
    cfg: ClusterConfig,
    partition: &Partition,
    seed: u64,
    with_write: bool,
) -> History {
    endgame(
        prefix::<P>(cfg, partition, seed, cfg.r + 1, with_write),
        partition,
    )
}

/// The chain against implementation `P`: `pr_1 … pr_R`, then `prC`.
fn chain<P: Alphabet>(cfg: ClusterConfig, seed: u64) -> Result<LbOutcome, LbError> {
    let partition = Partition::of(&cfg)?;
    let layout = Layout::of(&cfg);
    let (r1, r_last) = (layout.reader(0).index(), layout.reader(cfg.r - 1).index());
    let bottom = RegValue::Bottom;

    let early = (1..=cfg.r).find_map(|i| {
        let history = prefix::<P>(cfg, &partition, seed, i, true).snapshot();
        let violation = check_swmr_atomicity(&history).err()?;
        // r_1 has read at most once, and r_R's return is reported for prC.
        let r1_first = history.nth_completed_read(r1, 0).unwrap_or(bottom);
        Some((
            format!("pr{i}"),
            [bottom, r1_first, bottom],
            violation,
            history,
        ))
    });
    let (violating_run, returns, violation, history) = early.unwrap_or_else(|| {
        let history = prc::<P>(cfg, &partition, seed, true);
        let violation = check_swmr_atomicity(&history).expect_err(
            "the whole chain ran clean; prC must violate atomicity (Propositions 5 and 10)",
        );
        let returns = [(r_last, 0), (r1, 0), (r1, 1)];
        let returns = returns.map(|(proc, nth)| completed(&history, proc, nth));
        ("prC".to_string(), returns, violation, history)
    });
    let [r_last_return, r1_first_return, r1_second_return] = returns;
    Ok(LbOutcome {
        cfg,
        protocol: P::ID,
        partition,
        violating_run,
        r_last_return,
        r1_first_return,
        r1_second_return,
        violation,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical §5 instance: S = 5, t = 1, R = 3 (the smallest
    /// infeasible reader count for S/t = 5).
    fn crash_canonical() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 1, 3).unwrap()
    }

    /// The canonical §6.2 instance: S = 7 = 4t + 3b with t = b = 1,
    /// R = 2 — exactly at the infeasibility boundary.
    fn byz_canonical() -> ClusterConfig {
        ClusterConfig::byzantine(7, 1, 1, 2).unwrap()
    }

    fn is_inversion(v: &AtomicityViolation) -> bool {
        matches!(v, AtomicityViolation::NewOldInversion { .. })
    }

    /// On the canonical instances the whole chain survives to prC, as in
    /// the paper's Figures 3, 4 and 6.
    fn assert_inversion_in_prc(cfg: ClusterConfig) {
        let out = run_lower_bound(cfg, 0).unwrap();
        assert_eq!(out.violating_run, "prC");
        assert_eq!(out.r_last_return, RegValue::Val(1));
        assert_eq!(out.r1_first_return, RegValue::Bottom);
        assert_eq!(out.r1_second_return, RegValue::Bottom);
        assert!(
            is_inversion(&out.violation),
            "expected a new/old inversion, got {:?}",
            out.violation
        );
    }

    #[test]
    fn prc_violates_atomicity_canonically() {
        assert_inversion_in_prc(crash_canonical());
    }

    #[test]
    fn fig6_run_violates_atomicity() {
        assert_inversion_in_prc(byz_canonical());
    }

    #[test]
    fn the_model_follows_b() {
        // b = 0: the §5 partition (every B_k empty; spare servers to
        // T_{R+1}, T_{R+2}, then T_1) and Fig. 2.
        let out = run_lower_bound(ClusterConfig::byzantine(7, 2, 0, 2).unwrap(), 0).unwrap();
        assert_eq!(out.protocol, ProtocolId::FastCrash);
        let t_blocks = [vec![0, 1], vec![2], vec![3, 4], vec![5, 6]];
        assert_eq!(out.partition.t_blocks, t_blocks);
        assert_eq!(out.partition.b_blocks, vec![Vec::<u32>::new(); 3]);
        // b ≥ 1: the §6.2 partition (spare servers to T_{R+1}, B_{R+1},
        // then the other B_k before any other T_k) and Fig. 5.
        let out = run_lower_bound(ClusterConfig::byzantine(7, 2, 1, 2).unwrap(), 0).unwrap();
        assert_eq!(out.protocol, ProtocolId::FastByz);
        assert_eq!(
            out.partition.t_blocks,
            [vec![0], vec![1], vec![2, 3], vec![4]]
        );
        assert_eq!(out.partition.b_blocks, [vec![5], vec![], vec![6]]);
    }

    #[test]
    fn chain_catches_early_violations_in_skewed_geometries() {
        // S = 6, t = 2, R = 4: singleton blocks with t = 2 starve the
        // predicate of evidence before prC — an *intermediate* pr_i of the
        // proof chain already violates atomicity.
        let cfg = ClusterConfig::crash_stop(6, 2, 4).unwrap();
        let out = run_lower_bound(cfg, 0).unwrap();
        assert_ne!(out.violating_run, "prC");
        assert!(out.violating_run.starts_with("pr"));
    }

    #[test]
    fn prd_is_indistinguishable_for_r1() {
        // prB/prD: no write at all. r1 returns exactly what it returned in
        // prC — the indistinguishability the proof leans on.
        let out = run_lower_bound(crash_canonical(), 0).unwrap();
        let (first, second) = run_lower_bound_without_write(crash_canonical(), 0).unwrap();
        assert_eq!(out.r1_first_return, first);
        assert_eq!(out.r1_second_return, second);
    }

    #[test]
    fn r1_cannot_distinguish_prc_from_prd_in_either_model() {
        for (s, t, b, r) in [
            (8u32, 2u32, 0u32, 2u32),
            (12, 2, 0, 4),
            (7, 1, 1, 2),
            (9, 1, 1, 3),
        ] {
            let cfg = ClusterConfig::byzantine(s, t, b, r).unwrap();
            let out = run_lower_bound(cfg, 0).unwrap();
            assert_eq!(out.violating_run, "prC", "({s},{t},{b},{r})");
            let without = run_lower_bound_without_write(cfg, 0).unwrap();
            assert_eq!(
                (out.r1_first_return, out.r1_second_return),
                without,
                "({s},{t},{b},{r})"
            );
        }
    }

    #[test]
    fn the_endgame_extends_prefix_r_plus_1() {
        // The structural fact the one-driver design rests on: prC is
        // prefix(R+1) plus steps of r_1 alone. Op for op, the prefix's
        // history reappears in prC's; only r_1's pending read changed (it
        // completed), and the one new op is r_1's second read.
        fn check<P: Alphabet>(cfg: ClusterConfig) {
            let partition = Partition::of(&cfg).unwrap();
            let r1 = Layout::of(&cfg).reader(0).index();
            let before = prefix::<P>(cfg, &partition, 0, cfg.r + 1, true).snapshot();
            let after = prc::<P>(cfg, &partition, 0, true);
            assert_eq!(after.len(), before.len() + 1, "{cfg:?}");
            for (old, new) in before.ops().zip(after.ops()) {
                if old.proc == r1 {
                    assert!(!old.is_complete() && new.is_complete(), "{cfg:?}");
                    assert_eq!((old.id, old.invoked_at), (new.id, new.invoked_at));
                } else {
                    assert_eq!(old, new, "{cfg:?}");
                }
            }
            assert_eq!(after.ops().last().map(|op| op.proc), Some(r1), "{cfg:?}");
        }
        check::<FastCrash>(crash_canonical());
        check::<FastCrash>(ClusterConfig::crash_stop(8, 2, 2).unwrap());
        check::<FastByz>(byz_canonical());
        check::<FastByz>(ClusterConfig::byzantine(9, 1, 1, 3).unwrap());
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
            let out = run_lower_bound(cfg, 1).unwrap_or_else(|e| panic!("({s},{t},{r}): {e}"));
            if out.violating_run == "prC" {
                assert_eq!(out.r_last_return, RegValue::Val(1), "({s},{t},{r})");
                assert_eq!(out.r1_second_return, RegValue::Bottom, "({s},{t},{r})");
            }
        }
    }

    #[test]
    fn construction_scales() {
        for (s, t, b, r) in [(9u32, 1u32, 1u32, 3u32), (10, 2, 1, 2)] {
            let cfg = ClusterConfig::byzantine(s, t, b, r).unwrap();
            assert!(!cfg.fast_feasible(), "({s},{t},{b},{r})");
            let out = run_lower_bound(cfg, 1).unwrap_or_else(|e| panic!("({s},{t},{b},{r}): {e}"));
            if out.violating_run == "prC" {
                assert_eq!(out.r_last_return, RegValue::Val(1), "({s},{t},{b},{r})");
            }
        }
    }

    #[test]
    fn feasible_configs_are_rejected() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        assert!(matches!(
            run_lower_bound(cfg, 0),
            Err(LbError::ConfigIsFeasible)
        ));
    }

    #[test]
    fn feasible_byz_config_is_rejected() {
        let cfg = ClusterConfig::byzantine(8, 1, 1, 2).unwrap();
        assert!(cfg.fast_feasible());
        assert!(matches!(
            run_lower_bound(cfg, 0),
            Err(LbError::ConfigIsFeasible)
        ));
    }

    #[test]
    fn exactly_at_the_bound_is_infeasible() {
        // R = S/t − 2 exactly: the first infeasible point.
        let cfg = ClusterConfig::crash_stop(8, 2, 2).unwrap();
        assert!(!cfg.fast_feasible());
        let out = run_lower_bound(cfg, 0).unwrap();
        assert!(is_inversion(&out.violation));
    }

    #[test]
    fn violation_is_deterministic_across_seeds() {
        for seed in 0..5 {
            let out = run_lower_bound(crash_canonical(), seed).unwrap();
            assert!(is_inversion(&out.violation));
        }
    }

    #[test]
    fn deterministic_across_seeds() {
        for seed in 0..3 {
            let out = run_lower_bound(byz_canonical(), seed).unwrap();
            assert!(is_inversion(&out.violation));
        }
    }
}
