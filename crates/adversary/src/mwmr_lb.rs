//! §7, executed: no fast multi-writer atomic register (Fig. 7).
//!
//! Proposition 11 shows that with `W = R = 2` and a single crash-faulty
//! server, *any* implementation has a run where some complete operation is
//! not fast. The proof interpolates between `run¹` (skip-free
//! `write(2); write(1); read → 1`) and `run²` (writes swapped, read → 2)
//! through runs `run^i` that flip the per-server receipt order one server
//! at a time, locating a switching index whose neighbourhood yields a
//! two-reader disagreement (`run′`/`run″`).
//!
//! Executing this against a *correct but fast* protocol requires one to
//! exist — it does not. What we can execute is the refutation of the
//! natural candidate: [`mwmr::naive_fast`], the one-round protocol with
//! writer-local sequence numbers. This module drives it through:
//!
//! * the sequential `run¹` pattern, where property P1 ("a read after all
//!   writes returns the last write") already fails — the second writer's
//!   locally-generated timestamp cannot know it must exceed the first
//!   writer's, so the read returns the *first* writer's value;
//! * the full `run^1..run^{S+1}` interpolation chain, recording the read's
//!   return in each — with a one-round write the return never switches,
//!   which is exactly why the chain argument corners every fast protocol;
//! * the same sequential pattern against the two-round [`mwmr::abd`]
//!   baseline, which returns the right value (and is not fast — its write
//!   takes two round-trips), closing the loop on the theorem.
//!
//! [`mwmr::naive_fast`]: fastreg::protocols::mwmr::naive_fast
//! [`mwmr::abd`]: fastreg::protocols::mwmr::abd

use fastreg::config::ClusterConfig;
use fastreg::harness::{
    Cluster, ClusterBuilder, MwmrAbd, MwmrNaiveFast, ProtocolFamily, RegisterOps,
};
use fastreg::protocols::mwmr::naive_fast;
use fastreg::types::RegValue;
use fastreg_atomicity::history::History;
use fastreg_atomicity::linearizability::check_linearizable;
use fastreg_simnet::time::SimTime;

use crate::LbError;

/// The result of executing the §7 refutation.
#[derive(Debug)]
pub struct MwmrLbOutcome {
    /// The configuration used (`W = R = 2`, `t = 1`).
    pub cfg: ClusterConfig,
    /// What the naive fast protocol's read returned after sequential
    /// `write(2)` by `w2` then `write(1)` by `w1` (P1 demands `1`).
    pub sequential_return: RegValue,
    /// What P1 demands: the last written value.
    pub expected_return: RegValue,
    /// Whether the naive history was linearizable (always `false`).
    pub linearizable: bool,
    /// `r1`'s return in each interpolated run `run^1..run^{S+1}` where the
    /// two writes are concurrent and server `s_j` receives `w1` before
    /// `w2` iff `j < i`. A correct implementation would have to switch
    /// from `1` to `2` somewhere; the one-round protocol never switches.
    pub chain_returns: Vec<RegValue>,
    /// The control: the two-round MWMR ABD baseline on the same sequential
    /// pattern (returns `1`, linearizable — but its operations take two
    /// round-trips).
    pub abd_sequential_return: RegValue,
    /// The violating naive history.
    pub history: History,
}

/// Maps a quiescence failure to the construction's typed verdict:
/// livelock is a result the caller sees, not a panic.
fn settled(r: Result<u64, fastreg_simnet::world::QuiescenceError>) -> Result<u64, LbError> {
    r.map_err(|e| LbError::DidNotQuiesce {
        steps: e.steps,
        in_transit: e.in_transit,
    })
}

/// `r1`'s first read, run to quiescence: what it returned.
fn first_read<P: ProtocolFamily>(c: &mut Cluster<P>) -> Result<RegValue, LbError> {
    c.read_async(0);
    settled(c.try_settle())?;
    let r1 = c.layout.reader(0).index();
    Ok(c.snapshot()
        .nth_completed_read(r1, 0)
        .expect("a skip-free read completes before the world quiesces"))
}

/// Executes the §7 refutation with `S` servers (`t = 1`, `W = R = 2`).
///
/// # Errors
///
/// Returns [`LbError::NoPartition`] if `S < 2` (with `t = 1` a single
/// server cannot even form a quorum system worth refuting), or
/// [`LbError::DidNotQuiesce`] if a protocol under test livelocks.
pub fn run_mwmr_lb(s: u32, seed: u64) -> Result<MwmrLbOutcome, LbError> {
    if s < 2 {
        return Err(LbError::NoPartition);
    }
    let cfg = ClusterConfig::mwmr(s, 1, 2, 2).expect("valid MWMR config");

    // --- Sequential run¹ against the naive fast protocol. ----------------
    let mut c: Cluster<MwmrNaiveFast> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed()
        .expect("the default runtime is simnet");
    c.write_by(1, 2); // w2 writes 2 …
    settled(c.try_settle())?;
    c.world.advance_to(SimTime::from_ticks(100));
    c.write_by(0, 1); // … then w1 writes 1 …
    settled(c.try_settle())?;
    c.world.advance_to(SimTime::from_ticks(200));
    let sequential_return = first_read(&mut c)?; // … then r1 reads.
    let history = c.snapshot();
    let linearizable = check_linearizable(&history).unwrap_or(false);

    // --- Control: the two-round ABD MWMR baseline. -----------------------
    let mut control: Cluster<MwmrAbd> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed()
        .expect("the default runtime is simnet");
    control.write_by(1, 2);
    settled(control.try_settle())?;
    control.write_by(0, 1);
    settled(control.try_settle())?;
    let abd_sequential_return = first_read(&mut control)?;
    assert_eq!(
        control.check_linearizable(),
        Ok(true),
        "the ABD MWMR baseline must linearize the sequential pattern"
    );

    // --- The interpolation chain run^1..run^{S+1}. ------------------------
    let mut chain_returns = Vec::with_capacity(s as usize + 1);
    for i in 0..=s {
        chain_returns.push(chain_run(cfg, seed, i)?);
    }

    Ok(MwmrLbOutcome {
        cfg,
        sequential_return,
        expected_return: RegValue::Val(1),
        linearizable,
        chain_returns,
        abd_sequential_return,
        history,
    })
}

/// One interpolated run: both writes concurrent; server `s_j` receives
/// `w1`'s store before `w2`'s iff `j < flip`; then `r1` reads skip-free.
/// Returns the read's value.
fn chain_run(cfg: ClusterConfig, seed: u64, flip: u32) -> Result<RegValue, LbError> {
    let mut c: Cluster<MwmrNaiveFast> = ClusterBuilder::new(cfg)
        .seed(seed)
        .build_typed()
        .expect("the default runtime is simnet");
    let layout = c.layout;
    let w1 = layout.writer(0);
    let w2 = layout.writer(1);
    c.write_by(0, 1);
    c.write_by(1, 2);
    for j in 0..cfg.s {
        let server = layout.server(j);
        let (first, second) = if j < flip { (w1, w2) } else { (w2, w1) };
        c.world.deliver_matching(|e| {
            e.from == first && e.to == server && matches!(e.msg, naive_fast::Msg::Store { .. })
        });
        c.world.deliver_matching(|e| {
            e.from == second && e.to == server && matches!(e.msg, naive_fast::Msg::Store { .. })
        });
    }
    // Writers complete.
    c.world
        .deliver_matching(|e| matches!(e.msg, naive_fast::Msg::StoreAck { .. }));
    c.world.advance_to(SimTime::from_ticks(100));
    first_read(&mut c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_fast_mwmr_violates_p1() {
        let out = run_mwmr_lb(4, 0).unwrap();
        // The read must return the value of the last write (1) but the
        // one-round protocol returns 2: writer-local timestamps cannot
        // order writes across writers.
        assert_eq!(out.expected_return, RegValue::Val(1));
        assert_ne!(out.sequential_return, out.expected_return);
        assert!(!out.linearizable);
    }

    #[test]
    fn abd_control_is_correct_but_slow() {
        let out = run_mwmr_lb(4, 0).unwrap();
        assert_eq!(out.abd_sequential_return, RegValue::Val(1));
    }

    #[test]
    fn chain_never_switches_for_one_round_writes() {
        let out = run_mwmr_lb(5, 0).unwrap();
        assert_eq!(out.chain_returns.len(), 6);
        // The read's return is independent of per-server receipt order —
        // the protocol cannot express the switch the proof requires.
        assert!(out.chain_returns.iter().all(|&v| v == out.chain_returns[0]));
    }

    #[test]
    fn works_across_cluster_sizes() {
        for s in [2u32, 3, 5, 7] {
            let out = run_mwmr_lb(s, 1).unwrap();
            assert!(!out.linearizable, "S = {s}");
        }
    }

    #[test]
    fn tiny_clusters_are_rejected() {
        assert!(matches!(run_mwmr_lb(1, 0), Err(LbError::NoPartition)));
    }
}
