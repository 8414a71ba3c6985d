//! Bounded-exhaustive schedule exploration (the `∀`-schedules direction).
//!
//! The randomized engine ([`crate::explore::engine`]) samples cells of a
//! seed × protocol × fault-distribution grid; this module *enumerates*
//! interleavings instead. For a small cluster and a fixed set of
//! concurrently invoked operations, it walks the tree of all delivery
//! orders (each tree node = choice of which in-transit message is
//! delivered next, each delivery at a fresh tick so precedence is sharp)
//! and grades every complete schedule's history against the protocol's
//! contract with the same online checker as the randomized engine.
//!
//! On feasible configurations this is a machine-checked ∀-schedules
//! statement up to the budget — the strongest evidence short of a proof
//! that the Fig. 2 protocol is safe. The state space grows factorially,
//! so the explorer is budgeted and reports truncation honestly.

use fastreg::config::ClusterConfig;
use fastreg::harness::{Cluster, ClusterBuilder, FastCrash, RegisterOps};
use fastreg_simnet::envelope::MsgId;
use fastreg_simnet::time::SimTime;

/// The operations injected (all concurrently, at time zero) before
/// exploration begins.
#[derive(Clone, Debug)]
pub struct OpScript {
    /// Values written by the writer, back to back (each write is issued
    /// when the previous completes — writers are sequential).
    pub writes: Vec<u64>,
    /// Which readers issue one read each, by index.
    pub readers: Vec<u32>,
}

impl OpScript {
    /// One write concurrent with one read per listed reader — the
    /// smallest script that can exhibit ordering anomalies.
    pub fn write_vs_reads(value: u64, readers: impl IntoIterator<Item = u32>) -> Self {
        OpScript {
            writes: vec![value],
            readers: readers.into_iter().collect(),
        }
    }
}

/// What the exploration found.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Complete schedules checked.
    pub schedules: u64,
    /// `true` if the budget ran out before the tree was exhausted.
    pub truncated: bool,
    /// The first violating schedule, if any: the delivery-choice path and
    /// the rendered history.
    pub violation: Option<(Vec<usize>, String)>,
}

impl ExploreOutcome {
    /// Returns `true` if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively explores delivery orders of `script` on the Fig. 2
/// protocol over `cfg`, checking at most `budget` complete schedules.
///
/// Exploration is depth-first with prefix replay (worlds are not
/// clonable); each delivery advances the clock by one tick so that the
/// checker sees sharp precedence. A schedule is complete when no message
/// is in transit.
pub fn explore_fast_crash(cfg: ClusterConfig, script: &OpScript, budget: u64) -> ExploreOutcome {
    let mut schedules = 0u64;
    let mut truncated = false;
    let mut violation = None;

    // DFS over choice paths. Each stack entry is a path of indices into
    // the sorted pending-message list at each step.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(path) = stack.pop() {
        if schedules >= budget {
            truncated = true;
            break;
        }
        let (cluster, pending) = replay(cfg, script, &path);
        if pending.is_empty() {
            schedules += 1;
            let verdict = cluster.contract_verdict(cluster.contract());
            if !verdict.is_clean() {
                violation = Some((path, format!("{verdict}\n{}", cluster.snapshot().render())));
                break;
            }
            continue;
        }
        // Push children rotated by a deterministic hash of the path, so a
        // truncated exploration still samples structurally diverse
        // schedules instead of one lexicographic corner of the tree.
        let n = pending.len();
        let rot = (path_hash(&path) as usize) % n;
        for k in (0..n).rev() {
            let i = (k + rot) % n;
            let mut child = path.clone();
            child.push(i);
            stack.push(child);
        }
    }

    ExploreOutcome {
        schedules,
        truncated,
        violation,
    }
}

/// Deterministic 64-bit hash of a choice path (SplitMix64 over the
/// elements).
fn path_hash(path: &[usize]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &c in path {
        h ^= c as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// Replays a choice path from scratch; returns the cluster and the sorted
/// deliverable message ids at the end of the path.
fn replay(
    cfg: ClusterConfig,
    script: &OpScript,
    path: &[usize],
) -> (Cluster<FastCrash>, Vec<MsgId>) {
    let mut c: Cluster<FastCrash> = ClusterBuilder::new(cfg)
        .seed(0)
        .build_typed()
        .expect("the default runtime is simnet");
    let mut writes = script.writes.iter();
    if let Some(&v) = writes.next() {
        c.write(v);
    }
    for &r in &script.readers {
        c.read_async(r);
    }
    for &choice in path {
        let pending = deliverable(&c);
        let id = pending[choice];
        let next_tick = c.world.now().ticks() + 1;
        c.world.advance_to(SimTime::from_ticks(next_tick));
        c.world.deliver(id).expect("replay choice is deliverable");
        // Issue the next write as soon as the writer is idle (sequential
        // writer, concurrent with everything else).
        if !c.client_busy(c.layout.writer(0).index()) {
            if let Some(&v) = writes.next() {
                c.write(v);
            }
        }
    }
    let pending = deliverable(&c);
    (c, pending)
}

fn deliverable(c: &Cluster<FastCrash>) -> Vec<MsgId> {
    c.world.pending_ids_matching(|_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_feasible_cluster_is_clean_within_budget() {
        // S = 4, t = 1, R = 1: one write vs one read. Even this tree is
        // factorially large (16 messages), so exploration is budgeted; the
        // DFS order still covers structurally diverse prefixes.
        let cfg = ClusterConfig::crash_stop(4, 1, 1).unwrap();
        assert!(cfg.fast_feasible());
        let out = explore_fast_crash(cfg, &OpScript::write_vs_reads(1, [0]), 2_500);
        assert!(out.is_clean(), "violation: {:?}", out.violation);
        assert_eq!(out.schedules, 2_500);
        assert!(out.truncated);
    }

    #[test]
    fn feasible_two_reader_cluster_is_clean_within_budget() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let out = explore_fast_crash(cfg, &OpScript::write_vs_reads(1, [0, 1]), 3_000);
        assert!(out.is_clean(), "violation: {:?}", out.violation);
        assert_eq!(out.schedules, 3_000);
        assert!(out.truncated);
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ClusterConfig::crash_stop(4, 1, 1).unwrap();
        let script = OpScript::write_vs_reads(1, [0]);
        let a = explore_fast_crash(cfg, &script, 500);
        let b = explore_fast_crash(cfg, &script, 500);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.is_clean(), b.is_clean());
    }

    #[test]
    fn two_sequential_writes_explore_cleanly() {
        let cfg = ClusterConfig::crash_stop(4, 1, 1).unwrap();
        let script = OpScript {
            writes: vec![1, 2],
            readers: vec![0],
        };
        let out = explore_fast_crash(cfg, &script, 2_000);
        assert!(out.is_clean(), "violation: {:?}", out.violation);
        assert!(out.schedules > 0);
    }
}
