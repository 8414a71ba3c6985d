//! The block partition of the lower-bound chain.
//!
//! §6.2 partitions the servers into `T_1..T_{R+2}` (size ≤ `t`) and
//! `B_1..B_{R+1}` (size ≤ `b`); §5 is the same partition with every `B_k`
//! empty (its "`B_k`" are the `T_k` here). The partition exists exactly in
//! the infeasible regime — that existence *is* the feasibility frontier.
//!
//! The two models share the shape and the hand-out loop but not the
//! *order* in which spare servers are handed out, and the order is
//! observable: it decides which run of the chain violates first in skewed
//! geometries (E3, E5, E8 pin it). `crash_blocks` and `byz_blocks`
//! therefore stay two functions, each stating its own order; both give the
//! "surviving" blocks (`T_{R+1}`, `B_{R+1}`) their extra servers first,
//! where the predicate arithmetic is most comfortable.

use fastreg::config::ClusterConfig;

use crate::LbError;

/// The partition `T_1..T_{R+2}`, `B_1..B_{R+1}` of the server indices
/// `0..S`, cut consecutively in that order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `t_blocks[k − 1]` = the paper's `T_k`: non-empty, size ≤ `t`.
    pub t_blocks: Vec<Vec<u32>>,
    /// `b_blocks[k − 1]` = the paper's `B_k`: size ≤ `b`, so all empty in
    /// the crash-stop model; `B_{R+1}` is non-empty whenever `b ≥ 1`.
    pub b_blocks: Vec<Vec<u32>>,
}

impl Partition {
    /// Builds the partition for an infeasible configuration, sized the
    /// §5 way when `cfg.b = 0` and the §6.2 way otherwise.
    ///
    /// # Errors
    ///
    /// * [`LbError::NeedFaults`] / [`LbError::NeedTwoReaders`] per the
    ///   hypotheses of Propositions 5 and 10 (`t ≥ 1`, `R ≥ 2`).
    /// * [`LbError::ConfigIsFeasible`] when `S > (R+2)·t + (R+1)·b` —
    ///   blocks that small cannot cover `S` servers.
    /// * [`LbError::NoPartition`] when there are fewer servers than
    ///   blocks that must be non-empty (the paper handles this by
    ///   shrinking the reader set — callers should pick a smaller `R`).
    pub(crate) fn of(cfg: &ClusterConfig) -> Result<Self, LbError> {
        if cfg.t < 1 {
            return Err(LbError::NeedFaults);
        }
        if cfg.r < 2 {
            return Err(LbError::NeedTwoReaders);
        }
        if cfg.fast_feasible() {
            return Err(LbError::ConfigIsFeasible);
        }
        let sizes = if cfg.b == 0 {
            crash_blocks(cfg)?
        } else {
            byz_blocks(cfg)?
        };
        debug_assert_eq!(sizes.iter().sum::<u32>(), cfg.s);
        let mut next = 0u32;
        let mut blocks = sizes.iter().map(|&size| {
            next += size;
            (next - size..next).collect::<Vec<u32>>()
        });
        let t_blocks = blocks.by_ref().take(cfg.r as usize + 2).collect();
        Ok(Partition {
            t_blocks,
            b_blocks: blocks.collect(),
        })
    }

    /// The paper's `T_k` (1-based).
    pub(crate) fn t(&self, k: u32) -> &[u32] {
        &self.t_blocks[(k - 1) as usize]
    }

    /// The paper's `B_k` (1-based).
    pub(crate) fn b(&self, k: u32) -> &[u32] {
        &self.b_blocks[(k - 1) as usize]
    }
}

/// Grows `sizes` (indexed `T_1..T_{R+2}, B_1..B_{R+1}`) until they sum to
/// `s`: one server at a time, round-robin over `order`'s `(block, cap)`
/// slots, skipping blocks at their cap.
fn hand_out(mut sizes: Vec<u32>, order: &[(usize, u32)], s: u32) -> Result<Vec<u32>, LbError> {
    let mut spare = s
        .checked_sub(sizes.iter().sum())
        .ok_or(LbError::NoPartition)?;
    while spare > 0 {
        let before = spare;
        for &(block, cap) in order {
            if spare > 0 && sizes[block] < cap {
                sizes[block] += 1;
                spare -= 1;
            }
        }
        if spare == before {
            return Err(LbError::NoPartition);
        }
    }
    Ok(sizes)
}

/// §5 sizing: every `T_k` starts at one server; the spare ones go to
/// `T_{R+1}`, `T_{R+2}`, then `T_1..T_R`, round-robin.
fn crash_blocks(cfg: &ClusterConfig) -> Result<Vec<u32>, LbError> {
    let nt = cfg.r as usize + 2;
    let mut sizes = vec![1; nt];
    sizes.resize(2 * nt - 1, 0);
    let order: Vec<_> = [nt - 2, nt - 1]
        .into_iter()
        .chain(0..nt - 2)
        .map(|k| (k, cfg.t))
        .collect();
    hand_out(sizes, &order, cfg.s)
}

/// §6.2 sizing: every `T_k` and `B_{R+1}` start at one server; the spare
/// ones go to `T_{R+1}`, `B_{R+1}`, `B_1..B_R`, then the other `T_k`,
/// round-robin.
fn byz_blocks(cfg: &ClusterConfig) -> Result<Vec<u32>, LbError> {
    let nt = cfg.r as usize + 2;
    let last_b = 2 * nt - 2;
    let mut sizes = vec![1; nt];
    sizes.resize(last_b + 1, 0);
    sizes[last_b] = 1;
    let order: Vec<_> = [(nt - 2, cfg.t), (last_b, cfg.b)]
        .into_iter()
        .chain((nt..last_b).map(|k| (k, cfg.b)))
        .chain((0..nt).filter(|&k| k != nt - 2).map(|k| (k, cfg.t)))
        .collect();
    hand_out(sizes, &order, cfg.s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_crash_instance() {
        // S = 5, t = 1, R = 3: five singleton blocks.
        let cfg = ClusterConfig::crash_stop(5, 1, 3).unwrap();
        let plan = Partition::of(&cfg).unwrap();
        assert_eq!(plan.t_blocks.len(), 5);
        assert!(plan.t_blocks.iter().all(|b| b.len() == 1));
        let all: Vec<u32> = plan.t_blocks.iter().flatten().copied().collect();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn feasible_config_has_no_partition() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        assert_eq!(Partition::of(&cfg), Err(LbError::ConfigIsFeasible));
    }

    #[test]
    fn uneven_crash_partition_respects_t() {
        // S = 7, t = 2, R = 2: 4 blocks, sizes ≤ 2, T3 maximized.
        let cfg = ClusterConfig::crash_stop(7, 2, 2).unwrap();
        assert!(!cfg.fast_feasible());
        let plan = Partition::of(&cfg).unwrap();
        assert_eq!(plan.t_blocks.len(), 4);
        assert!(plan.t_blocks.iter().all(|b| !b.is_empty() && b.len() <= 2));
        assert_eq!(plan.t_blocks.iter().map(Vec::len).sum::<usize>(), 7);
        // T_{R+1} = T3 got an extra first.
        assert_eq!(plan.t(3).len(), 2);
    }

    #[test]
    fn hypotheses_are_enforced() {
        let cfg = ClusterConfig::crash_stop(5, 1, 1).unwrap();
        assert_eq!(Partition::of(&cfg), Err(LbError::NeedTwoReaders));
        let cfg = ClusterConfig::crash_stop(5, 0, 3).unwrap();
        assert_eq!(Partition::of(&cfg), Err(LbError::NeedFaults));
    }

    #[test]
    fn too_few_servers_for_blocks() {
        // S = 3, t = 1, R = 3: infeasible (3 <= 5t) but only 3 servers for
        // 5 blocks.
        let cfg = ClusterConfig::crash_stop(3, 1, 3).unwrap();
        assert_eq!(Partition::of(&cfg), Err(LbError::NoPartition));
    }

    #[test]
    fn canonical_byz_instance() {
        // S = 7, t = 1, b = 1, R = 2: T1..T4 and B1..B3, all singletons.
        let cfg = ClusterConfig::byzantine(7, 1, 1, 2).unwrap();
        assert!(!cfg.fast_feasible());
        let plan = Partition::of(&cfg).unwrap();
        assert_eq!(plan.t_blocks.len(), 4);
        assert_eq!(plan.b_blocks.len(), 3);
        let total: usize = plan
            .t_blocks
            .iter()
            .chain(plan.b_blocks.iter())
            .map(Vec::len)
            .sum();
        assert_eq!(total, 7);
        assert!(plan.t_blocks.iter().all(|b| b.len() == 1));
        assert!(!plan.b(3).is_empty());
    }

    #[test]
    fn byz_feasible_is_rejected() {
        let cfg = ClusterConfig::byzantine(8, 1, 1, 2).unwrap();
        assert!(cfg.fast_feasible());
        assert_eq!(Partition::of(&cfg), Err(LbError::ConfigIsFeasible));
    }

    #[test]
    fn byz_partition_is_exact_cover() {
        let cfg = ClusterConfig::byzantine(10, 2, 1, 2).unwrap();
        assert!(!cfg.fast_feasible());
        let plan = Partition::of(&cfg).unwrap();
        let mut all: Vec<u32> = plan
            .t_blocks
            .iter()
            .chain(plan.b_blocks.iter())
            .flatten()
            .copied()
            .collect();
        all.sort();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(plan.t_blocks.iter().all(|b| b.len() as u32 <= cfg.t));
        assert!(plan.b_blocks.iter().all(|b| b.len() as u32 <= cfg.b));
    }
}
