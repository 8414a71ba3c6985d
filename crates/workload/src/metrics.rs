//! Metrics derived from operation histories and network statistics.
//!
//! The latency summary type itself lives in the observability spine —
//! [`fastreg_obs::LatencyStats`] is the one implementation of the
//! report tables' quantile math — and is re-exported here so every
//! historical `fastreg_workload::LatencyStats` path keeps compiling.
//! The tests below pin its outputs (p50/p95/mean on known inputs)
//! unchanged across the migration.

use fastreg_atomicity::history::{History, OpKind, Operation};

pub use fastreg_obs::LatencyStats;

/// Per-kind latency breakdown of a history.
#[derive(Clone, Debug)]
pub struct OpBreakdown {
    /// Read latency stats (completed reads only).
    pub reads: Option<LatencyStats>,
    /// Write latency stats (completed writes only).
    pub writes: Option<LatencyStats>,
    /// Completed operations.
    pub completed: u64,
    /// Operations that never completed (pending at the end of the run).
    pub incomplete: u64,
}

impl OpBreakdown {
    /// Computes the breakdown of a history.
    pub fn of(history: &History) -> Self {
        Self::of_ops(history.ops())
    }

    /// Computes the breakdown of recorded operations, in any order: each
    /// latency is its own op's interval, so no history needs rebuilding
    /// first (the store's key-tagged records are read in place).
    pub fn of_ops<'a>(ops: impl IntoIterator<Item = &'a Operation>) -> Self {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut incomplete = 0;
        for op in ops {
            match op.responded_at {
                Some(resp) => {
                    let lat = resp - op.invoked_at;
                    match op.kind {
                        OpKind::Read => reads.push(lat),
                        OpKind::Write { .. } => writes.push(lat),
                    }
                }
                None => incomplete += 1,
            }
        }
        let completed = (reads.len() + writes.len()) as u64;
        OpBreakdown {
            reads: LatencyStats::from_latencies(reads),
            writes: LatencyStats::from_latencies(writes),
            completed,
            incomplete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg_atomicity::history::RegValue;

    #[test]
    fn stats_from_empty_is_none() {
        assert_eq!(LatencyStats::from_latencies(vec![]), None);
    }

    #[test]
    fn stats_computes_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::from_latencies(lat).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn stats_single_sample() {
        let s = LatencyStats::from_latencies(vec![7]).unwrap();
        assert_eq!(s.p50, 7);
        assert_eq!(s.p95, 7);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn breakdown_partitions_kinds() {
        let mut h = History::new();
        let w = h.invoke_write(0, 1, 0);
        h.respond(w, None, 2);
        let r = h.invoke_read(1, 3);
        h.respond(r, Some(RegValue::Val(1)), 7);
        h.invoke_read(2, 8); // incomplete
        let b = OpBreakdown::of(&h);
        assert_eq!(b.completed, 2);
        assert_eq!(b.incomplete, 1);
        assert_eq!(b.writes.unwrap().max, 2);
        assert_eq!(b.reads.unwrap().max, 4);
    }

    #[test]
    fn breakdown_of_empty_history() {
        let b = OpBreakdown::of(&History::new());
        assert!(b.reads.is_none());
        assert!(b.writes.is_none());
        assert_eq!(b.completed, 0);
    }
}
