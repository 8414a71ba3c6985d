//! Refutation of count-only fast-read predicates (§4's informal argument,
//! executed).
//!
//! For every threshold `k ∈ [1, S]`, the count-only variant of the Fig. 2
//! reader ([`count_cluster`]) is driven into an atomicity violation by one
//! of two scripted schedules — *in a configuration where the real
//! protocol is provably correct*. This is the ablation that justifies the
//! `seen` sets: no amount of counting servers alone can be safe; the
//! predicate must know which *clients* have seen the evidence.
//!
//! [`count_cluster`]: fastreg::protocols::ablation::count_cluster

use fastreg::config::ClusterConfig;
use fastreg::harness::RegisterOps;
use fastreg::protocols::ablation::count_cluster;
use fastreg_atomicity::history::History;
use fastreg_atomicity::swmr::{check_swmr_atomicity, AtomicityViolation};
use fastreg_simnet::time::SimTime;

use crate::chain::{exchange, Kind};
use crate::LbError;

/// The refutation of one threshold.
#[derive(Debug)]
pub struct AblationOutcome {
    /// The refuted threshold.
    pub k: u32,
    /// Which schedule was used: `"completed-write-missed"` (condition 2)
    /// or `"unstable-value-returned"` (condition 4).
    pub schedule: &'static str,
    /// The checker's verdict — always a violation.
    pub violation: AtomicityViolation,
    /// The violating history.
    pub history: History,
}

/// Refutes the count threshold `k` on configuration `cfg` (requires
/// `t ≥ 1` and `R ≥ 2`; `cfg` may well be fast-feasible — the point is
/// that the *real* protocol is safe there and the ablated one is not).
///
/// # Errors
///
/// Returns [`LbError`] if the hypotheses do not hold or `k` is out of
/// range.
pub fn refute_count_predicate(cfg: ClusterConfig, k: u32) -> Result<AblationOutcome, LbError> {
    if cfg.t < 1 {
        return Err(LbError::NeedFaults);
    }
    if cfg.r < 2 {
        return Err(LbError::NeedTwoReaders);
    }
    if k < 1 || k > cfg.s {
        return Err(LbError::NoPartition);
    }

    let (history, schedule) = if k > cfg.s.saturating_sub(2 * cfg.t) {
        // Schedule A: a completed write seen by only S − 2t members of the
        // read quorum → sightings < k → the read returns the old value.
        (completed_write_missed(cfg, k), "completed-write-missed")
    } else {
        // Schedule B: an incomplete write at exactly k servers is returned
        // by reader 1; reader 2's quorum overlaps only k − t of them →
        // below threshold → inversion.
        (unstable_value_returned(cfg, k), "unstable-value-returned")
    };

    let violation = check_swmr_atomicity(&history).expect_err(
        "every count threshold must be refutable (§4); \
         a clean history indicates a bug in the schedule",
    );
    Ok(AblationOutcome {
        k,
        schedule,
        violation,
        history,
    })
}

/// Schedule A (`k > S − 2t`): write completes at `S − t` servers; the read
/// quorum misses `t` of them, seeing the timestamp only `S − 2t < k`
/// times → returns `⊥` after a completed write (condition 2).
fn completed_write_missed(cfg: ClusterConfig, k: u32) -> History {
    let mut c = count_cluster(cfg, k);
    let (writer, reader) = (c.layout.writer(0), c.layout.reader(0));
    let (s, t) = (cfg.s, cfg.t);
    // Write completes at servers 0..S−t (messages to the last t stay in
    // transit).
    c.write(1);
    exchange(&mut c, writer, Kind::Write, None, |j| j < s - t);
    c.world.deliver_all_to(writer);
    c.world.advance_to(SimTime::from_ticks(10));
    // Read quorum: servers t..S (misses servers 0..t of the write set,
    // includes the t servers that never got the write).
    c.read_async(0);
    exchange(&mut c, reader, Kind::Read, None, |j| j >= t);
    c.world.deliver_all_to(reader);
    c.snapshot()
}

/// Schedule B (`k ≤ S − 2t`): write reaches exactly `k` servers
/// (incomplete); reader 1's quorum contains all of them → returns `1`;
/// reader 2's quorum misses `t` of them → `k − t < k` sightings → `⊥`
/// (condition 4 inversion).
fn unstable_value_returned(cfg: ClusterConfig, k: u32) -> History {
    let mut c = count_cluster(cfg, k);
    let (writer, r1, r2) = (c.layout.writer(0), c.layout.reader(0), c.layout.reader(1));
    let (s, t) = (cfg.s, cfg.t);
    // Incomplete write at servers 0..k.
    c.write(1);
    exchange(&mut c, writer, Kind::Write, None, |j| j < k);
    c.world.advance_to(SimTime::from_ticks(10));
    // Reader 1 reads from servers 0..S−t (contains all k sightings;
    // k ≤ S − 2t < S − t).
    c.read_async(0);
    exchange(&mut c, r1, Kind::Read, None, |j| j < s - t);
    c.world.deliver_all_to(r1);
    c.world.advance_to(SimTime::from_ticks(20));
    // Reader 2 reads from everyone except servers 0..t (misses t of the k
    // sighting servers; sees k − t < k sightings).
    c.read_async(1);
    exchange(&mut c, r2, Kind::Read, None, |j| j >= t);
    c.world.deliver_all_to(r2);
    c.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::types::RegValue;

    /// The real protocol is provably safe at (5, 1, 2); the count-only
    /// ablation fails for every threshold.
    #[test]
    fn every_threshold_is_refuted_at_5_1_2() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        assert!(cfg.fast_feasible());
        for k in 1..=cfg.s {
            let out = refute_count_predicate(cfg, k).unwrap_or_else(|e| panic!("k = {k}: {e}"));
            assert_eq!(out.k, k);
            assert!(
                matches!(
                    out.violation,
                    AtomicityViolation::NewOldInversion { .. }
                        | AtomicityViolation::MissedPrecedingWrite { .. }
                ),
                "k = {k}: unexpected violation {:?}",
                out.violation
            );
        }
    }

    #[test]
    fn thresholds_split_between_the_two_schedules() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let low = refute_count_predicate(cfg, 2).unwrap();
        assert_eq!(low.schedule, "unstable-value-returned");
        let high = refute_count_predicate(cfg, 4).unwrap();
        assert_eq!(high.schedule, "completed-write-missed");
    }

    #[test]
    fn refutation_scales_to_larger_clusters() {
        let cfg = ClusterConfig::crash_stop(9, 2, 2).unwrap();
        assert!(cfg.fast_feasible());
        for k in 1..=cfg.s {
            refute_count_predicate(cfg, k).unwrap_or_else(|e| panic!("k = {k}: {e}"));
        }
    }

    #[test]
    fn hypotheses_are_enforced() {
        let cfg = ClusterConfig::crash_stop(5, 0, 2).unwrap();
        assert!(matches!(
            refute_count_predicate(cfg, 1),
            Err(LbError::NeedFaults)
        ));
        let cfg = ClusterConfig::crash_stop(5, 1, 1).unwrap();
        assert!(matches!(
            refute_count_predicate(cfg, 1),
            Err(LbError::NeedTwoReaders)
        ));
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        assert!(matches!(
            refute_count_predicate(cfg, 0),
            Err(LbError::NoPartition)
        ));
        assert!(matches!(
            refute_count_predicate(cfg, 6),
            Err(LbError::NoPartition)
        ));
    }

    /// Sanity: the violating read returns are what the schedules claim.
    #[test]
    fn schedule_b_exhibits_the_inversion_values() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let out = refute_count_predicate(cfg, 3).unwrap();
        let returns: Vec<_> = out
            .history
            .reads()
            .filter(|r| r.is_complete())
            .map(|r| r.returned.unwrap())
            .collect();
        assert_eq!(returns, vec![RegValue::Val(1), RegValue::Bottom]);
    }
}
