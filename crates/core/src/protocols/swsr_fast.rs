//! The single-reader fast register sketched in §1 of the paper.
//!
//! The headline bound `R < S/t − 2` is proved tight only for `R ≥ 2`
//! (Proposition 5's hypotheses). For a *single* reader the paper's
//! introduction describes a much cheaper trick: modify ABD so that the
//! read returns the latest value learned in its (single) round trip,
//! *provided it is not older than the value returned by the previous
//! read; otherwise the reader returns the same value as before*. With one
//! reader this monotonicity is exactly condition (4) of §3.1, and
//! conditions (2)–(3) follow from quorum intersection — so plain majority
//! resilience `t < S/2` suffices, strictly weaker than the general
//! protocol's `S > 3t` for `R = 1`.
//!
//! This module implements that sketch: a SWSR (single-writer
//! single-reader) register with one-round reads and writes at `t < S/2`.
//! It completes the picture around the theorem:
//!
//! | readers | fast atomic register exists iff |
//! |---------|--------------------------------|
//! | `R = 1` | `t < S/2` (this module)        |
//! | `R ≥ 2` | `S > (R+2)t + (R+1)b` (Figs. 2/5) |

use fastreg_atomicity::history::OpKind;

use crate::protocols::fast_regular::MaxTs;
use crate::protocols::round::{Client, Decision, Round, Rule};
use crate::types::{RegValue, Timestamp};

/// The alphabet, the server (it stores the highest `(ts, value)`) and the
/// writer are the regular register's; the magic is entirely in the
/// reader's rule.
pub use crate::protocols::fast_regular::{Msg, Server, Writer};

/// The single reader's rule: the max-timestamp quorum value — but never
/// anything older than its own previous return (the §1 trick). Request
/// and counted replies are [`MaxTs`]'s.
#[derive(Default)]
pub struct StickyMaxTs {
    /// Timestamp of the last returned value.
    pub last_ts: Timestamp,
    /// The last returned value.
    pub last_value: RegValue,
    /// Reads answered from memory because the quorum view was older.
    pub sticky_reads: u64,
}

/// The single reader: one round, deciding by [`StickyMaxTs`].
pub type Reader = Client<StickyMaxTs>;

impl Rule for StickyMaxTs {
    type Msg = Msg;
    type Ack = (Timestamp, RegValue);

    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        MaxTs.request(msg, tag)
    }

    fn ack(&mut self, msg: Msg, round: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
        MaxTs.ack(msg, round)
    }

    fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Msg> {
        let (max_ts, max_val) = *acks
            .acks()
            .max_by_key(|(ts, _)| *ts)
            .expect("quorum nonempty");
        if max_ts >= self.last_ts {
            self.last_ts = max_ts;
            self.last_value = max_val;
        } else {
            self.sticky_reads += 1;
        }
        Decision::Respond(Some(self.last_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::harness::{ClusterBuilder, SwsrFast};
    use crate::layout::Layout;
    use fastreg_atomicity::history::SharedHistory;
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_simnet::world::World;

    fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
        let c = ClusterBuilder::new(cfg)
            .seed(seed)
            .build_typed::<SwsrFast>();
        let c = c.expect("simnet");
        (c.world, c.layout, c.history)
    }

    /// t = 1 of S = 3: majority-only resilience, where the general fast
    /// protocol is infeasible even for one reader (needs S > 3t).
    fn cfg_majority_only() -> ClusterConfig {
        let cfg = ClusterConfig::crash_stop(3, 1, 1).unwrap();
        assert!(!cfg.fast_feasible(), "general bound fails here");
        assert!(cfg.fast_regular_feasible(), "but majority holds");
        cfg
    }

    #[test]
    fn write_then_read() {
        let (mut w, l, h) = cluster(cfg_majority_only(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 9 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(
            hist.reads().next().unwrap().returned,
            Some(RegValue::Val(9))
        );
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn reads_are_one_round_trip() {
        let (mut w, l, h) = cluster(cfg_majority_only(), 1);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let rd = h.snapshot().reads().next().unwrap().clone();
        assert_eq!(rd.responded_at.unwrap() - rd.invoked_at, 2);
    }

    #[test]
    fn sticky_rule_prevents_regression() {
        // The §1 scenario: write(7) reaches one server only; the read
        // returns it (max over its quorum); a later read that misses that
        // server must NOT regress — the sticky rule answers from memory.
        let (mut w, l, _) = cluster(cfg_majority_only(), 1);
        w.arm_crash_after_sends(l.writer(0), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 7 });
        w.deliver_matching(|e| matches!(e.msg, Msg::Write { .. }));

        // Read 1 from servers {0, 1}: sees ts1 at s0 → returns 7.
        w.inject(l.reader(0), Msg::InvokeRead);
        for j in [0u32, 1] {
            w.deliver_matching(|e| e.to == l.server(j) && matches!(e.msg, Msg::Read { .. }));
        }
        w.deliver_matching(|e| e.to == l.reader(0));
        // Read 2 from servers {1, 2}: both still ts0 — sticky rule fires.
        w.advance_to(fastreg_simnet::time::SimTime::from_ticks(10));
        w.inject(l.reader(0), Msg::InvokeRead);
        for j in [1u32, 2] {
            w.deliver_matching(|e| e.to == l.server(j) && matches!(e.msg, Msg::Read { .. }));
        }
        w.deliver_matching(|e| e.to == l.reader(0));

        let sticky = w
            .with_actor::<Reader, _, _>(l.reader(0), |r| r.sticky_reads)
            .unwrap();
        assert_eq!(sticky, 1);
    }

    #[test]
    fn random_schedules_are_atomic_at_majority() {
        for seed in 0..40 {
            let (mut w, l, h) = cluster(cfg_majority_only(), seed);
            w.arm_crash_after_sends(l.writer(0), (seed % 4) as usize);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_random_until_quiescent();
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_random_until_quiescent();
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_random_until_quiescent();
            let hist = h.snapshot();
            check_swmr_atomicity(&hist)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", hist.render()));
        }
    }

    #[test]
    fn sequence_of_ops_stays_atomic_and_monotone() {
        let (mut w, l, h) = cluster(ClusterConfig::crash_stop(5, 2, 1).unwrap(), 3);
        for v in 1..=6u64 {
            w.inject(l.writer(0), Msg::InvokeWrite { value: v });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
        }
        let hist = h.snapshot();
        check_swmr_atomicity(&hist).unwrap();
        let returns: Vec<_> = hist.reads().map(|r| r.returned.unwrap()).collect();
        assert_eq!(returns, (1..=6u64).map(RegValue::Val).collect::<Vec<_>>());
    }

    #[test]
    fn survives_t_crashes() {
        let cfg = ClusterConfig::crash_stop(5, 2, 1).unwrap();
        let (mut w, l, h) = cluster(cfg, 2);
        w.crash(l.server(0));
        w.crash(l.server(1));
        w.inject(l.writer(0), Msg::InvokeWrite { value: 5 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 2);
        check_swmr_atomicity(&hist).unwrap();
    }
}
