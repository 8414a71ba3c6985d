//! Ablation of the `seen` sets: the count-only predicate variant.
//!
//! §4 argues that "any reasonable predicate for fast reads must depend on
//! the number of servers, *as well as the number of readers*, that have
//! seen the most recent timestamp" — which is why Fig. 2's servers
//! maintain `seen` sets at all. This module makes that argument
//! executable: `CountReader` is the Fig. 2 reader with the predicate
//! replaced by a bare count threshold `k` ("return `maxTS` iff at least
//! `k` acks carry it"), over the unchanged Fig. 2 writer and servers.
//!
//! No threshold works. `fastreg-adversary::ablation` constructs, for
//! every `k ∈ [1, S]`, a schedule on which the count-only protocol
//! violates atomicity — even in configurations where the real protocol is
//! provably correct:
//!
//! * `k > S − 2t`: a *completed* write can be seen by too few quorum
//!   members, so a subsequent read returns the old value (condition 2).
//! * `k ≤ S − 2t`: an *incomplete* write seen by exactly `k` servers is
//!   returned by one reader, and a second reader that misses `t` of those
//!   servers drops back below threshold (condition 4, new/old inversion).

use fastreg_atomicity::history::{OpKind, SharedHistory};

use crate::config::ClusterConfig;
use crate::harness::{Cluster, ClusterBuilder, FastCrash, ProtocolFamily};
use crate::layout::Layout;
use crate::protocols::fast_crash::Msg;
use crate::protocols::round::{Client, Decision, Round, Rule};
use crate::types::{TaggedValue, Timestamp};

/// The rule of a Fig. 2 reader whose predicate is `|maxTSmsg| ≥ k` —
/// deliberately ignoring `seen`. Exists to be refuted.
pub(crate) struct CountRule {
    /// The count threshold under ablation.
    pub k: u32,
    /// Adopted timestamp (still written back, as in Fig. 2).
    pub max_ts: Timestamp,
    /// Tags adopted with `max_ts`.
    pub tags: TaggedValue,
}

/// A Fig. 2 reader deciding by [`CountRule`].
pub(crate) type CountReader = Client<CountRule>;

impl CountReader {
    /// Creates a count-threshold reader.
    pub(crate) fn new(cfg: ClusterConfig, layout: Layout, k: u32, history: SharedHistory) -> Self {
        let rule = CountRule {
            k,
            max_ts: Timestamp::ZERO,
            tags: TaggedValue::INITIAL,
        };
        Client::with_rule(cfg, layout, history, rule)
    }
}

/// Fig. 2 with every reader a `CountReader` of threshold `k`, over the
/// unchanged writer and servers.
pub fn count_cluster(cfg: ClusterConfig, k: u32) -> Cluster<FastCrash> {
    ClusterBuilder::new(cfg).simulated(
        &mut |cfg, layout, _, history, _| Box::new(CountReader::new(*cfg, layout, k, history)),
        &mut FastCrash::server,
    )
}

impl Rule for CountRule {
    type Msg = Msg;
    type Ack = (Timestamp, TaggedValue);

    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        let read = Msg::Read {
            ts: self.max_ts,
            tags: self.tags,
            r_counter: tag,
        };
        matches!(msg, Msg::InvokeRead).then_some((OpKind::Read, read))
    }

    fn ack(&mut self, msg: Msg, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
        match msg {
            Msg::ReadAck {
                ts,
                tags,
                r_counter,
                ..
            } => Some((r_counter, (ts, tags))),
            _ => None,
        }
    }

    fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Msg> {
        let max_ts = acks.acks().map(|(ts, _)| *ts).max().expect("quorum");
        let mut at_max = acks.acks().filter(|(ts, _)| *ts == max_ts);
        let (_, tags) = *at_max.next().expect("max exists");
        let sightings = 1 + at_max.count() as u32;
        self.max_ts = max_ts;
        self.tags = tags;
        // The ablated predicate: count only, no `seen`.
        Decision::Respond(Some(if sightings >= self.k {
            tags.cur
        } else {
            tags.prev
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RegisterOps;
    use crate::types::RegValue;
    use fastreg_atomicity::swmr::check_swmr_atomicity;

    #[test]
    fn count_reader_looks_fine_on_benign_runs() {
        // The ablation is plausible: sequential runs behave — that is what
        // makes the refutation interesting.
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = count_cluster(cfg, 3);
        c.write_sync(4);
        assert_eq!(c.read(0), RegValue::Val(4));
        check_swmr_atomicity(&c.snapshot()).unwrap();
    }

    #[test]
    fn count_reader_is_one_round() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let mut c = count_cluster(cfg, 3);
        c.read(1);
        let rd = c.snapshot().reads().next().unwrap().clone();
        assert_eq!(rd.responded_at.unwrap() - rd.invoked_at, 2);
    }
}
