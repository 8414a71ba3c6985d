//! The paper's fast SWMR atomic register for the crash-stop model (Fig. 2).
//!
//! Requires `R < S/t − 2` (equivalently `S > (R + 2)·t`). Both operations
//! complete in one communication round-trip:
//!
//! * **write(v)** — the writer sends `(write, ts, tags, 0)` to all servers
//!   and returns after `S − t` `writeack`s (lines 4–8). Being the only
//!   writer, it knows the latest timestamp and just increments it.
//! * **read()** — the reader sends `(read, ts, rCounter)` carrying its
//!   previously adopted timestamp, collects `S − t` `readack`s, computes
//!   `maxTS`, and returns the value of `maxTS` if the safety predicate of
//!   line 19 holds, else the value of `maxTS − 1` (lines 12–22). The
//!   predicate lives in [`crate::predicate`].
//!
//! Servers (lines 23–35) keep, besides the latest timestamp, the set
//! `seen` of clients they have answered since last adopting a timestamp —
//! the extra information that makes the one-round read possible — and a
//! per-client counter to avoid serving stale read incarnations.
//!
//! Values ride along as the two-tag pair of §4 ([`TaggedValue`]): each
//! write carries its own value and its predecessor's, so "return
//! `maxTS − 1`" is a local tag lookup, not another round.

use std::collections::BTreeMap;

use fastreg_atomicity::history::{OpKind, SharedHistory};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::predicate::{predicate_witness, PredicateModel};
use crate::protocols::round::{Client, Decision, Round, Rule};
use crate::types::{ClientSet, RegValue, TaggedValue, Timestamp, Value};

/// Message alphabet of the protocol.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Msg {
    /// Environment → writer: invoke `write(value)`.
    InvokeWrite {
        /// The value to write.
        value: Value,
    },
    /// Environment → reader: invoke `read()`.
    InvokeRead,
    /// Writer → servers: `(write, ts, rCounter = 0)` with value tags.
    Write {
        /// The write's timestamp.
        ts: Timestamp,
        /// Value of this write and of its predecessor.
        tags: TaggedValue,
        /// Always 0 for the writer; kept for message-shape fidelity.
        r_counter: u64,
    },
    /// Server → writer: `(writeack, ts, seen, rCounter)`.
    WriteAck {
        /// The server's timestamp at reply time.
        ts: Timestamp,
        /// The server's `seen` set (unused by the writer; sent for
        /// fidelity with Fig. 2 line 35).
        seen: ClientSet,
        /// Echo of the request counter.
        r_counter: u64,
    },
    /// Reader → servers: `(read, ts, rCounter)` carrying the reader's
    /// adopted timestamp and its tags (the value-attached variant of §4
    /// needs the tags so a server that adopts the reader's newer timestamp
    /// also learns its value).
    Read {
        /// The reader's adopted timestamp (`maxTS` of its previous read).
        ts: Timestamp,
        /// Tags associated with `ts`.
        tags: TaggedValue,
        /// The reader's read counter.
        r_counter: u64,
    },
    /// Server → reader: `(readack, ts, seen, rCounter)` with value tags.
    ReadAck {
        /// The server's timestamp at reply time.
        ts: Timestamp,
        /// Tags associated with `ts`.
        tags: TaggedValue,
        /// Clients this server has answered since adopting `ts`.
        seen: ClientSet,
        /// Echo of the request counter.
        r_counter: u64,
    },
}

/// Server automaton (Fig. 2 lines 23–35).
pub struct Server {
    layout: Layout,
    /// Latest adopted timestamp.
    pub ts: Timestamp,
    /// Value tags adopted with `ts`.
    pub tags: TaggedValue,
    /// Clients answered since adopting `ts` (including the adopter).
    pub seen: ClientSet,
    /// `counter[pid]`: latest read counter seen per client (index 0 is the
    /// writer and stays 0).
    pub counter: Vec<u64>,
}

impl Server {
    /// Creates a server in its initial state (line 25).
    pub(crate) fn new(cfg: &ClusterConfig, layout: Layout) -> Self {
        Server {
            layout,
            ts: Timestamp::ZERO,
            tags: TaggedValue::INITIAL,
            seen: ClientSet::EMPTY,
            counter: vec![0; (cfg.r + 1) as usize],
        }
    }

    /// Core of lines 26–31, shared by both message kinds. Returns `false`
    /// if the message must be ignored (stale counter or non-client sender).
    fn absorb(&mut self, from: ProcessId, ts: Timestamp, tags: TaggedValue, rc: u64) -> bool {
        let Some(q) = self.layout.client_pid(from) else {
            return false; // not a client of this register
        };
        if rc < self.counter[q.0 as usize] {
            return false; // stale incarnation: the upon-clause does not fire
        }
        if ts > self.ts {
            self.ts = ts;
            self.tags = tags;
            self.seen = q.into();
        } else {
            self.seen.insert(q);
        }
        self.counter[q.0 as usize] = rc;
        true
    }
}

impl Automaton for Server {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Write {
                ts,
                tags,
                r_counter,
            } if self.absorb(from, ts, tags, r_counter) => {
                out.send(
                    from,
                    Msg::WriteAck {
                        ts: self.ts,
                        seen: self.seen,
                        r_counter,
                    },
                );
            }
            Msg::Read {
                ts,
                tags,
                r_counter,
            } if self.absorb(from, ts, tags, r_counter) => {
                out.send(
                    from,
                    Msg::ReadAck {
                        ts: self.ts,
                        tags: self.tags,
                        seen: self.seen,
                        r_counter,
                    },
                );
            }
            // Servers ignore anything else (acks are never addressed to
            // them; invocations target clients).
            _ => {}
        }
    }
}

/// Writer rule (Fig. 2 lines 1–8): the write's timestamp is its tag;
/// being the only writer, it knows the latest one and just increments it.
#[derive(Default)]
pub struct WriteRule {
    /// Value of the previous write, for the two-tag scheme of §4.
    pub prev_value: RegValue,
    writing: RegValue,
}

/// Writer automaton (Fig. 2 lines 1–8).
pub type Writer = Client<WriteRule>;

impl Rule for WriteRule {
    type Msg = Msg;
    type Ack = ();

    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        let Msg::InvokeWrite { value } = *msg else {
            return None;
        };
        self.writing = RegValue::Val(value);
        let write = Msg::Write {
            ts: Timestamp(tag),
            tags: TaggedValue::new(self.writing, self.prev_value),
            r_counter: 0,
        };
        Some((OpKind::Write { value }, write))
    }

    fn ack(&mut self, msg: Msg, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
        match msg {
            Msg::WriteAck {
                ts, r_counter: 0, ..
            } => Some((ts.0, ())),
            _ => None,
        }
    }

    fn decide(&mut self, _: &Round<()>) -> Decision<Msg> {
        self.prev_value = self.writing;
        Decision::Respond(None)
    }
}

/// A received `readack`, kept until the quorum completes.
pub struct AckInfo {
    ts: Timestamp,
    tags: TaggedValue,
    seen: ClientSet,
}

/// Reader rule (Fig. 2 lines 9–22).
pub struct ReadRule {
    cfg: ClusterConfig,
    /// Adopted timestamp (`maxTS` of the previous read; line 13 writes it
    /// back in the next `read` message).
    pub max_ts: Timestamp,
    /// Tags adopted with `max_ts`.
    pub tags: TaggedValue,
    /// Reads that returned `maxTS` (predicate held), per witness level `a`.
    pub witness_histogram: BTreeMap<u32, u64>,
    /// Reads that returned `maxTS − 1` (predicate failed).
    pub conservative_reads: u64,
    /// The `seen` sets of the acks carrying `maxTS`, refilled per read.
    max_ts_seens: Vec<ClientSet>,
}

/// Reader automaton (Fig. 2 lines 9–22).
pub type Reader = Client<ReadRule>;

impl Reader {
    /// Creates a reader in its initial state (line 11).
    pub(crate) fn new(cfg: ClusterConfig, layout: Layout, history: SharedHistory) -> Self {
        let rule = ReadRule {
            cfg,
            max_ts: Timestamp::ZERO,
            tags: TaggedValue::INITIAL,
            witness_histogram: BTreeMap::new(),
            conservative_reads: 0,
            max_ts_seens: Vec::with_capacity(cfg.s as usize),
        };
        Client::with_rule(cfg, layout, history, rule)
    }
}

impl Rule for ReadRule {
    type Msg = Msg;
    type Ack = AckInfo;

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
                seen,
                r_counter,
            } => Some((r_counter, AckInfo { ts, tags, seen })),
            _ => None,
        }
    }

    /// Lines 17–22: compute `maxTS`, evaluate the predicate, pick the
    /// returned value; `maxTS` is adopted either way.
    fn decide(&mut self, acks: &Round<AckInfo>) -> Decision<Msg> {
        let max_ts = acks.acks().map(|a| a.ts).max().expect("quorum nonempty");
        let max_msgs = || acks.acks().filter(|a| a.ts == max_ts);
        self.max_ts_seens.clear();
        self.max_ts_seens.extend(max_msgs().map(|a| a.seen));
        let witness = predicate_witness(
            self.cfg.s,
            self.cfg.t,
            self.cfg.r,
            PredicateModel::Crash,
            &self.max_ts_seens,
        );
        let tags = max_msgs().next().expect("an ack carries maxTS").tags;
        self.max_ts = max_ts;
        self.tags = tags;
        Decision::Respond(Some(match witness {
            Some(a) => {
                *self.witness_histogram.entry(a).or_insert(0) += 1;
                tags.cur
            }
            None => {
                self.conservative_reads += 1;
                tags.prev
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ClusterBuilder, FastCrash};
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_simnet::world::World;

    /// Builds a full cluster in a fresh world. Returns the world, layout
    /// and shared history.
    fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
        let c = ClusterBuilder::new(cfg)
            .seed(seed)
            .build_typed::<FastCrash>();
        let c = c.expect("simnet");
        (c.world, c.layout, c.history)
    }

    fn cfg512() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 1, 2).unwrap()
    }

    #[test]
    fn sequential_write_then_read() {
        let (mut w, l, h) = cluster(cfg512(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 42 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 2);
        let read = hist.reads().next().unwrap();
        assert_eq!(read.returned, Some(RegValue::Val(42)));
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn read_before_any_write_returns_bottom() {
        let (mut w, l, h) = cluster(cfg512(), 1);
        w.inject(l.reader(1), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let read = hist.reads().next().unwrap();
        assert_eq!(read.returned, Some(RegValue::Bottom));
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn operations_are_fast_one_round_trip() {
        // With unit delays, an invocation at time T completes at exactly
        // T + 2 (request + reply): one round trip, the definition of fast.
        let (mut w, l, h) = cluster(cfg512(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 7 });
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let wr = hist.writes().next().unwrap();
        assert_eq!(wr.responded_at.unwrap() - wr.invoked_at, 2);

        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let rd = hist.reads().next().unwrap();
        assert_eq!(rd.responded_at.unwrap() - rd.invoked_at, 2);
    }

    #[test]
    fn message_complexity_is_2s_per_op() {
        let (mut w, l, _) = cluster(cfg512(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 7 });
        w.run_until_quiescent().expect("quiesces");
        // S write + S writeack.
        assert_eq!(w.stats().sent, 10);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(w.stats().sent, 20);
    }

    #[test]
    fn sequence_of_writes_and_reads_is_atomic() {
        let (mut w, l, h) = cluster(cfg512(), 3);
        for v in 1..=5 {
            w.inject(l.writer(0), Msg::InvokeWrite { value: v * 10 });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.reader((v % 2) as u32), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
        }
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 10);
        for (i, rd) in hist.reads().enumerate() {
            assert_eq!(rd.returned, Some(RegValue::Val(((i as u64) + 1) * 10)));
        }
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn incomplete_write_read_by_first_reader_is_propagated_logically() {
        // The §1 scenario: write(1) reaches only one server; the first
        // reader must still return something atomic. With the predicate, a
        // single-server sighting fails, so the read returns the previous
        // value (⊥) — which is atomic because the write is incomplete.
        let (mut w, l, h) = cluster(cfg512(), 1);
        // Writer crashes after sending to exactly 1 server.
        w.arm_crash_after_sends(l.writer(0), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 9 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let rd = hist.reads().next().unwrap();
        assert_eq!(rd.returned, Some(RegValue::Bottom));
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn reader_state_advances_even_on_conservative_reads() {
        let (mut w, l, _) = cluster(cfg512(), 1);
        w.arm_crash_after_sends(l.writer(0), 2);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 9 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        // Reader adopted ts1 even though it returned ⊥ (the prev tag).
        let (ts, conservative) = w
            .with_actor::<Reader, _, _>(l.reader(0), |r| (r.max_ts, r.conservative_reads))
            .unwrap();
        assert_eq!(conservative, 1);
        assert!(ts >= Timestamp(1));
    }

    #[test]
    fn predicate_histogram_records_witness_levels() {
        let (mut w, l, _) = cluster(cfg512(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = w
            .with_actor::<Reader, _, _>(l.reader(0), |r| r.witness_histogram.clone())
            .unwrap();
        // Write completed at all 5 servers; read misses at most t = 1, so
        // 4 acks carry ts1 with w in seen → witness a ∈ {1, 2}.
        assert_eq!(hist.values().sum::<u64>(), 1);
        assert!(hist.keys().all(|&a| a <= 2));
    }

    #[test]
    fn t_crashed_servers_do_not_block_termination() {
        let cfg = cfg512();
        let (mut w, l, h) = cluster(cfg, 5);
        w.crash(l.server(4));
        w.inject(l.writer(0), Msg::InvokeWrite { value: 3 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.inject(l.reader(1), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 3);
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn stale_read_incarnations_are_ignored_by_servers() {
        let (mut w, l, _) = cluster(cfg512(), 1);
        let s0 = l.server(0);
        let reader = l.reader(0);
        // First read: its message to s0 stays in transit.
        w.inject(reader, Msg::InvokeRead);
        w.deliver_matching(|e| e.to != s0); // reads reach servers 1..4
        w.deliver_matching(|e| e.to == reader); // 4 acks: quorum, completes

        // Second read: deliver its messages everywhere (s0's counter for
        // the reader becomes 2), complete it.
        w.inject(reader, Msg::InvokeRead);
        w.deliver_matching(|e| matches!(e.msg, Msg::Read { r_counter: 2, .. }));
        w.deliver_matching(|e| e.to == reader);
        assert_eq!(
            w.with_actor::<Server, _, _>(s0, |s| s.counter[1]).unwrap(),
            2
        );
        // Finally deliver the stale r_counter = 1 read to s0: the server
        // must ignore it entirely — no reply is sent.
        let before = w.pending().count();
        let delivered =
            w.deliver_matching(|e| e.to == s0 && matches!(e.msg, Msg::Read { r_counter: 1, .. }));
        assert_eq!(delivered, 1);
        assert_eq!(w.pending().count(), before - 1); // consumed, nothing emitted
        assert_eq!(
            w.with_actor::<Server, _, _>(s0, |s| s.counter[1]).unwrap(),
            2
        );
    }

    #[test]
    fn concurrent_reads_during_write_are_atomic() {
        for seed in 0..20 {
            let (mut w, l, h) = cluster(cfg512(), seed);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 5 });
            // Interleave: both readers read while the write is in flight.
            w.inject(l.reader(0), Msg::InvokeRead);
            w.inject(l.reader(1), Msg::InvokeRead);
            w.run_random_until_quiescent();
            let hist = h.snapshot();
            assert_eq!(hist.complete_ops().count(), 3, "seed {seed}");
            check_swmr_atomicity(&hist)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", hist.render()));
        }
    }

    #[test]
    fn random_schedules_with_mid_broadcast_crashes_stay_atomic() {
        for seed in 0..30 {
            let (mut w, l, h) = cluster(cfg512(), seed);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            w.run_random_until_quiescent();
            // Crash the writer mid-broadcast of its second write.
            w.arm_crash_after_sends(l.writer(0), (seed % 6) as usize);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 2 });
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_random_until_quiescent();
            w.inject(l.reader(1), Msg::InvokeRead);
            w.run_random_until_quiescent();
            let hist = h.snapshot();
            check_swmr_atomicity(&hist)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", hist.render()));
        }
    }

    #[test]
    #[should_panic(expected = "while an operation was pending")]
    fn overlapping_ops_by_one_client_panic() {
        let (mut w, l, _) = cluster(cfg512(), 1);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.inject(l.reader(0), Msg::InvokeRead);
    }
}
