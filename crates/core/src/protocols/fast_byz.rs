//! The paper's fast SWMR atomic register under arbitrary failures (Fig. 5).
//!
//! Requires `S > (R + 2)·t + (R + 1)·b`, where up to `t` servers may fail
//! and up to `b ≤ t` of them may be malicious. Differences from the
//! crash-stop algorithm of Fig. 2:
//!
//! * The writer **digitally signs** each timestamp (here: the timestamp
//!   together with its value tags, via [`fastreg_auth`]), giving readers
//!   Authentication and Unforgeability (§6.1, Properties 1–2). A malicious
//!   server can replay old signed records or lie in its `seen` set, but it
//!   cannot invent a newer timestamp.
//! * The reader **writes back** the highest signed timestamp of its
//!   previous read in its `read` message (lines 13–14).
//! * The reader only counts **valid** `readack`s: correctly signed, with
//!   `ts′ ≥` the written-back timestamp and the reader itself in `seen′`
//!   (line 15) — anything else is provably from a malicious server and is
//!   discarded.
//! * The predicate uses the stricter size family `S − a·t − (a−1)·b`
//!   (line 19).

use std::collections::BTreeMap;

use fastreg_atomicity::history::{OpKind, SharedHistory};
use fastreg_auth::digest::DigestWriter;
use fastreg_auth::{KeyId, Signature, SignerHandle, Verifier};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::predicate::{predicate_witness, PredicateModel};
use crate::protocols::round::{Client, Decision, Round, Rule};
use crate::types::{ClientId, ClientSet, RegValue, TaggedValue, Timestamp, Value};

/// A timestamp with its value tags and the writer's signature: the paper's
/// `ts_σw`, extended to cover the value tags so that a malicious server
/// cannot attach a forged value to a genuine timestamp.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SignedRecord {
    /// The signed timestamp.
    pub ts: Timestamp,
    /// The signed value tags.
    pub tags: TaggedValue,
    /// The writer's signature; `None` only for the unsigned genesis record
    /// (the paper: "we assume that this initial value is not digitally
    /// signed by the writer").
    pub sig: Option<Signature>,
}

impl SignedRecord {
    /// The unsigned initial record `(ts0, ⟨⊥|⊥⟩)`.
    pub(crate) fn genesis() -> Self {
        SignedRecord {
            ts: Timestamp::ZERO,
            tags: TaggedValue::INITIAL,
            sig: None,
        }
    }

    /// Canonical digest of `(ts, tags)` for signing.
    fn payload_digest(ts: Timestamp, tags: TaggedValue) -> u64 {
        fn put(w: &mut DigestWriter, v: RegValue) {
            match v {
                RegValue::Bottom => w.write_u64(0),
                RegValue::Val(x) => {
                    w.write_u64(1);
                    w.write_u64(x);
                }
            }
        }
        let mut w = DigestWriter::new();
        w.write_u64(ts.0);
        put(&mut w, tags.cur);
        put(&mut w, tags.prev);
        w.finish()
    }

    /// Signs a record with the writer's handle.
    pub(crate) fn signed(ts: Timestamp, tags: TaggedValue, signer: &SignerHandle) -> Self {
        SignedRecord {
            ts,
            tags,
            sig: Some(signer.sign(Self::payload_digest(ts, tags))),
        }
    }

    /// Checks authenticity: the genesis record is valid unsigned; anything
    /// else must carry a valid writer signature over `(ts, tags)`.
    pub(crate) fn is_valid(&self, verifier: &Verifier, writer_key: KeyId) -> bool {
        match &self.sig {
            None => self.ts == Timestamp::ZERO && self.tags == TaggedValue::INITIAL,
            Some(sig) => verifier.verify(writer_key, Self::payload_digest(self.ts, self.tags), sig),
        }
    }
}

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
    /// Writer → servers: `(write, ts_σw, rCounter = 0)`.
    Write {
        /// The signed record being written.
        record: SignedRecord,
        /// Always 0 for the writer.
        r_counter: u64,
    },
    /// Server → writer.
    WriteAck {
        /// The server's current signed record.
        record: SignedRecord,
        /// The server's `seen` set.
        seen: ClientSet,
        /// Echo of the counter.
        r_counter: u64,
    },
    /// Reader → servers: `(read, ts_σw, rCounter)` — the written-back
    /// record of the reader's previous read (lines 13–14).
    Read {
        /// The record being written back.
        record: SignedRecord,
        /// The reader's read counter.
        r_counter: u64,
    },
    /// Server → reader.
    ReadAck {
        /// The server's current signed record.
        record: SignedRecord,
        /// The server's `seen` set.
        seen: ClientSet,
        /// Echo of the counter.
        r_counter: u64,
    },
}

/// Server automaton (Fig. 5 lines 23–35). Honest behaviour; malicious
/// servers are modelled by replacing this automaton (see [`crate::byz`]).
pub struct Server {
    layout: Layout,
    verifier: Verifier,
    writer_key: KeyId,
    /// Latest adopted signed record.
    pub record: SignedRecord,
    /// Clients answered since adopting `record.ts`.
    pub seen: ClientSet,
    /// Per-client read counters.
    pub counter: Vec<u64>,
}

impl Server {
    /// Creates a server in its initial state.
    pub(crate) fn new(
        cfg: &ClusterConfig,
        layout: Layout,
        verifier: Verifier,
        writer_key: KeyId,
    ) -> Self {
        Server {
            layout,
            verifier,
            writer_key,
            record: SignedRecord::genesis(),
            seen: ClientSet::EMPTY,
            counter: vec![0; (cfg.r + 1) as usize],
        }
    }

    /// Lines 26–31 with the `receivevalid` filter.
    fn absorb(&mut self, from: ProcessId, record: SignedRecord, rc: u64) -> bool {
        if !record.is_valid(&self.verifier, self.writer_key) {
            return false; // forged or corrupted: ignore entirely
        }
        let Some(q) = self.layout.client_pid(from) else {
            return false;
        };
        if rc < self.counter[q.0 as usize] {
            return false;
        }
        if record.ts > self.record.ts {
            self.record = record;
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

    // `SignedRecord` is not `Copy`, so the absorb call cannot live in a
    // match guard; the nested `if` mirrors Fig. 5's receivevalid guard.
    #[allow(clippy::collapsible_match)]
    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Write { record, r_counter } => {
                if self.absorb(from, record, r_counter) {
                    out.send(
                        from,
                        Msg::WriteAck {
                            record: self.record.clone(),
                            seen: self.seen,
                            r_counter,
                        },
                    );
                }
            }
            Msg::Read { record, r_counter } => {
                if self.absorb(from, record, r_counter) {
                    out.send(
                        from,
                        Msg::ReadAck {
                            record: self.record.clone(),
                            seen: self.seen,
                            r_counter,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

/// Writer rule (Fig. 5 lines 1–8): signs every record it writes.
pub struct WriteRule {
    signer: SignerHandle,
    verifier: Verifier,
    /// Value of the previous write.
    pub prev_value: RegValue,
    writing: RegValue,
}

/// Writer automaton (Fig. 5 lines 1–8).
pub type Writer = Client<WriteRule>;

impl Writer {
    /// Creates the writer holding the signing key.
    pub(crate) fn new(
        cfg: ClusterConfig,
        layout: Layout,
        history: SharedHistory,
        signer: SignerHandle,
        verifier: Verifier,
    ) -> Self {
        let rule = WriteRule {
            signer,
            verifier,
            prev_value: RegValue::Bottom,
            writing: RegValue::Bottom,
        };
        Client::with_rule(cfg, layout, history, rule)
    }
}

impl Rule for WriteRule {
    type Msg = Msg;
    type Ack = ();

    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        let Msg::InvokeWrite { value } = *msg else {
            return None;
        };
        self.writing = RegValue::Val(value);
        let tags = TaggedValue::new(self.writing, self.prev_value);
        let write = Msg::Write {
            record: SignedRecord::signed(Timestamp(tag), tags, &self.signer),
            r_counter: 0,
        };
        Some((OpKind::Write { value }, write))
    }

    /// receivevalid: the ack must echo a genuinely signed record with the
    /// pending write's timestamp; anything else is malicious noise.
    fn ack(&mut self, msg: Msg, _: &Round<()>) -> Option<(u64, ())> {
        match msg {
            Msg::WriteAck {
                record,
                r_counter: 0,
                ..
            } if record.is_valid(&self.verifier, self.signer.key()) => Some((record.ts.0, ())),
            _ => None,
        }
    }

    fn decide(&mut self, _: &Round<()>) -> Decision<Msg> {
        self.prev_value = self.writing;
        Decision::Respond(None)
    }
}

/// A validated `readack` kept until the quorum completes.
pub struct AckInfo {
    record: SignedRecord,
    seen: ClientSet,
}

/// Reader rule (Fig. 5 lines 9–22).
pub struct ReadRule {
    cfg: ClusterConfig,
    verifier: Verifier,
    writer_key: KeyId,
    /// This reader's id in the paper's `pid` mapping.
    pub me: ClientId,
    /// Adopted signed record (`maxTS_sgn`), written back on the next read;
    /// its timestamp is the validity floor of the acks of that read.
    pub max_rec: SignedRecord,
    /// Reads that returned the newest value, per witness level.
    pub witness_histogram: BTreeMap<u32, u64>,
    /// Reads that fell back to the previous value.
    pub conservative_reads: u64,
    /// Total acks discarded by the validity filter.
    pub discarded_acks: u64,
    /// The `seen` sets of the acks carrying `maxTS`, refilled per read.
    max_ts_seens: Vec<ClientSet>,
}

/// Reader automaton (Fig. 5 lines 9–22).
pub type Reader = Client<ReadRule>;

impl Reader {
    /// Creates reader `index` (0-based).
    pub(crate) fn new(
        cfg: ClusterConfig,
        layout: Layout,
        index: u32,
        history: SharedHistory,
        verifier: Verifier,
        writer_key: KeyId,
    ) -> Self {
        let rule = ReadRule {
            cfg,
            verifier,
            writer_key,
            me: ClientId::reader(index),
            max_rec: SignedRecord::genesis(),
            witness_histogram: BTreeMap::new(),
            conservative_reads: 0,
            discarded_acks: 0,
            max_ts_seens: Vec::with_capacity(cfg.s as usize),
        };
        Client::with_rule(cfg, layout, history, rule)
    }
}

impl Rule for ReadRule {
    type Msg = Msg;
    type Ack = AckInfo;

    /// Lines 13–14: the read writes back the record of the previous one.
    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        matches!(msg, Msg::InvokeRead).then(|| {
            let (record, r_counter) = (self.max_rec.clone(), tag);
            (OpKind::Read, Msg::Read { record, r_counter })
        })
    }

    /// Line 15's `receivevalid` filter: correctly signed, not older than
    /// the written-back record, and this reader in `seen′`. An ack of the
    /// current read that fails it is provably malicious, and is counted.
    fn ack(&mut self, msg: Msg, round: &Round<AckInfo>) -> Option<(u64, AckInfo)> {
        let Msg::ReadAck {
            record,
            seen,
            r_counter,
        } = msg
        else {
            return None;
        };
        let valid = record.is_valid(&self.verifier, self.writer_key)
            && record.ts >= self.max_rec.ts
            && seen.contains(self.me);
        self.discarded_acks += u64::from(round.tag() == r_counter && !valid);
        valid.then_some((r_counter, AckInfo { record, seen }))
    }

    /// Lines 17–22.
    fn decide(&mut self, acks: &Round<AckInfo>) -> Decision<Msg> {
        let max_ts = acks.acks().map(|a| a.record.ts).max();
        let max_msgs = || acks.acks().filter(|a| Some(a.record.ts) == max_ts);
        self.max_ts_seens.clear();
        self.max_ts_seens.extend(max_msgs().map(|a| a.seen));
        let witness = predicate_witness(
            self.cfg.s,
            self.cfg.t,
            self.cfg.r,
            PredicateModel::Byzantine { b: self.cfg.b },
            &self.max_ts_seens,
        );
        let newest = max_msgs().next().expect("quorum nonempty");
        self.max_rec = newest.record.clone();
        Decision::Respond(Some(match witness {
            Some(a) => {
                *self.witness_histogram.entry(a).or_insert(0) += 1;
                self.max_rec.tags.cur
            }
            None => {
                self.conservative_reads += 1;
                self.max_rec.tags.prev
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ClusterBuilder, FastByz};
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_auth::Keychain;
    use fastreg_simnet::world::World;

    /// Builds an all-honest cluster.
    fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
        let c = ClusterBuilder::new(cfg).seed(seed).build_typed::<FastByz>();
        let c = c.expect("simnet");
        (c.world, c.layout, c.history)
    }

    /// S = 6, t = 1, b = 1, R = 1: 6 > 3·1 + 2·1 = 5 → feasible.
    fn cfg_byz() -> ClusterConfig {
        ClusterConfig::byzantine(6, 1, 1, 1).unwrap()
    }

    #[test]
    fn config_is_feasible() {
        assert!(cfg_byz().fast_feasible());
    }

    #[test]
    fn write_then_read_honest_run() {
        let (mut w, l, h) = cluster(cfg_byz(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 31 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(
            hist.reads().next().unwrap().returned,
            Some(RegValue::Val(31))
        );
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn operations_are_fast() {
        let (mut w, l, h) = cluster(cfg_byz(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        for op in hist.complete_ops() {
            assert_eq!(op.responded_at.unwrap() - op.invoked_at, 2);
        }
    }

    #[test]
    fn genesis_record_is_valid_unsigned_but_not_tamperable() {
        let mut chain = Keychain::new(1);
        let signer = chain.issue();
        let v = chain.verifier();
        let g = SignedRecord::genesis();
        assert!(g.is_valid(&v, signer.key()));
        // A "genesis" with a nonzero ts is rejected.
        let fake = SignedRecord {
            ts: Timestamp(3),
            tags: TaggedValue::INITIAL,
            sig: None,
        };
        assert!(!fake.is_valid(&v, signer.key()));
    }

    #[test]
    fn forged_records_are_rejected() {
        let mut chain = Keychain::new(1);
        let signer = chain.issue();
        let v = chain.verifier();
        let good = SignedRecord::signed(
            Timestamp(5),
            TaggedValue::new(RegValue::Val(9), RegValue::Bottom),
            &signer,
        );
        assert!(good.is_valid(&v, signer.key()));
        // Tamper with the timestamp.
        let mut evil = good.clone();
        evil.ts = Timestamp(6);
        assert!(!evil.is_valid(&v, signer.key()));
        // Tamper with the value.
        let mut evil = good;
        evil.tags = TaggedValue::new(RegValue::Val(10), RegValue::Bottom);
        assert!(!evil.is_valid(&v, signer.key()));
    }

    #[test]
    fn sequence_of_ops_is_atomic_honest() {
        let (mut w, l, h) = cluster(cfg_byz(), 2);
        for v in 1..=4 {
            w.inject(l.writer(0), Msg::InvokeWrite { value: v });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
        }
        let hist = h.snapshot();
        check_swmr_atomicity(&hist).unwrap();
        let last = hist.reads().last().unwrap();
        assert_eq!(last.returned, Some(RegValue::Val(4)));
    }

    #[test]
    fn random_concurrent_schedules_are_atomic_honest() {
        for seed in 0..20 {
            let (mut w, l, h) = cluster(cfg_byz(), seed);
            w.arm_crash_after_sends(l.writer(0), (seed % 7) as usize);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
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
    fn reader_write_back_teaches_servers() {
        // After reader 0 reads value 1, a server that never saw the write
        // learns it from the reader's next read message (lines 13–14).
        let (mut w, l, _) = cluster(cfg_byz(), 1);
        let s5 = l.server(5);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
        // The write never reaches server 5.
        w.drop_matching(|e| e.to == s5);
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(
            w.with_actor::<Server, _, _>(s5, |s| s.record.ts).unwrap(),
            Timestamp::ZERO
        );
        // First read adopts ts1; second read writes it back, signed.
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(
            w.with_actor::<Server, _, _>(s5, |s| s.record.ts).unwrap(),
            Timestamp(1)
        );
    }
}
