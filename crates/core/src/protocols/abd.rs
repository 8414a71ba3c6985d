//! The classic SWMR register of Attiya, Bar-Noy and Dolev (ABD), the
//! baseline the paper builds on (§1).
//!
//! Requires only `t < S/2`. The write is fast (one round), but every read
//! takes **two** round-trips: a query phase discovering the latest
//! `(timestamp, value)` at a quorum, then a write-back phase propagating it
//! to a quorum before returning — "every atomic read must write". The
//! experiments contrast its read latency and message complexity with the
//! fast protocol's.

use std::marker::PhantomData;

use fastreg_atomicity::history::OpKind;
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::protocols::round::{Client, Decision, Round, Rule};
use crate::types::{RegValue, Timestamp, Value};

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
    /// Writer → servers: store `(ts, value)`.
    Write {
        /// The write's timestamp.
        ts: Timestamp,
        /// The written value.
        value: Value,
    },
    /// Server → writer.
    WriteAck {
        /// Echo of the stored timestamp.
        ts: Timestamp,
    },
    /// Reader → servers: phase-1 query.
    Query {
        /// The reader's operation counter.
        op_counter: u64,
    },
    /// Server → reader: phase-1 reply.
    QueryAck {
        /// Echo of the operation counter.
        op_counter: u64,
        /// The server's timestamp.
        ts: Timestamp,
        /// The server's value (`⊥` before any write reached it).
        value: RegValue,
    },
    /// Reader → servers: phase-2 write-back.
    WriteBack {
        /// Echo of the operation counter.
        op_counter: u64,
        /// The timestamp being propagated.
        ts: Timestamp,
        /// The value being propagated.
        value: RegValue,
    },
    /// Server → reader: phase-2 ack.
    WriteBackAck {
        /// Echo of the operation counter.
        op_counter: u64,
    },
}

/// Server: stores the highest `(ts, value)` it has seen.
#[derive(Default)]
pub struct Server {
    /// Current timestamp.
    pub ts: Timestamp,
    /// Current value.
    pub value: RegValue,
}

impl Server {
    /// Creates a server holding `(ts0, ⊥)`.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn adopt(&mut self, ts: Timestamp, value: RegValue) {
        if ts > self.ts {
            self.ts = ts;
            self.value = value;
        }
    }
}
impl Automaton for Server {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Write { ts, value } => {
                self.adopt(ts, RegValue::Val(value));
                out.send(from, Msg::WriteAck { ts });
            }
            Msg::Query { op_counter } => {
                out.send(
                    from,
                    Msg::QueryAck {
                        op_counter,
                        ts: self.ts,
                        value: self.value,
                    },
                );
            }
            Msg::WriteBack {
                op_counter,
                ts,
                value,
            } => {
                self.adopt(ts, value);
                out.send(from, Msg::WriteBackAck { op_counter });
            }
            _ => {}
        }
    }
}

/// The part of an alphabet the one-round timestamp [`Writer`] speaks.
pub(crate) trait WriteAlphabet: Clone + std::fmt::Debug + Send + 'static {
    /// The value of an `InvokeWrite`.
    fn invoked_write(&self) -> Option<Value>;
    /// Writer → servers: store `(ts, value)`.
    fn write(ts: Timestamp, value: Value) -> Self;
    /// The timestamp a `WriteAck` echoes.
    fn write_ack(&self) -> Option<Timestamp>;
}

impl WriteAlphabet for Msg {
    fn invoked_write(&self) -> Option<Value> {
        match *self {
            Msg::InvokeWrite { value } => Some(value),
            _ => None,
        }
    }

    fn write(ts: Timestamp, value: Value) -> Self {
        Msg::Write { ts, value }
    }

    fn write_ack(&self) -> Option<Timestamp> {
        match *self {
            Msg::WriteAck { ts } => Some(ts),
            _ => None,
        }
    }
}

/// The single writer's rule, shared by every protocol whose servers keep
/// the highest `(ts, value)`: the write's timestamp is its tag, a quorum
/// of echoes completes it.
pub struct WriteRule<M>(PhantomData<fn() -> M>);

impl<M> Default for WriteRule<M> {
    fn default() -> Self {
        WriteRule(PhantomData)
    }
}

/// Writer: one-round writes with self-incremented timestamps, over
/// alphabet `M` — ABD's own, or that of a protocol writing the same way.
pub type Writer<M = Msg> = Client<WriteRule<M>>;

impl<M: WriteAlphabet> Rule for WriteRule<M> {
    type Msg = M;
    type Ack = ();

    fn request(&mut self, msg: &M, tag: u64) -> Option<(OpKind, M)> {
        let value = msg.invoked_write()?;
        Some((OpKind::Write { value }, M::write(Timestamp(tag), value)))
    }

    fn ack(&mut self, msg: M, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
        msg.write_ack().map(|ts| (ts.0, ()))
    }

    fn decide(&mut self, _: &Round<()>) -> Decision<M> {
        Decision::Respond(None)
    }
}

/// The read's rule: query a quorum for the highest `(ts, value)`, write it
/// back to a quorum, return it — "every atomic read must write".
#[derive(Default)]
pub struct ReadRule {
    /// The pair being written back; `None` while the read still queries.
    chosen: Option<(Timestamp, RegValue)>,
}

/// Reader: two-phase reads (query + write-back) under one operation
/// counter.
pub type Reader = Client<ReadRule>;

impl Rule for ReadRule {
    type Msg = Msg;
    /// A write-back ack stands for the pair it acknowledges.
    type Ack = (Timestamp, RegValue);
    const ROUNDS: u32 = 2;

    fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
        matches!(msg, Msg::InvokeRead).then_some((OpKind::Read, Msg::Query { op_counter: tag }))
    }

    fn ack(&mut self, msg: Msg, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
        match msg {
            Msg::QueryAck {
                op_counter,
                ts,
                value,
            } if self.chosen.is_none() => Some((op_counter, (ts, value))),
            Msg::WriteBackAck { op_counter } => self.chosen.map(|pair| (op_counter, pair)),
            _ => None,
        }
    }

    fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Msg> {
        if let Some((_, value)) = self.chosen.take() {
            return Decision::Respond(Some(value));
        }
        let (ts, value) = *acks.acks().max_by_key(|(ts, _)| *ts).expect("nonempty");
        self.chosen = Some((ts, value));
        Decision::Next(Msg::WriteBack {
            op_counter: acks.tag(),
            ts,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::harness::{Abd, ClusterBuilder};
    use crate::layout::Layout;
    use fastreg_atomicity::history::SharedHistory;
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_simnet::world::World;

    fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
        let c = ClusterBuilder::new(cfg).seed(seed).build_typed::<Abd>();
        let c = c.expect("simnet");
        (c.world, c.layout, c.history)
    }

    /// ABD works at majority resilience where the fast protocol cannot:
    /// S = 5, t = 2, R = 3.
    fn cfg_majority() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 2, 3).unwrap()
    }

    #[test]
    fn write_then_read() {
        let (mut w, l, h) = cluster(cfg_majority(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 11 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(
            hist.reads().next().unwrap().returned,
            Some(RegValue::Val(11))
        );
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn read_takes_two_round_trips() {
        let (mut w, l, h) = cluster(cfg_majority(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
        w.run_until_quiescent().expect("quiesces");
        let t0 = w.now();
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let rd = hist.reads().next().unwrap();
        // Two round trips at unit delay: 4 ticks. The fast protocol's read
        // takes 2 — this is the gap the paper closes.
        assert_eq!(rd.responded_at.unwrap() - rd.invoked_at, 4);
        assert_eq!(rd.invoked_at, t0.ticks());
    }

    #[test]
    fn read_message_complexity_is_4s() {
        let (mut w, l, _) = cluster(cfg_majority(), 1);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        // Query + QueryAck + WriteBack + WriteBackAck, each S messages.
        assert_eq!(w.stats().sent, 20);
    }

    #[test]
    fn incomplete_write_seen_by_one_read_is_seen_by_later_reads() {
        // The write-back phase is what makes this work: reader 0 sees the
        // incomplete write at one server and propagates it to a quorum, so
        // reader 1 cannot miss it.
        let (mut w, l, h) = cluster(cfg_majority(), 1);
        w.arm_crash_after_sends(l.writer(0), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 9 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let first = h.snapshot().reads().next().unwrap().returned;
        w.inject(l.reader(1), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let second = hist.reads().nth(1).unwrap().returned;
        if first == Some(RegValue::Val(9)) {
            assert_eq!(second, Some(RegValue::Val(9)));
        }
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn survives_t_server_crashes() {
        let (mut w, l, h) = cluster(cfg_majority(), 3);
        w.crash(l.server(0));
        w.crash(l.server(1));
        w.inject(l.writer(0), Msg::InvokeWrite { value: 4 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(2), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 2);
        assert_eq!(
            hist.reads().next().unwrap().returned,
            Some(RegValue::Val(4))
        );
        check_swmr_atomicity(&hist).unwrap();
    }

    #[test]
    fn random_concurrent_schedules_are_atomic() {
        for seed in 0..25 {
            let (mut w, l, h) = cluster(cfg_majority(), seed);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            w.inject(l.reader(0), Msg::InvokeRead);
            w.inject(l.reader(1), Msg::InvokeRead);
            w.run_random_until_quiescent();
            w.inject(l.writer(0), Msg::InvokeWrite { value: 2 });
            w.inject(l.reader(2), Msg::InvokeRead);
            w.run_random_until_quiescent();
            let hist = h.snapshot();
            check_swmr_atomicity(&hist)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", hist.render()));
        }
    }

    #[test]
    fn reads_return_bottom_before_writes() {
        let (mut w, l, h) = cluster(cfg_majority(), 1);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        assert_eq!(
            h.snapshot().reads().next().unwrap().returned,
            Some(RegValue::Bottom)
        );
    }
}
