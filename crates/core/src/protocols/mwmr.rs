//! Multi-writer registers (§7).
//!
//! The paper proves (Proposition 11) that **no** fast MWMR atomic register
//! exists, even with `W = R = 2`, `t = 1`, crash-only failures. Two
//! implementations live here:
//!
//! * [`abd`]: the correct two-round MWMR register in the style of
//!   Lynch–Shvartsman: writers first *query* a quorum to discover the
//!   highest timestamp, then store `(max + 1, writer-id)`; readers query
//!   and write back. Nothing about it is fast — as the theorem demands.
//! * [`naive_fast`]: a one-round-everything MWMR protocol that looks
//!   plausible (writers use local sequence numbers, readers return the
//!   max-timestamp value). It is **deliberately incorrect**: the §7
//!   adversary (`fastreg-adversary`) drives it into the paper's `run′′`
//!   violation. It exists to make the impossibility executable, not to be
//!   used.

use fastreg_atomicity::history::{OpKind, SharedHistory};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::protocols::round::{self, Decision, Round, Rule};
use crate::types::{RegValue, Value, WTimestamp};

/// The correct two-round MWMR register.
pub mod abd {
    use super::*;

    /// Message alphabet.
    #[derive(Clone, Debug, PartialEq, Hash)]
    pub enum Msg {
        /// Environment → writer: invoke `write(value)`.
        InvokeWrite {
            /// The value to write.
            value: Value,
        },
        /// Environment → reader: invoke `read()`.
        InvokeRead,
        /// Client → servers: discover the highest timestamp/value.
        Query {
            /// The client's operation counter.
            op_counter: u64,
        },
        /// Server → client.
        QueryAck {
            /// Echo of the counter.
            op_counter: u64,
            /// The server's timestamp.
            ts: WTimestamp,
            /// The server's value.
            value: RegValue,
        },
        /// Client → servers: store a timestamped value (a writer's new
        /// value, or a reader's write-back).
        Store {
            /// Echo of the counter.
            op_counter: u64,
            /// The timestamp to store.
            ts: WTimestamp,
            /// The value to store.
            value: RegValue,
        },
        /// Server → client.
        StoreAck {
            /// Echo of the counter.
            op_counter: u64,
        },
    }

    /// Server: keeps the lexicographically highest `(ts, value)`.
    #[derive(Default)]
    pub struct Server {
        /// Current timestamp.
        pub ts: WTimestamp,
        /// Current value.
        pub value: RegValue,
    }

    impl Server {
        /// Creates a server holding `(ts0, ⊥)`.
        pub(crate) fn new() -> Self {
            Self::default()
        }
    }
    impl Automaton for Server {
        type Msg = Msg;

        fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            match msg {
                Msg::Query { op_counter } => out.send(
                    from,
                    Msg::QueryAck {
                        op_counter,
                        ts: self.ts,
                        value: self.value,
                    },
                ),
                Msg::Store {
                    op_counter,
                    ts,
                    value,
                } => {
                    if ts > self.ts {
                        self.ts = ts;
                        self.value = value;
                    }
                    out.send(from, Msg::StoreAck { op_counter });
                }
                _ => {}
            }
        }
    }

    /// The rule of both roles: query a quorum for the highest
    /// `(ts, value)`, then store to a quorum — a writer its value under
    /// `(max.seq + 1, wid)`, a reader the highest pair, which it returns.
    pub struct QueryThenStore {
        /// Writer id for timestamps (`None`: a reader).
        pub wid: Option<u32>,
        /// The latest operation.
        op: OpKind,
        /// The pair being stored; `None` while the operation still queries.
        storing: Option<(WTimestamp, RegValue)>,
    }

    /// Both roles' client automaton: a writer if built with a `wid`, a
    /// reader otherwise.
    pub type Client = round::Client<QueryThenStore>;

    impl Client {
        /// Creates writer `wid`, or a reader if `None`.
        pub(crate) fn new(
            cfg: ClusterConfig,
            layout: Layout,
            wid: Option<u32>,
            history: SharedHistory,
        ) -> Self {
            let rule = QueryThenStore {
                wid,
                op: OpKind::Read,
                storing: None,
            };
            round::Client::with_rule(cfg, layout, history, rule)
        }
    }

    impl Rule for QueryThenStore {
        type Msg = Msg;
        /// A store ack stands for the pair it acknowledges.
        type Ack = (WTimestamp, RegValue);
        const ROUNDS: u32 = 2;

        fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
            self.op = match *msg {
                Msg::InvokeWrite { value } => OpKind::Write { value },
                Msg::InvokeRead => OpKind::Read,
                _ => return None,
            };
            Some((self.op, Msg::Query { op_counter: tag }))
        }

        fn ack(&mut self, msg: Msg, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
            match msg {
                Msg::QueryAck {
                    op_counter,
                    ts,
                    value,
                } if self.storing.is_none() => Some((op_counter, (ts, value))),
                Msg::StoreAck { op_counter } => self.storing.map(|pair| (op_counter, pair)),
                _ => None,
            }
        }

        fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Msg> {
            if let Some((_, value)) = self.storing.take() {
                return Decision::Respond((self.op == OpKind::Read).then_some(value));
            }
            let (max_ts, max_val) = *acks.acks().max_by_key(|(ts, _)| *ts).expect("nonempty");
            let (ts, value) = match self.op {
                OpKind::Write { value } => (
                    WTimestamp {
                        seq: max_ts.seq + 1,
                        wid: self.wid.expect("read-only client asked to write"),
                    },
                    RegValue::Val(value),
                ),
                OpKind::Read => (max_ts, max_val),
            };
            self.storing = Some((ts, value));
            Decision::Next(Msg::Store {
                op_counter: acks.tag(),
                ts,
                value,
            })
        }
    }
}

/// The plausible-but-wrong one-round MWMR protocol the §7 adversary
/// refutes.
pub mod naive_fast {
    use super::*;
    use round::Client;

    /// Message alphabet.
    #[derive(Clone, Debug, PartialEq, Hash)]
    pub enum Msg {
        /// Environment → writer.
        InvokeWrite {
            /// The value to write.
            value: Value,
        },
        /// Environment → reader.
        InvokeRead,
        /// Writer → servers: one-round store with a locally generated
        /// timestamp — the unsound shortcut.
        Store {
            /// Locally generated timestamp.
            ts: WTimestamp,
            /// The value.
            value: Value,
        },
        /// Server → writer.
        StoreAck {
            /// Echo of the timestamp.
            ts: WTimestamp,
        },
        /// Reader → servers.
        Read {
            /// The reader's operation counter.
            op_counter: u64,
        },
        /// Server → reader.
        ReadAck {
            /// Echo of the counter.
            op_counter: u64,
            /// The server's timestamp.
            ts: WTimestamp,
            /// The server's value.
            value: RegValue,
        },
    }

    /// Server: keeps the highest `(ts, value)`.
    #[derive(Default)]
    pub struct Server {
        /// Current timestamp.
        pub ts: WTimestamp,
        /// Current value.
        pub value: RegValue,
    }

    impl Server {
        /// Creates a server holding `(ts0, ⊥)`.
        pub(crate) fn new() -> Self {
            Self::default()
        }
    }
    impl Automaton for Server {
        type Msg = Msg;

        fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            match msg {
                Msg::Store { ts, value } => {
                    if ts > self.ts {
                        self.ts = ts;
                        self.value = RegValue::Val(value);
                    }
                    out.send(from, Msg::StoreAck { ts });
                }
                Msg::Read { op_counter } => out.send(
                    from,
                    Msg::ReadAck {
                        op_counter,
                        ts: self.ts,
                        value: self.value,
                    },
                ),
                _ => {}
            }
        }
    }

    /// Writer rule: a locally generated timestamp `(seq, wid)` — no query
    /// phase, the unsound shortcut. The tag is `seq`.
    pub struct LocalSeq {
        /// This writer's id.
        pub wid: u32,
    }

    /// Writer with a local sequence counter (no query phase).
    pub type Writer = Client<LocalSeq>;

    impl Writer {
        /// Creates writer `wid`.
        pub(crate) fn new(
            cfg: ClusterConfig,
            layout: Layout,
            wid: u32,
            history: SharedHistory,
        ) -> Self {
            Client::with_rule(cfg, layout, history, LocalSeq { wid })
        }
    }

    impl Rule for LocalSeq {
        type Msg = Msg;
        type Ack = ();

        fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
            let Msg::InvokeWrite { value } = *msg else {
                return None;
            };
            let ts = WTimestamp {
                seq: tag,
                wid: self.wid,
            };
            Some((OpKind::Write { value }, Msg::Store { ts, value }))
        }

        fn ack(&mut self, msg: Msg, _: &Round<()>) -> Option<(u64, ())> {
            match msg {
                Msg::StoreAck { ts } if ts.wid == self.wid => Some((ts.seq, ())),
                _ => None,
            }
        }

        fn decide(&mut self, _: &Round<()>) -> Decision<Msg> {
            Decision::Respond(None)
        }
    }

    /// Reader rule: the max-timestamp value.
    #[derive(Default)]
    pub struct MaxTs;

    /// Reader: one round, returns the max-timestamp value.
    pub type Reader = Client<MaxTs>;

    impl Rule for MaxTs {
        type Msg = Msg;
        type Ack = (WTimestamp, RegValue);

        fn request(&mut self, msg: &Msg, tag: u64) -> Option<(OpKind, Msg)> {
            matches!(msg, Msg::InvokeRead).then_some((OpKind::Read, Msg::Read { op_counter: tag }))
        }

        fn ack(&mut self, msg: Msg, _: &Round<Self::Ack>) -> Option<(u64, Self::Ack)> {
            match msg {
                Msg::ReadAck {
                    op_counter,
                    ts,
                    value,
                } => Some((op_counter, (ts, value))),
                _ => None,
            }
        }

        fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Msg> {
            let (_, value) = *acks
                .acks()
                .max_by_key(|(ts, _)| *ts)
                .expect("quorum nonempty");
            Decision::Respond(Some(value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ClusterBuilder, MwmrAbd, MwmrNaiveFast};
    use fastreg_atomicity::linearizability::check_linearizable;
    use fastreg_simnet::world::World;

    fn cfg() -> ClusterConfig {
        ClusterConfig::mwmr(5, 1, 2, 2).unwrap()
    }

    mod abd_tests {
        use super::super::abd::*;
        use super::*;

        fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
            let c = ClusterBuilder::new(cfg).seed(seed).build_typed::<MwmrAbd>();
            let c = c.expect("simnet");
            (c.world, c.layout, c.history)
        }

        #[test]
        fn two_writers_sequential() {
            let (mut w, l, h) = cluster(cfg(), 1);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 10 });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.writer(1), Msg::InvokeWrite { value: 20 });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
            let hist = h.snapshot();
            assert_eq!(
                hist.reads().next().unwrap().returned,
                Some(RegValue::Val(20))
            );
            assert_eq!(check_linearizable(&hist), Ok(true));
        }

        #[test]
        fn writes_are_two_rounds() {
            let (mut w, l, h) = cluster(cfg(), 1);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            w.run_until_quiescent().expect("quiesces");
            let hist = h.snapshot();
            let wr = hist.writes().next().unwrap();
            // Query + Store: 4 message delays — not fast, as §7 requires.
            assert_eq!(wr.responded_at.unwrap() - wr.invoked_at, 4);
        }

        #[test]
        fn concurrent_writers_linearize() {
            for seed in 0..25 {
                let (mut w, l, h) = cluster(cfg(), seed);
                w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
                w.inject(l.writer(1), Msg::InvokeWrite { value: 2 });
                w.inject(l.reader(0), Msg::InvokeRead);
                w.inject(l.reader(1), Msg::InvokeRead);
                w.run_random_until_quiescent();
                let hist = h.snapshot();
                assert_eq!(
                    check_linearizable(&hist),
                    Ok(true),
                    "seed {seed}:\n{}",
                    hist.render()
                );
            }
        }

        #[test]
        fn reader_write_back_prevents_inversion() {
            for seed in 0..25 {
                let (mut w, l, h) = cluster(cfg(), seed);
                w.arm_crash_after_sends(l.writer(0), (seed % 6) as usize);
                w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
                w.run_random_until_quiescent();
                w.inject(l.reader(0), Msg::InvokeRead);
                w.run_random_until_quiescent();
                w.inject(l.reader(1), Msg::InvokeRead);
                w.run_random_until_quiescent();
                let hist = h.snapshot();
                assert_eq!(
                    check_linearizable(&hist),
                    Ok(true),
                    "seed {seed}:\n{}",
                    hist.render()
                );
            }
        }
    }

    mod naive_tests {
        use super::super::naive_fast::*;
        use super::*;

        fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
            let c = ClusterBuilder::new(cfg)
                .seed(seed)
                .build_typed::<MwmrNaiveFast>();
            let c = c.expect("simnet");
            (c.world, c.layout, c.history)
        }

        #[test]
        fn all_ops_are_one_round() {
            let (mut w, l, h) = cluster(cfg(), 1);
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
        fn benign_schedules_look_correct() {
            // The protocol is plausible: on sequential schedules it behaves.
            let (mut w, l, h) = cluster(cfg(), 1);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.writer(1), Msg::InvokeWrite { value: 2 });
            w.run_until_quiescent().expect("quiesces");
            w.inject(l.reader(0), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
            let hist = h.snapshot();
            // Writer 1's local seq is 1 == writer 0's, so its write ties at
            // seq 1 and wins on wid — the read sees 2.
            assert_eq!(
                hist.reads().next().unwrap().returned,
                Some(RegValue::Val(2))
            );
            assert_eq!(check_linearizable(&hist), Ok(true));
        }

        #[test]
        fn sequential_writes_by_one_writer_monotone() {
            let (mut w, l, h) = cluster(cfg(), 1);
            for v in 1..=3 {
                w.inject(l.writer(0), Msg::InvokeWrite { value: v });
                w.run_until_quiescent().expect("quiesces");
            }
            w.inject(l.reader(1), Msg::InvokeRead);
            w.run_until_quiescent().expect("quiesces");
            let hist = h.snapshot();
            assert_eq!(
                hist.reads().next().unwrap().returned,
                Some(RegValue::Val(3))
            );
        }
    }
}
