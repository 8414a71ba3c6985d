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

use fastreg_atomicity::history::{OpId, OpKind, SharedHistory};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::protocols::round::{Round, Rule};
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
        pub fn new() -> Self {
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

    enum Phase {
        Query,
        Store {
            /// Value this operation will return (reads only).
            returned: Option<RegValue>,
        },
    }

    /// A combined client automaton: writer `wid` if constructed with
    /// [`Client::writer`], reader otherwise. Both roles are two-phase —
    /// two [`Round`]s in sequence under one operation counter — which is
    /// why one automaton serves both.
    pub struct Client {
        layout: Layout,
        history: SharedHistory,
        /// Writer id for timestamps (writers only).
        pub wid: Option<u32>,
        op_counter: u64,
        /// The acks of the latest operation's two phases.
        query: Round<(WTimestamp, RegValue)>,
        store: Round<()>,
        /// The pending operation, the value it writes (`None`: a read)
        /// and its phase.
        pending: Option<(OpId, Option<Value>, Phase)>,
    }

    impl Client {
        /// Creates writer `wid`.
        pub fn writer(
            cfg: ClusterConfig,
            layout: Layout,
            wid: u32,
            history: SharedHistory,
        ) -> Self {
            Client {
                wid: Some(wid),
                ..Client::reader(cfg, layout, history)
            }
        }

        /// Creates a reader.
        pub fn reader(cfg: ClusterConfig, layout: Layout, history: SharedHistory) -> Self {
            Client {
                layout,
                history,
                wid: None,
                op_counter: 0,
                query: Round::new(&cfg, 0),
                store: Round::new(&cfg, 0),
                pending: None,
            }
        }

        /// Returns `true` if no operation is in progress.
        pub fn is_idle(&self) -> bool {
            self.pending.is_none()
        }
    }

    impl Automaton for Client {
        type Msg = Msg;

        fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
            let (me, now) = (out.this().index(), out.now().ticks());
            let writing = match msg {
                Msg::InvokeWrite { value } => Some(Some(value)),
                Msg::InvokeRead => Some(None),
                _ => None,
            };
            if let Some(writing) = writing {
                let name = if writing.is_some() { "write" } else { "read" };
                assert!(from.is_external(), "{name}s are invoked by the environment");
                assert!(
                    writing.is_none() || self.wid.is_some(),
                    "read-only client asked to write"
                );
                assert!(
                    self.pending.is_none(),
                    "client invoked {name}() while an operation was pending"
                );
                self.op_counter += 1;
                let op = match writing {
                    Some(value) => self.history.invoke_write(me, value, now),
                    None => self.history.invoke_read(me, now),
                };
                self.query.reset(self.op_counter);
                self.pending = Some((op, writing, Phase::Query));
                out.broadcast(
                    self.layout.servers(),
                    Msg::Query {
                        op_counter: self.op_counter,
                    },
                );
                return;
            }
            let (Some(server), Some((op, writing, phase))) =
                (self.layout.server_index(from), self.pending.as_mut())
            else {
                return;
            };
            match msg {
                Msg::QueryAck {
                    op_counter,
                    ts,
                    value,
                } => {
                    let Phase::Query = phase else {
                        return;
                    };
                    if !self.query.offer(server, op_counter, (ts, value)) {
                        return;
                    }
                    let acks = self.query.acks();
                    let (max_ts, max_val) = *acks.max_by_key(|(ts, _)| *ts).expect("nonempty");
                    let (ts, value) = match *writing {
                        Some(v) => (
                            WTimestamp {
                                seq: max_ts.seq + 1,
                                wid: self.wid.expect("writers have ids"),
                            },
                            RegValue::Val(v),
                        ),
                        None => (max_ts, max_val),
                    };
                    *phase = Phase::Store {
                        returned: writing.is_none().then_some(value),
                    };
                    self.store.reset(op_counter);
                    out.broadcast(
                        self.layout.servers(),
                        Msg::Store {
                            op_counter,
                            ts,
                            value,
                        },
                    );
                }
                Msg::StoreAck { op_counter } => {
                    let Phase::Store { returned } = phase else {
                        return;
                    };
                    if self.store.offer(server, op_counter, ()) {
                        self.history.respond(*op, *returned, now);
                        self.pending = None;
                    }
                }
                _ => {}
            }
        }
    }
}

/// The plausible-but-wrong one-round MWMR protocol the §7 adversary
/// refutes.
pub mod naive_fast {
    use super::*;
    use crate::protocols::round::Client;

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
        pub fn new() -> Self {
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
        pub fn new(cfg: ClusterConfig, layout: Layout, wid: u32, history: SharedHistory) -> Self {
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

        fn decide(&mut self, _: &Round<()>) -> Option<RegValue> {
            None
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

        fn decide(&mut self, acks: &Round<Self::Ack>) -> Option<RegValue> {
            let (_, value) = *acks
                .acks()
                .max_by_key(|(ts, _)| *ts)
                .expect("quorum nonempty");
            Some(value)
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
