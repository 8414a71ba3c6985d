//! The fast *regular* register of §8.
//!
//! A regular register (Lamport) relaxes atomicity: a read concurrent with
//! writes may return the last written value or any concurrently written
//! one, and different readers may disagree on the order (new/old
//! inversions are legal). Under that weaker contract a fast implementation
//! exists whenever `t < S/2`, for **any** number of readers: the read
//! simply queries `S − t` servers and returns the value with the highest
//! timestamp — no predicate, no write-back.
//!
//! The experiments (E7) run this protocol in configurations where the fast
//! *atomic* register is impossible and show that (a) regularity always
//! holds, and (b) atomicity violations (new/old inversions) actually occur
//! — exhibiting the §8 trade-off.

use fastreg_atomicity::history::OpKind;
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::protocols::abd::{self, WriteAlphabet};
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
    /// Writer → servers.
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
    /// Reader → servers.
    Read {
        /// The reader's operation counter.
        op_counter: u64,
    },
    /// Server → reader.
    ReadAck {
        /// Echo of the operation counter.
        op_counter: u64,
        /// The server's timestamp.
        ts: Timestamp,
        /// The server's value.
        value: RegValue,
    },
}

/// Server: stores the highest `(ts, value)`.
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
}
impl Automaton for Server {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Write { ts, value } => {
                if ts > self.ts {
                    self.ts = ts;
                    self.value = RegValue::Val(value);
                }
                out.send(from, Msg::WriteAck { ts });
            }
            Msg::Read { op_counter } => {
                out.send(
                    from,
                    Msg::ReadAck {
                        op_counter,
                        ts: self.ts,
                        value: self.value,
                    },
                );
            }
            _ => {}
        }
    }
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

/// Writer: one-round writes, as in ABD.
pub type Writer = abd::Writer<Msg>;

/// Reader rule: return the max-timestamp value. No predicate — this is
/// what makes the register regular rather than atomic.
#[derive(Default)]
pub struct MaxTs;

/// Reader: one round, deciding by [`MaxTs`].
pub type Reader = Client<MaxTs>;

impl Rule for MaxTs {
    type Msg = Msg;
    type Ack = (Timestamp, RegValue);

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::harness::{ClusterBuilder, FastRegular};
    use crate::layout::Layout;
    use fastreg_atomicity::history::SharedHistory;
    use fastreg_atomicity::regularity::check_swmr_regularity;
    use fastreg_atomicity::swmr::check_swmr_atomicity;
    use fastreg_simnet::world::World;

    fn cluster(cfg: ClusterConfig, seed: u64) -> (World<Msg>, Layout, SharedHistory) {
        let c = ClusterBuilder::new(cfg)
            .seed(seed)
            .build_typed::<FastRegular>();
        let c = c.expect("simnet");
        (c.world, c.layout, c.history)
    }

    /// Many readers at majority resilience — far beyond the atomic fast
    /// bound.
    fn cfg_many_readers() -> ClusterConfig {
        ClusterConfig::crash_stop(5, 2, 6).unwrap()
    }

    #[test]
    fn write_then_read() {
        let (mut w, l, h) = cluster(cfg_many_readers(), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 5 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(3), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(
            hist.reads().next().unwrap().returned,
            Some(RegValue::Val(5))
        );
        check_swmr_regularity(&hist).unwrap();
    }

    #[test]
    fn read_is_one_round_trip() {
        let (mut w, l, h) = cluster(cfg_many_readers(), 1);
        w.inject(l.reader(0), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        let rd = hist.reads().next().unwrap();
        assert_eq!(rd.responded_at.unwrap() - rd.invoked_at, 2);
    }

    #[test]
    fn random_schedules_are_always_regular() {
        for seed in 0..30 {
            let (mut w, l, h) = cluster(cfg_many_readers(), seed);
            w.arm_crash_after_sends(l.writer(0), (seed % 6) as usize);
            w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
            for i in 0..6 {
                w.inject(l.reader(i), Msg::InvokeRead);
            }
            w.run_random_until_quiescent();
            let hist = h.snapshot();
            check_swmr_regularity(&hist)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", hist.render()));
        }
    }

    #[test]
    fn new_old_inversion_is_reachable() {
        // §8's trade-off, exhibited: an incomplete write seen by the first
        // reader and missed by the second. Scripted schedule: write reaches
        // exactly one server in reader 0's quorum and no server of reader
        // 1's quorum.
        let cfg = ClusterConfig::crash_stop(5, 2, 2).unwrap();
        let (mut w, l, h) = cluster(cfg, 1);
        // write(1) reaches only server 0; writer crashes mid-broadcast.
        w.arm_crash_after_sends(l.writer(0), 1);
        w.inject(l.writer(0), Msg::InvokeWrite { value: 1 });
        w.deliver_matching(|e| matches!(e.msg, Msg::Write { .. }));

        // Reader 0 reads from servers {0, 1, 2}: sees ts1 → returns 1.
        w.advance_to(fastreg_simnet::time::SimTime::from_ticks(10));
        w.inject(l.reader(0), Msg::InvokeRead);
        for j in [0, 1, 2] {
            w.deliver_matching(|e| e.to == l.server(j) && matches!(e.msg, Msg::Read { .. }));
        }
        w.deliver_matching(|e| e.to == l.reader(0));

        // Reader 1 reads from servers {2, 3, 4}, strictly after reader 0's
        // read completed: all still at ts0 → ⊥.
        w.advance_to(fastreg_simnet::time::SimTime::from_ticks(20));
        w.inject(l.reader(1), Msg::InvokeRead);
        for j in [2, 3, 4] {
            w.deliver_matching(|e| e.to == l.server(j) && matches!(e.msg, Msg::Read { .. }));
        }
        w.deliver_matching(|e| e.to == l.reader(1));

        let hist = h.snapshot();
        let returns: Vec<_> = hist.reads().map(|r| r.returned).collect();
        assert_eq!(
            returns,
            vec![Some(RegValue::Val(1)), Some(RegValue::Bottom)]
        );
        // Regular: yes. Atomic: no.
        check_swmr_regularity(&hist).unwrap();
        assert!(check_swmr_atomicity(&hist).is_err());
    }

    #[test]
    fn survives_t_crashes() {
        let (mut w, l, h) = cluster(cfg_many_readers(), 1);
        w.crash(l.server(0));
        w.crash(l.server(1));
        w.inject(l.writer(0), Msg::InvokeWrite { value: 8 });
        w.run_until_quiescent().expect("quiesces");
        w.inject(l.reader(5), Msg::InvokeRead);
        w.run_until_quiescent().expect("quiesces");
        let hist = h.snapshot();
        assert_eq!(hist.complete_ops().count(), 2);
        check_swmr_regularity(&hist).unwrap();
    }
}
