//! One quorum round, once (§3.2).
//!
//! The paper calls an operation *fast* when its client sends to all
//! servers, every server answers without waiting for anyone, and the
//! client returns after `S − t` replies. That skeleton is the same in
//! every protocol of this repository; what differs is the request, which
//! replies count, and what is decided over them. This module holds the
//! skeleton:
//!
//! * [`Round`] — the acks of one broadcast: the only per-server ack
//!   container, stale-tag filter and quorum comparison in the protocol
//!   layer; max–min's servers gather peer reports in one.
//! * [`Client`] over a [`Rule`] — the client automaton: the only place
//!   that asserts "invoked by the environment, one operation at a time",
//!   records the invocation and the response in the [`SharedHistory`],
//!   numbers the operation and broadcasts. An operation takes
//!   [`Rule::ROUNDS`] quorum rounds: one is fast by construction, and a
//!   two-phase operation ([`abd::Reader`](super::abd::Reader),
//!   [`mwmr::abd::Client`](super::mwmr::abd::Client)) is the same client
//!   over a rule whose [`decide`](Rule::decide) asks for a second.

use std::ops::Deref;

use fastreg_atomicity::history::{OpId, OpKind, SharedHistory};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::types::RegValue;

/// The acks of one broadcast: one slot per server, filled by
/// [`offer`](Round::offer) and read back in server-index order.
pub struct Round<A> {
    tag: u64,
    quorum: u32,
    answered: u32,
    slots: Vec<Option<A>>,
}

impl<A> Round<A> {
    /// An empty round for a deployment of `cfg.s` servers whose acks must
    /// echo `tag` (a read counter or a write timestamp).
    pub fn new(cfg: &ClusterConfig, tag: u64) -> Self {
        Round {
            tag,
            quorum: cfg.quorum(),
            answered: 0,
            slots: (0..cfg.s).map(|_| None).collect(),
        }
    }

    /// Empties the round for the next broadcast, whose acks must echo
    /// `tag`; the slots are kept, so a client's rounds allocate once.
    pub fn reset(&mut self, tag: u64) {
        self.tag = tag;
        self.answered = 0;
        self.slots.fill_with(|| None);
    }

    /// The tag an ack must echo to answer this round's broadcast.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Takes `ack` from server `server`, unless its `tag` is stale. A
    /// server that answers again replaces its earlier ack and still
    /// counts once. Returns `true` when the ack was taken and `S − t`
    /// distinct servers have now answered.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not a server index of the deployment.
    pub fn offer(&mut self, server: u32, tag: u64, ack: A) -> bool {
        if tag != self.tag {
            return false;
        }
        if self.slots[server as usize].replace(ack).is_none() {
            self.answered += 1;
        }
        self.answered >= self.quorum
    }

    /// The acks held, in server-index order.
    pub fn acks(&self) -> impl Iterator<Item = &A> {
        self.slots.iter().flatten()
    }
}

/// What distinguishes one operation from another: its request, the
/// replies that count, and the decision over a quorum of them.
pub trait Rule: Send + 'static {
    /// The protocol's message alphabet.
    type Msg: Clone + std::fmt::Debug + Send + 'static;
    /// What is kept of one counted reply.
    type Ack: Send + 'static;
    /// Quorum rounds per operation — what the paper counts: under unit
    /// delay an operation takes `2 × ROUNDS` ticks.
    const ROUNDS: u32 = 1;

    /// If `msg` invokes this rule's operation: the operation, for the
    /// history, and the request to broadcast. Replies must echo `tag`.
    fn request(&mut self, msg: &Self::Msg, tag: u64) -> Option<(OpKind, Self::Msg)>;
    /// If `msg` is a reply that may count towards the quorum of `round`
    /// (Fig. 5's `receivevalid`; crash-model rules count every reply): the
    /// tag it echoes and what to keep of it.
    fn ack(&mut self, msg: Self::Msg, round: &Round<Self::Ack>) -> Option<(u64, Self::Ack)>;
    /// Decides over replies from `S − t` servers: the response, or the
    /// request of the operation's next round. The rule's own state says
    /// which round's replies [`ack`](Rule::ack) counts.
    fn decide(&mut self, acks: &Round<Self::Ack>) -> Decision<Self::Msg>;
}

/// What a [`Rule`] decides over a quorum of replies.
pub enum Decision<M> {
    /// The operation responds: a read with its value, a write with `None`.
    Respond(Option<RegValue>),
    /// The operation takes another round: this request, under the same tag.
    Next(M),
}

/// The client automaton: broadcast a request, collect `S − t` valid
/// replies in a [`Round`], decide; again if the decision is another round.
/// Dereferences to its [`Rule`], whose public fields are its protocol state.
pub struct Client<R: Rule> {
    layout: Layout,
    history: SharedHistory,
    rule: R,
    /// Operations invoked so far; the tag of the latest.
    invoked: u64,
    /// The acks of the latest operation's current round.
    round: Round<R::Ack>,
    pending: Option<OpId>,
}

impl<R: Rule> Client<R> {
    /// [`Rule::ROUNDS`] of the client's rule.
    pub const ROUNDS: u32 = R::ROUNDS;

    /// A client in its initial state, deciding by `rule`.
    pub fn with_rule(cfg: ClusterConfig, layout: Layout, history: SharedHistory, rule: R) -> Self {
        Client {
            layout,
            history,
            rule,
            invoked: 0,
            round: Round::new(&cfg, 0),
            pending: None,
        }
    }
}

impl<R: Rule + Default> Client<R> {
    /// A client in its initial state, for rules that need no parameters.
    pub fn new(cfg: ClusterConfig, layout: Layout, history: SharedHistory) -> Self {
        Self::with_rule(cfg, layout, history, R::default())
    }
}

impl<R: Rule> Deref for Client<R> {
    type Target = R;

    fn deref(&self) -> &R {
        &self.rule
    }
}

impl<R: Rule> Automaton for Client<R> {
    type Msg = R::Msg;

    fn on_message(&mut self, from: ProcessId, msg: R::Msg, out: &mut Outbox<R::Msg>) {
        let (me, now) = (out.this().index(), out.now().ticks());
        if let Some((kind, request)) = self.rule.request(&msg, self.invoked + 1) {
            let name = match kind {
                OpKind::Read => "read",
                OpKind::Write { .. } => "write",
            };
            assert!(from.is_external(), "{name}s are invoked by the environment");
            assert!(
                self.pending.is_none(),
                "client invoked {name}() while an operation was pending"
            );
            self.invoked += 1;
            let op = match kind {
                OpKind::Read => self.history.invoke_read(me, now),
                OpKind::Write { value } => self.history.invoke_write(me, value, now),
            };
            self.pending = Some(op);
            self.round.reset(self.invoked);
            out.broadcast(self.layout.servers(), request);
            return;
        }
        let (Some(server), Some(op)) = (self.layout.server_index(from), self.pending) else {
            return;
        };
        let Some((tag, ack)) = self.rule.ack(msg, &self.round) else {
            return;
        };
        if self.round.offer(server, tag, ack) {
            match self.rule.decide(&self.round) {
                Decision::Respond(returned) => {
                    self.pending = None;
                    self.history.respond(op, returned, now);
                }
                Decision::Next(request) => {
                    self.round.reset(self.invoked);
                    out.broadcast(self.layout.servers(), request);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// S = 5, t = 2: a quorum is 3 servers.
    fn round(tag: u64) -> Round<char> {
        Round::new(&ClusterConfig::crash_stop(5, 2, 1).unwrap(), tag)
    }

    #[test]
    fn a_repeated_server_is_counted_once_and_replaced() {
        let mut r = round(7);
        assert!(!r.offer(3, 7, 'a'));
        assert!(!r.offer(3, 7, 'b'));
        assert!(!r.offer(0, 7, 'c'));
        assert_eq!(r.acks().collect::<String>(), "cb");
        assert!(r.offer(4, 7, 'd'), "third distinct server");
    }

    #[test]
    fn a_stale_tag_is_ignored() {
        let mut r = round(7);
        assert!(!r.offer(0, 7, 'a'));
        assert!(!r.offer(1, 7, 'b'));
        assert!(!r.offer(2, 6, 'x'), "would have been the quorum");
        assert!(!r.offer(2, 8, 'x'));
        assert_eq!(r.acks().collect::<String>(), "ab");
    }

    #[test]
    fn quorum_is_reported_at_exactly_the_quorum_th_distinct_server() {
        let mut r = round(1);
        let reported: Vec<bool> = [4, 4, 2, 2, 0, 1].map(|s| r.offer(s, 1, 'x')).into();
        assert_eq!(reported, [false, false, false, false, true, true]);
    }

    #[test]
    fn acks_iterate_in_server_index_order() {
        let mut r = round(1);
        for (server, ack) in [(4, 'e'), (0, 'a'), (2, 'c')] {
            r.offer(server, 1, ack);
        }
        assert_eq!(r.acks().collect::<String>(), "ace");
    }

    #[test]
    fn a_reset_round_is_empty_and_expects_the_new_tag() {
        let mut r = round(7);
        assert!(!r.offer(0, 7, 'a'));
        assert!(!r.offer(1, 7, 'b'));
        r.reset(8);
        assert_eq!(r.acks().count(), 0);
        assert!(!r.offer(2, 7, 'x'), "the old tag is stale now");
        assert!(!r.offer(0, 8, 'c'));
        assert!(
            !r.offer(1, 8, 'd'),
            "answers to the old tag no longer count"
        );
        assert!(r.offer(4, 8, 'e'));
        assert_eq!(r.acks().collect::<String>(), "cde");
    }

    /// The multi-round path, on ABD's read (S = 5, t = 2, one tag for both
    /// phases): each phase counts only its own acks, a server once.
    #[test]
    fn a_second_round_counts_only_its_own_acks_and_a_server_once() {
        use crate::protocols::abd::{Msg, Reader};
        use crate::types::Timestamp;
        use fastreg_simnet::time::SimTime;

        let cfg = ClusterConfig::crash_stop(5, 2, 1).unwrap();
        let layout = Layout::of(&cfg);
        let history = SharedHistory::new(cfg.w + cfg.r);
        let mut reader = Reader::new(cfg, layout, history.clone());
        let me = layout.reader(0);
        let mut step = |from: ProcessId, msg: Msg| {
            let mut out = Outbox::new(me, SimTime::ZERO);
            reader.on_message(from, msg, &mut out);
            out.into_messages()
        };
        let server = |j| layout.server(j);
        let query_ack = |ts| Msg::QueryAck {
            op_counter: 1,
            ts: Timestamp(ts),
            value: RegValue::Val(ts),
        };
        let write_back_ack = Msg::WriteBackAck { op_counter: 1 };

        assert_eq!(step(ProcessId::EXTERNAL, Msg::InvokeRead).len(), 5);
        assert!(step(server(0), write_back_ack.clone()).is_empty(), "early");
        assert!(step(server(0), query_ack(1)).is_empty());
        assert!(step(server(0), query_ack(1)).is_empty(), "repeated");
        assert!(step(server(1), query_ack(2)).is_empty());
        let write_back = Msg::WriteBack {
            op_counter: 1,
            ts: Timestamp(2),
            value: RegValue::Val(2),
        };
        let sent = step(server(2), query_ack(1));
        assert_eq!(sent.len(), 5, "third distinct server: the second round");
        assert!(sent.iter().all(|(_, msg)| *msg == write_back));

        for late in [3, 4, 3] {
            assert!(step(server(late), query_ack(9)).is_empty());
        }
        for j in [0, 0, 1] {
            assert!(step(server(j), write_back_ack.clone()).is_empty());
        }
        assert!(
            history.client_busy(me.index()),
            "three late phase-1 acks and a repeated server are not a quorum"
        );
        step(server(2), write_back_ack);
        let read = history.snapshot().reads().next().unwrap().clone();
        assert_eq!(read.returned, Some(RegValue::Val(2)));
    }

    proptest! {
        /// `Round` against the `BTreeMap<u32, A>` + tag check + `len() >=
        /// quorum` it replaced in every client, over random offers — one
        /// round reused by `reset` against a fresh map per operation.
        #[test]
        fn round_agrees_with_the_btreemap_it_replaces(
            ops in proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u64..4, any::<u16>()), 0..40),
                1..4,
            ),
        ) {
            let mut r: Round<u16> = Round::new(&ClusterConfig::crash_stop(5, 2, 1).unwrap(), 1);
            for (op, offers) in ops.into_iter().enumerate() {
                let expected = op as u64 + 1;
                if op > 0 {
                    r.reset(expected);
                }
                let mut model: BTreeMap<u32, u16> = BTreeMap::new();
                for (server, tag, ack) in offers {
                    let full = tag == expected && {
                        model.insert(server, ack);
                        model.len() >= 3
                    };
                    prop_assert_eq!(r.offer(server, tag, ack), full);
                    prop_assert!(r.acks().eq(model.values()));
                }
            }
        }
    }
}
