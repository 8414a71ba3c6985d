//! Protocol-aware malicious server behaviours for the Fig. 5 protocol.
//!
//! §6 allows up to `b` servers to deviate arbitrarily. The generic
//! behaviour (mute) lives in `fastreg_simnet::byz`; the behaviours here
//! understand the protocol and attack it where it is actually sensitive:
//! stale replies, `seen`-set lies, forged timestamps, and the two-faced
//! memory-loss behaviour the §6.2 lower-bound proof uses.
//!
//! None of them can forge the writer's signature — that is the point of
//! the signature scheme — so every attack reduces to replaying authentic
//! records or lying about unauthenticated fields.

use fastreg_auth::{KeyId, Verifier};
use fastreg_simnet::automaton::{Automaton, Outbox};
use fastreg_simnet::id::ProcessId;

use crate::config::ClusterConfig;
use crate::layout::Layout;
use crate::protocols::fast_byz::{Msg, Server, SignedRecord};
use crate::types::{ClientId, ClientSet, RegValue, TaggedValue, Timestamp};

/// Always replies with the genesis record and a fully inflated `seen` set,
/// never adopting anything. Attacks both the timestamp freshness (stale
/// data) and the predicate (bogus evidence).
pub struct StaleReplayer {
    all_clients: ClientSet,
}

impl StaleReplayer {
    /// Creates the behaviour for a given configuration.
    pub fn new(cfg: &ClusterConfig) -> Self {
        let all_clients = (0..=cfg.r).map(ClientId).collect();
        StaleReplayer { all_clients }
    }
}

impl Automaton for StaleReplayer {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        let reply = |r_counter| Msg::ReadAck {
            record: SignedRecord::genesis(),
            seen: self.all_clients,
            r_counter,
        };
        match msg {
            Msg::Read { r_counter, .. } => out.send(from, reply(r_counter)),
            Msg::Write { r_counter, .. } => out.send(
                from,
                Msg::WriteAck {
                    record: SignedRecord::genesis(),
                    seen: self.all_clients,
                    r_counter,
                },
            ),
            _ => {}
        }
    }
}

/// Behaves like an honest server but reports `seen` as the full client
/// set, trying to trick readers into accepting unstable timestamps via the
/// predicate.
pub struct SeenInflater {
    inner: Server,
    all_clients: ClientSet,
}

impl SeenInflater {
    /// Wraps an honest server.
    pub fn new(cfg: &ClusterConfig, layout: Layout, verifier: Verifier, writer_key: KeyId) -> Self {
        let all_clients = (0..=cfg.r).map(ClientId).collect();
        SeenInflater {
            inner: Server::new(cfg, layout, verifier, writer_key),
            all_clients,
        }
    }
}

impl Automaton for SeenInflater {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        let mut tmp = out.scratch();
        self.inner.on_message(from, msg, &mut tmp);
        for (to, reply) in tmp.into_messages() {
            let inflated = match reply {
                Msg::ReadAck {
                    record, r_counter, ..
                } => Msg::ReadAck {
                    record,
                    seen: self.all_clients,
                    r_counter,
                },
                Msg::WriteAck {
                    record, r_counter, ..
                } => Msg::WriteAck {
                    record,
                    seen: self.all_clients,
                    r_counter,
                },
                other => other,
            };
            out.send(to, inflated);
        }
    }
}

/// Tries to pass off a *forged* record: a timestamp far in the future with
/// a signature copied from whatever genuine record it last saw. Honest
/// processes must reject it.
pub struct Forger {
    last_genuine: SignedRecord,
}

impl Forger {
    /// Creates the behaviour.
    pub fn new() -> Self {
        Forger {
            last_genuine: SignedRecord::genesis(),
        }
    }
}

impl Default for Forger {
    fn default() -> Self {
        Self::new()
    }
}

impl Automaton for Forger {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Write { record, r_counter } | Msg::Read { record, r_counter } => {
                if record.sig.is_some() {
                    self.last_genuine = record;
                }
                // Forge: bump the timestamp, attach a value of our
                // choosing, keep the old signature.
                let forged = SignedRecord {
                    ts: Timestamp(self.last_genuine.ts.0 + 1000),
                    tags: TaggedValue::new(RegValue::Val(666), RegValue::Val(666)),
                    sig: self.last_genuine.sig,
                };
                out.send(
                    from,
                    Msg::ReadAck {
                        record: forged,
                        seen: ClientId::WRITER.into(),
                        r_counter,
                    },
                );
            }
            _ => {}
        }
    }
}

/// Replays the *oldest* genuinely signed record it has ever seen, with its
/// honest `seen` set. Unlike [`StaleReplayer`] the payload carries a valid
/// writer signature and a plausible timestamp — the strongest stale-data
/// attack the signature scheme permits.
pub struct StaleOldest {
    inner: Server,
    oldest: Option<SignedRecord>,
}

impl StaleOldest {
    /// Wraps an honest server.
    pub fn new(cfg: &ClusterConfig, layout: Layout, verifier: Verifier, writer_key: KeyId) -> Self {
        StaleOldest {
            inner: Server::new(cfg, layout, verifier, writer_key),
            oldest: None,
        }
    }
}

impl Automaton for StaleOldest {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        if let Msg::Write { record, .. } | Msg::Read { record, .. } = &msg {
            let is_older = self
                .oldest
                .as_ref()
                .map(|o| record.ts < o.ts)
                .unwrap_or(true);
            if record.sig.is_some() && is_older {
                self.oldest = Some(record.clone());
            }
        }
        let mut tmp = out.scratch();
        self.inner.on_message(from, msg, &mut tmp);
        for (to, reply) in tmp.into_messages() {
            let stale = match (reply, self.oldest.clone()) {
                (
                    Msg::ReadAck {
                        seen, r_counter, ..
                    },
                    Some(old),
                ) => Msg::ReadAck {
                    record: old,
                    seen,
                    r_counter,
                },
                (other, _) => other,
            };
            out.send(to, stale);
        }
    }
}

/// Abuses the request-counter protocol field: answers every message
/// three times with shifted `r_counter` values (one correct, one stale,
/// one from the future), trying to confuse read incarnations.
pub struct CounterAbuser {
    inner: Server,
}

impl CounterAbuser {
    /// Wraps an honest server.
    pub fn new(cfg: &ClusterConfig, layout: Layout, verifier: Verifier, writer_key: KeyId) -> Self {
        CounterAbuser {
            inner: Server::new(cfg, layout, verifier, writer_key),
        }
    }
}

impl Automaton for CounterAbuser {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        let mut tmp = out.scratch();
        self.inner.on_message(from, msg, &mut tmp);
        for (to, reply) in tmp.into_messages() {
            match reply {
                Msg::ReadAck {
                    record,
                    seen,
                    r_counter,
                } => {
                    for rc in [r_counter.wrapping_sub(1), r_counter, r_counter + 1] {
                        out.send(
                            to,
                            Msg::ReadAck {
                                record: record.clone(),
                                seen,
                                r_counter: rc,
                            },
                        );
                    }
                }
                other => out.send(to, other),
            }
        }
    }
}

/// The §6.2 proof's behaviour: processes messages honestly, but maintains
/// a *shadow* state that pretends the `write` messages were never received
/// ("loses its memory"), and answers the designated victim from the shadow
/// while answering everyone else honestly.
pub struct TwoFacedLoseWrite {
    honest: Server,
    shadow: Server,
    victim: ProcessId,
}

impl TwoFacedLoseWrite {
    /// Creates the behaviour with the given victim (the proof uses `r1`).
    pub fn new(
        cfg: &ClusterConfig,
        layout: Layout,
        verifier: Verifier,
        writer_key: KeyId,
        victim: ProcessId,
    ) -> Self {
        TwoFacedLoseWrite {
            honest: Server::new(cfg, layout, verifier.clone(), writer_key),
            shadow: Server::new(cfg, layout, verifier, writer_key),
            victim,
        }
    }
}

impl Automaton for TwoFacedLoseWrite {
    type Msg = Msg;

    fn on_message(&mut self, from: ProcessId, msg: Msg, out: &mut Outbox<Msg>) {
        let is_write = matches!(msg, Msg::Write { .. });
        // The shadow never sees writes.
        if !is_write {
            let mut shadow_out = out.scratch();
            self.shadow.on_message(from, msg.clone(), &mut shadow_out);
            if from == self.victim {
                for (to, m) in shadow_out.into_messages() {
                    out.send(to, m);
                }
                // Keep the honest state in sync for everyone else's view.
                let mut sink = out.scratch();
                self.honest.on_message(from, msg, &mut sink);
                return;
            }
        }
        let mut honest_out = out.scratch();
        self.honest.on_message(from, msg, &mut honest_out);
        for (to, m) in honest_out.into_messages() {
            out.send(to, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ByzCtx, Cluster, ClusterBuilder, FastByz, ProtocolFamily, RegisterOps};
    use fastreg_simnet::runner::SimConfig;

    /// S = 6, t = 1, b = 1, R = 1 — feasible with one malicious server.
    fn cfg() -> ClusterConfig {
        ClusterConfig::byzantine(6, 1, 1, 1).unwrap()
    }

    fn cluster_with_byz(
        seed: u64,
        make: impl Fn(&ClusterConfig, Layout, &mut ByzCtx) -> Box<dyn Automaton<Msg = Msg>>,
    ) -> Cluster<FastByz> {
        // Server 0 is malicious; the rest are honest.
        ClusterBuilder::new(cfg())
            .sim(SimConfig::default().with_seed(seed))
            .build_typed_with(|c, l, index, ctx| {
                if index == 0 {
                    make(c, l, ctx)
                } else {
                    FastByz::server(c, l, index, ctx)
                }
            })
            .unwrap()
    }

    fn exercise(mut c: Cluster<FastByz>) {
        c.write_sync(1);
        let v1 = c.read(0);
        assert_eq!(v1, RegValue::Val(1), "completed write must be visible");
        c.write_sync(2);
        assert_eq!(c.read(0), RegValue::Val(2));
        c.check_atomic().unwrap();
    }

    #[test]
    fn stale_replayer_cannot_break_atomicity() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |c, _, _| Box::new(StaleReplayer::new(c)));
            exercise(c);
        }
    }

    #[test]
    fn seen_inflater_cannot_break_atomicity() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |c, l, ctx| {
                Box::new(SeenInflater::new(
                    c,
                    l,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                ))
            });
            exercise(c);
        }
    }

    #[test]
    fn forger_cannot_break_atomicity() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |_, _, _| Box::new(Forger::new()));
            exercise(c);
        }
    }

    #[test]
    fn two_faced_cannot_break_atomicity_when_feasible() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |c, l, ctx| {
                Box::new(TwoFacedLoseWrite::new(
                    c,
                    l,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                    l.reader(0),
                ))
            });
            exercise(c);
        }
    }

    #[test]
    fn stale_oldest_cannot_break_atomicity() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |c, l, ctx| {
                Box::new(StaleOldest::new(c, l, ctx.verifier.clone(), ctx.writer_key))
            });
            exercise(c);
        }
    }

    #[test]
    fn counter_abuser_cannot_break_atomicity() {
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |c, l, ctx| {
                Box::new(CounterAbuser::new(
                    c,
                    l,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                ))
            });
            exercise(c);
        }
    }

    #[test]
    fn mute_byz_server_cannot_break_atomicity() {
        use fastreg_simnet::byz::Mute;
        for seed in 0..10 {
            let c = cluster_with_byz(seed, |_, _, _| Box::new(Mute::default()));
            exercise(c);
        }
    }

    #[test]
    fn byz_attacks_under_random_interleavings() {
        // Concurrency + malicious server 0 + writer crash mid-broadcast.
        for seed in 0..15 {
            let mut c = cluster_with_byz(seed, |c, l, ctx| {
                Box::new(SeenInflater::new(
                    c,
                    l,
                    ctx.verifier.clone(),
                    ctx.writer_key,
                ))
            });
            c.write_sync(1);
            c.world
                .arm_crash_after_sends(c.layout.writer(0), (seed % 7) as usize);
            c.write(2);
            c.read_async(0);
            c.world.run_random_until_quiescent();
            let snap = c.snapshot();
            c.check_atomic()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", snap.render()));
        }
    }

    /// A wrapper runs its honest server into a scratch of the step's
    /// outbox: neither asks for the time, so on a wall clock the step
    /// reads none.
    #[test]
    fn a_wrapped_server_step_reads_no_clock() {
        use fastreg_simnet::automaton::LazyNow;
        use fastreg_simnet::time::SimTime;

        let cfg = cfg();
        let layout = Layout::of(&cfg);
        let ctx = FastByz::make_ctx(&cfg, 7);
        let (verifier, key) = (&ctx.verifier, ctx.writer_key);
        let reader = layout.reader(0);
        let behaviours: Vec<Box<dyn Automaton<Msg = Msg>>> = vec![
            Box::new(StaleReplayer::new(&cfg)),
            Box::new(SeenInflater::new(&cfg, layout, verifier.clone(), key)),
            Box::new(Forger::new()),
            Box::new(StaleOldest::new(&cfg, layout, verifier.clone(), key)),
            Box::new(CounterAbuser::new(&cfg, layout, verifier.clone(), key)),
            // The reader as the victim, and as anyone else.
            Box::new(TwoFacedLoseWrite::new(
                &cfg,
                layout,
                verifier.clone(),
                key,
                reader,
            )),
            Box::new(TwoFacedLoseWrite::new(
                &cfg,
                layout,
                verifier.clone(),
                key,
                layout.writer(0),
            )),
        ];
        let clock = || SimTime::from_ticks(1);
        for (i, mut server) in behaviours.into_iter().enumerate() {
            let now = LazyNow::new(&clock);
            let mut out = Outbox::with_lazy_now(layout.server(0), &now, Vec::new());
            let read = Msg::Read {
                record: SignedRecord::genesis(),
                r_counter: 1,
            };
            server.on_message(reader, read, &mut out);
            assert!(!out.is_empty(), "behaviour {i} answers");
            assert_eq!(now.reading(), None, "behaviour {i} read the clock");
        }
    }

    #[test]
    fn forged_record_never_enters_honest_state() {
        let mut c = cluster_with_byz(1, |_, _, _| Box::new(Forger::new()));
        c.write_sync(1);
        c.read(0);
        // No honest server may hold the forged ts (+1000) or value 666.
        for j in 1..c.cfg.s {
            let addr = c.layout.server(j);
            let (ts, tags) = c
                .world
                .with_actor::<Server, _, _>(addr, |s| (s.record.ts, s.record.tags))
                .unwrap();
            assert!(ts <= Timestamp(2), "server {j} adopted forged ts {ts:?}");
            assert_ne!(tags.cur, RegValue::Val(666));
        }
    }
}
