//! The in-transit set `mset` as a send-ordered window, and the timed
//! scheduler's FIFO run inside it.
//!
//! [`MsgId`]s are handed out densely and monotonically, and a message is
//! usually delivered soon after it was sent, so the live ids form a short
//! window that slides forward. [`InTransit`] stores that window
//! contiguously, one slot per id from the oldest live message on:
//!
//! * **insert** pushes at the back (ids only grow);
//! * **lookup by id** guesses the slot as `id − front id` — exact while
//!   the window is dense — then as `back id − id` slots from the back —
//!   exact for everything pushed since the last compaction — and only
//!   then falls back to a binary search over the (always strictly
//!   increasing) slot ids;
//! * **removal** leaves a tombstone, then trims tombstones off the front,
//!   so a fully drained window is empty and dense again;
//! * **compaction**: when tombstones outnumber live envelopes by more
//!   than [`COMPACT_SLACK`], they are all squeezed out in one pass. That
//!   pass is paid for by the removals that made the tombstones, and it
//!   keeps the resident slots O(in-flight) even when one old message is
//!   pinned (blocked link, crashed receiver) under a stream of newer
//!   ones.
//!
//! ## The run
//!
//! A send whose `(ready_at, id)` key is greater than the newest key on
//! the *run* (or any send while the run has no live slot) joins the run:
//! its slot is flagged, and nothing else indexes it. Run slots are in
//! window order and their keys only grow, so the first live run slot is
//! the run's earliest entry; [`InTransit::run_front`] finds it from a
//! cursor that only moves past slots that can never be on the run again.
//! Under `DelayModel::Constant` every send joins the run, and a timed
//! step takes its envelope by slot, with no id lookup. A send that does
//! not join (a shorter delay landing before an earlier send) is indexed
//! by the ready queue's heap instead, and a run slot on a blocked link
//! leaves the run for the queue's parking table.
//!
//! Iteration is in slot order, which is send order — the order `pending`,
//! `deliver_matching`, `drop_matching`, `step_random` and the reference
//! scan have always seen.

use std::collections::VecDeque;

use super::sched::ReadyEntry;
use crate::envelope::{Envelope, MsgId};
use crate::time::SimTime;

/// Tombstones tolerated on top of one per live envelope before a
/// compaction pass.
const COMPACT_SLACK: usize = 32;

/// One id of the window; `env` is `None` once the message was removed
/// (a tombstone, kept so slot ids stay searchable).
#[derive(Debug)]
struct Slot<M> {
    id: MsgId,
    env: Option<Envelope<M>>,
    /// On the run; only ever set for a live slot.
    run: bool,
}

/// The in-transit set: envelopes addressable by id, iterable in send
/// order, with the scheduler's FIFO run flagged among them. See the
/// [module docs](self).
#[derive(Debug)]
pub(super) struct InTransit<M> {
    /// Strictly increasing ids; the front slot, if any, is live.
    slots: VecDeque<Slot<M>>,
    live: usize,
    /// Live slots on the run.
    run_live: usize,
    /// The key of the newest slot that joined the run (meaningful while
    /// `run_live > 0`).
    run_back: ReadyEntry,
    /// No slot before this index is on the run; at most `slots.len()`.
    run_head: usize,
}

impl<M> InTransit<M> {
    pub(super) fn new() -> Self {
        InTransit {
            slots: VecDeque::new(),
            live: 0,
            run_live: 0,
            run_back: (SimTime::ZERO, MsgId(0)),
            run_head: 0,
        }
    }

    /// Number of in-transit envelopes.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Number of envelopes on the run.
    pub(super) fn run_len(&self) -> usize {
        self.run_live
    }

    /// Adds an envelope whose id is greater than every id inserted so
    /// far; returns whether it joined the run.
    pub(super) fn insert(&mut self, env: Envelope<M>) -> bool {
        debug_assert!(self.slots.back().is_none_or(|s| s.id < env.id));
        let key = (env.ready_at, env.id);
        let run = self.run_live == 0 || self.run_back < key;
        if run {
            self.run_live += 1;
            self.run_back = key;
        }
        self.slots.push_back(Slot {
            id: env.id,
            env: Some(env),
            run,
        });
        self.live += 1;
        run
    }

    /// The slot holding `id`, live or tombstoned.
    fn position(&self, id: MsgId) -> Option<usize> {
        let holds = |slot: usize| self.slots.get(slot).is_some_and(|s| s.id == id);
        // Ids are dense from the front until a compaction closes holes…
        let from_front = usize::try_from(id.0.checked_sub(self.slots.front()?.id.0)?).ok()?;
        if holds(from_front) {
            return Some(from_front);
        }
        // …and dense from the back for everything pushed since then.
        let from_back = usize::try_from(self.slots.back()?.id.0.checked_sub(id.0)?).ok()?;
        match (self.slots.len() - 1).checked_sub(from_back) {
            Some(slot) if holds(slot) => Some(slot),
            _ => self.slots.binary_search_by_key(&id, |s| s.id).ok(),
        }
    }

    /// The slot of the in-transit envelope with this id.
    pub(super) fn slot_of(&self, id: MsgId) -> Option<usize> {
        self.position(id)
            .filter(|&slot| self.slots[slot].env.is_some())
    }

    /// The envelope in a live slot (from [`slot_of`](Self::slot_of) or
    /// [`run_front`](Self::run_front), with no removal since).
    pub(super) fn at(&self, slot: usize) -> &Envelope<M> {
        self.slots[slot].env.as_ref().expect("a live slot")
    }

    /// The in-transit envelope with this id.
    #[cfg(test)]
    pub(super) fn get(&self, id: MsgId) -> Option<&Envelope<M>> {
        self.slot_of(id).map(|slot| self.at(slot))
    }

    /// The slot and key of the run's earliest envelope, if the run has
    /// one.
    pub(super) fn run_front(&mut self) -> Option<(usize, ReadyEntry)> {
        if self.run_live == 0 {
            return None;
        }
        // A live run slot lies at or after the cursor.
        loop {
            let slot = &self.slots[self.run_head];
            if slot.run {
                let env = slot.env.as_ref()?;
                return Some((self.run_head, (env.ready_at, env.id)));
            }
            self.run_head += 1;
        }
    }

    /// Takes a live slot's envelope off the run; it stays in transit.
    pub(super) fn leave_run(&mut self, slot: usize) {
        if std::mem::take(&mut self.slots[slot].run) {
            self.run_live -= 1;
        }
    }

    /// Takes the envelope in a live slot out of transit.
    pub(super) fn take(&mut self, slot: usize) -> Envelope<M> {
        let slot = &mut self.slots[slot];
        let env = slot.env.take().expect("a live slot");
        if std::mem::take(&mut slot.run) {
            self.run_live -= 1;
        }
        self.live -= 1;
        while self.slots.front().is_some_and(|s| s.env.is_none()) {
            self.slots.pop_front();
            self.run_head = self.run_head.saturating_sub(1);
        }
        if self.slots.len() - self.live > self.live + COMPACT_SLACK {
            let dead = self
                .slots
                .range(..self.run_head)
                .filter(|s| s.env.is_none())
                .count();
            self.run_head -= dead;
            self.slots.retain(|s| s.env.is_some());
        }
        env
    }

    /// Takes the envelope with this id out of transit.
    pub(super) fn remove(&mut self, id: MsgId) -> Option<Envelope<M>> {
        let slot = self.slot_of(id)?;
        Some(self.take(slot))
    }

    /// The in-transit envelopes, in send order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.slots.iter().filter_map(|s| s.env.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::automaton::{Automaton, Outbox};
    use crate::id::ProcessId;
    use crate::runner::SimConfig;
    use crate::time::SimTime;
    use crate::world::World;

    fn env(id: u64) -> Envelope<u64> {
        Envelope {
            id: MsgId(id),
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            sent_at: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            msg: id * 10,
        }
    }

    /// Asserts `window` and `model` agree on length, on every id in
    /// `0..=next_id` and on iteration order.
    fn assert_same(window: &InTransit<u64>, model: &BTreeMap<MsgId, Envelope<u64>>, next_id: u64) {
        assert_eq!(window.len(), model.len());
        for id in (0..=next_id).map(MsgId) {
            assert_eq!(
                window.get(id).map(|e| e.msg),
                model.get(&id).map(|e| e.msg),
                "get {id}"
            );
        }
        assert!(window.iter().map(|e| e.id).eq(model.keys().copied()));
        assert!(window.slots.len() <= 2 * window.len() + COMPACT_SLACK + 1);
        assert!(window.slots.front().is_none_or(|s| s.env.is_some()));
    }

    /// Random insert / get / remove / iterate sequences against the
    /// `BTreeMap<MsgId, Envelope>` this structure replaced. Victims are
    /// the oldest, the newest, a random live id or any id at all (unknown
    /// or already removed), so front trims, interior holes, compactions
    /// and the binary search after them all occur.
    #[test]
    fn behaves_like_the_btreemap_it_replaced() {
        let mut searched = 0;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut window = InTransit::new();
            let mut model: BTreeMap<MsgId, Envelope<u64>> = BTreeMap::new();
            let mut next_id = 0u64;
            for _ in 0..1_500 {
                // Growing and draining phases alternate, so the window
                // gets long and also empties completely.
                let insert_odds = if (next_id / 150).is_multiple_of(2) {
                    7
                } else {
                    2
                };
                if rng.gen_range(0..10) < insert_odds {
                    window.insert(env(next_id));
                    model.insert(MsgId(next_id), env(next_id));
                    next_id += 1;
                } else {
                    let victim = match rng.gen_range(0..8) {
                        0 => model.keys().next().copied(),
                        1 | 2 => model.keys().next_back().copied(),
                        3..=5 if !model.is_empty() => {
                            model.keys().nth(rng.gen_range(0..model.len())).copied()
                        }
                        _ => Some(MsgId(rng.gen_range(0..next_id + 2))),
                    };
                    if let Some(id) = victim {
                        assert_eq!(
                            window.remove(id).map(|e| e.msg),
                            model.remove(&id).map(|e| e.msg),
                            "remove {id}"
                        );
                    }
                }
                assert_same(&window, &model, next_id);
                // Only a compaction makes neighbouring slot ids skip.
                let ids: Vec<u64> = window.slots.iter().map(|s| s.id.0).collect();
                searched += usize::from(ids.windows(2).any(|w| w[1] != w[0] + 1));
            }
        }
        assert!(searched > 1_000, "compacted windows probed: {searched}");
    }

    /// Random sends (ready times mostly growing, sometimes earlier),
    /// removals by id, and the run front taken or parked, against a
    /// model of the run as a sorted set with its own newest key: a send
    /// joins exactly when the model says it is in order, and the run
    /// front is always the model's smallest key, across front trims and
    /// compactions.
    #[test]
    fn the_run_front_is_the_earliest_in_order_send() {
        use std::collections::BTreeSet;

        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut window = InTransit::new();
            let mut run: BTreeSet<ReadyEntry> = BTreeSet::new();
            let mut newest = None;
            let mut live: Vec<MsgId> = Vec::new();
            let mut clock = 0u64;
            for id in 0..2_000u64 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        clock += rng.gen_range(0..3);
                        let ready = clock + if rng.gen_range(0..5) == 0 { 0 } else { 9 };
                        let mut e = env(id);
                        e.ready_at = SimTime::from_ticks(ready);
                        let key = (e.ready_at, e.id);
                        let joins = run.is_empty() || newest < Some(key);
                        assert_eq!(window.insert(e), joins, "insert {key:?}");
                        if joins {
                            run.insert(key);
                            newest = Some(key);
                        }
                        live.push(MsgId(id));
                    }
                    5 | 6 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        let e = window.remove(id).expect("live");
                        run.remove(&(e.ready_at, e.id));
                    }
                    7..=9 => {
                        let Some((slot, key)) = window.run_front() else {
                            assert!(run.is_empty());
                            continue;
                        };
                        assert_eq!(key, (window.at(slot).ready_at, window.at(slot).id));
                        assert_eq!(run.pop_first(), Some(key));
                        if rng.gen_range(0..3) == 0 {
                            // Parked: off the run, still in transit.
                            window.leave_run(slot);
                        } else {
                            window.take(slot);
                            live.retain(|&l| l != key.1);
                        }
                    }
                    _ => {}
                }
                assert_eq!(window.run_len(), run.len());
                assert_eq!(window.len(), live.len());
                let front = window.run_front().map(|(_, key)| key);
                assert_eq!(front, run.first().copied());
            }
        }
    }

    /// Replies to every message, so a delivery always puts one new
    /// message in transit.
    struct Echo;

    impl Automaton for Echo {
        type Msg = u8;

        fn on_message(&mut self, from: ProcessId, msg: u8, out: &mut Outbox<u8>) {
            out.send(from, msg);
        }
    }

    #[test]
    fn a_pinned_message_does_not_make_the_window_grow_with_traffic() {
        let mut w: World<u8> = World::new(SimConfig::default().with_trace_capacity(0));
        let a = w.add_actor(Box::new(Echo));
        let b = w.add_actor(Box::new(Echo));
        let c = w.add_actor(Box::new(Echo));
        // The oldest message sits on a blocked link for the whole run.
        w.block_link(a, c);
        let pinned = w.send_from_external(a, c, 0);
        w.send_from_external(a, b, 1);
        let mut high_water = 0;
        for _ in 0..100_000 {
            assert!(w.step_timed(), "the echo pair never drains");
            high_water = high_water.max(w.mset.slots.len());
        }
        assert_eq!(w.stats().delivered, 100_000);
        assert_eq!(w.pending_len(), 2);
        assert_eq!(w.pending().next().map(|e| e.id), Some(pinned));
        assert!(
            high_water <= 2 * 2 + COMPACT_SLACK + 1,
            "resident slots grew to {high_water}"
        );
        assert!(w.mset.slots.capacity() <= 4 * COMPACT_SLACK);
        // Healed, the pinned message (long overdue) is the next delivery.
        w.heal_link(a, c);
        assert!(w.step_timed());
        assert!(w.pending().all(|e| e.id != pinned));
    }
}
