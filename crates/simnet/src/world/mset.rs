//! The in-transit set `mset` as a send-ordered window.
//!
//! [`MsgId`]s are handed out densely and monotonically, and a message is
//! usually delivered soon after it was sent, so the live ids form a short
//! window that slides forward. [`InTransit`] stores that window
//! contiguously, one slot per id from the oldest live message on:
//!
//! * **insert** pushes at the back (ids only grow);
//! * **get / remove** guess the slot as `id − front id` — exact while the
//!   window is dense — then as `back id − id` slots from the back — exact
//!   for everything pushed since the last compaction — and only then
//!   fall back to a binary search over the (always strictly increasing)
//!   slot ids;
//! * **remove** leaves a tombstone, then trims tombstones off the front,
//!   so a fully drained window is empty and dense again;
//! * **compaction**: when tombstones outnumber live envelopes by more
//!   than [`COMPACT_SLACK`], they are all squeezed out in one pass. That
//!   pass is paid for by the removals that made the tombstones, and it
//!   keeps the resident slots O(in-flight) even when one old message is
//!   pinned (blocked link, crashed receiver) under a stream of newer
//!   ones.
//!
//! Iteration is in slot order, which is send order — the order `pending`,
//! `deliver_matching`, `drop_matching`, `step_random` and the reference
//! scan have always seen.

use std::collections::VecDeque;

use crate::envelope::{Envelope, MsgId};

/// Tombstones tolerated on top of one per live envelope before a
/// compaction pass.
const COMPACT_SLACK: usize = 32;

/// One id of the window; `env` is `None` once the message was removed
/// (a tombstone, kept so slot ids stay searchable).
#[derive(Debug)]
struct Slot<M> {
    id: MsgId,
    env: Option<Envelope<M>>,
}

/// The in-transit set: envelopes addressable by id, iterable in send
/// order. See the [module docs](self).
#[derive(Debug)]
pub(super) struct InTransit<M> {
    /// Strictly increasing ids; the front slot, if any, is live.
    slots: VecDeque<Slot<M>>,
    live: usize,
}

impl<M> InTransit<M> {
    pub(super) fn new() -> Self {
        InTransit {
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of in-transit envelopes.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Adds an envelope whose id is greater than every id inserted so far.
    pub(super) fn insert(&mut self, env: Envelope<M>) {
        debug_assert!(self.slots.back().is_none_or(|s| s.id < env.id));
        self.slots.push_back(Slot {
            id: env.id,
            env: Some(env),
        });
        self.live += 1;
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

    /// The in-transit envelope with this id.
    pub(super) fn get(&self, id: MsgId) -> Option<&Envelope<M>> {
        self.slots[self.position(id)?].env.as_ref()
    }

    /// Takes the envelope with this id out of transit.
    pub(super) fn remove(&mut self, id: MsgId) -> Option<Envelope<M>> {
        let slot = self.position(id)?;
        let env = self.slots[slot].env.take()?;
        self.live -= 1;
        while self.slots.front().is_some_and(|s| s.env.is_none()) {
            self.slots.pop_front();
        }
        if self.slots.len() - self.live > self.live + COMPACT_SLACK {
            self.slots.retain(|s| s.env.is_some());
        }
        Some(env)
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
