//! Fault-script mutation: the move generator of coverage-guided search.
//!
//! A coverage-novel script is worth exploring *around*: `mutate`
//! derives a variant by inserting, removing, swapping or retiming a few
//! events. The mutation rng is seeded from the cell salt and the variant
//! counter only — never from the schedule rng — so a mutated script
//! replays on the unchanged cell exactly like a shrunk one: every
//! delivery and op decision of the original schedule is preserved, and
//! only the scripted faults differ. That is the same independence
//! contract [`Cell::generate_faults`] documents, which is why mutants
//! shrink and serialize through the existing
//! shrink / [`Counterexample`] machinery
//! without any special casing.
//!
//! [`Counterexample`]: super::counterexample::Counterexample

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastreg_simnet::fault::{FaultEvent, FaultKind, FaultScript};

use super::cell::{splitmix64, Cell};

/// Salt for the mutation rng — distinct from the fault-script salt
/// (`0xfa01_5c21_9e00_0001`) and the schedule salt
/// (`0x5c8e_d01e_0000_0002`), so mutation can never shift either.
const MUTATION_SALT: u64 = 0x6d75_7461_7465_0003;

/// Scripts never grow past this many events: mutation explores shape,
/// not size, and the shrinker works from the other end anyway.
const MAX_EVENTS: usize = 64;

/// Derives variant `variant` of `base` for `cell`.
///
/// Pure: the same `(cell, base, variant)` triple yields the same script
/// on every machine. Applies one to three of the four moves — insert a
/// random event, remove one, swap two (application order within a round
/// is semantic), retime one to a different round.
pub(crate) fn mutate(cell: &Cell, base: &FaultScript, variant: u64) -> FaultScript {
    let mut rng = StdRng::seed_from_u64(splitmix64(
        cell.seed ^ MUTATION_SALT ^ splitmix64(variant.wrapping_add(1)),
    ));
    let mut events: Vec<FaultEvent> = base.events().to_vec();
    let rounds = (u64::from(cell.ops) * 4).max(1);
    let moves = rng.gen_range(1..=3);
    for _ in 0..moves {
        match rng.gen_range(0..4u32) {
            0 if events.len() < MAX_EVENTS => {
                let event = random_event(cell, rounds, &mut rng);
                let at = rng.gen_range(0..=events.len());
                events.insert(at, event);
            }
            1 if !events.is_empty() => {
                events.remove(rng.gen_range(0..events.len()));
            }
            2 if events.len() >= 2 => {
                let a = rng.gen_range(0..events.len());
                let b = rng.gen_range(0..events.len());
                events.swap(a, b);
            }
            3 if !events.is_empty() => {
                let i = rng.gen_range(0..events.len());
                events[i].at = rng.gen_range(0..rounds);
            }
            // The chosen move was inapplicable (empty/full script): fall
            // through to an insert when possible so mutation always
            // makes progress on an empty script.
            _ if events.len() < MAX_EVENTS => {
                let event = random_event(cell, rounds, &mut rng);
                events.push(event);
            }
            _ => {}
        }
    }
    let mut script = FaultScript::new();
    for e in events {
        script.push(e);
    }
    script
}

/// Draws one random fault event valid for the cell's layout.
fn random_event(cell: &Cell, rounds: u64, rng: &mut StdRng) -> FaultEvent {
    let layout = fastreg::layout::Layout::of(&cell.cfg);
    let cfg = cell.cfg;
    let at = rng.gen_range(0..rounds);
    let kind = match rng.gen_range(0..4u32) {
        // Crash a random server (the model allows up to t, but the
        // mutation space deliberately includes over-budget crashes:
        // hunting cells are beyond the hypotheses anyway, and on sound
        // cells the run must *still* stay clean or the checker flags it).
        0 => FaultKind::Crash(layout.server(rng.gen_range(0..cfg.s))),
        // Arm a writer mid-broadcast crash.
        1 if cfg.w > 0 => FaultKind::CrashAfterSends(
            layout.writer(rng.gen_range(0..cfg.w)),
            rng.gen_range(0..=cfg.s as usize),
        ),
        // Block or heal a directed client↔server link.
        k => {
            let server = layout.server(rng.gen_range(0..cfg.s));
            let client = if cfg.r > 0 && rng.gen_bool(0.6) {
                layout.reader(rng.gen_range(0..cfg.r))
            } else if cfg.w > 0 {
                layout.writer(rng.gen_range(0..cfg.w))
            } else {
                layout.server(rng.gen_range(0..cfg.s))
            };
            let (from, to) = if rng.gen_bool(0.5) {
                (client, server)
            } else {
                (server, client)
            };
            if k == 3 {
                FaultKind::Heal(from, to)
            } else {
                FaultKind::Block(from, to)
            }
        }
    };
    FaultEvent { at, kind }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;

    use crate::explore::cell::FaultDistribution;

    fn fixture() -> Cell {
        Cell {
            protocol: ProtocolId::FastCrash,
            cfg: ClusterConfig::crash_stop(5, 1, 3).unwrap(),
            seed: 3,
            ops: 8,
            dist: FaultDistribution::Partitioned,
        }
    }

    #[test]
    fn mutation_is_a_pure_function_of_cell_base_and_variant() {
        let cell = fixture();
        let base = cell.generate_faults();
        assert_eq!(mutate(&cell, &base, 0), mutate(&cell, &base, 0));
        assert_eq!(mutate(&cell, &base, 7), mutate(&cell, &base, 7));
    }

    #[test]
    fn variants_differ_and_stay_bounded() {
        let cell = fixture();
        let base = cell.generate_faults();
        let distinct: std::collections::BTreeSet<String> =
            (0..16).map(|v| mutate(&cell, &base, v).render()).collect();
        assert!(
            distinct.len() > 8,
            "16 variants collapsed to {}",
            distinct.len()
        );
        // Repeated mutation from a mutant never exceeds the size cap.
        let mut script = base;
        for v in 0..200 {
            script = mutate(&cell, &script, v);
            assert!(script.len() <= MAX_EVENTS);
        }
    }

    #[test]
    fn mutation_does_not_shift_the_schedule_randomness() {
        // An empty mutant on a Calm cell replays the pristine schedule:
        // same independence contract as shrinking.
        let cell = Cell {
            dist: FaultDistribution::Calm,
            ..fixture()
        };
        let pristine = cell.run();
        let replayed = cell.run_with(&FaultScript::new());
        assert_eq!(pristine.fingerprint, replayed.fingerprint);
    }

    #[test]
    fn mutants_replay_deterministically_on_their_cell() {
        let cell = fixture();
        let script = mutate(&cell, &cell.generate_faults(), 5);
        let a = cell.run_with(&script);
        let b = cell.run_with(&script);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fingerprint, b.fingerprint);
        // And the mutant round-trips through the serialized form, the
        // property corpus files lean on.
        let parsed = FaultScript::parse(&script.render()).unwrap();
        assert_eq!(parsed, script);
    }
}
