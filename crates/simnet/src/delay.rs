//! Message delay models for the timed scheduler.
//!
//! The paper's results are stated in communication rounds, so correctness is
//! delay-independent; delay models exist to (a) explore many interleavings
//! under random schedules and (b) make the 1-round vs 2-round latency gap
//! visible as simulated latency in the experiment harness.

use rand::Rng;

use crate::id::ProcessId;

/// How long a message spends in transit under the timed scheduler.
///
/// All durations are in ticks. Asynchrony in the *model* is unbounded; the
/// bounded distributions here only shape which interleavings a random run
/// explores — the scripted scheduler can still hold any message in transit
/// forever, which is how the lower-bound constructions work.
///
/// # Examples
///
/// ```
/// use fastreg_simnet::delay::DelayModel;
/// use fastreg_simnet::id::ProcessId;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let d = DelayModel::Uniform { lo: 10, hi: 20 };
/// let ticks = d.sample(ProcessId::new(0), ProcessId::new(1), &mut rng);
/// assert!((10..=20).contains(&ticks));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks.
    Constant(u64),
    /// Uniformly distributed in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum delay in ticks.
        lo: u64,
        /// Maximum delay in ticks.
        hi: u64,
    },
    /// Mostly `base`, but with probability `spike_prob` (in [0, 1]) the
    /// message straggles for `spike` ticks instead. Models a heavy tail.
    Spike {
        /// Common-case delay in ticks.
        base: u64,
        /// Probability of a straggler.
        spike_prob: f64,
        /// Straggler delay in ticks.
        spike: u64,
    },
    /// Delay depends on whether either endpoint is in the "far" set:
    /// cross-zone links take `far` ticks, others `near`. Models one slow
    /// replica zone.
    TwoZone {
        /// Ids of the far-zone processes.
        far_members: Vec<ProcessId>,
        /// Delay when both endpoints are near.
        near: u64,
        /// Delay when either endpoint is far.
        far: u64,
    },
}

impl DelayModel {
    /// Samples a delay for a message from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `lo > hi`.
    pub fn sample<R: Rng + ?Sized>(&self, from: ProcessId, to: ProcessId, rng: &mut R) -> u64 {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform delay with lo > hi");
                rng.gen_range(*lo..=*hi)
            }
            DelayModel::Spike {
                base,
                spike_prob,
                spike,
            } => {
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    *spike
                } else {
                    *base
                }
            }
            DelayModel::TwoZone {
                far_members,
                near,
                far,
            } => {
                if far_members.contains(&from) || far_members.contains(&to) {
                    *far
                } else {
                    *near
                }
            }
        }
    }
}

impl Default for DelayModel {
    /// One tick per hop: the "unit delay" model under which latency in ticks
    /// equals latency in message delays.
    fn default() -> Self {
        DelayModel::Constant(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn constant_is_constant() {
        let d = DelayModel::Constant(9);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(ProcessId::new(0), ProcessId::new(1), &mut r), 9);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = DelayModel::Uniform { lo: 3, hi: 8 };
        let mut r = rng();
        for _ in 0..200 {
            let s = d.sample(ProcessId::new(0), ProcessId::new(1), &mut r);
            assert!((3..=8).contains(&s));
        }
    }

    #[test]
    fn uniform_point_interval() {
        let d = DelayModel::Uniform { lo: 5, hi: 5 };
        let mut r = rng();
        assert_eq!(d.sample(ProcessId::new(0), ProcessId::new(1), &mut r), 5);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn uniform_rejects_inverted_bounds() {
        let d = DelayModel::Uniform { lo: 9, hi: 3 };
        let mut r = rng();
        let _ = d.sample(ProcessId::new(0), ProcessId::new(1), &mut r);
    }

    #[test]
    fn spike_produces_both_values() {
        let d = DelayModel::Spike {
            base: 1,
            spike_prob: 0.5,
            spike: 100,
        };
        let mut r = rng();
        let samples: Vec<u64> = (0..200)
            .map(|_| d.sample(ProcessId::new(0), ProcessId::new(1), &mut r))
            .collect();
        assert!(samples.contains(&1));
        assert!(samples.contains(&100));
        assert!(samples.iter().all(|&s| s == 1 || s == 100));
    }

    #[test]
    fn spike_prob_zero_never_spikes() {
        let d = DelayModel::Spike {
            base: 2,
            spike_prob: 0.0,
            spike: 100,
        };
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(d.sample(ProcessId::new(0), ProcessId::new(1), &mut r), 2);
        }
    }

    #[test]
    fn two_zone_splits_by_membership() {
        let d = DelayModel::TwoZone {
            far_members: vec![ProcessId::new(2)],
            near: 1,
            far: 50,
        };
        let mut r = rng();
        assert_eq!(d.sample(ProcessId::new(0), ProcessId::new(1), &mut r), 1);
        assert_eq!(d.sample(ProcessId::new(0), ProcessId::new(2), &mut r), 50);
        assert_eq!(d.sample(ProcessId::new(2), ProcessId::new(0), &mut r), 50);
    }

    #[test]
    fn default_is_unit_delay() {
        assert_eq!(DelayModel::default(), DelayModel::Constant(1));
    }
}
