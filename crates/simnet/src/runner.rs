//! Simulation configuration.

use crate::delay::DelayModel;
use crate::trace::DEFAULT_CAPACITY;

/// Configuration for a [`World`](crate::world::World).
///
/// # Examples
///
/// ```
/// use fastreg_simnet::runner::SimConfig;
/// use fastreg_simnet::delay::DelayModel;
///
/// let cfg = SimConfig::default()
///     .with_seed(42)
///     .with_delay(DelayModel::Uniform { lo: 5, hi: 50 });
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for all randomness in the run (delays, random scheduling).
    /// Runs with equal seeds and equal drivers produce identical traces.
    pub seed: u64,
    /// Message delay model for the timed scheduler.
    pub delay: DelayModel,
    /// Maximum entries kept in the trace; later events are only counted.
    /// The default, 16 384, holds every run that is rendered or pinned
    /// whole; a reader of longer runs asks for more (`usize::MAX` stores
    /// every event). 0 keeps none and digests every event instead.
    pub trace_capacity: usize,
    /// Step budget for `run_*` loops; exceeded budgets indicate livelock.
    pub max_steps: u64,
}

impl SimConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Returns the config with a different trace capacity.
    pub fn with_trace_capacity(mut self, cap: usize) -> Self {
        self.trace_capacity = cap;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            delay: DelayModel::default(),
            trace_capacity: DEFAULT_CAPACITY,
            max_steps: 10_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_update_fields() {
        let cfg = SimConfig::default()
            .with_seed(9)
            .with_delay(DelayModel::Constant(3))
            .with_trace_capacity(10);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.delay, DelayModel::Constant(3));
        assert_eq!(cfg.trace_capacity, 10);
    }

    #[test]
    fn default_has_positive_budget() {
        let cfg = SimConfig::default();
        assert!(cfg.max_steps > 0);
        assert!(cfg.trace_capacity > 0);
    }
}
