//! Run-level message statistics.

/// Counters maintained by a [`World`](crate::world::World) across a run.
///
/// Message *complexity* comparisons between protocols (e.g. the fast read's
/// `2S` messages vs the ABD read's `4S`) are computed from these counters by
/// the experiment harness.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Total messages placed in transit.
    pub sent: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Total messages dropped (scripted or to crashed receivers).
    pub dropped: u64,
    /// Total steps executed (deliveries + injections).
    pub steps: u64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a send.
    pub(crate) fn record_send(&mut self) {
        self.sent += 1;
    }

    /// Records a delivery (one message, one step of its receiver).
    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
        self.steps += 1;
    }

    /// Records a dropped message.
    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Records an injected step (environment invocation).
    pub(crate) fn record_injection(&mut self) {
        self.steps += 1;
    }

    /// Messages still unaccounted for (in transit at the end of the run).
    pub fn in_transit(&self) -> u64 {
        self.sent - self.delivered - self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        s.record_send();
        s.record_send();
        s.record_send();
        s.record_delivery();
        s.record_drop();
        s.record_injection();
        assert_eq!(s.sent, 3);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.steps, 2);
        assert_eq!(s.in_transit(), 1);
    }

    #[test]
    fn default_is_zero() {
        let s = NetStats::default();
        assert_eq!(s.sent, 0);
        assert_eq!(s.in_transit(), 0);
    }
}
