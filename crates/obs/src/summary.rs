//! Exact latency summaries (order statistics over raw samples).
//!
//! The registry's [`crate::Histogram`] is bounded-memory and mergeable
//! but only bucket-accurate; report tables want *exact* percentiles.
//! This is the one shared implementation of that quantile math — the
//! workload crate re-exports [`LatencyStats`] rather than duplicating
//! it — and its outputs are pinned by regression tests on both sides.

/// Latency statistics over a set of operations, in ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyStats {
    /// Number of completed operations measured.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// Maximum.
    pub max: u64,
    /// Minimum.
    pub min: u64,
}

impl LatencyStats {
    /// Computes stats from raw latencies. Returns `None` for empty input.
    ///
    /// Percentiles are the nearest-rank-below order statistic
    /// (`sorted[floor((n-1)·p)]`) — the historical definition the
    /// E9/E16 tables pin.
    pub fn from_latencies(mut lat: Vec<u64>) -> Option<Self> {
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let count = lat.len() as u64;
        let sum: u128 = lat.iter().map(|&l| l as u128).sum();
        let pct = |p: f64| -> u64 {
            let idx = ((lat.len() as f64 - 1.0) * p).floor() as usize;
            lat[idx]
        };
        Some(LatencyStats {
            count,
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            max: *lat.last().expect("nonempty"),
            min: lat[0],
        })
    }

    /// Mirrors the summary into `reg` as gauges under `prefix`
    /// (`<prefix>.p50`, `.p95`, `.min`, `.max`) plus a
    /// `<prefix>.count` counter — integer fields only, so the
    /// registry snapshot stays float-free.
    pub fn record(&self, reg: &mut crate::MetricsRegistry, prefix: &str) {
        reg.counter_add(&format!("{prefix}.count"), self.count);
        reg.gauge_max(&format!("{prefix}.p50"), self.p50);
        reg.gauge_max(&format!("{prefix}.p95"), self.p95);
        reg.gauge_max(&format!("{prefix}.min"), self.min);
        reg.gauge_max(&format!("{prefix}.max"), self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_empty_is_none() {
        assert_eq!(LatencyStats::from_latencies(vec![]), None);
    }

    #[test]
    fn stats_computes_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::from_latencies(lat).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn stats_single_sample() {
        let s = LatencyStats::from_latencies(vec![7]).unwrap();
        assert_eq!(s.p50, 7);
        assert_eq!(s.p95, 7);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn record_mirrors_integer_fields() {
        let s = LatencyStats::from_latencies((1..=100).collect()).unwrap();
        let mut reg = crate::MetricsRegistry::new();
        s.record(&mut reg, "lat.read");
        assert_eq!(reg.counter("lat.read.count"), 100);
        assert_eq!(reg.gauge("lat.read.p50"), 50);
        assert_eq!(reg.gauge("lat.read.p95"), 95);
        assert_eq!(reg.gauge("lat.read.min"), 1);
        assert_eq!(reg.gauge("lat.read.max"), 100);
    }
}
