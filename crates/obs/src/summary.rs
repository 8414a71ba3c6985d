//! Exact latency summaries (order statistics over counted samples).
//!
//! The registry's [`crate::Histogram`] is bounded-memory and mergeable
//! but only bucket-accurate; report tables want *exact* percentiles.
//! Latencies take few distinct values (2 or 4 ticks on simnet, a few
//! µs on threads), so each value is counted once and the order
//! statistics are read off the counts: exact, in memory that grows with
//! the distinct values rather than with the samples.
//! This is the one shared implementation of that quantile math — the
//! workload crate re-exports [`LatencyStats`] rather than duplicating
//! it — and its outputs are pinned by regression tests on both sides.

use std::collections::BTreeMap;

/// Latencies below this many ticks are counted in an array.
const SHORT: usize = 256;

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
    /// Computes stats from raw latencies, in any order. Returns `None`
    /// for empty input.
    ///
    /// Percentiles are the nearest-rank-below order statistic
    /// (`sorted[floor((n-1)·p)]` of the `n` latencies in order) — the
    /// historical definition the E9/E16 tables pin. The latencies are
    /// counted per value, not buffered: they take a handful of values,
    /// so the counts are a few entries where the samples are every
    /// operation.
    pub fn from_latencies(lat: impl IntoIterator<Item = u64>) -> Option<Self> {
        // Short latencies, nearly all of them, are counted in an array;
        // the rare longer ones in a map.
        let mut short = [0u64; SHORT];
        let mut long = BTreeMap::new();
        for l in lat {
            match usize::try_from(l).ok().and_then(|i| short.get_mut(i)) {
                Some(n) => *n += 1,
                None => *long.entry(l).or_insert(0) += 1,
            }
        }
        let counts = (0..).zip(short.iter().copied());
        Self::from_counts(counts.chain(long.iter().map(|(&l, &n)| (l, n))))
    }

    /// The stats of latencies counted per value: `(value, count)` pairs
    /// in ascending value order.
    fn from_counts(counts: impl Iterator<Item = (u64, u64)> + Clone) -> Option<Self> {
        let count: u64 = counts.clone().map(|(_, n)| n).sum();
        if count == 0 {
            return None;
        }
        let sum: u128 = counts.clone().map(|(l, n)| l as u128 * n as u128).sum();
        // The latency at 0-based rank `floor((count-1)·p)`.
        let pct = |p: f64| -> u64 {
            let rank = ((count as f64 - 1.0) * p).floor() as u64;
            let mut below = 0;
            for (l, n) in counts.clone() {
                below += n;
                if rank < below {
                    return l;
                }
            }
            unreachable!("rank {rank} is below the count {count}")
        };
        Some(LatencyStats {
            count,
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            max: pct(1.0),
            min: pct(0.0),
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

    /// The definition the counting path must equal: the sorted samples'
    /// nearest-rank-below order statistics.
    fn sorted_definition(mut lat: Vec<u64>) -> Option<LatencyStats> {
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let n = lat.len();
        let pct = |p: f64| lat[((n as f64 - 1.0) * p).floor() as usize];
        Some(LatencyStats {
            count: n as u64,
            mean: lat.iter().map(|&l| l as u128).sum::<u128>() as f64 / n as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            max: lat[n - 1],
            min: lat[0],
        })
    }

    proptest::proptest! {
        /// Few distinct values (as on simnet) and many (as on threads).
        #[test]
        fn counting_equals_the_sorted_definition(
            few in proptest::collection::vec(2u64..5, 0..300),
            many in proptest::collection::vec(0u64..100_000, 0..300),
        ) {
            for lat in [few, many] {
                proptest::prop_assert_eq!(
                    LatencyStats::from_latencies(lat.clone()),
                    sorted_definition(lat)
                );
            }
        }
    }

    #[test]
    fn record_mirrors_integer_fields() {
        let s = LatencyStats::from_latencies(1..=100).unwrap();
        let mut reg = crate::MetricsRegistry::new();
        s.record(&mut reg, "lat.read");
        assert_eq!(reg.counter("lat.read.count"), 100);
        assert_eq!(reg.gauge("lat.read.p50"), 50);
        assert_eq!(reg.gauge("lat.read.p95"), 95);
        assert_eq!(reg.gauge("lat.read.min"), 1);
        assert_eq!(reg.gauge("lat.read.max"), 100);
    }
}
