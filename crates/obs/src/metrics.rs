//! Integer-only metrics: counters, gauges and log2-bucket histograms.
//!
//! Every cell is a `u64` and every update is integer arithmetic — no
//! float accumulation order, no platform rounding — so a rendered
//! [`MetricsRegistry`] snapshot is byte-identical wherever the same
//! updates were applied, regardless of worker/thread count or update
//! interleaving (all three cell kinds merge commutatively: counters
//! add, gauges max, histogram buckets add).

use std::collections::BTreeMap;

/// Number of histogram buckets: one for 0, one per power of two.
const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`. 65 buckets cover the whole `u64` range, so
/// `observe` never saturates or drops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An *upper bound* on the `q`-quantile (per-mille, 0..=1000):
    /// the exclusive upper edge of the bucket holding that sample, or
    /// the exact maximum for the last occupied bucket. Buckets are
    /// log2-wide, so this is a factor-of-two bound, not an exact
    /// order statistic — exact percentiles live in
    /// [`crate::LatencyStats`].
    pub fn quantile_upper_bound(&self, q_per_mille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count - 1) * q_per_mille.min(1000) / 1000 + 1;
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if k == 0 {
                    0
                } else {
                    // Exclusive upper edge 2^k, clamped to the true max.
                    1u64.checked_shl(k as u32).unwrap_or(u64::MAX).min(self.max)
                };
            }
        }
        self.max
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (k, *n))
            .collect()
    }
}

/// A named registry of counters, gauges and histograms.
///
/// Names are dot-separated paths (`"net.sent"`, `"store.shard3.ops"`).
/// Keys live in `BTreeMap`s, so rendering order — and therefore the
/// snapshot bytes — is name order, never insertion or hash order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises the named high-water gauge to `v` if `v` is larger.
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Reads a gauge (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Reads a histogram, if any samples were recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges `other` into `self` commutatively: counters add, gauges
    /// max, histograms add per bucket. `merge(a, b) == merge(b, a)` —
    /// this is what makes per-worker registries safe to combine in any
    /// order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders a human-readable snapshot (sorted, integer-only).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter  {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge    {k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "hist     {k}: count {} sum {} min {} max {} p50<= {} p95<= {}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile_upper_bound(500),
                h.quantile_upper_bound(950),
            ));
        }
        out
    }

    /// Serializes the snapshot as stable, deterministic JSON
    /// (sorted keys, integers only — no floats anywhere).
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            format!("\"{}\"", crate::json_escape(s))
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", quote(k)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", quote(k)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                quote(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
            ));
            for (j, (bucket, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bucket}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        for v in [3, 1, 100, 7] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 111);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn quantile_upper_bound_brackets_the_true_quantile() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // True p50 is 50 → bucket [32,64) → bound 64.
        assert_eq!(h.quantile_upper_bound(500), 64);
        // True p95 is 95 → bucket [64,128) → bound clamps to max 100.
        assert_eq!(h.quantile_upper_bound(950), 100);
        // q=0 lands in bucket [1,2) — the bound is its exclusive edge.
        assert_eq!(h.quantile_upper_bound(0), 2);
        assert_eq!(h.quantile_upper_bound(1000), 100);
    }

    #[test]
    fn registry_merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.counter_add("net.sent", 5);
        a.gauge_max("depth", 3);
        a.observe("lat", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("net.sent", 2);
        b.counter_add("net.dropped", 1);
        b.gauge_max("depth", 9);
        b.observe("lat", 4);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counter("net.sent"), 7);
        assert_eq!(ab.gauge("depth"), 9);
        assert_eq!(ab.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn json_is_sorted_and_integer_only() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.observe("lat", 0);
        r.observe("lat", 5);
        let json = r.to_json();
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z, "keys must render in name order");
        assert!(json.contains("\"buckets\": [[0, 1], [3, 1]]"));
    }

    #[test]
    fn empty_registry_renders_stable_bytes() {
        let r = MetricsRegistry::new();
        assert_eq!(
            r.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
        assert_eq!(r.render(), "");
    }
}
