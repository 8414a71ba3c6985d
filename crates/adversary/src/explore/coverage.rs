//! Coverage over stable run signals: the feedback half of
//! coverage-guided exploration.
//!
//! Every cell run already produces a handful of *deterministic*
//! observations — the contract verdict, the trace fingerprint, the
//! predicate witness histogram, the schedule's message-reorder depth,
//! and the shape of the fault script that drove it. [`cell_features`]
//! folds each observation into a small set of 64-bit **features** via an
//! FNV-1a hash of a stable textual key, and a [`CoverageMap`] records
//! which features any run of the exploration has produced so far.
//!
//! A schedule is *coverage-novel* when it produces a feature the map has
//! never seen; the [`strategy`](super::strategy) layer keeps novel
//! scripts in a pool and mutates them toward further novelty. Everything
//! here is pure data-in/data-out: same cells in the same order produce
//! byte-identical maps and reports at any thread count (the engine folds
//! outcomes in cell order after `map_ordered`).

use std::collections::BTreeMap;

use fastreg_simnet::fault::{FaultKind, FaultScript};

use super::cell::{Cell, CellOutcome};

/// FNV-1a over a stable textual feature key — the deterministic feature
/// hasher. 64-bit, no per-process state, identical on every platform.
pub(crate) fn feature_hash(key: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Logarithmic bucketing for unbounded counters: 0 → 0, 1 → 1,
/// 2..=3 → 2, 4..=7 → 3, … — close counts share a feature, order-of-
/// magnitude jumps open a new one.
fn log2_bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// The stable verb of a fault action (its argument-free shape).
fn kind_verb(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash(_) => "crash",
        FaultKind::CrashAfterSends(..) => "crash-after-sends",
        FaultKind::Block(..) => "block",
        FaultKind::Heal(..) => "heal",
    }
}

/// Extracts the *behavior* features of one cell run — what the run
/// **did**, independent of the script that drove it. These are the
/// features the traversal strategy scores pairs by.
///
/// Features are class-tagged so different signals can never collide into
/// one key:
///
/// * `verdict/…` — protocol × distribution × verdict code: *which* runs
///   reach which verdicts (the headline signal — a new violation kind on
///   a new protocol is always novel);
/// * `trace/…` — the trace fingerprint folded to a 16-bucket schedule
///   shape per protocol × distribution (raw fingerprints are unique per
///   schedule and would saturate instantly; the fold keeps them a
///   *shape* signal);
/// * `reorder/…` — log-bucketed message-reorder depth per protocol:
///   how adversarial the delivery order got;
/// * `witness/…` — each predicate witness level per protocol, with its
///   log-bucketed occurrence count: how degraded the quorum state the
///   readers decided from was.
pub(crate) fn behavior_features(cell: &Cell, outcome: &CellOutcome) -> Vec<u64> {
    let proto = cell.protocol.name();
    let dist = cell.dist.name();
    let mut features = Vec::with_capacity(4 + outcome.signals.witness_levels.len());
    let mut push = |key: String| features.push(feature_hash(&key));
    push(format!("verdict/{proto}/{dist}/{}", outcome.verdict.code()));
    push(format!(
        "trace/{proto}/{dist}/{}",
        outcome.fingerprint & 0xf
    ));
    push(format!(
        "reorder/{proto}/{}",
        log2_bucket(outcome.signals.reorder_depth)
    ));
    push(format!("ops/{proto}/{}", log2_bucket(outcome.ops_issued)));
    for &(level, n) in &outcome.signals.witness_levels {
        push(format!("witness/{proto}/{level}/{}", log2_bucket(n)));
    }
    features
}

/// Extracts the *script-shape* features of one planned run — what was
/// **fed in**: log-bucketed event count per action verb (`script/…`) and
/// each event's verb × trigger quartile (`phase/…`, which run phase it
/// fires in).
///
/// Shape features go into the coverage map and report (they describe
/// how much of the script space a run visited), but they deliberately do
/// *not* feed the traversal score: the mutator manufactures new shapes
/// on every call, so rewarding shape novelty would let any mutated pair
/// feed itself budget regardless of what its runs do.
pub(crate) fn script_features(cell: &Cell, faults: &FaultScript) -> Vec<u64> {
    let dist = cell.dist.name();
    let mut features = Vec::with_capacity(2 + faults.len());
    let mut push = |key: String| features.push(feature_hash(&key));
    let rounds = (u64::from(cell.ops) * 4).max(1);
    let mut verb_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in faults.events() {
        *verb_counts.entry(kind_verb(e.kind)).or_insert(0) += 1;
        let quartile = (e.at * 4 / rounds).min(3);
        push(format!("phase/{dist}/{}/{quartile}", kind_verb(e.kind)));
    }
    for (verb, n) in verb_counts {
        push(format!("script/{dist}/{verb}/{}", log2_bucket(n)));
    }
    features
}

/// The full feature set of one cell run:
/// the behavior features ++ the fault-script features.
pub fn cell_features(cell: &Cell, faults: &FaultScript, outcome: &CellOutcome) -> Vec<u64> {
    let mut features = behavior_features(cell, outcome);
    features.extend(script_features(cell, faults));
    features
}

/// The set of features an exploration has produced, with hit counts.
///
/// Ordered storage ([`BTreeMap`]) keeps iteration — and therefore every
/// derived report — deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageMap {
    hits: BTreeMap<u64, u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Records one run's features; returns how many were novel (seen
    /// for the first time by this map). Duplicate features within one
    /// run count once.
    pub fn observe(&mut self, features: &[u64]) -> usize {
        let mut novel = 0;
        for &f in features {
            let hits = self.hits.entry(f).or_insert(0);
            if *hits == 0 {
                novel += 1;
            }
            *hits += 1;
        }
        novel
    }

    /// Whether the feature has been seen.
    pub(crate) fn contains(&self, feature: u64) -> bool {
        self.hits.contains_key(&feature)
    }

    /// Number of distinct features seen.
    pub fn features_seen(&self) -> usize {
        self.hits.len()
    }

    /// The distinct features, ascending.
    pub fn features(&self) -> impl Iterator<Item = u64> + '_ {
        self.hits.keys().copied()
    }

    /// Folds another map into this one.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (&f, &n) in &other.hits {
            *self.hits.entry(f).or_insert(0) += n;
        }
    }
}

/// One point of the saturation curve: after `cells` runs, `features`
/// distinct features had been seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaturationPoint {
    /// Cells run so far.
    pub cells: u32,
    /// Distinct features seen by then.
    pub features: usize,
}

/// The per-run coverage summary the engine attaches to its report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageReport {
    /// The strategy that drove the run (stable name).
    pub strategy: &'static str,
    /// Cells run.
    pub cells: u32,
    /// Distinct features seen over the whole run.
    pub features_seen: usize,
    /// The saturation curve, sampled every window of cells (final point
    /// always included). A flattening curve means the strategy has
    /// stopped finding new behavior.
    pub saturation: Vec<SaturationPoint>,
}

impl CoverageReport {
    /// Average novel features per 1000 cells (integer, for byte-stable
    /// rendering).
    pub fn novel_per_1k(&self) -> u64 {
        if self.cells == 0 {
            return 0;
        }
        self.features_seen as u64 * 1000 / u64::from(self.cells)
    }

    /// Renders the report as stable text, one `cells:features` pair per
    /// curve point.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "coverage[{}]: {} features over {} cells ({} novel/1k-cells)",
            self.strategy,
            self.features_seen,
            self.cells,
            self.novel_per_1k()
        );
        let _ = write!(s, "saturation:");
        for p in &self.saturation {
            let _ = write!(s, " {}:{}", p.cells, p.features);
        }
        let _ = writeln!(s);
        s
    }
}

/// Accumulates coverage in cell order and samples the saturation curve —
/// the engine's fold target.
#[derive(Clone, Debug)]
pub(crate) struct CoverageTracker {
    map: CoverageMap,
    cells_seen: u32,
    window: u32,
    curve: Vec<SaturationPoint>,
}

impl CoverageTracker {
    /// A tracker for a run of `total_cells`, sampling the curve every
    /// `total_cells / 8` cells (clamped to `1..=1000`).
    pub(crate) fn new(total_cells: u32) -> Self {
        CoverageTracker {
            map: CoverageMap::new(),
            cells_seen: 0,
            window: (total_cells / 8).clamp(1, 1000),
            curve: Vec::new(),
        }
    }

    /// Records one run's features; returns how many were novel.
    pub(crate) fn observe(&mut self, features: &[u64]) -> usize {
        let novel = self.map.observe(features);
        self.cells_seen += 1;
        if self.cells_seen.is_multiple_of(self.window) {
            self.curve.push(SaturationPoint {
                cells: self.cells_seen,
                features: self.map.features_seen(),
            });
        }
        novel
    }

    /// The map accumulated so far.
    pub(crate) fn map(&self) -> &CoverageMap {
        &self.map
    }

    /// Finalizes into a [`CoverageReport`] (appending the final curve
    /// point if the last window was partial).
    pub(crate) fn finish(mut self, strategy: &'static str) -> CoverageReport {
        if self.curve.last().map(|p| p.cells) != Some(self.cells_seen) && self.cells_seen > 0 {
            self.curve.push(SaturationPoint {
                cells: self.cells_seen,
                features: self.map.features_seen(),
            });
        }
        CoverageReport {
            strategy,
            cells: self.cells_seen,
            features_seen: self.map.features_seen(),
            saturation: self.curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg::config::ClusterConfig;
    use fastreg::protocols::registry::ProtocolId;

    use crate::explore::cell::FaultDistribution;

    #[test]
    fn feature_hash_is_the_pinned_fnv1a() {
        // FNV-1a's published 64-bit parameters: hash of "" is the offset
        // basis; "a" is the classic vector.
        assert_eq!(feature_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(feature_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(feature_hash("verdict/x"), feature_hash("trace/x"));
    }

    #[test]
    fn log_buckets_group_orders_of_magnitude() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1000), 10);
    }

    #[test]
    fn observe_counts_novelty_once() {
        let mut map = CoverageMap::new();
        let f = vec![feature_hash("a"), feature_hash("b"), feature_hash("a")];
        assert_eq!(map.observe(&f), 2, "duplicate within a run counts once");
        assert_eq!(map.observe(&f), 0, "nothing novel the second time");
        assert_eq!(map.features_seen(), 2);
        assert!(map.contains(feature_hash("a")));
        assert!(!map.contains(feature_hash("c")));
    }

    #[test]
    fn merge_unions_feature_sets() {
        let mut a = CoverageMap::new();
        a.observe(&[1, 2]);
        let mut b = CoverageMap::new();
        b.observe(&[2, 3]);
        a.merge(&b);
        assert_eq!(a.features_seen(), 3);
    }

    #[test]
    fn cell_features_are_deterministic_and_signal_sensitive() {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).unwrap();
        let cell = Cell {
            protocol: ProtocolId::FastCrash,
            cfg,
            seed: 7,
            ops: 8,
            dist: FaultDistribution::Partitioned,
        };
        let faults = cell.generate_faults();
        let out = cell.run();
        assert_eq!(
            cell_features(&cell, &faults, &out),
            cell_features(&cell, &faults, &out)
        );
        // A different distribution label alone changes the verdict
        // feature (class-tagged keys).
        let calm = Cell {
            dist: FaultDistribution::Calm,
            ..cell
        };
        let calm_out = calm.run();
        let calm_features = cell_features(&calm, &FaultScript::new(), &calm_out);
        assert_ne!(cell_features(&cell, &faults, &out), calm_features);
    }

    #[test]
    fn tracker_samples_a_monotone_curve() {
        let mut t = CoverageTracker::new(16);
        for i in 0..16u64 {
            // Two features per cell, one shared — the curve grows then
            // flattens relative to cells.
            t.observe(&[feature_hash("shared"), i]);
        }
        let report = t.finish("random-grid");
        assert_eq!(report.cells, 16);
        assert_eq!(report.features_seen, 17);
        assert_eq!(report.saturation.last().unwrap().cells, 16);
        for pair in report.saturation.windows(2) {
            assert!(pair[0].cells < pair[1].cells);
            assert!(pair[0].features <= pair[1].features);
        }
        // Rendering is stable and mentions the headline numbers.
        let text = report.render();
        assert!(text.contains("17 features over 16 cells"));
        assert!(text.contains("saturation:"));
    }
}
