//! `fastbench --check A.json B.json`: is B no worse than A?
//!
//! One row per workload x end-to-end metric. B's value may be worse
//! than A's by the metric's bound. Beyond that the row is `worse` —
//! unless either side's repetitions spread wider than the bound and the
//! two sides' ranges overlap, in which case the runs cannot tell and the
//! row is `unresolved`.

use std::collections::BTreeMap;

use crate::spec::{Better, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Status {
    Ok,
    Worse,
    Unresolved,
}

impl Status {
    fn word(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub status: Status,
}

type Flat = BTreeMap<String, f64>;

fn get(file: &Flat, key: &str) -> Result<f64, String> {
    file.get(key)
        .copied()
        .ok_or_else(|| format!("missing key '{key}'"))
}

/// Compares two merged result files (`fastbench --all` output).
pub fn compare(a: &[(String, f64)], b: &[(String, f64)]) -> Result<Vec<Row>, String> {
    let a: Flat = a.iter().cloned().collect();
    let b: Flat = b.iter().cloned().collect();
    if get(&a, "quick")? != get(&b, "quick")? {
        return Err("one file is a --quick run and the other is not: not comparable".into());
    }
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = format!("{}/{}", w.name, m.name);
            let side = |f: &Flat| -> Result<[f64; 5], String> {
                let mut v = [get(f, &key)?, 0.0, 0.0, 0.0, 0.0];
                for (slot, suffix) in v[1..].iter_mut().zip(["q1", "q3", "min", "max"]) {
                    *slot = get(f, &format!("{key}.{suffix}"))?;
                }
                Ok(v)
            };
            let [am, aq1, aq3, amin, amax] = side(&a)?;
            let [bm, bq1, bq3, bmin, bmax] = side(&b)?;
            let bound = m.bound.unwrap_or(0.0);
            let delta = match m.better {
                Better::Higher => am - bm,
                Better::Lower => bm - am,
            };
            let worse_by = if am != 0.0 {
                delta / am.abs()
            } else if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            let spread = |q1: f64, q3: f64, med: f64| med != 0.0 && (q3 - q1) / med.abs() > bound;
            let status = if worse_by <= bound {
                Status::Ok
            } else if (spread(aq1, aq3, am) || spread(bq1, bq3, bm)) && amin <= bmax && bmin <= amax
            {
                Status::Unresolved
            } else {
                Status::Worse
            };
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                a: am,
                b: bm,
                worse_by,
                status,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>16} {:>16} {:>9}  status\n",
        "workload", "metric", "A", "B", "worse by"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<18} {:>16.4} {:>16.4} {:>8.2}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.status.word()
        ));
    }
    let count = |s| rows.iter().filter(|r| r.status == s).count();
    out.push_str(&format!(
        "{} ok, {} unresolved, {} worse\n",
        count(Status::Ok),
        count(Status::Unresolved),
        count(Status::Worse)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A merged file in which every metric of every workload is `value`
    /// with quartiles `value -+ iqr/2` and range `value -+ iqr`.
    fn file(value: f64, iqr: f64) -> Vec<(String, f64)> {
        let mut f = vec![("quick".to_string(), 0.0)];
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let key = format!("{}/{}", w.name, m.name);
                f.push((key.clone(), value));
                f.push((format!("{key}.q1"), value - iqr / 2.0));
                f.push((format!("{key}.q3"), value + iqr / 2.0));
                f.push((format!("{key}.min"), value - iqr));
                f.push((format!("{key}.max"), value + iqr));
            }
        }
        f
    }

    fn status_of(rows: &[Row], metric: &str) -> Status {
        rows.iter()
            .find(|r| r.workload == "sim_fast_read" && r.metric == metric)
            .unwrap()
            .status
    }

    #[test]
    fn identical_files_are_all_ok() {
        let rows = compare(&file(100.0, 1.0), &file(100.0, 1.0)).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(|r| r.status == Status::Ok));
        assert!(render(&rows).contains("0 worse"));
    }

    #[test]
    fn direction_decides_which_side_is_worse() {
        // B = 50 against A = 100: throughput (higher is better) lost half,
        // every lower-is-better metric gained.
        let rows = compare(&file(100.0, 1.0), &file(50.0, 1.0)).unwrap();
        assert_eq!(status_of(&rows, "ops_per_s"), Status::Worse);
        assert_eq!(status_of(&rows, "peak_rss_mb"), Status::Ok);
        // And the other way round.
        let rows = compare(&file(100.0, 1.0), &file(120.0, 1.0)).unwrap();
        assert_eq!(status_of(&rows, "ops_per_s"), Status::Ok);
        assert_eq!(status_of(&rows, "peak_rss_mb"), Status::Worse);
        assert_eq!(status_of(&rows, "setup_s"), Status::Ok, "within 25 %");
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_worse() {
        // 30 % apart with a 60 % spread each: the ranges overlap.
        let rows = compare(&file(100.0, 60.0), &file(70.0, 60.0)).unwrap();
        assert_eq!(status_of(&rows, "ops_per_s"), Status::Unresolved);
        // The same gap with tight runs is a regression.
        let rows = compare(&file(100.0, 1.0), &file(70.0, 1.0)).unwrap();
        assert_eq!(status_of(&rows, "ops_per_s"), Status::Worse);
    }

    #[test]
    fn quick_files_never_compare_against_full_ones() {
        let mut quick = file(100.0, 1.0);
        quick[0].1 = 1.0;
        assert!(compare(&file(100.0, 1.0), &quick).is_err());
        assert!(compare(&quick, &quick).is_ok());
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let mut short = file(100.0, 1.0);
        short.retain(|(k, _)| k != "rt2_fast_read/msgs_per_op.q3");
        let err = compare(&file(100.0, 1.0), &short).unwrap_err();
        assert!(err.contains("rt2_fast_read/msgs_per_op.q3"), "{err}");
    }
}
