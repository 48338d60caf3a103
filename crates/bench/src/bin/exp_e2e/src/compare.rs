//! `exp_e2e compare A.jsonl B.jsonl`: each (workload, metric) of two
//! sets of recorded runs, side by side, with a verdict.
//!
//! A set is the `--record` file of runs on one commit; runs of the two
//! sets pair up by seed (and, for a repeated seed, by order). The
//! verdicts follow the benchmark's rules for accepting a change:
//!
//! * a count must repeat exactly, run by run (`same` / `differs`);
//! * a metric with a bound is `unresolved` when either side's spread
//!   (quartile distance over median) is wider than the bound — unless
//!   every run of B beats every run of A — `worse` when B's median is
//!   worse than A's by more than the bound, `better` when B wins at
//!   least nine in ten run pairs and the medians differ by more than
//!   A's quartile distance, and `within bound` otherwise;
//! * a metric without a bound is shown without a verdict.
//!
//! The report digests of each (workload, seed) must match as well. The
//! command exits nonzero when anything is `worse` or `differs`.

use crate::json::{self, Json};
use crate::metrics::{self, Better, Metric};
use crate::stats::quartiles;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
    Same,
    Differs,
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Unbounded => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// One metric's values in one set, keyed by seed and by how many runs
/// of that seed came before in the set, so a set may repeat a seed.
pub type Samples = BTreeMap<(u64, usize), f64>;

/// The verdict on B against A for `metric`.
pub fn verdict(metric: &Metric, a: &Samples, b: &Samples) -> Verdict {
    if metric.unit == "count" {
        return if a == b {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = metric.bound else {
        return Verdict::Unbounded;
    };
    let va: Vec<f64> = a.values().copied().collect();
    let vb: Vec<f64> = b.values().copied().collect();
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(&va), quartiles(&vb)) else {
        return Verdict::Unresolved;
    };
    // Positive: B is worse than A, as a share of A's median.
    let worse_by = match metric.better {
        Better::Lower => (bm - am) / am,
        Better::Higher => (am - bm) / am,
    };
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_beats_all = vb.iter().all(|&x| va.iter().all(|&y| beats(x, y)));
    let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
    if spread > bound {
        return if b_beats_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(run, &x)| b.get(run).map(|&y| (x, y)))
        .collect();
    let wins = pairs.iter().filter(|&&(x, y)| beats(y, x)).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (bm - am).abs() > a3 - a1 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Runs the subcommand; `Ok(false)` when a metric is worse or differs.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: exp_e2e compare A.jsonl B.jsonl".to_owned());
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut ok = true;
    println!(
        "{:<18} {:<31} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    for (key, a_samples) in &a.metrics {
        let (workload, name) = key;
        let metric = metrics::by_name(name).ok_or_else(|| format!("unknown metric {name}"))?;
        let empty = Samples::new();
        let b_samples = b.metrics.get(key).unwrap_or(&empty);
        let v = verdict(&metric, a_samples, b_samples);
        ok &= !v.fails();
        let am = summary(a_samples);
        let bm = summary(b_samples);
        let change = match (quartiles(&values(a_samples)), quartiles(&values(b_samples))) {
            (Some((_, x, _)), Some((_, y, _))) if x != 0.0 => {
                format!("{:+.1}%", 100.0 * (y - x) / x)
            }
            _ => "-".to_owned(),
        };
        println!(
            "{workload:<18} {name:<31} {am:>34} {bm:>34} {change:>8}  {}",
            v.label()
        );
    }
    for (key, digests) in &a.digests {
        let (workload, seed) = key;
        let same = b.digests.get(key) == Some(digests) && digests.len() == 1;
        ok &= same;
        if !same {
            println!("{workload:<18} report digest (seed {seed})  DIFFERS");
        }
    }
    let compared = a
        .digests
        .keys()
        .filter(|k| b.digests.contains_key(k))
        .count();
    println!("report digests compared: {compared}");
    Ok(ok)
}

fn values(s: &Samples) -> Vec<f64> {
    s.values().copied().collect()
}

fn summary(s: &Samples) -> String {
    match quartiles(&values(s)) {
        Some((q1, m, q3)) => format!("{m:.6} [{q1:.6}, {q3:.6}] {}", s.len()),
        None => "-".to_owned(),
    }
}

/// A set of recorded runs.
#[derive(Debug, Default)]
struct Set {
    metrics: BTreeMap<(String, String), Samples>,
    /// Every report digest seen per (workload, seed); one when the
    /// report is reproducible.
    digests: BTreeMap<(String, u64), BTreeSet<String>>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let bad = || format!("{path}:{}: not a run record", n + 1);
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(bad)?;
        let seed = record.get("seed").and_then(Json::as_f64).ok_or_else(bad)? as u64;
        if let Some(d) = record.get("digest").and_then(Json::as_str) {
            set.digests
                .entry((workload.to_owned(), seed))
                .or_default()
                .insert(d.to_owned());
        }
        let measured = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(bad)?;
        for (name, m) in measured {
            let value = m.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            let samples = set
                .metrics
                .entry((workload.to_owned(), name.clone()))
                .or_default();
            let earlier = samples.range((seed, 0)..=(seed, usize::MAX)).count();
            samples.insert((seed, earlier), value);
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i as u64, 0), v))
            .collect()
    }

    const P50: Metric = Metric {
        name: "report_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.10),
    };

    #[test]
    fn small_changes_are_within_bound() {
        let a = samples(&[1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]);
        let b = samples(&[1.03, 1.04, 1.02, 1.03, 1.05, 1.01, 1.03, 1.04, 1.02, 1.03]);
        assert_eq!(verdict(&P50, &a, &b), Verdict::Within);
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        let a = samples(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let b = samples(&[1.20, 1.21, 1.19, 1.20, 1.22]);
        assert_eq!(verdict(&P50, &a, &b), Verdict::Worse);
        let rate = Metric {
            better: Better::Higher,
            ..P50
        };
        assert_eq!(verdict(&rate, &b, &a), Verdict::Worse);
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_is_better() {
        let a = samples(&[1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]);
        let b = samples(&[0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90]);
        assert_eq!(verdict(&P50, &a, &b), Verdict::Better);
        // Two wins in four pairs is not a gain.
        let b = samples(&[0.95, 1.01, 0.96, 1.01]);
        assert_eq!(verdict(&P50, &samples(&[1.0; 4]), &b), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = samples(&[0.5, 1.0, 1.5, 1.0, 0.7, 1.3]);
        let b = samples(&[0.6, 1.0, 1.4, 1.1, 0.8, 1.2]);
        assert_eq!(verdict(&P50, &a, &b), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let b = samples(&[0.1, 0.2, 0.3, 0.2, 0.15, 0.4]);
        assert_eq!(verdict(&P50, &a, &b), Verdict::Better);
        assert_eq!(verdict(&P50, &a, &Samples::new()), Verdict::Unresolved);
    }

    #[test]
    fn counts_must_match_run_by_run() {
        let count = Metric {
            unit: "count",
            bound: None,
            ..P50
        };
        let a = samples(&[10.0, 20.0]);
        assert_eq!(verdict(&count, &a, &a.clone()), Verdict::Same);
        assert_eq!(
            verdict(&count, &a, &samples(&[10.0, 21.0])),
            Verdict::Differs
        );
        assert_eq!(verdict(&count, &a, &samples(&[10.0])), Verdict::Differs);
    }

    #[test]
    fn unbounded_metrics_get_no_verdict() {
        let time = Metric { bound: None, ..P50 };
        let a = samples(&[1.0]);
        assert_eq!(verdict(&time, &a, &a.clone()), Verdict::Unbounded);
    }
}
