//! Per-instance impact records and the fold that turns any set of them
//! into an [`ImpactReport`].
//!
//! Impact accounting is a property of one instance's Wait Graph: its
//! `D_scn`, `D_wait`, `D_run` and the wait intervals it counted do not
//! depend on which other instances share a report. So each graph is
//! accounted once, into an [`InstanceRecord`], and every report — all
//! instances, one scenario, one slow class, one process — is a [`fold`]
//! over the records it covers. Only `D_waitdist` looks across records:
//! it is the union of the covered records' intervals, per trace.

use crate::report::ImpactReport;
use std::collections::BTreeMap;
use tracelens_model::{ScenarioInstance, TimeNs, TraceId};

/// What impact accounting measured on one scenario instance's Wait
/// Graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRecord<'a> {
    /// The instance accounted.
    pub instance: &'a ScenarioInstance,
    /// The instance's own sums: `d_scn`, `d_wait`, `d_run` and
    /// `nodes_visited`, with `instances == 1` and no `d_wait_dist`.
    pub impact: ImpactReport,
    /// The top-level component wait intervals `d_wait` counted — the
    /// input of `D_waitdist`.
    pub intervals: Vec<(TimeNs, TimeNs)>,
}

/// Folds records into one report. Sums add; `D_waitdist` is, per trace,
/// the length of the union of the records' wait intervals, summed over
/// traces — so a delay that suspends several folded instances at once
/// counts once.
pub fn fold<'r, 'a: 'r>(records: impl IntoIterator<Item = &'r InstanceRecord<'a>>) -> ImpactReport {
    let mut report = ImpactReport::default();
    let mut intervals: BTreeMap<TraceId, Vec<(TimeNs, TimeNs)>> = BTreeMap::new();
    for record in records {
        report.absorb(&record.impact);
        intervals
            .entry(record.instance.trace)
            .or_default()
            .extend_from_slice(&record.intervals);
    }
    report.d_wait_dist = intervals.into_values().map(union_length).sum();
    report
}

/// Total length of the union of half-open intervals.
fn union_length(mut intervals: Vec<(TimeNs, TimeNs)>) -> TimeNs {
    intervals.sort_unstable();
    let mut total = TimeNs::ZERO;
    let mut current: Option<(TimeNs, TimeNs)> = None;
    for (s, e) in intervals {
        if e <= s {
            continue;
        }
        match current {
            None => current = Some((s, e)),
            Some((cs, ce)) => {
                if s <= ce {
                    current = Some((cs, ce.max(e)));
                } else {
                    total += ce - cs;
                    current = Some((s, e));
                }
            }
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{ScenarioName, ThreadId};

    #[test]
    fn union_length_merges_overlaps() {
        let iv = vec![
            (TimeNs(0), TimeNs(10)),
            (TimeNs(5), TimeNs(15)),
            (TimeNs(20), TimeNs(25)),
            (TimeNs(25), TimeNs(30)), // touching: merges (half-open)
            (TimeNs(50), TimeNs(50)), // empty: ignored
        ];
        assert_eq!(union_length(iv), TimeNs(25));
        assert_eq!(union_length(Vec::new()), TimeNs::ZERO);
    }

    #[test]
    fn fold_unions_intervals_per_trace_only() {
        let instance = |trace: u32| ScenarioInstance {
            trace: TraceId(trace),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(100),
        };
        let (a, b, c) = (instance(0), instance(0), instance(1));
        let record = |instance, from: u64, to: u64| InstanceRecord {
            instance,
            impact: ImpactReport {
                d_scn: TimeNs(100),
                d_wait: TimeNs(to - from),
                instances: 1,
                ..ImpactReport::default()
            },
            intervals: vec![(TimeNs(from), TimeNs(to))],
        };
        // Two overlapping waits on trace 0 count once in D_waitdist; the
        // same interval on trace 1 is a different delay.
        let records = [record(&a, 10, 50), record(&b, 30, 70), record(&c, 10, 50)];
        let r = fold(&records);
        assert_eq!(r.instances, 3);
        assert_eq!(r.d_scn, TimeNs(300));
        assert_eq!(r.d_wait, TimeNs(120));
        assert_eq!(r.d_wait_dist, TimeNs(60 + 40));
        assert_eq!(fold(&records[..0]), ImpactReport::default());
    }
}
