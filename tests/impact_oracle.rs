//! A brute-force reference for the impact metrics, checked against
//! `ImpactAnalyzer` and `Study::run`.
//!
//! The reference reads Definition 1 straight off `TraceStream::events()`
//! with naive scans: no `StreamIndex`, no `WaitGraph`, no accounting code
//! of the impact crate. Only the per-stack component test comes from the
//! model (`FilterView`). It follows the builder's documented rules:
//!
//! * a wait pairs with the first unwait, in stream order, that wakes its
//!   thread at or after the wait;
//! * a paired wait's children are the signalling thread's events that
//!   start inside the wait interval, plus those that started earlier and
//!   are still pending at its start (a pending wait ends at its own
//!   unwait);
//! * a paired wait already on the recursion path, or at depth 64 or
//!   deeper, becomes a leaf like an unpaired wait, whose duration is
//!   clipped to the enclosing interval's end;
//! * `D_wait` counts component waits with no counted wait above them,
//!   `D_run` every component running sample, and `D_waitdist` is the
//!   per-trace union of the counted wait intervals.

use std::collections::BTreeMap;
use tracelens::model::{Event, EventKind, FilterView, ThreadId, TraceId};
use tracelens::prelude::*;

/// Recursion cap of the Wait Graph builder.
const MAX_DEPTH: usize = 64;

/// One stream seen only through its raw event list, with each wait's
/// pair and each event's end found by scanning it.
struct RawStream<'a> {
    events: &'a [Event],
    view: &'a FilterView,
    /// Per event: for a wait, the index of its unwait, if any.
    pair: Vec<Option<usize>>,
    /// Per event: where it stops occupying its thread. A paired wait
    /// ends at its unwait, anything else at `t + cost`.
    end: Vec<TimeNs>,
}

/// Per-instance sums of the reference.
#[derive(Default)]
struct Sums {
    d_wait: TimeNs,
    d_run: TimeNs,
    nodes: usize,
    intervals: Vec<(TimeNs, TimeNs)>,
}

impl<'a> RawStream<'a> {
    fn new(events: &'a [Event], view: &'a FilterView) -> Self {
        // The first unwait in stream order waking the wait's thread at
        // or after the wait.
        let pair: Vec<Option<usize>> = events
            .iter()
            .map(|w| {
                (w.kind == EventKind::Wait).then(|| {
                    events.iter().position(|u| {
                        u.kind == EventKind::Unwait && u.wtid == Some(w.tid) && u.t >= w.t
                    })
                })?
            })
            .collect();
        let end = events
            .iter()
            .zip(&pair)
            .map(|(e, p)| p.map_or(e.end(), |u| events[u].t))
            .collect();
        RawStream {
            events,
            view,
            pair,
            end,
        }
    }

    /// The events of `tid` that start in `[from, to)` or started earlier
    /// and are still pending at `from`, in stream order.
    fn overlapping(&self, tid: ThreadId, from: TimeNs, to: TimeNs) -> Vec<usize> {
        (0..self.events.len())
            .filter(|&i| {
                let e = &self.events[i];
                e.tid == tid && ((e.t >= from && e.t < to) || (e.t < from && self.end[i] > from))
            })
            .collect()
    }

    /// Accounts the node of event `i` and everything below it.
    fn visit(
        &self,
        i: usize,
        clip_end: TimeNs,
        depth: usize,
        path: &mut Vec<usize>,
        under: bool,
        sums: &mut Sums,
    ) {
        let e = &self.events[i];
        let component = self.view.top_component_symbol(e.stack).is_some();
        match e.kind {
            EventKind::Unwait => {}
            EventKind::HardwareService => sums.nodes += 1,
            EventKind::Running => {
                sums.nodes += 1;
                if component {
                    sums.d_run += e.cost;
                }
            }
            EventKind::Wait => {
                sums.nodes += 1;
                let pair = self.pair[i].filter(|_| !path.contains(&i) && depth < MAX_DEPTH);
                let duration = match pair {
                    Some(u) => e.t.saturating_span_to(self.events[u].t),
                    None => e.cost.max(e.t.saturating_span_to(clip_end)),
                };
                let counted = component && !under;
                if counted {
                    sums.d_wait += duration;
                    sums.intervals.push((e.t, e.t + duration));
                }
                if let Some(u) = pair {
                    let signal = self.events[u];
                    path.push(i);
                    for c in self.overlapping(signal.tid, e.t, signal.t) {
                        self.visit(c, signal.t, depth + 1, path, under || counted, sums);
                    }
                    path.pop();
                }
            }
        }
    }
}

/// Total length of the union of half-open intervals, by sweeping a
/// sorted copy.
fn union_length(mut intervals: Vec<(TimeNs, TimeNs)>) -> TimeNs {
    intervals.retain(|(s, e)| s < e);
    intervals.sort_unstable();
    let mut total = TimeNs::ZERO;
    let mut reach = TimeNs::ZERO;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The reference impact of every instance that has a stream, in total
/// and per trace.
fn reference(
    ds: &Dataset,
    filter: &ComponentFilter,
) -> (ImpactReport, BTreeMap<TraceId, ImpactReport>) {
    let view = ds.stacks.filter_view(filter);
    let mut per_trace: BTreeMap<TraceId, (ImpactReport, Vec<(TimeNs, TimeNs)>)> = BTreeMap::new();
    for stream in &ds.streams {
        let raw = RawStream::new(stream.events(), &view);
        for instance in ds.instances.iter().filter(|i| i.trace == stream.id()) {
            let mut sums = Sums::default();
            for root in raw.overlapping(instance.tid, instance.t0, instance.t1) {
                raw.visit(root, instance.t1, 0, &mut Vec::new(), false, &mut sums);
            }
            let (report, intervals) = per_trace.entry(stream.id()).or_default();
            report.d_scn += instance.duration();
            report.d_wait += sums.d_wait;
            report.d_run += sums.d_run;
            report.instances += 1;
            report.nodes_visited += sums.nodes;
            intervals.extend(sums.intervals);
        }
    }
    let mut total = ImpactReport::default();
    let per_trace = per_trace
        .into_iter()
        .map(|(trace, (mut report, intervals))| {
            report.d_wait_dist = union_length(intervals);
            total.d_scn += report.d_scn;
            total.d_wait += report.d_wait;
            total.d_run += report.d_run;
            total.d_wait_dist += report.d_wait_dist;
            total.instances += report.instances;
            total.nodes_visited += report.nodes_visited;
            (trace, report)
        })
        .collect();
    (total, per_trace)
}

/// The paper's corpus shape (2–4 instances per trace over 350 ms) or
/// the dense one (8–12 instances per trace over 100 ms).
fn corpus(seed: u64, dense: bool) -> Dataset {
    let builder = DatasetBuilder::new(seed)
        .traces(8)
        .mix(ScenarioMix::Selected);
    if dense {
        builder.instances_per_trace(8, 12).start_window_ms(100)
    } else {
        builder.instances_per_trace(2, 4).start_window_ms(350)
    }
    .build()
}

fn check(ds: &Dataset, label: &str) {
    let filter = ComponentFilter::suffix(".sys");
    let (total, per_trace) = reference(ds, &filter);
    assert!(
        total.d_wait > TimeNs::ZERO,
        "{label}: the corpus has driver waits"
    );
    assert!(
        total.d_wait_dist < total.d_wait,
        "{label}: the corpus propagates cost across instances"
    );
    let analyzer = ImpactAnalyzer::new(filter);
    assert_eq!(
        analyzer.analyze(ds),
        total,
        "{label}: ImpactAnalyzer::analyze"
    );
    for (trace, expected) in &per_trace {
        let got = analyzer.analyze_where(ds, |i| i.trace == *trace);
        assert_eq!(got, *expected, "{label}: trace {}", trace.0);
    }
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let (study, _) = Study::run(
        ds.clone(),
        &StudyConfig::default(),
        &names,
        &Telemetry::noop(),
    )
    .expect("study runs");
    assert_eq!(study.impact, total, "{label}: Study::run global impact");
}

#[test]
fn analyzer_matches_the_brute_force_reference_on_paper_corpora() {
    for seed in 1..=6 {
        check(&corpus(seed, false), &format!("paper seed {seed}"));
    }
}

#[test]
fn analyzer_matches_the_brute_force_reference_on_dense_corpora() {
    for seed in 1..=6 {
        check(&corpus(seed, true), &format!("dense seed {seed}"));
    }
}
