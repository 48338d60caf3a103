//! The traced phase: one pass over a workload's input through the
//! layers' public functions, each call timed from outside.
//!
//! The pass follows the streams in trace order: it indexes each stream
//! once, builds each instance's Wait Graph once, accounts the graph for
//! impact, and adds it to its scenario's fast or slow `Aggregator` —
//! instance order within the trace order, as `CausalityAnalysis` adds
//! them, since the AWG trie is insertion-order sensitive. It then mines
//! each scenario's contrasts. `tracelens report` does the same work but
//! rebuilds graphs and indexes per analysis; the difference between its
//! wall time and this pass's layer sum is `study.unattributed_s`.

use crate::workload::{Inputs, ReadPath, Workload};
use std::collections::HashMap;
use std::time::Instant;
use tracelens_causality::{
    enumerate_meta_patterns, mine_contrasts, split_classes, Aggregator, CausalityAnalysis,
    DEFAULT_SEGMENT_BOUND,
};
use tracelens_impact::{ImpactAnalyzer, ImpactReport};
use tracelens_model::{
    fingerprint_bytes, header_fingerprint, ComponentFilter, Dataset, SanitizeReport,
    ScenarioInstance, TimeNs,
};
use tracelens_waitgraph::{StreamIndex, WaitGraph};

/// The layer calls the pass times, named as their metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    StoreRead,
    TextioParse,
    BinioFingerprint,
    BinioRead,
    BinioPack,
    Validate,
    Sanitize,
    Index,
    Build,
    Account,
    Split,
    Aggregate,
    Enumerate,
    Mine,
}

pub const LAYERS: [Layer; 14] = [
    Layer::StoreRead,
    Layer::TextioParse,
    Layer::BinioFingerprint,
    Layer::BinioRead,
    Layer::BinioPack,
    Layer::Validate,
    Layer::Sanitize,
    Layer::Index,
    Layer::Build,
    Layer::Account,
    Layer::Split,
    Layer::Aggregate,
    Layer::Enumerate,
    Layer::Mine,
];

impl Layer {
    pub fn metric(self) -> &'static str {
        match self {
            Layer::StoreRead => "store.read_s",
            Layer::TextioParse => "textio.parse_s",
            Layer::BinioFingerprint => "binio.fingerprint_s",
            Layer::BinioRead => "binio.read_s",
            Layer::BinioPack => "binio.pack_s",
            Layer::Validate => "validate.check_s",
            Layer::Sanitize => "sanitize.run_s",
            Layer::Index => "index.build_s",
            Layer::Build => "waitgraph.build_s",
            Layer::Account => "impact.account_s",
            Layer::Split => "classes.split_s",
            Layer::Aggregate => "aggregate.add_s",
            Layer::Enumerate => "segments.enumerate_s",
            Layer::Mine => "contrast.mine_s",
        }
    }

    /// Whether `tracelens report` runs this layer on `path`, so that its
    /// time belongs in the layer sum `study.unattributed_s` subtracts.
    /// Enumeration is measured by a separate call but runs inside
    /// contrast mining, so it is never summed on its own.
    pub fn on_report_path(self, path: ReadPath) -> bool {
        use ReadPath::{Cached, Sanitize, Text};
        match self {
            Layer::TextioParse => matches!(path, Text | Sanitize),
            Layer::BinioFingerprint | Layer::BinioRead => path == Cached,
            Layer::Validate => matches!(path, Text | Cached),
            Layer::Sanitize => path == Sanitize,
            Layer::BinioPack | Layer::Enumerate => false,
            _ => true,
        }
    }

    /// The layer's index in [`LAYERS`] and in [`Times`].
    pub fn slot(self) -> usize {
        LAYERS.iter().position(|&l| l == self).expect("listed")
    }
}

/// Seconds spent per layer in one pass.
pub type Times = [f64; LAYERS.len()];

/// Accumulates per-layer time when per-call timing is on; otherwise
/// runs the calls untouched, so the same pass can be timed from one
/// outer timer to measure what the per-call timers cost.
struct Clock {
    on: bool,
    times: Times,
}

impl Clock {
    fn new(on: bool) -> Clock {
        Clock {
            on,
            times: [0.0; LAYERS.len()],
        }
    }

    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.times[layer.slot()] += start.elapsed().as_secs_f64();
        out
    }
}

/// Work counts of one pass. They are the same on every pass over the
/// same input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub text_bytes: usize,
    pub streams: usize,
    pub graphs: usize,
    pub nodes: usize,
    pub awg_nodes: usize,
    pub metas: usize,
    pub slow_metas: usize,
    pub contrast_metas: usize,
    pub patterns: usize,
}

/// What sanitizing the input repaired and quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeCounts {
    pub repairs: usize,
    pub quarantined_instances: usize,
    pub instance_coverage: f64,
}

impl SanitizeCounts {
    fn of(report: &SanitizeReport) -> SanitizeCounts {
        SanitizeCounts {
            repairs: report.repaired(),
            quarantined_instances: report.quarantined_instances,
            instance_coverage: report.instance_coverage(),
        }
    }
}

/// What one pass computed.
#[derive(Debug)]
pub struct Pass {
    pub times: Times,
    pub counts: Counts,
    /// Set on the sanitizing path.
    pub sanitize: Option<SanitizeCounts>,
    /// Impact totals over every instance, as the report's global rows.
    pub impact: ImpactReport,
    /// Contrast patterns found per scenario, in data-set order; `None`
    /// where a class is empty and causality analysis cannot run.
    pub patterns: Vec<(String, Option<usize>)>,
    /// Whether every stream's id equals its position, which both the
    /// impact and the causality layer assume when they look streams up.
    pub aligned: bool,
    /// The data set the analyses ran on (after sanitizing, if any).
    pub dataset: Dataset,
}

/// Runs the pass over the workload's files, the way `tracelens report`
/// reads them, with per-call timers when `per_call` is set.
pub fn run(w: &Workload, inputs: &Inputs, per_call: bool) -> Result<Pass, String> {
    let mut clock = Clock::new(per_call);
    let read = |path: &std::path::Path| {
        std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let text = clock.time(Layer::StoreRead, || read(&inputs.tlt))?;
    let mut counts = Counts {
        text_bytes: text.len(),
        ..Counts::default()
    };
    let mut sanitize = None;
    let parse = |text: &[u8]| Dataset::read_text_bytes(text).map_err(|e| e.to_string());
    let dataset = match w.path {
        ReadPath::Text => {
            let ds = clock.time(Layer::TextioParse, || parse(&text))?;
            let _ = clock.time(Layer::Validate, || ds.validate());
            ds
        }
        ReadPath::Cached => {
            let tlb = inputs.tlb.as_deref().ok_or("no .tlb packed")?;
            let fingerprint = clock.time(Layer::BinioFingerprint, || fingerprint_bytes(&text));
            let image = clock.time(Layer::StoreRead, || read(tlb))?;
            if header_fingerprint(&image) != Some(fingerprint) {
                return Err(format!("{} does not match its text", tlb.display()));
            }
            let (ds, _) = clock
                .time(Layer::BinioRead, || Dataset::read_binary(&image))
                .map_err(|e| format!("{}: {e}", tlb.display()))?;
            let _ = clock.time(Layer::Validate, || ds.validate());
            ds
        }
        ReadPath::Sanitize => {
            let raw = clock.time(Layer::TextioParse, || parse(&text))?;
            let (clean, report) = clock.time(Layer::Sanitize, || raw.sanitize());
            sanitize = Some(SanitizeCounts::of(&report));
            clean
        }
    };
    drop(text);
    let (impact, patterns) = analyze(&dataset, &mut clock, &mut counts);
    Ok(Pass {
        times: clock.times,
        counts,
        sanitize,
        impact,
        patterns,
        aligned: dataset
            .streams
            .iter()
            .enumerate()
            .all(|(pos, s)| s.id().0 as usize == pos),
        dataset,
    })
}

/// Impact accounting and causality mining over `ds` in one pass.
fn analyze(
    ds: &Dataset,
    clock: &mut Clock,
    counts: &mut Counts,
) -> (ImpactReport, Vec<(String, Option<usize>)>) {
    let filter = ComponentFilter::suffix(".sys");

    // Which aggregator each classified instance feeds. Causality analysis
    // aggregates nothing for a scenario with an empty class.
    let splits = clock.time(Layer::Split, || {
        ds.scenarios
            .iter()
            .map(|s| (s.name, split_classes(ds, &s.name)))
            .collect::<Vec<_>>()
    });
    let mut aggregators: Vec<Option<[Aggregator<'_>; 2]>> = Vec::with_capacity(splits.len());
    let mut feeds: HashMap<*const ScenarioInstance, (usize, usize)> = HashMap::new();
    for (slot, (_, split)) in splits.iter().enumerate() {
        let mineable = split
            .as_ref()
            .filter(|s| !s.fast.is_empty() && !s.slow.is_empty());
        aggregators.push(mineable.map(|split| {
            clock.time(Layer::Split, || {
                for (side, class) in [&split.fast, &split.slow].into_iter().enumerate() {
                    for &i in class {
                        feeds.insert(i, (slot, side));
                    }
                }
            });
            clock.time(Layer::Aggregate, || {
                [
                    Aggregator::new(&ds.stacks, &filter),
                    Aggregator::new(&ds.stacks, &filter),
                ]
            })
        }));
    }

    let analyzer = ImpactAnalyzer::new(filter.clone());
    let (view, by_trace) = clock.time(Layer::Account, || {
        let mut by_trace: Vec<Vec<&ScenarioInstance>> = vec![Vec::new(); ds.streams.len()];
        for i in &ds.instances {
            if let Some(group) = by_trace.get_mut(i.trace.0 as usize) {
                group.push(i);
            }
        }
        (ds.stacks.filter_view(&filter), by_trace)
    });
    let mut impact = ImpactReport::default();
    for (stream, group) in ds.streams.iter().zip(&by_trace) {
        if group.is_empty() {
            continue;
        }
        let index = clock.time(Layer::Index, || StreamIndex::new(stream));
        counts.streams += 1;
        let mut intervals = Vec::new();
        for &instance in group {
            let graph = clock.time(Layer::Build, || WaitGraph::build(stream, &index, instance));
            counts.graphs += 1;
            counts.nodes += graph.node_count();
            let r = clock.time(Layer::Account, || {
                analyzer.account_graph(&graph, &view, instance, &mut intervals)
            });
            impact.d_scn += r.d_scn;
            impact.d_wait += r.d_wait;
            impact.d_run += r.d_run;
            impact.instances += r.instances;
            impact.nodes_visited += r.nodes_visited;
            if let Some(&(slot, side)) = feeds.get(&(instance as *const _)) {
                let aggregator = &mut aggregators[slot].as_mut().expect("fed slots exist")[side];
                clock.time(Layer::Aggregate, || {
                    aggregator.add_graph_tagged(&graph, (instance.trace, instance.tid))
                });
            }
        }
        impact.d_wait_dist += clock.time(Layer::Account, || union_length(intervals));
    }

    let mut patterns = Vec::with_capacity(splits.len());
    for ((name, split), slot) in splits.iter().zip(aggregators) {
        let (Some(split), Some([fast, slow])) = (split, slot) else {
            patterns.push((name.to_string(), None));
            continue;
        };
        let (fast, slow) = clock.time(Layer::Aggregate, || (fast.finish(), slow.finish()));
        counts.awg_nodes += fast.node_count() + slow.node_count();
        counts.metas += clock.time(Layer::Enumerate, || {
            enumerate_meta_patterns(&fast, DEFAULT_SEGMENT_BOUND).len()
                + enumerate_meta_patterns(&slow, DEFAULT_SEGMENT_BOUND).len()
        });
        let (found, stats) = clock.time(Layer::Mine, || {
            mine_contrasts(&fast, &slow, split.thresholds, DEFAULT_SEGMENT_BOUND)
        });
        counts.slow_metas += stats.slow_metas;
        counts.contrast_metas += stats.contrast_metas;
        counts.patterns += found.len();
        patterns.push((name.to_string(), Some(found.len())));
    }
    (impact, patterns)
}

/// Total length of the union of half-open intervals: one trace's
/// distinct component waiting (`D_waitdist`).
fn union_length(mut intervals: Vec<(TimeNs, TimeNs)>) -> TimeNs {
    intervals.sort_unstable();
    let mut total = TimeNs::ZERO;
    let mut current: Option<(TimeNs, TimeNs)> = None;
    for (s, e) in intervals.into_iter().filter(|(s, e)| e > s) {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Times the layers `tracelens report` does not run on this workload's
/// path, on the same input, so that every layer metric is measured on
/// every workload. Returns the times and, on the paths that do not
/// sanitize, what sanitizing their input would do.
pub fn off_path(w: &Workload, inputs: &Inputs) -> Result<(Times, Option<SanitizeCounts>), String> {
    let mut clock = Clock::new(true);
    let text = std::fs::read(&inputs.tlt).map_err(|e| format!("{}: {e}", inputs.tlt.display()))?;
    let parse = |text: &[u8]| Dataset::read_text_bytes(text).map_err(|e| e.to_string());
    let ds = match w.path {
        ReadPath::Cached => clock.time(Layer::TextioParse, || parse(&text))?,
        ReadPath::Text | ReadPath::Sanitize => parse(&text)?,
    };
    // On the cached path the report fingerprints the text itself; that
    // call is timed by the pass, not here.
    let fingerprint = match w.path {
        ReadPath::Cached => fingerprint_bytes(&text),
        _ => clock.time(Layer::BinioFingerprint, || fingerprint_bytes(&text)),
    };
    drop(text);
    let image = clock.time(Layer::BinioPack, || ds.to_binary(fingerprint));
    if w.path != ReadPath::Cached {
        clock
            .time(Layer::BinioRead, || Dataset::read_binary(&image))
            .map_err(|e| e.to_string())?;
    }
    drop(image);
    let mut sanitize_counts = None;
    if w.path == ReadPath::Sanitize {
        let _ = clock.time(Layer::Validate, || ds.validate());
    } else {
        let (_, report) = clock.time(Layer::Sanitize, || ds.sanitize());
        sanitize_counts = Some(SanitizeCounts::of(&report));
    }
    Ok((clock.times, sanitize_counts))
}

/// Checks the pass against the analyses `tracelens report` calls: the
/// impact totals against `ImpactAnalyzer::analyze`, and each scenario's
/// pattern count against `CausalityAnalysis::analyze`. Returns what
/// disagrees.
pub fn check_against_analyzers(pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if !pass.aligned {
        problems.push("a stream's id differs from its position".to_owned());
    }
    let ds = &pass.dataset;
    let reference = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(ds);
    if reference != pass.impact {
        problems.push(format!(
            "one-pass impact {:?} differs from ImpactAnalyzer::analyze {:?}",
            pass.impact, reference
        ));
    }
    let causality = CausalityAnalysis::default();
    for (scenario, (name, found)) in ds.scenarios.iter().zip(&pass.patterns) {
        let expected = causality
            .analyze(ds, &scenario.name)
            .ok()
            .map(|r| r.patterns.len());
        if expected != *found {
            problems.push(format!(
                "{name}: one pass found {found:?} patterns, CausalityAnalysis {expected:?}"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_length_merges_overlaps_and_skips_empty_intervals() {
        let iv = |v: &[(u64, u64)]| v.iter().map(|&(s, e)| (TimeNs(s), TimeNs(e))).collect();
        assert_eq!(
            union_length(iv(&[(0, 10), (5, 15), (20, 25), (25, 30), (50, 50)])),
            TimeNs(25)
        );
        assert_eq!(union_length(Vec::new()), TimeNs::ZERO);
    }
}
