//! The impact analyzer: Wait-Graph traversal and metric accumulation.

use crate::record::{fold, InstanceRecord};
use crate::report::ImpactReport;
use std::collections::{BTreeMap, HashMap};
use tracelens_model::{
    ComponentFilter, Dataset, FilterView, ProcessId, ScenarioInstance, ScenarioName, TimeNs,
    TraceId, TraceStream,
};
use tracelens_obs::stage;
use tracelens_waitgraph::{GraphView, NodeKind, StreamGraph, StreamIndex, WaitGraph};

/// Impact analysis for one component selection (paper §3.2).
///
/// Accounting rules, following the paper:
///
/// * `D_scn` sums instance durations.
/// * `D_wait` sums the durations of *top-level* component wait nodes: a
///   wait node counts if its callstack's topmost component signature
///   matches the filter and no counted wait lies above it on the path
///   from the root (child waits constitute time already counted).
/// * `D_run` sums the durations of all component running nodes anywhere
///   in the graphs (it deliberately overlaps `D_wait`, as running events
///   are mostly leaves of wait chains).
/// * `D_waitdist` deduplicates `D_wait` across Wait Graphs: when the same
///   underlying delay suspends several scenario instances at once, each
///   instance's graph counts it in `D_wait`, but the *distinct* waiting
///   is counted once. Implementation: the counted wait intervals of each
///   trace are merged as wall-clock intervals, and `D_waitdist` is the
///   total length of their union. (Concurrent but causally unrelated
///   component waits in one trace also merge — a deliberate, documented
///   approximation; see DESIGN.md.)
///
/// Each instance's graph is accounted once, into an [`InstanceRecord`];
/// every report is a [`fold`] over the records it covers.
#[derive(Debug, Clone)]
pub struct ImpactAnalyzer {
    filter: ComponentFilter,
    telemetry: tracelens_obs::Telemetry,
}

impl ImpactAnalyzer {
    /// Creates an analyzer for the given component filter.
    pub fn new(filter: ComponentFilter) -> Self {
        ImpactAnalyzer {
            filter,
            telemetry: tracelens_obs::Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle; accounting then reports `waitgraph`
    /// and `impact` stage spans plus graph/node counters through it.
    pub fn with_telemetry(mut self, telemetry: tracelens_obs::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The component filter in use.
    pub fn filter(&self) -> &ComponentFilter {
        &self.filter
    }

    /// Analyzes every scenario instance in the data set.
    pub fn analyze(&self, dataset: &Dataset) -> ImpactReport {
        self.analyze_where(dataset, |_| true)
    }

    /// Analyzes the instances satisfying `keep` (e.g. a single scenario,
    /// or only a slow class): the [`fold`] of their records.
    pub fn analyze_where<F>(&self, dataset: &Dataset, keep: F) -> ImpactReport
    where
        F: Fn(&ScenarioInstance) -> bool,
    {
        fold(&self.records(dataset, keep))
    }

    /// Accounts the instances satisfying `keep`, one record per instance
    /// in stream order (instance order within a stream), one
    /// [`account_stream`] call per stream with work.
    ///
    /// [`account_stream`]: ImpactAnalyzer::account_stream
    fn records<'a, F>(&self, dataset: &'a Dataset, keep: F) -> Vec<InstanceRecord<'a>>
    where
        F: Fn(&ScenarioInstance) -> bool,
    {
        let view = dataset.stacks.filter_view(&self.filter);
        instances_by_stream(dataset, keep)
            .into_iter()
            .flat_map(|(stream, instances)| self.account_stream(stream, &instances, &view).0)
            .collect()
    }

    /// One stream's share of the work: index the stream once, build its
    /// instances' Wait Graphs as one [`StreamGraph`], and account each
    /// instance into an [`InstanceRecord`]. The graph is returned too,
    /// for a caller that aggregates it (instance `k` is `instances[k]`).
    ///
    /// `view` must be built from the dataset's stack table with this
    /// analyzer's filter, as for [`ImpactAnalyzer::account_view`].
    pub fn account_stream<'a>(
        &self,
        stream: &TraceStream,
        instances: &[&'a ScenarioInstance],
        view: &FilterView,
    ) -> (Vec<InstanceRecord<'a>>, StreamGraph) {
        let graph = {
            let _span = self.telemetry.span(stage::WAITGRAPH);
            let index = StreamIndex::new_traced(stream, &self.telemetry);
            StreamGraph::build(stream, &index, instances, &self.telemetry)
        };
        let _span = self.telemetry.span(stage::IMPACT);
        let mut records = Vec::with_capacity(instances.len());
        let mut visited = 0usize;
        for (k, &instance) in instances.iter().enumerate() {
            let mut intervals = Vec::new();
            let impact = self.account_view(graph.instance(k), view, instance, &mut intervals);
            visited += impact.nodes_visited;
            records.push(InstanceRecord {
                instance,
                impact,
                intervals,
            });
        }
        if self.telemetry.enabled() {
            self.telemetry
                .count("impact.instances", records.len() as u64);
            self.telemetry.count("impact.nodes_visited", visited as u64);
        }
        (records, graph)
    }

    /// Analyzes instances grouped per scenario, returning the per-scenario
    /// reports sorted by scenario name. Distinct-wait accounting is kept
    /// per scenario (a delay shared by two scenarios' instances counts
    /// once in each scenario's report).
    pub fn analyze_by_scenario(&self, dataset: &Dataset) -> BTreeMap<ScenarioName, ImpactReport> {
        self.fold_by(dataset, |i| i.scenario)
    }

    /// Analyzes instances grouped by the *process* of their initiating
    /// thread — the victim view: which applications suffer the measured
    /// component waiting. Instances whose initiating thread emitted no
    /// events are grouped under their thread's process id 0.
    pub fn analyze_by_process(&self, dataset: &Dataset) -> BTreeMap<ProcessId, ImpactReport> {
        // Resolve each instance's process from its thread's first event.
        self.fold_by(dataset, |i| {
            dataset
                .streams
                .get(i.trace.0 as usize)
                .and_then(|s| s.events_of_thread(i.tid).next())
                .map(|(_, e)| e.pid)
                .unwrap_or(ProcessId(0))
        })
    }

    /// One report per key over a single accounting pass: every key some
    /// instance maps to gets a report (empty if none of its instances
    /// could be accounted).
    fn fold_by<K: Ord>(
        &self,
        dataset: &Dataset,
        key: impl Fn(&ScenarioInstance) -> K,
    ) -> BTreeMap<K, ImpactReport> {
        let records = self.records(dataset, |_| true);
        let mut groups: BTreeMap<K, Vec<&InstanceRecord<'_>>> = dataset
            .instances
            .iter()
            .map(|i| (key(i), Vec::new()))
            .collect();
        for record in &records {
            if let Some(group) = groups.get_mut(&key(record.instance)) {
                group.push(record);
            }
        }
        groups
            .into_iter()
            .map(|(k, group)| (k, fold(group)))
            .collect()
    }

    /// [`ImpactAnalyzer::account_view`] of a whole [`WaitGraph`].
    pub fn account_graph(
        &self,
        graph: &WaitGraph,
        view: &FilterView,
        instance: &ScenarioInstance,
        intervals: &mut Vec<(TimeNs, TimeNs)>,
    ) -> ImpactReport {
        self.account_view(graph.view(), view, instance, intervals)
    }

    /// Accounts one instance's Wait Graph into a partial report
    /// (everything but `d_wait_dist`), appending the counted top-level
    /// wait intervals to `intervals` for later cross-graph union. A
    /// shared node counts once per use, as in the instance's own tree,
    /// and `nodes_visited` counts a run of samples once per sample, so
    /// either graph form gives the same report.
    ///
    /// `view` must be built from the dataset's stack table with this
    /// analyzer's filter ([`tracelens_model::StackTable::filter_view`]);
    /// the per-node component test is then an array lookup rather than a
    /// string match.
    pub fn account_view(
        &self,
        graph: GraphView<'_>,
        view: &FilterView,
        instance: &ScenarioInstance,
        intervals: &mut Vec<(TimeNs, TimeNs)>,
    ) -> ImpactReport {
        let mut report = ImpactReport {
            d_scn: instance.duration(),
            instances: 1,
            ..ImpactReport::default()
        };
        // Explicit stack of (node, under_counted_wait).
        let mut todo: Vec<(tracelens_waitgraph::NodeId, bool)> =
            graph.roots().iter().map(|&r| (r, false)).collect();
        while let Some((id, under)) = todo.pop() {
            let node = graph.node(id);
            report.nodes_visited += node.samples as usize;
            let mut now_under = under;
            match node.kind {
                NodeKind::Wait { .. } | NodeKind::UnpairedWait => {
                    if view.top_component_symbol(node.stack).is_some() && !under {
                        report.d_wait += node.duration;
                        intervals.push((node.t, node.t + node.duration));
                        now_under = true;
                    }
                }
                NodeKind::Running => {
                    if view.top_component_symbol(node.stack).is_some() {
                        report.d_run += node.duration;
                    }
                }
                NodeKind::Hardware => {}
            }
            for &c in graph.children_of(node) {
                todo.push((c, now_under));
            }
        }
        report
    }
}

/// The instances satisfying `keep`, grouped with the stream whose id is
/// their trace, in stream order (instance order within a group). A
/// stream without such instances is left out; streams sharing an id
/// (input that was never sanitized) each get the whole group.
pub fn instances_by_stream(
    dataset: &Dataset,
    keep: impl Fn(&ScenarioInstance) -> bool,
) -> Vec<(&TraceStream, Vec<&ScenarioInstance>)> {
    let by_trace = instances_by_trace(&dataset.instances, keep);
    dataset
        .streams
        .iter()
        .filter_map(|s| by_trace.get(&s.id()).map(|group| (s, group.clone())))
        .collect()
}

/// The instances satisfying `keep`, grouped by trace id, each group in
/// instance order: [`instances_by_stream`] for a reader that meets the
/// streams one at a time and looks each one's group up by its id.
pub fn instances_by_trace(
    instances: &[ScenarioInstance],
    keep: impl Fn(&ScenarioInstance) -> bool,
) -> HashMap<TraceId, Vec<&ScenarioInstance>> {
    let mut by_trace: HashMap<TraceId, Vec<&ScenarioInstance>> = HashMap::new();
    for i in instances.iter().filter(|i| keep(i)) {
        by_trace.entry(i.trace).or_default().push(i);
    }
    by_trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{ScenarioName, ThreadId, TraceStreamBuilder};

    /// Builds a dataset with one stream:
    ///   T1 (instance A) waits 10..30 in fv.sys;
    ///   T2 runs 10..30 under fs.sys then unwaits T1.
    fn fixture() -> Dataset {
        let mut ds = Dataset::new();
        let fv =
            ds.stacks
                .intern_symbols(&["app!Main", "fv.sys!QueryFileTable", "kernel!AcquireLock"]);
        let fs_run = ds.stacks.intern_symbols(&["app!W", "fs.sys!Read"]);
        let app_run = ds.stacks.intern_symbols(&["app!Main"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), app_run);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, fv);
        b.push_running(ThreadId(2), TimeNs(10), TimeNs(20), fs_run);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), fs_run);
        b.push_running(ThreadId(1), TimeNs(30), TimeNs(10), app_run);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("A"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(40),
        });
        ds
    }

    #[test]
    fn basic_accounting() {
        let ds = fixture();
        let r = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
        assert_eq!(r.d_scn, TimeNs(40));
        assert_eq!(r.d_wait, TimeNs(20)); // fv wait 10..30
        assert_eq!(r.d_run, TimeNs(20)); // fs running under the wait
        assert_eq!(r.d_wait_dist, TimeNs(20));
        assert_eq!(r.instances, 1);
        assert!((r.ia_wait() - 0.5).abs() < 1e-12);
        assert!(r.ia_opt().abs() < 1e-12, "single graph: no propagation");
    }

    #[test]
    fn concurrent_instance_waits_amplify() {
        // Three instances all suspended over the same 0..100 delay: their
        // top-level waits overlap, so D_wait ≈ 3×100 but D_waitdist ≈ 100.
        let mut ds = Dataset::new();
        let drv =
            ds.stacks
                .intern_symbols(&["app!Main", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let run = ds.stacks.intern_symbols(&["w!W", "se.sys!ReadDecrypt"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(9), TimeNs(0), TimeNs(100), run);
        for tid in [1u32, 2, 3] {
            b.push_wait(ThreadId(tid), TimeNs(tid as u64), TimeNs::ZERO, drv);
            b.push_unwait(ThreadId(9), ThreadId(tid), TimeNs(100 + tid as u64), run);
        }
        ds.streams.push(b.finish().unwrap());
        for (tid, name) in [(1u32, "A"), (2, "B"), (3, "C")] {
            ds.instances.push(ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new(name),
                tid: ThreadId(tid),
                t0: TimeNs(0),
                t1: TimeNs(110),
            });
        }
        let r = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
        assert_eq!(r.instances, 3);
        assert!(r.d_wait >= TimeNs(290), "d_wait = {:?}", r.d_wait);
        assert!(
            r.d_wait_dist <= TimeNs(110),
            "d_wait_dist = {:?}",
            r.d_wait_dist
        );
        assert!(r.wait_amplification() > 2.5);
        assert!(r.ia_opt() > 0.0);
    }

    #[test]
    fn disjoint_waits_do_not_amplify() {
        // Two instances waiting at disjoint times: amplification = 1.
        let mut ds = Dataset::new();
        let drv =
            ds.stacks
                .intern_symbols(&["app!Main", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, drv);
        b.push_unwait(ThreadId(9), ThreadId(1), TimeNs(50), drv);
        b.push_wait(ThreadId(2), TimeNs(200), TimeNs::ZERO, drv);
        b.push_unwait(ThreadId(9), ThreadId(2), TimeNs(260), drv);
        ds.streams.push(b.finish().unwrap());
        for (tid, name, t0, t1) in [(1u32, "A", 0u64, 60), (2, "B", 200, 270)] {
            ds.instances.push(ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new(name),
                tid: ThreadId(tid),
                t0: TimeNs(t0),
                t1: TimeNs(t1),
            });
        }
        let r = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
        assert_eq!(r.d_wait, TimeNs(110));
        assert_eq!(r.d_wait_dist, TimeNs(110));
        assert!((r.wait_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_component_waits_count_once() {
        // A driver wait under another driver wait must not double-count.
        let mut ds = Dataset::new();
        let drv =
            ds.stacks
                .intern_symbols(&["app!Main", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, drv);
        b.push_wait(ThreadId(2), TimeNs(0), TimeNs::ZERO, drv);
        b.push_unwait(ThreadId(3), ThreadId(2), TimeNs(50), drv);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(60), drv);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("A"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(70),
        });
        let r = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
        // Only the top-level wait (60) counts, not the nested 50.
        assert_eq!(r.d_wait, TimeNs(60));
    }

    #[test]
    fn filter_excludes_non_matching_components() {
        let ds = fixture();
        let r = ImpactAnalyzer::new(ComponentFilter::names(["net.sys"])).analyze(&ds);
        assert_eq!(r.d_wait, TimeNs::ZERO);
        assert_eq!(r.d_run, TimeNs::ZERO);
        assert_eq!(r.d_scn, TimeNs(40), "D_scn is filter-independent");
    }

    #[test]
    fn analyze_by_process_partitions_instances() {
        // Two instances from different processes on one stream.
        let mut ds = Dataset::new();
        let drv =
            ds.stacks
                .intern_symbols(&["app!Main", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let mut b = TraceStreamBuilder::new(0);
        b.set_process(tracelens_model::ProcessId(1));
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, drv);
        b.push_unwait(ThreadId(9), ThreadId(1), TimeNs(30), drv);
        b.set_process(tracelens_model::ProcessId(2));
        b.push_wait(ThreadId(2), TimeNs(100), TimeNs::ZERO, drv);
        b.push_unwait(ThreadId(9), ThreadId(2), TimeNs(170), drv);
        ds.streams.push(b.finish().unwrap());
        for (tid, t0, t1) in [(1u32, 0u64, 40), (2, 100, 180)] {
            ds.instances.push(ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("S"),
                tid: ThreadId(tid),
                t0: TimeNs(t0),
                t1: TimeNs(t1),
            });
        }
        let by = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze_by_process(&ds);
        assert_eq!(by.len(), 2);
        let p1 = &by[&tracelens_model::ProcessId(1)];
        let p2 = &by[&tracelens_model::ProcessId(2)];
        assert_eq!(p1.instances, 1);
        assert_eq!(p2.instances, 1);
        assert_eq!(p1.d_wait, TimeNs(30));
        assert_eq!(p2.d_wait, TimeNs(70));
    }

    #[test]
    fn analyze_where_selects_subset() {
        let ds = fixture();
        let an = ImpactAnalyzer::new(ComponentFilter::suffix(".sys"));
        let none = an.analyze_where(&ds, |i| i.scenario.as_str() == "Nope");
        assert_eq!(none.instances, 0);
        assert_eq!(none.d_scn, TimeNs::ZERO);
        let by = an.analyze_by_scenario(&ds);
        assert_eq!(by.len(), 1);
        assert!(by.contains_key(&ScenarioName::new("A")));
    }
}
