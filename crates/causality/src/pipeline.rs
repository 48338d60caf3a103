//! The end-to-end causality analysis and its report.

use crate::aggregate::Aggregator;
use crate::classes::split_classes;
use crate::contrast::{mine_contrasts_traced, ContrastPattern, MiningStats};
use crate::DEFAULT_SEGMENT_BOUND;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use tracelens_model::{
    ComponentFilter, Dataset, DriverType, ScenarioInstance, ScenarioName, Signature, StackTable,
    Thresholds, TimeNs,
};
use tracelens_obs::{stage, Telemetry};
use tracelens_waitgraph::{GraphView, StreamGraph, StreamIndex};

/// Configuration of a causality analysis run.
#[derive(Debug, Clone)]
pub struct CausalityConfig {
    /// The components under analysis (`*.sys` for device drivers).
    pub components: ComponentFilter,
    /// Maximum path-segment length `k` for meta-pattern enumeration.
    pub segment_bound: usize,
    /// Whether to apply the non-optimizable (wait→hardware) reduction;
    /// `true` reproduces the paper, `false` supports the ablation.
    pub reduce: bool,
}

impl Default for CausalityConfig {
    fn default() -> Self {
        CausalityConfig {
            components: ComponentFilter::suffix(".sys"),
            segment_bound: DEFAULT_SEGMENT_BOUND,
            reduce: true,
        }
    }
}

/// Failures of [`CausalityAnalysis::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalityError {
    /// The scenario is not defined in the data set.
    UnknownScenario(ScenarioName),
    /// One contrast class has no instances, so there is nothing to
    /// contrast against.
    EmptyClass {
        /// `"fast"` or `"slow"`.
        class: &'static str,
        /// The scenario analyzed.
        scenario: ScenarioName,
    },
}

impl fmt::Display for CausalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalityError::UnknownScenario(s) => {
                write!(f, "scenario {s} is not defined in the data set")
            }
            CausalityError::EmptyClass { class, scenario } => {
                write!(
                    f,
                    "the {class} contrast class of scenario {scenario} is empty"
                )
            }
        }
    }
}

impl Error for CausalityError {}

/// Output of one causality run over a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityReport {
    /// The scenario analyzed.
    pub scenario: ScenarioName,
    /// Thresholds used for classification.
    pub thresholds: Thresholds,
    /// Fast-class instance count.
    pub fast_instances: usize,
    /// Slow-class instance count.
    pub slow_instances: usize,
    /// Margin (excluded) instance count.
    pub margin_instances: usize,
    /// Discovered contrast patterns, ranked by average cost (highest
    /// first).
    pub patterns: Vec<ContrastPattern>,
    /// Mining diagnostics.
    pub stats: MiningStats,
    /// Post-reduction total root time of the slow AWG — the coverable
    /// scope of the mined patterns.
    pub slow_scope_time: TimeNs,
    /// Time pruned from the slow AWG as non-optimizable direct hardware
    /// service.
    pub slow_reduced_time: TimeNs,
}

impl CausalityReport {
    /// Total slow-class driver time: the coverable scope plus the pruned
    /// direct-hardware portion — the denominator of ITC and TTC.
    pub fn slow_driver_time(&self) -> TimeNs {
        self.slow_scope_time + self.slow_reduced_time
    }

    /// Impactful-time coverage: total cost of high-impact patterns (those
    /// with an execution above `T_slow`) over the slow-class driver time.
    pub fn itc(&self) -> f64 {
        let hi: TimeNs = self
            .patterns
            .iter()
            .filter(|p| p.is_high_impact(self.thresholds.slow()))
            .map(|p| p.c)
            .sum();
        hi.ratio(self.slow_driver_time())
    }

    /// Total-time coverage: total cost of all patterns over the
    /// slow-class driver time.
    pub fn ttc(&self) -> f64 {
        let all: TimeNs = self.patterns.iter().map(|p| p.c).sum();
        all.ratio(self.slow_driver_time())
    }

    /// Fraction of the slow-class driver time that was pruned as
    /// non-optimizable direct hardware service (66.6 % for
    /// BrowserTabSwitch in the paper).
    pub fn reduced_fraction(&self) -> f64 {
        self.slow_reduced_time.ratio(self.slow_driver_time())
    }

    /// Execution-time coverage of the top `frac` (0..=1] of the ranked
    /// patterns, over the total cost of all discovered patterns — the
    /// measurement behind the paper's Table 3.
    pub fn coverage_top_fraction(&self, frac: f64) -> f64 {
        if self.patterns.is_empty() {
            return 0.0;
        }
        let take =
            ((self.patterns.len() as f64 * frac).ceil() as usize).clamp(1, self.patterns.len());
        let top: TimeNs = self.patterns.iter().take(take).map(|p| p.c).sum();
        let all: TimeNs = self.patterns.iter().map(|p| p.c).sum();
        top.ratio(all)
    }

    /// The top `n` ranked patterns.
    pub fn top(&self, n: usize) -> &[ContrastPattern] {
        &self.patterns[..n.min(self.patterns.len())]
    }

    /// Counts, for the top `n` patterns, how many contain at least one
    /// signature of each driver type — the rows of the paper's Table 4.
    pub fn driver_type_histogram(
        &self,
        stacks: &StackTable,
        n: usize,
    ) -> BTreeMap<DriverType, usize> {
        let mut hist = BTreeMap::new();
        for p in self.top(n) {
            let mut seen = std::collections::BTreeSet::new();
            for sym in p.tuple.all_symbols() {
                let Some(text) = stacks.symbols().resolve(sym) else {
                    continue;
                };
                if let Some(ty) = Signature::module_of(text).and_then(DriverType::classify) {
                    seen.insert(ty);
                }
            }
            for ty in seen {
                *hist.entry(ty).or_insert(0) += 1;
            }
        }
        hist
    }
}

/// A hook [`CausalityAnalysis::probe`] runs with the scenario under
/// analysis (`analyze` probes first thing) — the seam execution-fault
/// injection uses to provoke panics *inside* the analyzer, so supervisor
/// tests exercise a failure that genuinely originates in this crate.
pub type AnalysisProbe = std::sync::Arc<dyn Fn(&ScenarioName) + Send + Sync>;

/// The causality analysis driver.
#[derive(Clone)]
pub struct CausalityAnalysis {
    config: CausalityConfig,
    telemetry: Telemetry,
    probe: Option<AnalysisProbe>,
}

impl std::fmt::Debug for CausalityAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalityAnalysis")
            .field("config", &self.config)
            .field("telemetry", &self.telemetry)
            .field("probe", &self.probe.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for CausalityAnalysis {
    /// Default configuration, no telemetry.
    fn default() -> Self {
        CausalityAnalysis::new(CausalityConfig::default())
    }
}

impl CausalityAnalysis {
    /// Creates an analysis with the given configuration.
    pub fn new(config: CausalityConfig) -> Self {
        CausalityAnalysis {
            config,
            telemetry: Telemetry::noop(),
            probe: None,
        }
    }

    /// Attaches a telemetry handle; [`CausalityAnalysis::analyze`] then
    /// reports `classes`/`waitgraph`/`aggregate`/`segments`/`contrast`
    /// stage spans and mining counters through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches an [`AnalysisProbe`], invoked at the top of every
    /// [`CausalityAnalysis::analyze`] call. Used by execution-fault
    /// injection; a probe that panics makes the analysis panic as if an
    /// internal invariant had failed.
    pub fn with_probe(mut self, probe: AnalysisProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CausalityConfig {
        &self.config
    }

    /// Runs the full pipeline for one scenario: classify → aggregate →
    /// mine → rank. This is [`CausalityAnalysis::prepare`], feeding the
    /// classes' Wait Graphs stream by stream, then
    /// [`CausalityAnalysis::finish`] — the steps a study runs with graphs
    /// it already built for impact analysis.
    ///
    /// # Errors
    ///
    /// [`CausalityError::UnknownScenario`] if the data set does not
    /// define `scenario`; [`CausalityError::EmptyClass`] if either
    /// contrast class is empty.
    pub fn analyze(
        &self,
        dataset: &Dataset,
        scenario: &ScenarioName,
    ) -> Result<CausalityReport, CausalityError> {
        self.probe(scenario);
        let classes = self.prepare(dataset, scenario).and_then(|mut classes| {
            check_nonempty(classes.scenario, classes.counts)?;
            self.feed(dataset, &mut classes);
            Ok(classes)
        });
        self.finish(classes)
    }

    /// Invokes the [`AnalysisProbe`], if one is attached. `analyze` calls
    /// it first thing; a caller driving [`CausalityAnalysis::finish`]
    /// itself calls it before finishing.
    pub fn probe(&self, scenario: &ScenarioName) {
        if let Some(probe) = &self.probe {
            probe(scenario);
        }
    }

    /// Splits `scenario`'s instances into contrast classes and opens an
    /// empty AWG aggregator per class, ready to be fed Wait Graphs in
    /// stream order (instance order within a stream).
    ///
    /// A split with an empty class is no error yet, since a caller may
    /// [`recount`](ClassAggregators::recount) it: feeding it does
    /// nothing, and [`CausalityAnalysis::finish`] reports the empty
    /// class.
    ///
    /// # Errors
    ///
    /// [`CausalityError::UnknownScenario`] if the data set does not
    /// define `scenario`.
    pub fn prepare<'a>(
        &self,
        dataset: &'a Dataset,
        scenario: &ScenarioName,
    ) -> Result<ClassAggregators<'a>, CausalityError> {
        let split = {
            let _span = self.telemetry.span(stage::CLASSES);
            split_classes(dataset, scenario).ok_or(CausalityError::UnknownScenario(*scenario))?
        };
        if self.telemetry.enabled() {
            self.telemetry
                .count("classes.fast", split.fast.len() as u64);
            self.telemetry
                .count("classes.slow", split.slow.len() as u64);
            self.telemetry
                .count("classes.margin", split.margin.len() as u64);
        }
        let classes = ClassAggregators {
            scenario: *scenario,
            thresholds: split.thresholds,
            counts: [split.fast.len(), split.slow.len(), split.margin.len()],
            lost: [0; 3],
            fast: Aggregator::new(&dataset.stacks, &self.config.components),
            slow: Aggregator::new(&dataset.stacks, &self.config.components),
        };
        Ok(classes)
    }

    /// Finishes fed aggregators and mines them: seals both AWGs (with
    /// the non-optimizable reduction unless disabled), mines and ranks
    /// the contrast patterns, and reports them with the class counts.
    ///
    /// # Errors
    ///
    /// The error `prepare` returned, or [`CausalityError::EmptyClass`]
    /// if the split has an empty class, or else if
    /// [`ClassAggregators::forget`] emptied one.
    pub fn finish(
        &self,
        classes: Result<ClassAggregators<'_>, CausalityError>,
    ) -> Result<CausalityReport, CausalityError> {
        let classes = classes?;
        let survivors = classes.survivors();
        check_nonempty(classes.scenario, classes.counts)?;
        check_nonempty(classes.scenario, survivors)?;
        let [fast_instances, slow_instances, margin_instances] = survivors;
        let ClassAggregators {
            scenario,
            thresholds,
            fast,
            slow,
            ..
        } = classes;
        let (fast_awg, slow_awg) = {
            let _span = self.telemetry.span(stage::AGGREGATE);
            if self.config.reduce {
                (fast.finish(), slow.finish())
            } else {
                (fast.finish_unreduced(), slow.finish_unreduced())
            }
        };
        if self.telemetry.enabled() {
            self.telemetry
                .count("aggregate.fast_nodes", fast_awg.node_count() as u64);
            self.telemetry
                .count("aggregate.slow_nodes", slow_awg.node_count() as u64);
        }

        let (patterns, stats) = mine_contrasts_traced(
            &fast_awg,
            &slow_awg,
            thresholds,
            self.config.segment_bound,
            &self.telemetry,
        );

        Ok(CausalityReport {
            scenario,
            thresholds,
            fast_instances,
            slow_instances,
            margin_instances,
            patterns,
            stats,
            slow_scope_time: slow_awg.total_root_time(),
            slow_reduced_time: slow_awg.reduced_time(),
        })
    }

    /// Builds the Wait Graphs of the classified instances, one
    /// [`StreamGraph`] per stream, and feeds them in instance order (the
    /// AWG trie is insertion-order-sensitive for node ids).
    fn feed(&self, dataset: &Dataset, classes: &mut ClassAggregators<'_>) {
        let _span = self.telemetry.span(stage::WAITGRAPH);
        let mut by_trace: BTreeMap<u32, Vec<&ScenarioInstance>> = BTreeMap::new();
        for i in dataset.instances_of(&classes.scenario) {
            if classes.class_of(i).is_some() {
                by_trace.entry(i.trace.0).or_default().push(i);
            }
        }
        for (trace, group) in by_trace {
            let Some(stream) = dataset.streams.get(trace as usize) else {
                continue;
            };
            let index = StreamIndex::new_traced(stream, &self.telemetry);
            let graph = StreamGraph::build(stream, &index, &group, &self.telemetry);
            for (k, instance) in group.into_iter().enumerate() {
                classes.add(instance, graph.instance(k));
            }
        }
    }
}

/// One scenario's contrast classes, each with an AWG [`Aggregator`]
/// waiting to be fed its instances' Wait Graphs — the state between
/// [`CausalityAnalysis::prepare`] and [`CausalityAnalysis::finish`].
#[derive(Debug)]
pub struct ClassAggregators<'a> {
    scenario: ScenarioName,
    thresholds: Thresholds,
    /// Fast, slow and margin instance counts of the split.
    counts: [usize; 3],
    /// Of those, the instances forgotten since.
    lost: [usize; 3],
    fast: Aggregator<'a>,
    slow: Aggregator<'a>,
}

impl ClassAggregators<'_> {
    /// The instance's contrast class: `Some(true)` fast, `Some(false)`
    /// slow, `None` margin (which feeds no aggregator).
    pub fn class_of(&self, instance: &ScenarioInstance) -> Option<bool> {
        self.thresholds.classify(instance.duration())
    }

    /// Adds `instance`'s Wait Graph to its class's aggregate, tagged with
    /// the instance; a margin instance's graph is ignored, and so is any
    /// graph while the split has an empty class, which cannot be mined.
    /// The instance must belong to this scenario.
    pub fn add(&mut self, instance: &ScenarioInstance, graph: GraphView<'_>) {
        if self.counts[0] == 0 || self.counts[1] == 0 {
            return;
        }
        let tag = (instance.trace, instance.tid);
        match self.class_of(instance) {
            Some(true) => self.fast.add_view_tagged(graph, tag),
            Some(false) => self.slow.add_view_tagged(graph, tag),
            None => {}
        }
    }

    /// Removes a lost instance (say, one on a quarantined stream) from
    /// its class count; its graph must not have been added.
    pub fn forget(&mut self, instance: &ScenarioInstance) {
        self.lost[self.slot_of(instance)] += 1;
    }

    /// Splits the classes again, over the instances of this scenario in
    /// `instances`: for a caller that prepared them against an instance
    /// table that was not yet final, such as a study that applies
    /// sanitize's instance rules once it has met every stream. Forgotten
    /// instances stay forgotten.
    pub fn recount(&mut self, instances: &[ScenarioInstance]) {
        self.counts = [0; 3];
        for instance in instances.iter().filter(|i| i.scenario == self.scenario) {
            self.counts[self.slot_of(instance)] += 1;
        }
    }

    /// The count slot of `instance`'s class: fast, slow, margin.
    fn slot_of(&self, instance: &ScenarioInstance) -> usize {
        match self.class_of(instance) {
            Some(true) => 0,
            Some(false) => 1,
            None => 2,
        }
    }

    /// The class counts less the forgotten instances.
    fn survivors(&self) -> [usize; 3] {
        std::array::from_fn(|k| self.counts[k].saturating_sub(self.lost[k]))
    }
}

/// [`CausalityError::EmptyClass`] for the first empty contrast class of
/// `counts` (fast, slow, margin), fast before slow.
fn check_nonempty(scenario: ScenarioName, counts: [usize; 3]) -> Result<(), CausalityError> {
    for (class, count) in [("fast", counts[0]), ("slow", counts[1])] {
        if count == 0 {
            return Err(CausalityError::EmptyClass { class, scenario });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn dataset(seed: u64, traces: usize, scenario: &str) -> Dataset {
        DatasetBuilder::new(seed)
            .traces(traces)
            .mix(ScenarioMix::Only(vec![scenario.into()]))
            .build()
    }

    #[test]
    fn analyze_browser_tab_create_finds_patterns() {
        let ds = dataset(42, 60, "BrowserTabCreate");
        let report = CausalityAnalysis::new(CausalityConfig::default())
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .expect("analysis succeeds");
        assert!(report.fast_instances > 0);
        assert!(report.slow_instances > 0);
        assert!(!report.patterns.is_empty(), "patterns discovered");
        // Ranked by average cost.
        for w in report.patterns.windows(2) {
            assert!(w[0].avg_cost() >= w[1].avg_cost());
        }
        // Coverages are sane and ordered.
        let itc = report.itc();
        let ttc = report.ttc();
        assert!(itc >= 0.0 && itc <= ttc, "itc={itc} ttc={ttc}");
        assert!(ttc <= 1.5, "ttc={ttc}"); // child costs unclipped, may pass 1
        assert!(report.coverage_top_fraction(1.0) > 0.999);
        assert!(report.coverage_top_fraction(0.1) <= report.coverage_top_fraction(0.3) + 1e-12);
    }

    #[test]
    fn patterns_carry_example_instances() {
        let ds = dataset(42, 60, "BrowserTabCreate");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .unwrap();
        let with_examples = report
            .patterns
            .iter()
            .filter(|p| !p.examples.is_empty())
            .count();
        assert!(with_examples > 0, "patterns should carry drill-down tags");
        // Every example refers to a real slow instance of the scenario.
        let th = report.thresholds;
        for p in &report.patterns {
            for &(trace, tid) in &p.examples {
                let hit = ds.instances.iter().find(|i| {
                    i.trace == trace && i.tid == tid && i.scenario.as_str() == "BrowserTabCreate"
                });
                let inst = hit.expect("example references a known instance");
                assert_eq!(th.classify(inst.duration()), Some(false), "must be slow");
            }
        }
    }

    #[test]
    fn unknown_scenario_errors() {
        let ds = dataset(1, 5, "BrowserTabCreate");
        let err = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("Nope"))
            .unwrap_err();
        assert!(matches!(err, CausalityError::UnknownScenario(_)));
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn figure1_chain_is_a_top_pattern() {
        // On a BrowserTabCreate-only workload the fv→fs→se chain must be
        // recovered among the top patterns.
        let ds = dataset(7, 80, "BrowserTabCreate");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
            .unwrap();
        let fv = ds.stacks.symbols().lookup("fv.sys!QueryFileTable");
        let se = ds.stacks.symbols().lookup("se.sys!ReadDecrypt");
        let (fv, se) = (fv.expect("fv interned"), se.expect("se interned"));
        let found = report
            .top(10)
            .iter()
            .any(|p| p.tuple.wait.contains(&fv) && p.tuple.running.contains(&se));
        assert!(
            found,
            "expected the Figure-1 chain among the top-10 patterns; got:\n{}",
            report
                .top(10)
                .iter()
                .map(|p| format!(
                    "avg={} n={}\n{}\n",
                    p.avg_cost(),
                    p.n,
                    p.tuple.render(&ds.stacks)
                ))
                .collect::<String>()
        );
    }

    #[test]
    fn reduction_ablation_increases_scope() {
        let ds = dataset(21, 60, "BrowserTabSwitch");
        let name = ScenarioName::new("BrowserTabSwitch");
        let with = CausalityAnalysis::default().analyze(&ds, &name).unwrap();
        let without = CausalityAnalysis::new(CausalityConfig {
            reduce: false,
            ..CausalityConfig::default()
        })
        .analyze(&ds, &name)
        .unwrap();
        assert_eq!(without.slow_reduced_time, TimeNs::ZERO);
        assert!(without.slow_scope_time >= with.slow_scope_time);
        assert!(
            with.slow_reduced_time > TimeNs::ZERO,
            "tab switch has direct hw reads to prune"
        );
    }

    #[test]
    fn driver_type_histogram_sees_expected_types() {
        let ds = dataset(13, 70, "MenuDisplay");
        let report = CausalityAnalysis::default()
            .analyze(&ds, &ScenarioName::new("MenuDisplay"))
            .unwrap();
        let hist = report.driver_type_histogram(&ds.stacks, 10);
        assert!(
            hist.contains_key(&DriverType::Network),
            "MenuDisplay is network-dominated: {hist:?}"
        );
    }
}
