//! The full-evaluation driver: the paper's workflow over one data set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use tracelens_causality::{
    CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport, ClassAggregators,
};
use tracelens_faults::ExecFaultPlan;
use tracelens_impact::{fold, instances_by_stream, ImpactAnalyzer, ImpactReport, InstanceRecord};
use tracelens_model::{ComponentFilter, Dataset, SanitizeReport, ScenarioName};
use tracelens_obs::{stage, Telemetry};

use crate::supervise::{ExecutionReport, SupervisePolicy, Supervisor, UnitMeta};

/// Stage label of per-scenario supervised work units.
pub const SCENARIO_STAGE: &str = "scenario";

/// Stage label execution-fault plans are consulted with for faults
/// armed inside the causality analyzer (via its analysis probe).
pub const CAUSALITY_STAGE: &str = "causality";

/// Configuration of a [`Study`].
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Component selection (device drivers by default).
    pub components: ComponentFilter,
    /// Causality configuration (segment bound, reduction).
    pub causality: CausalityConfig,
    /// Supervision policy: per-unit soft deadline and panic-retry
    /// bound.
    pub supervise: SupervisePolicy,
    /// Deterministic execution-fault injection (testing/CI only): arms
    /// panics and stalls inside supervised work units. `None` — the
    /// default — injects nothing.
    pub exec_faults: Option<ExecFaultPlan>,
    /// Checkpoint directory: completed units are stored there and
    /// restored on re-runs over the same inputs. `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Sanitize the input first: repair what is repairable, quarantine
    /// what is not, and analyze the clean survivor. The sanitize report
    /// lands in [`Study::sanitize`], and [`Study::coverage`] says how
    /// much of the input survived. `false` (the default) analyzes the
    /// input as given.
    pub sanitize: bool,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            components: ComponentFilter::suffix(".sys"),
            causality: CausalityConfig::default(),
            supervise: SupervisePolicy::default(),
            exec_faults: None,
            checkpoint: None,
            sanitize: false,
        }
    }
}

/// Failures of [`Study::run`].
///
/// Note the asymmetry with [`UnitFailure`](crate::supervise::UnitFailure):
/// a failed *unit* degrades the study (it completes with an execution
/// report); a [`StudyError`] means no meaningful study exists at all.
#[derive(Debug)]
pub enum StudyError {
    /// Sanitization quarantined every scenario instance: there is
    /// nothing left to analyze, and rendering an all-zero report would
    /// misread as "analyzed and found nothing".
    NoAnalyzableInstances {
        /// Scenario instances in the (corrupt) input.
        input_instances: usize,
        /// Instances quarantined directly by sanitization (the rest
        /// were lost with their quarantined traces).
        quarantined_instances: usize,
    },
    /// The checkpoint directory could not be read or written.
    Checkpoint {
        /// The configured checkpoint directory.
        dir: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::NoAnalyzableInstances {
                input_instances,
                quarantined_instances,
            } => write!(
                f,
                "no analyzable instances: sanitization quarantined all {input_instances} \
                 input instances ({quarantined_instances} directly, the rest with their traces)"
            ),
            StudyError::Checkpoint { dir, source } => {
                write!(f, "checkpoint {} unusable: {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Checkpoint { source, .. } => Some(source),
            StudyError::NoAnalyzableInstances { .. } => None,
        }
    }
}

/// Per-scenario results of a study.
#[derive(Debug, Clone)]
pub struct ScenarioStudy {
    /// Impact restricted to this scenario's instances.
    pub impact: ImpactReport,
    /// Impact restricted to this scenario's *slow-class* instances
    /// (the paper's Table-2 "Driver Cost" scope).
    pub slow_impact: ImpactReport,
    /// Causality result, or the reason it could not run (e.g. an empty
    /// contrast class).
    pub causality: Result<CausalityReport, CausalityError>,
}

/// How much of the input data set the study's numbers actually cover.
///
/// A study over pristine input covers everything. A study over
/// sanitized input ([`StudyConfig::sanitize`]) covers only what survived
/// quarantine, and every reported metric must be read against these
/// fractions — 80% coverage means the impact and causality numbers
/// describe 80% of the recorded instances, not the machine population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Trace streams in the input data set.
    pub total_traces: usize,
    /// Trace streams the analyses actually saw.
    pub analyzed_traces: usize,
    /// Scenario instances in the input data set.
    pub total_instances: usize,
    /// Scenario instances the analyses actually saw.
    pub analyzed_instances: usize,
    /// Trace streams quarantined by sanitization.
    pub quarantined_traces: usize,
    /// Scenario instances quarantined by sanitization (directly — not
    /// counting instances lost with a quarantined trace).
    pub quarantined_instances: usize,
    /// Individual repairs sanitization applied to surviving data.
    pub repaired: usize,
    /// Work units quarantined by *supervised execution* (panics, missed
    /// deadlines) — the execution-layer counterpart of the sanitize
    /// counts above.
    pub failed_units: usize,
}

impl Coverage {
    /// Full coverage over `dataset`: nothing quarantined, nothing
    /// repaired.
    pub fn full(dataset: &Dataset) -> Coverage {
        Coverage {
            total_traces: dataset.streams.len(),
            analyzed_traces: dataset.streams.len(),
            total_instances: dataset.instances.len(),
            analyzed_instances: dataset.instances.len(),
            quarantined_traces: 0,
            quarantined_instances: 0,
            repaired: 0,
            failed_units: 0,
        }
    }

    /// Coverage implied by a [`SanitizeReport`].
    pub fn from_sanitize(report: &SanitizeReport) -> Coverage {
        Coverage {
            total_traces: report.input_traces,
            analyzed_traces: report.input_traces - report.quarantined_traces,
            total_instances: report.input_instances,
            analyzed_instances: report.input_instances - report.quarantined_instances,
            quarantined_traces: report.quarantined_traces,
            quarantined_instances: report.quarantined_instances,
            repaired: report.repaired(),
            failed_units: 0,
        }
    }

    /// Fraction of input instances the study covers, in `[0, 1]`
    /// (`1.0` for an empty input).
    pub fn fraction(&self) -> f64 {
        if self.total_instances == 0 {
            1.0
        } else {
            self.analyzed_instances as f64 / self.total_instances as f64
        }
    }

    /// `true` when every input trace and instance was analyzed.
    pub fn is_full(&self) -> bool {
        self.analyzed_traces == self.total_traces && self.analyzed_instances == self.total_instances
    }
}

/// The paper's end-to-end evaluation over a data set: global impact
/// analysis (§5.1) plus per-scenario causality analysis (§5.2).
#[derive(Debug, Clone)]
pub struct Study {
    /// Impact analysis over all instances.
    pub impact: ImpactReport,
    /// Per-scenario results, keyed by scenario name.
    pub scenarios: BTreeMap<ScenarioName, ScenarioStudy>,
    /// How much of the input these results cover (full unless
    /// sanitization quarantined part of the input).
    pub coverage: Coverage,
    /// What supervised execution completed and what it quarantined.
    pub execution: ExecutionReport,
    /// What sanitization repaired and quarantined; `None` unless
    /// [`StudyConfig::sanitize`] was set.
    pub sanitize: Option<SanitizeReport>,
}

impl Study {
    /// Runs the paper's evaluation over `dataset` for the scenarios in
    /// `names` (typically the eight selected evaluation scenarios),
    /// honouring every [`StudyConfig`] field.
    ///
    /// With [`StudyConfig::sanitize`] set, the input is sanitized first
    /// (a `sanitize` span plus `sanitize.*` counters) and the study runs
    /// on the clean survivor. The study then makes one pass over the
    /// streams (see `stream_pass`): each stream's Wait Graphs are built
    /// once, as one `StreamGraph`, and each instance is accounted once
    /// into an impact record and fed once to its scenario's fast or slow
    /// AWG. Global impact is the fold of all records; each scenario unit
    /// folds its own records and finishes and mines its fed aggregators.
    ///
    /// Every work unit (per-stream accounting, per-scenario analysis)
    /// runs supervised per [`StudyConfig::supervise`]: a panicking or
    /// stalling unit is quarantined and recorded in [`Study::execution`]
    /// instead of aborting the study. With [`StudyConfig::checkpoint`]
    /// set, completed units are persisted and re-runs over the same
    /// inputs resume. The run is wrapped in a `study` span and every
    /// stage reports spans and counters through `telemetry`;
    /// `Telemetry::noop()` collects nothing.
    ///
    /// # Errors
    ///
    /// [`StudyError::NoAnalyzableInstances`] when sanitization
    /// quarantines every instance of a non-empty input;
    /// [`StudyError::Checkpoint`] if the checkpoint directory cannot be
    /// used. Unit failures are *not* errors.
    pub fn run(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<Study, StudyError> {
        let sanitized = config.sanitize.then(|| {
            let (clean, report) = {
                let _span = telemetry.span(stage::SANITIZE);
                dataset.sanitize()
            };
            if telemetry.enabled() {
                telemetry.count("sanitize.repaired", report.repaired() as u64);
                telemetry.count(
                    "sanitize.quarantined_traces",
                    report.quarantined_traces as u64,
                );
                telemetry.count(
                    "sanitize.quarantined_instances",
                    report.quarantined_instances as u64,
                );
            }
            (clean, report)
        });
        let dataset = match &sanitized {
            Some((clean, report)) if clean.instances.is_empty() && report.input_instances > 0 => {
                return Err(StudyError::NoAnalyzableInstances {
                    input_instances: report.input_instances,
                    quarantined_instances: report.quarantined_instances,
                });
            }
            Some((clean, _)) => clean,
            None => dataset,
        };
        let _span = telemetry.span(stage::STUDY);
        let supervisor = Supervisor::new(config.supervise, telemetry);
        let faults = config.exec_faults.filter(|p| p.is_armed());
        let checkpoint = match &config.checkpoint {
            Some(dir) => {
                let _span = telemetry.span(stage::CHECKPOINT);
                let fp = crate::checkpoint::fingerprint(dataset, config, names);
                Some(
                    crate::checkpoint::Checkpoint::open(dir, fp).map_err(|source| {
                        StudyError::Checkpoint {
                            dir: dir.clone(),
                            source,
                        }
                    })?,
                )
            }
            None => None,
        };
        let checkpoint_error = |c: &crate::checkpoint::Checkpoint, source| StudyError::Checkpoint {
            dir: c.dir().to_path_buf(),
            source,
        };
        let saved_impact = checkpoint.as_ref().and_then(|c| c.load_impact());
        // Restored scenario units short-circuit inside their supervised
        // unit so unit indices (and therefore failure accounts) are
        // identical with and without a warm checkpoint.
        let restored = match &checkpoint {
            Some(c) => {
                let _span = telemetry.span(stage::CHECKPOINT);
                c.load_units(names)
            }
            None => BTreeMap::new(),
        };
        if telemetry.enabled() {
            telemetry.count("study.scenarios", names.len() as u64);
        }

        let analyzer =
            ImpactAnalyzer::new(config.components.clone()).with_telemetry(telemetry.clone());
        let causality =
            CausalityAnalysis::new(config.causality.clone()).with_telemetry(telemetry.clone());
        // The probe arms `faults` at the causality stage.
        let causality = match faults {
            Some(p) => causality.with_probe(Arc::new(move |name: &ScenarioName| {
                p.arm(CAUSALITY_STAGE, &format!("scenario:{name}"));
            })),
            None => causality,
        };
        // Units the checkpoint cannot restore are the ones the pass
        // feeds; the others get no aggregators.
        let mut classes: Vec<Option<Result<ClassAggregators<'_>, CausalityError>>> = names
            .iter()
            .enumerate()
            .map(|(i, name)| (!restored.contains_key(&i)).then(|| causality.prepare(dataset, name)))
            .collect();
        let pass = if saved_impact.is_none() || classes.iter().any(Option::is_some) {
            stream_pass(
                dataset,
                names,
                &mut classes,
                &analyzer,
                &supervisor,
                faults,
                telemetry,
            )
        } else {
            StreamPass::default()
        };

        let mut execution = ExecutionReport::default();
        let impact = match saved_impact {
            Some(saved) => {
                execution.units += 1;
                execution.completed += 1;
                execution.restored += 1;
                saved
            }
            None => {
                let impact = {
                    let _span = telemetry.span(stage::IMPACT);
                    fold(&pass.records)
                };
                // Only a pass with no quarantined stream is stored — a
                // partial impact report must be recomputed (and
                // re-quarantined) on resume, never resumed as if it
                // were complete.
                if let Some(c) = &checkpoint {
                    if pass.execution.failures.is_empty() {
                        c.store_impact(&impact)
                            .map_err(|source| checkpoint_error(c, source))?;
                    }
                }
                impact
            }
        };
        execution.absorb(pass.execution);

        let mut per_scenario: BTreeMap<ScenarioName, usize> = BTreeMap::new();
        for i in &dataset.instances {
            *per_scenario.entry(i.scenario).or_insert(0) += 1;
        }
        let mut scenario_exec = ExecutionReport::default();
        let mut scenarios: BTreeMap<ScenarioName, ScenarioStudy> = BTreeMap::new();
        for (idx, (name, mut classes)) in names.iter().zip(classes).enumerate() {
            let unit = supervisor.run(
                &mut scenario_exec,
                SCENARIO_STAGE,
                || {
                    UnitMeta::labeled(format!("scenario:{name}"))
                        .for_scenario(name.as_str())
                        .carrying(per_scenario.get(name).copied().unwrap_or(0))
                },
                || {
                    if let Some(saved) = restored.get(&idx) {
                        return saved.clone();
                    }
                    if let Some(p) = faults {
                        p.arm(SCENARIO_STAGE, &format!("scenario:{name}"));
                    }
                    // The unit takes its fed classes once; a retry after
                    // a panic in finishing or mining finds them gone and
                    // fails again.
                    scenario_study(
                        dataset,
                        name,
                        &pass.records,
                        &causality,
                        || {
                            classes
                                .take()
                                .expect("a unit's classes are finished at most once")
                        },
                        telemetry,
                    )
                },
            );
            let Some(unit) = unit else { continue };
            // A unit that lost instances with a quarantined stream is
            // partial, like the global impact report: recompute it on
            // resume, never restore it.
            let partial = pass.lost.contains(name);
            if let Some(c) = &checkpoint {
                if !restored.contains_key(&idx) && !partial {
                    let _span = telemetry.span(stage::CHECKPOINT);
                    c.store_unit(idx, name, &unit)
                        .map_err(|source| checkpoint_error(c, source))?;
                }
            }
            scenarios.insert(*name, unit);
        }
        scenario_exec.restored = restored.len();
        execution.absorb(scenario_exec);
        let coverage = Coverage {
            failed_units: execution.quarantined(),
            ..match &sanitized {
                Some((_, report)) => Coverage::from_sanitize(report),
                None => Coverage::full(dataset),
            }
        };
        Ok(Study {
            impact,
            scenarios,
            coverage,
            execution,
            sanitize: sanitized.map(|(_, report)| report),
        })
    }
}

/// What the study's pass over the streams produced.
#[derive(Default)]
struct StreamPass<'a> {
    /// One impact record per instance on a stream that completed, in
    /// stream order.
    records: Vec<InstanceRecord<'a>>,
    /// The per-stream units' supervision outcome.
    execution: ExecutionReport,
    /// Scenarios that lost instances with a quarantined stream.
    lost: BTreeSet<ScenarioName>,
}

/// The study's one pass over the streams, in stream order. Each stream
/// is one supervised unit (`stream:N`, stage `impact`) that indexes the
/// stream, builds its instances' Wait Graphs as one `StreamGraph`
/// (sharing the wait subtrees several instances reach) and accounts each
/// instance into an impact record. Only after the unit succeeded are its
/// instances' graphs fed to the entries of `classes` that aggregate
/// them, so a retried attempt never inserts twice; then the graph is
/// dropped, so one stream's graph is alive at a time. Feeding follows
/// stream order, then instance order — the order the AWG trie is built
/// in.
///
/// A quarantined stream's instances are dropped from every consumer:
/// they leave no record and feed no aggregator, and their classes
/// forget them.
fn stream_pass<'a>(
    dataset: &'a Dataset,
    names: &[ScenarioName],
    classes: &mut [Option<Result<ClassAggregators<'a>, CausalityError>>],
    analyzer: &ImpactAnalyzer,
    supervisor: &Supervisor,
    faults: Option<ExecFaultPlan>,
    telemetry: &Telemetry,
) -> StreamPass<'a> {
    // The entries of `classes` each scenario's graphs feed.
    let mut feeds: BTreeMap<ScenarioName, Vec<usize>> = BTreeMap::new();
    for (slot, (name, fed)) in names.iter().zip(classes.iter()).enumerate() {
        if matches!(fed, Some(Ok(_))) {
            feeds.entry(*name).or_default().push(slot);
        }
    }
    let view = dataset.stacks.filter_view(analyzer.filter());
    let mut pass = StreamPass::default();
    for (stream, instances) in instances_by_stream(dataset, |_| true) {
        let unit = format!("stream:{}", stream.id().0);
        let output = supervisor.run(
            &mut pass.execution,
            stage::IMPACT,
            || {
                UnitMeta::labeled(unit.as_str())
                    .for_stream(stream.id().0)
                    .carrying(instances.len())
            },
            || {
                if let Some(p) = faults {
                    p.arm(stage::IMPACT, &unit);
                }
                analyzer.account_stream(stream, &instances, &view)
            },
        );
        let _span = telemetry.span(stage::AGGREGATE);
        let Some((records, graph)) = output else {
            for &instance in &instances {
                pass.lost.insert(instance.scenario);
                for &slot in feeds.get(&instance.scenario).into_iter().flatten() {
                    if let Some(Ok(c)) = &mut classes[slot] {
                        c.forget(instance);
                    }
                }
            }
            continue;
        };
        for (k, &instance) in instances.iter().enumerate() {
            for &slot in feeds.get(&instance.scenario).into_iter().flatten() {
                if let Some(Ok(c)) = &mut classes[slot] {
                    c.add(instance, graph.instance(k));
                }
            }
        }
        pass.records.extend(records);
    }
    pass
}

/// One scenario unit's results: its impact and its slow class's impact
/// (the paper's Table-2 "Driver Cost" scope), folded from `records`,
/// and its fed `classes`, finished and mined. The classes are taken
/// only after the causality probe ran.
fn scenario_study<'a>(
    dataset: &Dataset,
    name: &ScenarioName,
    records: &[InstanceRecord<'_>],
    causality: &CausalityAnalysis,
    classes: impl FnOnce() -> Result<ClassAggregators<'a>, CausalityError>,
    telemetry: &Telemetry,
) -> ScenarioStudy {
    let (impact, slow_impact) = {
        let _span = telemetry.span(stage::IMPACT);
        let of_scenario = || records.iter().filter(|r| r.instance.scenario == *name);
        let slow = match dataset.scenario(name) {
            Some(s) => fold(
                of_scenario()
                    .filter(|r| s.thresholds.classify(r.instance.duration()) == Some(false)),
            ),
            None => ImpactReport::default(),
        };
        (fold(of_scenario()), slow)
    };
    causality.probe(name);
    ScenarioStudy {
        impact,
        slow_impact,
        causality: causality.finish(classes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn run(ds: &Dataset, cfg: &StudyConfig, names: &[ScenarioName]) -> Study {
        let _gate = crate::supervise::tests::batch_gate();
        Study::run(ds, cfg, names, &Telemetry::noop()).expect("study runs")
    }

    #[test]
    fn study_runs_selected_scenarios() {
        let ds = DatasetBuilder::new(5)
            .traces(40)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ScenarioName::SELECTED
            .iter()
            .map(|&s| ScenarioName::new(s))
            .collect();
        let study = run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.scenarios.len(), 8);
        assert!(study.impact.instances > 0);
        let total: usize = study.scenarios.values().map(|s| s.impact.instances).sum();
        assert_eq!(total, ds.instances.len());
        // At least some scenarios have enough data for causality.
        let ok = study
            .scenarios
            .values()
            .filter(|s| s.causality.is_ok())
            .count();
        assert!(ok >= 4, "only {ok} scenarios analyzable");
        // Slow impact is a subset of scenario impact.
        for s in study.scenarios.values() {
            assert!(s.slow_impact.instances <= s.impact.instances);
            assert!(s.slow_impact.d_scn <= s.impact.d_scn);
        }
    }

    #[test]
    fn run_all_covers_dataset_scenarios() {
        let ds = DatasetBuilder::new(6).traces(15).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let study = run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.scenarios.len(), ds.scenarios.len());
        assert!(study.coverage.is_full());
        assert_eq!(study.coverage.fraction(), 1.0);
    }

    #[test]
    fn run_sanitized_on_clean_input_has_full_coverage() {
        let ds = DatasetBuilder::new(7).traces(20).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            sanitize: true,
            ..StudyConfig::default()
        };
        let study = run(&ds, &cfg, &names);
        assert!(study.sanitize.as_ref().is_some_and(|r| r.is_clean()));
        assert!(study.coverage.is_full());
        let plain = run(&ds, &StudyConfig::default(), &names);
        assert!(plain.sanitize.is_none());
        let opts = crate::ReportOptions::default();
        assert_eq!(
            crate::render_markdown(&study, &ds, &opts),
            crate::render_markdown(&plain, &ds, &opts),
            "sanitizing clean input must not change the report"
        );
    }

    #[test]
    fn supervised_run_quarantines_injected_faults() {
        let ds = DatasetBuilder::new(12)
            .traces(16)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            exec_faults: Some(ExecFaultPlan::new(5).with_panic_rate(0.4)),
            supervise: SupervisePolicy {
                max_retries: 1,
                ..Default::default()
            },
            ..StudyConfig::default()
        };
        let study = run(&ds, &cfg, &names);
        assert!(
            study.execution.quarantined() > 0,
            "a 40% panic rate over {} scenarios + streams must hit something",
            names.len()
        );
        assert_eq!(study.coverage.failed_units, study.execution.quarantined());
        // Quarantined scenario units are absent from the results map.
        let failed_scenarios = study
            .execution
            .failures
            .iter()
            .filter(|f| f.stage == SCENARIO_STAGE)
            .count();
        assert_eq!(study.scenarios.len(), names.len() - failed_scenarios);
        // Every failure names a unit, a stage, and a panic reason.
        for f in &study.execution.failures {
            assert!(!f.unit.is_empty());
            assert!(
                f.attempts == 2,
                "max_retries 1 → 2 attempts, got {}",
                f.attempts
            );
            assert!(f.reason.to_string().contains("injected fault"));
        }
        // Determinism: an identical rerun agrees.
        let again = run(&ds, &cfg, &names);
        assert_eq!(again.execution, study.execution);
        assert_eq!(again.impact, study.impact);
    }

    #[test]
    fn supervised_pass_quarantines_a_poisoned_stream() {
        let ds = DatasetBuilder::new(15)
            .traces(8)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        // A plan that poisons stream 1 and no other unit.
        let poisoned = |plan: &ExecFaultPlan, stage: &str, unit: &str| {
            plan.fault_for(stage, unit) == Some(tracelens_faults::ExecFault::Panic)
        };
        let plan = (0..1000u64)
            .map(|seed| ExecFaultPlan::new(seed).with_panic_rate(0.1))
            .find(|plan| {
                let streams = ds.streams.iter().all(|s| {
                    let id = s.id().0;
                    poisoned(plan, stage::IMPACT, &format!("stream:{id}")) == (id == 1)
                });
                streams
                    && names.iter().all(|n| {
                        let unit = format!("scenario:{n}");
                        !poisoned(plan, SCENARIO_STAGE, &unit)
                            && !poisoned(plan, CAUSALITY_STAGE, &unit)
                    })
            })
            .expect("some seed poisons exactly stream 1");
        let lost = ds.instances.iter().filter(|i| i.trace.0 == 1).count();
        assert!(lost > 0);
        let full = run(&ds, &StudyConfig::default(), &names);
        let cfg = StudyConfig {
            exec_faults: Some(plan),
            supervise: SupervisePolicy {
                max_retries: 0,
                ..SupervisePolicy::default()
            },
            ..StudyConfig::default()
        };
        let study = run(&ds, &cfg, &names);
        let exec = &study.execution;
        assert_eq!(exec.quarantined(), 1);
        assert_eq!(exec.failures[0].unit, "stream:1");
        assert_eq!(
            exec.failures[0].index, 1,
            "indices count from the first stream"
        );
        assert_eq!(exec.failures[0].stream, Some(1));
        assert_eq!(exec.lost_instances(), lost);
        assert_eq!(study.impact.instances, full.impact.instances - lost);
        assert!(study.impact.d_scn < full.impact.d_scn);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let ds = DatasetBuilder::new(13)
            .traces(12)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let dir = std::env::temp_dir().join("tracelens-study-checkpoint-test");
        let _ = std::fs::remove_dir_all(&dir);
        // First pass: faults quarantine some scenario units; their
        // results are NOT checkpointed.
        let faulted = StudyConfig {
            exec_faults: Some(ExecFaultPlan::new(77).with_panic_rate(0.5)),
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let first = run(&ds, &faulted, &names);
        assert!(first.execution.quarantined() > 0, "seed must hit something");
        assert_eq!(first.execution.restored, 0);
        // Second pass: same inputs, faults off — restores completed
        // units, re-runs the quarantined ones, and must be
        // byte-identical to a clean uninterrupted run.
        let resumed_cfg = StudyConfig {
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let resumed = run(&ds, &resumed_cfg, &names);
        assert!(resumed.execution.restored > 0, "nothing was restored");
        assert!(resumed.execution.failures.is_empty());
        let clean = run(&ds, &StudyConfig::default(), &names);
        let opts = crate::ReportOptions::default();
        assert_eq!(
            crate::render_markdown(&resumed, &ds, &opts),
            crate::render_markdown(&clean, &ds, &opts),
            "resumed study must render byte-identical to a clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_fingerprint_is_pinned() {
        // The corpus of `tracelens simulate --traces 40 --seed 9`, whose
        // `report --checkpoint DIR` writes this fingerprint to meta.tlc.
        let ds = DatasetBuilder::new(9).traces(40).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let fingerprint = |cfg: &StudyConfig| crate::checkpoint::fingerprint(&ds, cfg, &names);
        let pinned = fingerprint(&StudyConfig::default());
        // Existing checkpoints resume only while this value holds.
        assert_eq!(format!("{pinned:016x}"), "5d122db8b68781f2");
        // Execution knobs change how units run, not what they compute.
        for cfg in [
            StudyConfig {
                supervise: SupervisePolicy::from_knobs(50, 4),
                ..StudyConfig::default()
            },
            StudyConfig {
                exec_faults: Some(ExecFaultPlan::new(5).with_panic_rate(0.4)),
                ..StudyConfig::default()
            },
            StudyConfig {
                sanitize: true,
                ..StudyConfig::default()
            },
        ] {
            assert_eq!(fingerprint(&cfg), pinned, "{cfg:?}");
        }
    }

    #[test]
    fn sanitized_supervised_returns_typed_error_when_nothing_survives() {
        use tracelens_model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
        // A dataset whose every instance dangles: sanitize quarantines
        // them all and the study must refuse with a typed error rather
        // than report all-zero numbers.
        let mut ds = DatasetBuilder::new(14).traces(2).build();
        ds.instances.clear();
        let scenario = ds.scenarios[0].name;
        for k in 0..3u32 {
            ds.instances.push(ScenarioInstance {
                trace: TraceId(ds.streams.len() as u32 + 7 + k),
                scenario,
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(1),
            });
        }
        let names = vec![scenario];
        let cfg = StudyConfig {
            sanitize: true,
            ..StudyConfig::default()
        };
        let _gate = crate::supervise::tests::batch_gate();
        let err = Study::run(&ds, &cfg, &names, &Telemetry::noop())
            .expect_err("all instances quarantined must be a typed error");
        match err {
            StudyError::NoAnalyzableInstances {
                input_instances,
                quarantined_instances,
            } => {
                assert_eq!(input_instances, 3);
                assert_eq!(quarantined_instances, 3);
            }
            other => panic!("wrong error: {other}"),
        }
        // An empty input (no instances at all) is not an error: there
        // was nothing to lose.
        let empty = tracelens_model::Dataset::new();
        assert!(Study::run(&empty, &cfg, &[], &Telemetry::noop()).is_ok());
    }

    #[test]
    fn run_sanitized_quarantines_and_reports_partial_coverage() {
        use tracelens_model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
        let mut ds = DatasetBuilder::new(8).traces(10).build();
        let dangling = TraceId(ds.streams.len() as u32 + 5);
        let scenario = ds.scenarios[0].name;
        ds.instances.push(ScenarioInstance {
            trace: dangling,
            scenario,
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(1),
        });
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            sanitize: true,
            ..StudyConfig::default()
        };
        let study = run(&ds, &cfg, &names);
        assert_eq!(study.sanitize.expect("sanitized").quarantined_instances, 1);
        assert!(!study.coverage.is_full());
        assert!(study.coverage.fraction() < 1.0);
        assert_eq!(
            study.coverage.analyzed_instances,
            ds.instances.len() - 1,
            "exactly the dangling instance is excluded"
        );
    }
}
