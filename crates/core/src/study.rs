//! The full-evaluation driver: the paper's workflow over one data set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use tracelens_causality::{
    CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport, ClassAggregators,
};
use tracelens_faults::{ExecFaultPlan, MemFaultPlan};
use tracelens_impact::{fold, instances_by_stream, ImpactAnalyzer, ImpactReport, InstanceRecord};
use tracelens_model::{
    ComponentFilter, Dataset, SanitizeReport, ScenarioInstance, ScenarioName, TimeNs,
};
use tracelens_obs::{stage, Telemetry};
use tracelens_pool::{
    plan_admission, Admission, Degradation, ExecutionReport, GovernPolicy, GovernReport, Pool,
    SupervisePolicy, UnitMeta,
};

/// Stage label of per-scenario supervised work units.
pub const SCENARIO_STAGE: &str = "scenario";

/// Stage label execution-fault plans are consulted with for faults
/// armed inside the causality analyzer (via its analysis probe).
pub const CAUSALITY_STAGE: &str = "causality";

/// Modeled live-heap bytes per stream event for the indexing side of a
/// scenario unit (thread buckets, unwait adjacency, effective ends —
/// see `StreamIndex`'s `HeapSize` impl). Deliberately a generous upper
/// bound: admission must never under-estimate.
pub const INDEX_BYTES_PER_EVENT: u64 = 32;

/// Modeled live-heap bytes per in-scope stream event for the wait
/// graphs and aggregated wait graphs a scenario instance can build
/// (node, children, example tags). Again an upper bound — real graphs
/// only materialize nodes for the instance's window.
pub const GRAPH_BYTES_PER_EVENT: u64 = 96;

/// Segment bound degraded units analyze with (vs.
/// [`tracelens_causality::DEFAULT_SEGMENT_BOUND`]): shorter segments
/// bound the pattern-enumeration frontier, the causality stage's
/// dominant allocation.
pub const DEGRADED_SEGMENT_BOUND: usize = 2;

/// Modeled live-heap cost of one per-scenario analysis unit, in bytes.
///
/// The estimate is *cheap* (no allocator hooks — it only walks instance
/// and stream lengths), *monotone* in the unit's input, and an upper
/// bound of what the unit's indexes and graphs actually retain (the
/// `HeapSize` measurements in the governance tests pin this down). It
/// charges every touched stream once for indexing and every instance
/// for the graphs built over its stream.
pub fn estimated_unit_bytes(dataset: &Dataset, name: &ScenarioName) -> u64 {
    let mut touched: BTreeSet<u32> = BTreeSet::new();
    let mut graph_events: u64 = 0;
    for i in &dataset.instances {
        if i.scenario == *name {
            touched.insert(i.trace.0);
            graph_events = graph_events.saturating_add(
                dataset
                    .streams
                    .get(i.trace.0 as usize)
                    .map_or(0, |s| s.len() as u64),
            );
        }
    }
    let index_events: u64 = touched
        .iter()
        .map(|&t| {
            dataset
                .streams
                .get(t as usize)
                .map_or(0, |s| s.len() as u64)
        })
        .sum();
    index_events
        .saturating_mul(INDEX_BYTES_PER_EVENT)
        .saturating_add(graph_events.saturating_mul(GRAPH_BYTES_PER_EVENT))
}

/// The budget-bounded slice of `dataset` a degraded unit analyzes: the
/// global time range truncated at `retain_per_mille` thousandths of its
/// span. Integer arithmetic over the recorded range keeps the cut — and
/// therefore the degraded results — deterministic at every job count.
fn degraded_view(dataset: &Dataset, degradation: &Degradation) -> Dataset {
    let events = dataset.streams.iter().flat_map(|s| s.events());
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for e in events {
        lo = lo.min(e.t.0);
        hi = hi.max(e.t.0);
    }
    if lo > hi {
        (lo, hi) = (0, 0);
    }
    let span = hi - lo;
    let keep = span.saturating_mul(degradation.retain_per_mille as u64) / 1000;
    dataset.truncated(TimeNs(lo + keep))
}

/// Configuration of a [`Study`].
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Component selection (device drivers by default).
    pub components: ComponentFilter,
    /// Causality configuration (segment bound, reduction).
    pub causality: CausalityConfig,
    /// Worker threads for the analysis stages: `1` runs fully
    /// sequential, `0` (the default) picks `TRACELENS_JOBS` or the
    /// machine's available parallelism. Results are byte-identical at
    /// every setting.
    pub jobs: usize,
    /// Supervision policy for [`Study::run_supervised`]: per-unit soft
    /// deadline and panic-retry bound. Ignored by the unsupervised
    /// entry points.
    pub supervise: SupervisePolicy,
    /// Deterministic execution-fault injection (testing/CI only): arms
    /// panics and stalls inside supervised work units. `None` — the
    /// default — injects nothing.
    pub exec_faults: Option<ExecFaultPlan>,
    /// Checkpoint directory for [`Study::run_supervised`]: completed
    /// units are stored there and restored on re-runs over the same
    /// inputs. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Memory-governance policy for the supervised entry points: an
    /// explicit live-bytes budget per-scenario units are admitted
    /// against, and what happens to units that cannot fit. The default
    /// (unlimited) makes governance a no-op — byte-identical results.
    pub govern: GovernPolicy,
    /// Deterministic resource-pressure injection (testing/CI only):
    /// inflates unit cost *estimates* so the admission controller sees
    /// overload without the corpus having to provide it. The units'
    /// actual work is untouched. `None` — the default — injects
    /// nothing.
    pub mem_faults: Option<MemFaultPlan>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            components: ComponentFilter::suffix(".sys"),
            causality: CausalityConfig::default(),
            jobs: 0,
            supervise: SupervisePolicy::default(),
            exec_faults: None,
            checkpoint: None,
            govern: GovernPolicy::unlimited(),
            mem_faults: None,
        }
    }
}

/// Failures of the supervised study entry points.
///
/// Note the asymmetry with [`tracelens_pool::UnitFailure`]: a failed
/// *unit* degrades the study (it completes with an execution report);
/// a [`StudyError`] means no meaningful study exists at all.
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
/// sanitized input ([`Study::run_sanitized`]) covers only what survived
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
    /// deadlines, over-budget sheds) — the execution-layer counterpart
    /// of the sanitize counts above. Always `0` for unsupervised runs.
    pub failed_units: usize,
    /// Work units the memory governor ran on a bounded input slice:
    /// their numbers cover only part of their scenario's data. Always
    /// `0` without a finite budget.
    pub degraded_units: usize,
    /// Work units the memory governor refused to run at all (also
    /// counted in `failed_units` via their quarantine record). Always
    /// `0` without a finite budget.
    pub shed_units: usize,
}

impl Coverage {
    /// Full coverage over `dataset`: nothing quarantined, nothing
    /// repaired. What [`Study::run`] reports.
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
            degraded_units: 0,
            shed_units: 0,
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
            degraded_units: 0,
            shed_units: 0,
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
    /// How much of the input these results cover (full unless the study
    /// ran through [`Study::run_sanitized`] on corrupt input).
    pub coverage: Coverage,
    /// What supervised execution completed and what it quarantined.
    /// Clean for the unsupervised entry points.
    pub execution: ExecutionReport,
    /// What the memory governor decided per unit. Ungoverned (and
    /// empty) unless the study ran under a finite
    /// [`StudyConfig::govern`] budget.
    pub governance: GovernReport,
}

impl Study {
    /// Runs the study over `dataset` for the scenarios in `names`
    /// (typically the eight selected evaluation scenarios).
    pub fn run(dataset: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> Study {
        Study::run_traced(dataset, config, names, &Telemetry::noop())
    }

    /// [`Study::run`] with telemetry: the whole run is wrapped in a
    /// `study` span and every pipeline stage (impact, classification,
    /// Wait-Graph construction, aggregation, segment enumeration,
    /// contrast mining) reports spans and counters through `telemetry`.
    /// With a disabled handle this is exactly `run`.
    ///
    /// This is [`Study::run_supervised_traced`] under the default
    /// supervision policy, with the configuration's fault plans,
    /// checkpoint and memory budget left out.
    pub fn run_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Study {
        let plain = StudyConfig {
            supervise: SupervisePolicy::default(),
            exec_faults: None,
            checkpoint: None,
            govern: GovernPolicy::unlimited(),
            mem_faults: None,
            ..config.clone()
        };
        Study::run_supervised_traced(dataset, &plain, names, telemetry)
            .expect("a study without a checkpoint does no I/O that could fail")
    }

    /// [`Study::run`] while recording the pipeline's *own* execution as
    /// an ETW-shaped self-trace: spans become synthetic callstacks, pool
    /// joins and recorder lock contention become wait/unwait pairs, and
    /// the returned recording lowers (via `tracelens_selftrace::lower`)
    /// into a data set the impact/wait-graph analyses can consume — the
    /// pipeline analyzing itself.
    pub fn run_self_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> (Study, tracelens_selftrace::SelfTraceRecording) {
        let sink = tracelens_selftrace::SelfTraceSink::new();
        let study = Study::run_traced(dataset, config, names, &sink.telemetry());
        (study, sink.recording())
    }

    /// [`Study::run`] under fail-operational supervision: every work
    /// unit (per-stream accounting, per-scenario analysis) runs isolated
    /// per [`StudyConfig::supervise`], so a panicking or stalling unit is
    /// quarantined — recorded in [`Study::execution`] — instead of
    /// aborting the study. With [`StudyConfig::checkpoint`] set,
    /// completed units are persisted and re-runs over the same inputs
    /// resume instead of recomputing.
    ///
    /// # Errors
    ///
    /// [`StudyError::Checkpoint`] if the checkpoint directory cannot be
    /// used. Unit failures are *not* errors.
    pub fn run_supervised(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> Result<Study, StudyError> {
        Study::run_supervised_traced(dataset, config, names, &Telemetry::noop())
    }

    /// [`Study::run_supervised`] with telemetry (see
    /// [`Study::run_traced`]); supervision additionally reports
    /// `supervisor.*` counters under a `supervise` span per batch.
    ///
    /// The study makes one pass over the streams (see `stream_pass`):
    /// each instance's Wait Graph is built once, accounted once into an
    /// impact record, and fed once to its scenario's fast or slow AWG.
    /// Global impact is the fold of all records; each scenario unit
    /// folds its own records and finishes and mines its fed
    /// aggregators.
    pub fn run_supervised_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<Study, StudyError> {
        let _span = telemetry.span(stage::STUDY);
        let pool = Pool::new(config.jobs).with_telemetry(telemetry.clone());
        let policy = &config.supervise;
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
        // closure so unit indices (and therefore failure accounts) are
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

        // Admission runs on estimates computed up front, in input order,
        // optionally inflated by the resource-pressure fault plan — so
        // the governor's verdicts are independent of scheduling. It is
        // planned before the pass, because only the units that will run
        // whole use the pass's graphs.
        let mem = config.mem_faults.filter(|p| p.is_armed());
        let estimates: Vec<u64> = names
            .iter()
            .map(|n| {
                let est = estimated_unit_bytes(dataset, n);
                match mem {
                    Some(p) => p.inflated(SCENARIO_STAGE, &format!("scenario:{n}"), est),
                    None => est,
                }
            })
            .collect();
        let labeled: Vec<(String, u64)> = names
            .iter()
            .zip(&estimates)
            .map(|(n, &est)| (format!("scenario:{n}"), est))
            .collect();
        let admission = plan_admission(&labeled, &config.govern);
        let runs_whole = |i: usize| {
            matches!(
                admission.decisions[i].admission,
                Admission::Admitted | Admission::Queued
            )
        };

        let analyzer =
            ImpactAnalyzer::new(config.components.clone()).with_telemetry(telemetry.clone());
        let causality = causality_analysis(config.causality.clone(), telemetry, faults);
        // Degraded units analyze a budget-bounded slice of the data set
        // with a tighter segment bound; both analyses share the same
        // probe so fault plans hit degraded and whole units alike.
        let degraded_causality = causality_analysis(
            CausalityConfig {
                segment_bound: config.causality.segment_bound.min(DEGRADED_SEGMENT_BOUND),
                ..config.causality.clone()
            },
            telemetry,
            faults,
        );
        // Whole units the checkpoint cannot restore are the ones the
        // pass feeds; the others get no aggregators.
        let mut classes: Vec<Option<Result<ClassAggregators<'_>, CausalityError>>> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (runs_whole(i) && !restored.contains_key(&i))
                    .then(|| causality.prepare(dataset, name))
            })
            .collect();
        let pass = if saved_impact.is_none() || classes.iter().any(Option::is_some) {
            stream_pass(
                dataset,
                names,
                &mut classes,
                &analyzer,
                &pool,
                policy,
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
        // A unit takes its fed classes once; a retry after a panic in
        // finishing or mining finds them gone and fails again.
        let classes: Vec<Mutex<Option<_>>> = classes.into_iter().map(Mutex::new).collect();
        let (results, mut scenario_exec, governance) = pool.governed_supervised_map(
            names,
            SCENARIO_STAGE,
            policy,
            &config.govern,
            |i, _| estimates[i],
            |_, name| {
                UnitMeta::labeled(format!("scenario:{name}"))
                    .for_scenario(name.as_str())
                    .carrying(per_scenario.get(name).copied().unwrap_or(0))
            },
            |i, name, degradation| {
                if let Some(saved) = restored.get(&i) {
                    return saved.clone();
                }
                if let Some(p) = faults {
                    p.arm(SCENARIO_STAGE, &format!("scenario:{name}"));
                }
                match degradation {
                    None => scenario_study(
                        dataset,
                        name,
                        &pass.records,
                        &causality,
                        || {
                            classes[i]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .take()
                                .expect("a whole unit's classes are finished at most once")
                        },
                        telemetry,
                    ),
                    Some(d) => {
                        degraded_unit(dataset, d, name, &analyzer, &degraded_causality, telemetry)
                    }
                }
            },
        );
        scenario_exec.restored = restored.len();
        let mut scenarios: BTreeMap<ScenarioName, ScenarioStudy> = BTreeMap::new();
        for (idx, (name, result)) in names.iter().zip(results).enumerate() {
            let Some(unit) = result else { continue };
            // A whole unit that lost instances with a quarantined stream
            // is partial, like the global impact report: recompute it on
            // resume, never restore it.
            let partial = runs_whole(idx) && pass.lost.contains(name);
            if let Some(c) = &checkpoint {
                if !restored.contains_key(&idx) && !partial {
                    let _span = telemetry.span(stage::CHECKPOINT);
                    c.store_unit(idx, name, &unit)
                        .map_err(|source| checkpoint_error(c, source))?;
                }
            }
            scenarios.insert(*name, unit);
        }
        execution.absorb(scenario_exec);
        let mut coverage = Coverage::full(dataset);
        coverage.failed_units = execution.quarantined();
        coverage.degraded_units = governance.degraded;
        coverage.shed_units = governance.shed;
        Ok(Study {
            impact,
            scenarios,
            coverage,
            execution,
            governance,
        })
    }

    /// [`Study::run_supervised`] under explicit memory governance: every
    /// per-scenario unit is admitted against [`StudyConfig::govern`]'s
    /// live-bytes budget — queued behind backpressure, run degraded on a
    /// bounded input slice, or shed as a typed quarantine — and the
    /// governor's per-unit decisions land in [`Study::governance`],
    /// [`Study::coverage`], and the rendered report. With an unlimited
    /// budget this is exactly [`Study::run_supervised`], byte for byte.
    ///
    /// # Errors
    ///
    /// [`StudyError::Checkpoint`] as in [`Study::run_supervised`];
    /// over-budget units are *not* errors — the study always completes
    /// with every unit accounted for.
    pub fn run_governed(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> Result<Study, StudyError> {
        Study::run_governed_traced(dataset, config, names, &Telemetry::noop())
    }

    /// [`Study::run_governed`] with telemetry: governance additionally
    /// reports `govern.*` counters and a `govern.estimated_live_bytes`
    /// gauge (the admission ledger's view of live heap).
    pub fn run_governed_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<Study, StudyError> {
        // Supervision is governance-aware; the entry points differ only
        // in intent (this one documents the governed contract).
        Study::run_supervised_traced(dataset, config, names, telemetry)
    }

    /// [`Study::run_supervised`] with corruption tolerance: sanitize
    /// first, then run the supervised study over the survivor.
    ///
    /// # Errors
    ///
    /// [`StudyError::NoAnalyzableInstances`] when sanitization
    /// quarantines every scenario instance of a non-empty input —
    /// previously this fell through to an all-zero study that read as
    /// "analyzed and found nothing". [`StudyError::Checkpoint`] as in
    /// [`Study::run_supervised`].
    pub fn run_sanitized_supervised(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> Result<(Study, SanitizeReport), StudyError> {
        Study::run_sanitized_supervised_traced(dataset, config, names, &Telemetry::noop())
    }

    /// [`Study::run_sanitized_supervised`] with telemetry.
    pub fn run_sanitized_supervised_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<(Study, SanitizeReport), StudyError> {
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
        if clean.instances.is_empty() && report.input_instances > 0 {
            return Err(StudyError::NoAnalyzableInstances {
                input_instances: report.input_instances,
                quarantined_instances: report.quarantined_instances,
            });
        }
        let mut study = Study::run_supervised_traced(&clean, config, names, telemetry)?;
        let failed_units = study.execution.quarantined();
        study.coverage = Coverage::from_sanitize(&report);
        study.coverage.failed_units = failed_units;
        study.coverage.degraded_units = study.governance.degraded;
        study.coverage.shed_units = study.governance.shed;
        Ok((study, report))
    }

    /// Runs the study over all scenarios present in the data set.
    pub fn run_all(dataset: &Dataset, config: &StudyConfig) -> Study {
        let names: Vec<ScenarioName> = dataset.scenarios.iter().map(|s| s.name).collect();
        Study::run(dataset, config, &names)
    }

    /// [`Study::run`] with corruption tolerance: sanitizes `dataset`
    /// first (repairing what is repairable, quarantining what is not),
    /// runs the study over the clean survivor, and reports what fraction
    /// of the input the results cover via [`Study::coverage`].
    ///
    /// On pristine input this is `run` plus a no-op sanitize pass.
    pub fn run_sanitized(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
    ) -> (Study, SanitizeReport) {
        Study::run_sanitized_traced(dataset, config, names, &Telemetry::noop())
    }

    /// [`Study::run_sanitized`] with telemetry: the sanitize pass is
    /// wrapped in a `sanitize` span and reports `sanitize.repaired`,
    /// `sanitize.quarantined_traces` and `sanitize.quarantined_instances`
    /// counters before the usual study stages run.
    pub fn run_sanitized_traced(
        dataset: &Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> (Study, SanitizeReport) {
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
        let mut study = Study::run_traced(&clean, config, names, telemetry);
        study.coverage = Coverage::from_sanitize(&report);
        (study, report)
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
/// stream, builds each instance's Wait Graph and accounts it into an
/// impact record. The unit returns its records plus the graphs of the
/// instances some entry of `classes` aggregates; only after the unit
/// succeeded are those graphs fed to their aggregators, so a retried
/// attempt never inserts twice. Feeding follows stream order, then
/// instance order — the order the AWG trie is built in.
///
/// Units run in chunks of at most `jobs` streams, so at most one chunk's
/// graphs are alive at a time. A quarantined stream's instances are
/// dropped from every consumer: they leave no record and feed no
/// aggregator, and their classes forget them.
#[allow(clippy::too_many_arguments)]
fn stream_pass<'a>(
    dataset: &'a Dataset,
    names: &[ScenarioName],
    classes: &mut [Option<Result<ClassAggregators<'a>, CausalityError>>],
    analyzer: &ImpactAnalyzer,
    pool: &Pool,
    policy: &SupervisePolicy,
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
    let tasks = instances_by_stream(dataset, |_| true);
    let view = dataset.stacks.filter_view(analyzer.filter());
    let chunk = pool.jobs().max(1);
    let mut pass = StreamPass::default();
    for (n, chunk_tasks) in tasks.chunks(chunk).enumerate() {
        let fed: &[Option<Result<ClassAggregators<'a>, CausalityError>>] = classes;
        let aggregated = |instance: &ScenarioInstance| {
            feeds.get(&instance.scenario).is_some_and(|slots| {
                slots.iter().any(
                    |&slot| matches!(&fed[slot], Some(Ok(c)) if c.class_of(instance).is_some()),
                )
            })
        };
        let (outputs, mut execution) = pool.supervised_map(
            chunk_tasks,
            stage::IMPACT,
            policy,
            |_, (stream, instances)| {
                UnitMeta::labeled(format!("stream:{}", stream.id().0))
                    .for_stream(stream.id().0)
                    .carrying(instances.len())
            },
            |_, (stream, instances)| {
                if let Some(p) = faults {
                    p.arm(stage::IMPACT, &format!("stream:{}", stream.id().0));
                }
                let mut graphs = Vec::new();
                let records = analyzer.account_stream(stream, instances, &view, |i, graph| {
                    if aggregated(i) {
                        graphs.push((i, graph));
                    }
                });
                (records, graphs)
            },
        );
        // Failure indices count from the first stream, as in one batch.
        for failure in &mut execution.failures {
            failure.index += n * chunk;
        }
        pass.execution.absorb(execution);
        let _span = telemetry.span(stage::AGGREGATE);
        for (output, (_, instances)) in outputs.into_iter().zip(chunk_tasks) {
            let Some((records, graphs)) = output else {
                for &instance in instances {
                    pass.lost.insert(instance.scenario);
                    for &slot in feeds.get(&instance.scenario).into_iter().flatten() {
                        if let Some(Ok(c)) = &mut classes[slot] {
                            c.forget(instance);
                        }
                    }
                }
                continue;
            };
            for (instance, graph) in graphs {
                for &slot in &feeds[&instance.scenario] {
                    if let Some(Ok(c)) = &mut classes[slot] {
                        c.add(instance, &graph);
                    }
                }
            }
            pass.records.extend(records);
        }
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

/// A degraded unit: the same pass, unsupervised and for one scenario,
/// over the budget-bounded slice of the data set.
fn degraded_unit(
    dataset: &Dataset,
    degradation: &Degradation,
    name: &ScenarioName,
    analyzer: &ImpactAnalyzer,
    causality: &CausalityAnalysis,
    telemetry: &Telemetry,
) -> ScenarioStudy {
    // The transient slice lives only while this unit runs — its size is
    // what the degradation bought.
    let view = degraded_view(dataset, degradation);
    let filter = view.stacks.filter_view(analyzer.filter());
    let mut classes = causality.prepare(&view, name);
    let mut records = Vec::new();
    for (stream, instances) in instances_by_stream(&view, |i| i.scenario == *name) {
        records.extend(
            analyzer.account_stream(stream, &instances, &filter, |instance, graph| {
                if let Ok(c) = &mut classes {
                    c.add(instance, &graph);
                }
            }),
        );
    }
    scenario_study(&view, name, &records, causality, || classes, telemetry)
}

/// A causality analysis reporting through `telemetry` whose probe arms
/// `faults` at the causality stage.
fn causality_analysis(
    config: CausalityConfig,
    telemetry: &Telemetry,
    faults: Option<ExecFaultPlan>,
) -> CausalityAnalysis {
    let analysis = CausalityAnalysis::new(config).with_telemetry(telemetry.clone());
    match faults {
        Some(p) => analysis.with_probe(Arc::new(move |name: &ScenarioName| {
            p.arm(CAUSALITY_STAGE, &format!("scenario:{name}"));
        })),
        None => analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

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
        let study = Study::run(&ds, &StudyConfig::default(), &names);
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
        let study = Study::run_all(&ds, &StudyConfig::default());
        assert_eq!(study.scenarios.len(), ds.scenarios.len());
        assert!(study.coverage.is_full());
        assert_eq!(study.coverage.fraction(), 1.0);
    }

    #[test]
    fn run_sanitized_on_clean_input_has_full_coverage() {
        let ds = DatasetBuilder::new(7).traces(20).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let (study, report) = Study::run_sanitized(&ds, &StudyConfig::default(), &names);
        assert!(report.is_clean());
        assert!(study.coverage.is_full());
        let plain = Study::run(&ds, &StudyConfig::default(), &names);
        assert_eq!(study.impact.instances, plain.impact.instances);
        assert_eq!(study.impact.d_scn, plain.impact.d_scn);
    }

    #[test]
    fn supervised_clean_run_matches_unsupervised() {
        let ds = DatasetBuilder::new(11)
            .traces(16)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            jobs: 2,
            ..StudyConfig::default()
        };
        let plain = Study::run(&ds, &cfg, &names);
        let supervised = Study::run_supervised(&ds, &cfg, &names).unwrap();
        assert!(supervised.execution.is_clean());
        assert_eq!(supervised.impact, plain.impact);
        assert_eq!(supervised.coverage, plain.coverage);
        assert_eq!(supervised.scenarios.len(), plain.scenarios.len());
        for (name, a) in &plain.scenarios {
            let b = &supervised.scenarios[name];
            assert_eq!(a.impact, b.impact);
            assert_eq!(a.slow_impact, b.slow_impact);
            assert_eq!(a.causality, b.causality);
        }
    }

    #[test]
    fn supervised_run_quarantines_injected_faults() {
        let ds = DatasetBuilder::new(12)
            .traces(16)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let cfg = StudyConfig {
            jobs: 1,
            exec_faults: Some(ExecFaultPlan::new(5).with_panic_rate(0.4)),
            supervise: tracelens_pool::SupervisePolicy {
                max_retries: 1,
                ..Default::default()
            },
            ..StudyConfig::default()
        };
        let study = Study::run_supervised(&ds, &cfg, &names).unwrap();
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
        // Determinism: an identical run (different job count) agrees.
        let cfg4 = StudyConfig {
            jobs: 4,
            ..cfg.clone()
        };
        let again = Study::run_supervised(&ds, &cfg4, &names).unwrap();
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
        let full = Study::run(&ds, &StudyConfig::default(), &names);
        for jobs in [1, 4] {
            let cfg = StudyConfig {
                jobs,
                exec_faults: Some(plan),
                supervise: SupervisePolicy {
                    max_retries: 0,
                    ..SupervisePolicy::default()
                },
                ..StudyConfig::default()
            };
            let study = Study::run_supervised(&ds, &cfg, &names).unwrap();
            let exec = &study.execution;
            assert_eq!(exec.quarantined(), 1, "jobs={jobs}");
            assert_eq!(exec.failures[0].unit, "stream:1");
            assert_eq!(exec.failures[0].index, 1, "indices count across chunks");
            assert_eq!(exec.failures[0].stream, Some(1));
            assert_eq!(exec.lost_instances(), lost);
            assert_eq!(study.impact.instances, full.impact.instances - lost);
            assert!(study.impact.d_scn < full.impact.d_scn);
        }
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
            jobs: 2,
            exec_faults: Some(ExecFaultPlan::new(77).with_panic_rate(0.5)),
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let first = Study::run_supervised(&ds, &faulted, &names).unwrap();
        assert!(first.execution.quarantined() > 0, "seed must hit something");
        assert_eq!(first.execution.restored, 0);
        // Second pass: same inputs, faults off — restores completed
        // units, re-runs the quarantined ones, and must be
        // byte-identical to a clean uninterrupted run.
        let resumed_cfg = StudyConfig {
            jobs: 2,
            checkpoint: Some(dir.clone()),
            ..StudyConfig::default()
        };
        let resumed = Study::run_supervised(&ds, &resumed_cfg, &names).unwrap();
        assert!(resumed.execution.restored > 0, "nothing was restored");
        assert!(resumed.execution.failures.is_empty());
        let clean_cfg = StudyConfig {
            jobs: 2,
            ..StudyConfig::default()
        };
        let clean = Study::run(&ds, &clean_cfg, &names);
        let opts = crate::ReportOptions::default();
        assert_eq!(
            crate::render_markdown(&resumed, &ds, &opts),
            crate::render_markdown(&clean, &ds, &opts),
            "resumed study must render byte-identical to a clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        let err = Study::run_sanitized_supervised(&ds, &StudyConfig::default(), &names)
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
        assert!(Study::run_sanitized_supervised(&empty, &StudyConfig::default(), &[]).is_ok());
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
        let (study, report) = Study::run_sanitized(&ds, &StudyConfig::default(), &names);
        assert_eq!(report.quarantined_instances, 1);
        assert!(!study.coverage.is_full());
        assert!(study.coverage.fraction() < 1.0);
        assert_eq!(
            study.coverage.analyzed_instances,
            ds.instances.len() - 1,
            "exactly the dangling instance is excluded"
        );
    }
}
