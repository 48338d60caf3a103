//! The full-evaluation driver: the paper's workflow over one data set.
//!
//! One driver serves every route. [`Study::run`] feeds it a data set
//! held in memory. [`Study::run_file`], the entry point for a file,
//! feeds it one stream at a time when it can, so the events of one
//! stream are alive at once: from a warm `.tlb` cache, or from text in
//! the layout [`Dataset::write_text`] writes (instances before traces),
//! read by a [`TextReader`]. Every stream is checked as it passes: a
//! cached one event by event, a sealed text one by its id alone, since
//! the parser has checked its events. A sanitizing study applies
//! sanitize's instance rules once it has counted the streams, which is
//! all sanitize can change in text the parser accepts, or in a cache
//! whose every stream passed the check.
//! A source that proves unusable part way through (a corrupt cache, or
//! text with a record out of the streamed order) is dropped with the
//! partial study, and the text is parsed whole and studied in memory
//! instead; a cache with a stream sanitize would change is dropped the
//! same way under a sanitizing study, then loaded whole and sanitized
//! in memory. Text with no instance before its first trace, the layout
//! written before instances moved ahead, is collected by the same
//! reader and studied in memory.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::fs::File;
use std::io::Seek;
use std::path::Path;
use std::sync::Arc;
use tracelens_causality::{
    CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport, ClassAggregators,
};
use tracelens_faults::ExecFaultPlan;
use tracelens_impact::{fold, instances_by_trace, ImpactAnalyzer, ImpactReport, InstanceRecord};
use tracelens_model::binio::BinReader;
use tracelens_model::textio::{ReadError, TextReader, TextStreamError};
use tracelens_model::{
    instance_counts, sanitize_instances, ComponentFilter, Dataset, SanitizeReport,
    ScenarioInstance, ScenarioName, TraceId, TraceStream, ValidationError, Validator,
};
use tracelens_obs::{stage, Telemetry};

use crate::store::{self, CacheFallback, IngestReport, OpenCache};
use crate::supervise::{ExecutionReport, Supervisor, UnitMeta};

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
    /// Deterministic execution-fault injection (testing/CI only): arms
    /// panics inside supervised work units. `None` — the default —
    /// injects nothing.
    pub exec_faults: Option<ExecFaultPlan>,
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
            exec_faults: None,
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
        }
    }
}

impl std::error::Error for StudyError {}

/// Why [`Study::run_file`] produced no study.
#[derive(Debug)]
pub enum FileStudyError {
    /// The text could not be opened, read or parsed.
    Read(ReadError),
    /// The study itself failed, as [`Study::run`] can.
    Study(StudyError),
}

impl fmt::Display for FileStudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileStudyError::Read(e) => e.fmt(f),
            FileStudyError::Study(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FileStudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileStudyError::Read(e) => Some(e),
            FileStudyError::Study(e) => Some(e),
        }
    }
}

/// A study of a `.tlt` file: what [`Study::run_file`] returns.
#[derive(Debug)]
pub struct FileStudy {
    /// The study of every scenario the data set defines.
    pub study: Study,
    /// What [`render_markdown`](crate::render_markdown) renders the
    /// study against: the analyzed data set, or, when the study streamed
    /// its input, the tables alone (no streams), with the instances
    /// sanitize kept when it sanitized.
    pub dataset: Dataset,
    /// How the input was read: from the text, or from the cache.
    pub ingest: IngestReport,
    /// The input's validation verdict, as [`Dataset::validate`] gives it
    /// for the data set as read (before any sanitizing).
    pub validation: Result<(), ValidationError>,
}

impl FileStudy {
    /// The study of a streamed input: the tables stand for the data set,
    /// with the instances sanitize kept when it sanitized.
    fn streamed(
        study: Study,
        mut tables: Dataset,
        clean: Option<Vec<ScenarioInstance>>,
        ingest: IngestReport,
        validation: Result<(), ValidationError>,
    ) -> FileStudy {
        if let Some(clean) = clean {
            tables.instances = clean;
        }
        FileStudy {
            study,
            dataset: tables,
            ingest,
            validation,
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
    /// Events in the input data set.
    pub total_events: usize,
    /// Trace streams quarantined by sanitization.
    pub quarantined_traces: usize,
    /// Scenario instances quarantined by sanitization (directly — not
    /// counting instances lost with a quarantined trace).
    pub quarantined_instances: usize,
    /// Individual repairs sanitization applied to surviving data.
    pub repaired: usize,
    /// Work units quarantined by *supervised execution* (panicked
    /// units) — the execution-layer counterpart of the sanitize counts
    /// above.
    pub failed_units: usize,
}

impl Coverage {
    /// Full coverage of an input of `traces` streams, `instances`
    /// scenario instances and `events` events: nothing quarantined,
    /// nothing repaired.
    fn full(traces: usize, instances: usize, events: usize) -> Coverage {
        Coverage {
            total_traces: traces,
            analyzed_traces: traces,
            total_instances: instances,
            analyzed_instances: instances,
            total_events: events,
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
            total_events: report.input_events,
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
    /// honouring every [`StudyConfig`] field, and hands back the study
    /// together with the data set it analyzed, which
    /// [`render_markdown`](crate::render_markdown) renders against.
    ///
    /// With [`StudyConfig::sanitize`] set, the input is sanitized first,
    /// in place (a `sanitize` span plus `sanitize.*` counters), and the
    /// study runs on the clean survivor; that survivor is the data set
    /// handed back. Otherwise `dataset` comes back unchanged. A caller
    /// that needs the raw input afterwards passes a clone.
    ///
    /// The study then makes one pass over the streams (see
    /// `stream_pass`), the pass [`Study::run_file`] makes over a file it
    /// streams: each stream's Wait Graphs are built once, as one
    /// `StreamGraph`, and each instance is accounted once into an impact
    /// record and fed once to its scenario's fast or slow AWG. Global
    /// impact is the fold of all records; each scenario unit folds its
    /// own records and finishes and mines its fed aggregators.
    ///
    /// Every work unit (per-stream accounting, per-scenario analysis)
    /// runs once, supervised: a panicking unit is quarantined and
    /// recorded in [`Study::execution`] instead of aborting the study.
    /// The run is wrapped in a `study` span and every stage reports
    /// spans and counters through `telemetry`; `Telemetry::noop()`
    /// collects nothing.
    ///
    /// # Errors
    ///
    /// [`StudyError::NoAnalyzableInstances`] when sanitization
    /// quarantines every instance of a non-empty input. Unit failures
    /// are *not* errors.
    pub fn run(
        dataset: Dataset,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
    ) -> Result<(Study, Dataset), StudyError> {
        let (dataset, sanitizing) = if config.sanitize {
            let (clean, report) = {
                let _span = telemetry.span(stage::SANITIZE);
                dataset.sanitize()
            };
            survivors(&report, &clean.instances, telemetry)?;
            (clean, Sanitizing::Done(report))
        } else {
            (dataset, Sanitizing::Off)
        };
        let (study, _) = Study::analyze(
            &dataset,
            dataset.streams.iter().map(Ok::<_, Infallible>),
            config,
            names,
            telemetry,
            sanitizing,
        )
        .map_err(|halt| match halt {
            Halt::Study(e) => e,
            Halt::Source(never) => match never {},
        })?;
        Ok((study, dataset))
    }

    /// Studies the `.tlt` file at `path`, for every scenario the data
    /// set defines, in table order: what `tracelens report FILE` runs.
    /// With `cache` set the file is read through its `.tlb` cache
    /// ([`store::cache_path_for`]), as in [`store::ingest_path`].
    ///
    /// The study streams its input where it can: the tables are read
    /// first, and each stream is read, checked, indexed, built, accounted
    /// and aggregated, and dropped before the next one is read, so one
    /// stream's events are in memory at a time.
    ///
    /// * Text streams through a [`TextReader`] when its instances come
    ///   before its traces. Text the parser accepts has sorted,
    ///   well-targeted streams with known stacks and dense ids, so
    ///   [`Validator::sealed`] only counts each stream and checks its id,
    ///   and the verdict still equals [`Dataset::validate`] of the
    ///   collected data set. A sanitizing study needs no stream repaired
    ///   for the same reason: only sanitize's instance rules can fire,
    ///   and they run once the streams are counted. Text with no
    ///   instance before its first trace is collected by the same reader
    ///   and studied in memory. Text with a record out of the streamed
    ///   order (a table record after the first trace, or trace ids out of
    ///   order) is dropped with the partial study, rewound, parsed whole
    ///   and studied in memory.
    /// * A cache is used when its header records the text's
    ///   fingerprint, and the study streams it. The payload checksum is
    ///   known only after the last stream; a cache that fails it, or any
    ///   other check, part way through is treated like one that failed
    ///   before the study began: the partial study is dropped, the cache
    ///   is quarantined, and the text is parsed, repacked and studied in
    ///   memory. A cache may hold what no parse would give, so
    ///   [`Validator::stream`] walks every stream it yields. A
    ///   sanitizing study streams the cache while the walk passes each
    ///   stream, since sanitize leaves such a stream as it is, and runs
    ///   only sanitize's instance rules after the pass. At the first
    ///   stream it flags, the partial study is dropped and the cache is
    ///   loaded whole and sanitized in memory; it is not quarantined.
    ///   Missing, stale and corrupt caches take the text path, in
    ///   memory, since packing needs the whole data set.
    ///
    /// # Errors
    ///
    /// [`FileStudyError::Read`] when the text cannot be read or parsed
    /// (cache problems are never errors); [`FileStudyError::Study`] as
    /// [`Study::run`].
    pub fn run_file(
        path: &Path,
        cache: bool,
        config: &StudyConfig,
        telemetry: &Telemetry,
    ) -> Result<FileStudy, FileStudyError> {
        if cache {
            return Study::run_cached(path, config, telemetry);
        }
        Study::stream_text(path, config, telemetry)
    }

    /// [`Study::run_file`] over the text alone.
    fn stream_text(
        path: &Path,
        config: &StudyConfig,
        telemetry: &Telemetry,
    ) -> Result<FileStudy, FileStudyError> {
        let file = File::open(path).map_err(|e| FileStudyError::Read(ReadError::Io(e)))?;
        let mut input = store::tapped(&file, false);
        let (tables, reader) = {
            let _span = telemetry.span(stage::INGEST);
            TextReader::new(&mut input).map_err(FileStudyError::Read)?
        };
        if tables.instances.is_empty() {
            let ds = {
                let _span = telemetry.span(stage::INGEST);
                reader.collect_into(tables).map_err(FileStudyError::Read)?
            };
            let (ingest, _) = store::text_read(input, ds.total_events(), telemetry);
            return Study::run_loaded(ds, ingest, config, telemetry);
        }
        let names = scenario_names(&tables);
        let mut validator = Validator::new(&tables);
        let streams = reader.map(|stream| {
            stream.inspect(|s| {
                validator.sealed(s);
            })
        });
        let sanitizing = Sanitizing::streamed(config);
        match Study::analyze(&tables, streams, config, &names, telemetry, sanitizing) {
            Ok((study, clean)) => {
                let validation = validator.finish();
                let (ingest, _) = store::text_read(input, study.coverage.total_events, telemetry);
                Ok(FileStudy::streamed(
                    study, tables, clean, ingest, validation,
                ))
            }
            Err(Halt::Study(e)) => Err(FileStudyError::Study(e)),
            Err(Halt::Source(TextStreamError::Read(e))) => Err(FileStudyError::Read(e)),
            Err(Halt::Source(TextStreamError::OutOfOrder { .. })) => {
                let retries = input.get_ref().retries();
                drop(input);
                (&file)
                    .rewind()
                    .map_err(|e| FileStudyError::Read(ReadError::Io(e)))?;
                let (ds, mut ingest) =
                    store::ingest_reader(&file, telemetry).map_err(FileStudyError::Read)?;
                ingest.io_retries += retries;
                Study::run_loaded(ds, ingest, config, telemetry)
            }
        }
    }

    /// [`Study::run_file`] through the cache.
    fn run_cached(
        path: &Path,
        config: &StudyConfig,
        telemetry: &Telemetry,
    ) -> Result<FileStudy, FileStudyError> {
        let (text, cache) = {
            let _span = telemetry.span(stage::INGEST);
            store::open_cached(path).map_err(FileStudyError::Read)?
        };
        let fallback = match cache {
            Ok(cache) => match Study::stream_cached(&cache, text.retries, config, telemetry) {
                Ok(run) => return Ok(run),
                Err(Halt::Study(e)) => return Err(FileStudyError::Study(e)),
                Err(Halt::Source(CacheHalt::Corrupt)) => CacheFallback::Corrupt,
                Err(Halt::Source(CacheHalt::Unclean)) => {
                    match cache.load(text.retries, telemetry) {
                        Some((ds, ingest)) => {
                            return Study::run_loaded(ds, ingest, config, telemetry)
                        }
                        None => CacheFallback::Corrupt,
                    }
                }
            },
            Err(fallback) => fallback,
        };
        let (ds, ingest) = {
            let _span = telemetry.span(stage::INGEST);
            text.parse(fallback, telemetry)
                .map_err(FileStudyError::Read)?
        };
        Study::run_loaded(ds, ingest, config, telemetry)
    }

    /// [`Study::run_file`] over a data set in memory: validated, then
    /// studied by [`Study::run`].
    fn run_loaded(
        ds: Dataset,
        ingest: IngestReport,
        config: &StudyConfig,
        telemetry: &Telemetry,
    ) -> Result<FileStudy, FileStudyError> {
        let validation = ds.validate();
        let names = scenario_names(&ds);
        let (study, dataset) =
            Study::run(ds, config, &names, telemetry).map_err(FileStudyError::Study)?;
        Ok(FileStudy {
            study,
            dataset,
            ingest,
            validation,
        })
    }

    /// [`Study::run_file`] streaming a fingerprint-matching cache, one
    /// stream at a time. A sanitizing study streams only while each
    /// stream is one sanitize leaves as it is ([`Validator::stream`]
    /// passes it), so that sanitize's instance rules are all that is
    /// left to run once the streams are counted.
    fn stream_cached(
        cache: &OpenCache,
        io_retries: usize,
        config: &StudyConfig,
        telemetry: &Telemetry,
    ) -> Result<FileStudy, Halt<CacheHalt>> {
        let (tables, streams, bytes) = {
            let _span = telemetry.span(stage::INGEST);
            let (input, bytes) = cache
                .input()
                .map_err(|_| Halt::Source(CacheHalt::Corrupt))?;
            let (tables, streams) =
                BinReader::new(input).map_err(|_| Halt::Source(CacheHalt::Corrupt))?;
            (tables, streams, bytes)
        };
        let names = scenario_names(&tables);
        let mut validator = Validator::new(&tables);
        let streams = streams.map(|stream| {
            let stream = stream.map_err(|_| CacheHalt::Corrupt)?;
            if !validator.stream(&stream) && config.sanitize {
                return Err(CacheHalt::Unclean);
            }
            Ok(stream)
        });
        let sanitizing = Sanitizing::streamed(config);
        let (study, clean) =
            Study::analyze(&tables, streams, config, &names, telemetry, sanitizing)?;
        let validation = validator.finish();
        let ingest =
            IngestReport::cache_hit(bytes, study.coverage.total_events, io_retries, telemetry);
        Ok(FileStudy::streamed(
            study, tables, clean, ingest, validation,
        ))
    }

    /// The driver every route shares: the analyses over the scenario,
    /// stack and instance tables of `tables` and the streams `streams`
    /// yields, in order, sanitized as `sanitizing` says. The streams of
    /// `tables` are not read, and every item of `streams` is drawn, so a
    /// source that verifies itself at its end (a [`BinReader`]) has been
    /// verified when the study comes back. The first error the source
    /// yields stops the study.
    ///
    /// With [`Sanitizing::Instances`] the streams must be ones sanitize
    /// keeps as they are, with ids 0, 1, 2, … in order. Instances of an
    /// undefined scenario then stay out of the pass, an instance whose
    /// trace never arrives meets no stream, and once the streams are
    /// counted sanitize's instance rules give the instance table the
    /// scenario units study, which comes back with the study.
    fn analyze<S: Borrow<TraceStream>, E>(
        tables: &Dataset,
        streams: impl Iterator<Item = Result<S, E>>,
        config: &StudyConfig,
        names: &[ScenarioName],
        telemetry: &Telemetry,
        sanitizing: Sanitizing,
    ) -> Result<(Study, Option<Vec<ScenarioInstance>>), Halt<E>> {
        let _span = telemetry.span(stage::STUDY);
        let supervisor = Supervisor::new(telemetry);
        let faults = config.exec_faults.filter(|p| p.is_armed());
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
        let mut classes: Vec<Result<ClassAggregators<'_>, CausalityError>> = names
            .iter()
            .map(|name| causality.prepare(tables, name))
            .collect();
        // The input's size, counted as the streams go by.
        let (mut traces, mut events) = (0, 0);
        let streams = streams.inspect(|stream| {
            if let Ok(stream) = stream {
                traces += 1;
                events += stream.borrow().len();
            }
        });
        let deferred = matches!(sanitizing, Sanitizing::Instances);
        let pass = stream_pass(
            tables,
            streams,
            // Instances the rules quarantine whatever the stream count
            // stay out of the pass.
            |i| !deferred || tables.scenario(&i.scenario).is_some(),
            names,
            &mut classes,
            &analyzer,
            &supervisor,
            faults,
            telemetry,
        )
        .map_err(Halt::Source)?;
        let (sanitize, clean) = match sanitizing {
            Sanitizing::Off => (None, None),
            Sanitizing::Done(report) => (Some(report), None),
            Sanitizing::Instances => {
                let _span = telemetry.span(stage::SANITIZE);
                let mut report = SanitizeReport {
                    input_traces: traces,
                    input_instances: tables.instances.len(),
                    input_events: events,
                    ..SanitizeReport::default()
                };
                let mut clean = tables.instances.clone();
                let streamed = |trace: TraceId| ((trace.0 as usize) < traces).then_some(trace);
                sanitize_instances(&mut clean, &tables.scenarios, streamed, &mut report);
                survivors(&report, &clean, telemetry)?;
                for classes in classes.iter_mut().flatten() {
                    classes.recount(&clean);
                }
                (Some(report), Some(clean))
            }
        };

        let impact = {
            let _span = telemetry.span(stage::IMPACT);
            fold(&pass.records)
        };
        let mut execution = pass.execution;

        let per_scenario = instance_counts(clean.as_deref().unwrap_or(&tables.instances));
        let mut scenario_exec = ExecutionReport::default();
        let mut scenarios: BTreeMap<ScenarioName, ScenarioStudy> = BTreeMap::new();
        for (name, classes) in names.iter().zip(classes) {
            let unit = supervisor.run(
                &mut scenario_exec,
                SCENARIO_STAGE,
                || {
                    UnitMeta::labeled(format!("scenario:{name}"))
                        .for_scenario(name.as_str())
                        .carrying(per_scenario.get(name).copied().unwrap_or(0))
                },
                || {
                    if let Some(p) = faults {
                        p.arm(SCENARIO_STAGE, &format!("scenario:{name}"));
                    }
                    scenario_study(tables, name, &pass.records, &causality, classes, telemetry)
                },
            );
            if let Some(unit) = unit {
                scenarios.insert(*name, unit);
            }
        }
        execution.absorb(scenario_exec);
        let coverage = Coverage {
            failed_units: execution.quarantined(),
            ..match &sanitize {
                Some(report) => Coverage::from_sanitize(report),
                None => Coverage::full(traces, tables.instances.len(), events),
            }
        };
        let study = Study {
            impact,
            scenarios,
            coverage,
            execution,
            sanitize,
        };
        Ok((study, clean))
    }
}

/// Why a warm cache stopped streaming into the study.
enum CacheHalt {
    /// It is not an intact image: quarantine it and study the text.
    Corrupt,
    /// A sanitizing study met a stream sanitize would change: load the
    /// cache whole and sanitize it in memory.
    Unclean,
}

/// How a study's input is sanitized.
enum Sanitizing {
    /// Not at all: the tables' instances are studied as they are.
    Off,
    /// Whole, before the study, with this report.
    Done(SanitizeReport),
    /// By sanitize's instance rules alone, once the pass has counted the
    /// streams: for streams sanitize keeps as they are (text the parser
    /// accepted, or a cache whose every stream `Validator` passed).
    Instances,
}

impl Sanitizing {
    /// How a study that streams its input sanitizes under `config`.
    fn streamed(config: &StudyConfig) -> Sanitizing {
        if config.sanitize {
            Sanitizing::Instances
        } else {
            Sanitizing::Off
        }
    }
}

/// Counts what sanitize did in `telemetry`, and refuses a study whose
/// sanitized input lost every one of its instances.
fn survivors(
    report: &SanitizeReport,
    kept: &[ScenarioInstance],
    telemetry: &Telemetry,
) -> Result<(), StudyError> {
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
    if kept.is_empty() && report.input_instances > 0 {
        return Err(StudyError::NoAnalyzableInstances {
            input_instances: report.input_instances,
            quarantined_instances: report.quarantined_instances,
        });
    }
    Ok(())
}

/// Every scenario `dataset` defines, in table order: the scenarios a
/// report studies.
fn scenario_names(dataset: &Dataset) -> Vec<ScenarioName> {
    dataset.scenarios.iter().map(|s| s.name).collect()
}

/// Why [`Study::analyze`] stopped short of a study.
enum Halt<E> {
    /// The stream source failed; `E` says how.
    Source(E),
    /// The study failed, as [`Study::run`] can.
    Study(StudyError),
}

impl<E> From<StudyError> for Halt<E> {
    fn from(e: StudyError) -> Halt<E> {
        Halt::Study(e)
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
}

/// The study's one pass over the streams, in the order `streams` yields
/// them; each stream is dropped before the next is drawn. Each stream
/// with instances (those of `tables` that `keep` accepts and whose trace
/// is its id) is one
/// supervised unit (`stream:N`, stage `impact`) that indexes the
/// stream, builds its instances' Wait Graphs as one `StreamGraph`
/// (sharing the wait subtrees several instances reach) and accounts each
/// instance into an impact record. Only after the unit succeeded are its
/// instances' graphs fed to the entries of `classes` that aggregate
/// them, so a panicked unit feeds nothing; then the graph is dropped, so
/// one stream's graph is alive at a time. Feeding follows stream order,
/// then instance order — the order the AWG trie is built in.
///
/// A quarantined stream's instances are dropped from every consumer:
/// they leave no record and feed no aggregator, and their classes
/// forget them.
///
/// # Errors
///
/// The first error `streams` yields, which ends the pass.
#[allow(clippy::too_many_arguments)]
fn stream_pass<'a, S: Borrow<TraceStream>, E>(
    tables: &'a Dataset,
    streams: impl Iterator<Item = Result<S, E>>,
    keep: impl Fn(&ScenarioInstance) -> bool,
    names: &[ScenarioName],
    classes: &mut [Result<ClassAggregators<'a>, CausalityError>],
    analyzer: &ImpactAnalyzer,
    supervisor: &Supervisor,
    faults: Option<ExecFaultPlan>,
    telemetry: &Telemetry,
) -> Result<StreamPass<'a>, E> {
    // The entries of `classes` each scenario's graphs feed.
    let mut feeds: BTreeMap<ScenarioName, Vec<usize>> = BTreeMap::new();
    for (slot, (name, fed)) in names.iter().zip(classes.iter()).enumerate() {
        if fed.is_ok() {
            feeds.entry(*name).or_default().push(slot);
        }
    }
    let view = tables.stacks.filter_view(analyzer.filter());
    let by_trace = instances_by_trace(&tables.instances, keep);
    let mut pass = StreamPass::default();
    for stream in streams {
        let stream = stream?;
        let stream = stream.borrow();
        let Some(instances) = by_trace.get(&stream.id()) else {
            continue;
        };
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
                analyzer.account_stream(stream, instances, &view)
            },
        );
        let _span = telemetry.span(stage::AGGREGATE);
        let Some((records, graph)) = output else {
            for &instance in instances {
                for &slot in feeds.get(&instance.scenario).into_iter().flatten() {
                    if let Ok(c) = &mut classes[slot] {
                        c.forget(instance);
                    }
                }
            }
            continue;
        };
        for (k, &instance) in instances.iter().enumerate() {
            for &slot in feeds.get(&instance.scenario).into_iter().flatten() {
                if let Ok(c) = &mut classes[slot] {
                    c.add(instance, graph.instance(k));
                }
            }
        }
        pass.records.extend(records);
    }
    Ok(pass)
}

/// One scenario unit's results: its impact and its slow class's impact
/// (the paper's Table-2 "Driver Cost" scope), folded from `records`,
/// and its fed `classes`, finished and mined after the causality probe
/// ran.
fn scenario_study(
    dataset: &Dataset,
    name: &ScenarioName,
    records: &[InstanceRecord<'_>],
    causality: &CausalityAnalysis,
    classes: Result<ClassAggregators<'_>, CausalityError>,
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
        causality: causality.finish(classes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    /// A study of a clone of `ds`, which the tests render against.
    fn run(ds: &Dataset, cfg: &StudyConfig, names: &[ScenarioName]) -> Study {
        let _gate = crate::supervise::tests::batch_gate();
        Study::run(ds.clone(), cfg, names, &Telemetry::noop())
            .expect("study runs")
            .0
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
            assert!(f.panic.starts_with("injected fault"), "{f}");
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
        let poisoned = |plan: &ExecFaultPlan, stage: &str, unit: &str| plan.panics(stage, unit);
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
        let err = Study::run(ds, &cfg, &names, &Telemetry::noop())
            .expect_err("all instances quarantined must be a typed error");
        let StudyError::NoAnalyzableInstances {
            input_instances,
            quarantined_instances,
        } = err;
        assert_eq!(input_instances, 3);
        assert_eq!(quarantined_instances, 3);
        // An empty input (no instances at all) is not an error: there
        // was nothing to lose.
        let empty = tracelens_model::Dataset::new();
        assert!(Study::run(empty, &cfg, &[], &Telemetry::noop()).is_ok());
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
