//! Campaign execution: running composite fault configurations through
//! the full pipeline and collecting the evidence the oracles judge.
//!
//! One [`run_config`] call is one end-to-end exercise of a
//! [`ChaosConfig`]: simulate a corpus, push it through every armed
//! fault plane (flaky streamed ingest, torn caches under a cached
//! study, data corruption, exec faults under supervision, torn
//! checkpoints), and record what happened as [`RunArtifacts`]. [`run_campaign`] runs
//! a sampled batch of configs in order, so campaign output depends on
//! the campaign seed alone.

use crate::config::{sample_campaign, ChaosConfig, FaultPlane};
use crate::minimize::{minimize, MinimizedRepro};
use crate::oracles::{check_all, Violation, ORACLES};
use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tracelens::store::{self, CacheFallback, IngestSource};
use tracelens::{render_markdown, ReportOptions, Study, StudyConfig};
use tracelens_faults::{FaultInjector, FlakyReader};
use tracelens_model::{Dataset, ScenarioName};
use tracelens_obs::{stage, Telemetry};
use tracelens_sim::{DatasetBuilder, ScenarioMix};

/// The coverage and accounting numbers a run's primary study reported,
/// flattened for the conservation oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageNumbers {
    /// Input traces.
    pub total_traces: usize,
    /// Traces the study analyzed.
    pub analyzed_traces: usize,
    /// Traces sanitization quarantined.
    pub quarantined_traces: usize,
    /// Input scenario instances.
    pub total_instances: usize,
    /// Instances the study analyzed.
    pub analyzed_instances: usize,
    /// Instances sanitization quarantined.
    pub quarantined_instances: usize,
    /// Units coverage reports as failed.
    pub failed_units: usize,
    /// Units the execution report quarantined.
    pub exec_quarantined: usize,
}

/// Everything one chaos run leaves behind for the oracles.
///
/// `Option` fields are evidence: `None` means the run did not exercise
/// that property (its oracle does not apply), `Some(Err)` means it did
/// and the property was violated.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The configuration that produced these artifacts.
    pub config: ChaosConfig,
    /// A panic that escaped the pipeline (caught at the run boundary).
    pub panic: Option<String>,
    /// The primary study's rendered report.
    pub markdown: Option<String>,
    /// The primary study's accounting numbers.
    pub coverage: Option<CoverageNumbers>,
    /// Typed errors absorbed as *allowed* degraded outcomes (exhausted
    /// retries, everything quarantined) — reported, never violations.
    pub degraded: Vec<String>,
    /// Flaky streamed ingest round-tripped byte-identically.
    pub ingest: Option<Result<(), String>>,
    /// Torn `.tlb` cache: detected, quarantined, never laundered.
    pub cache: Option<Result<(), String>>,
    /// Torn checkpoint: resumed report equals the fresh report.
    pub resume: Option<Result<(), String>>,
    /// Supervised run equals the plain run.
    pub baseline: Option<Result<(), String>>,
}

impl RunArtifacts {
    fn empty(config: ChaosConfig) -> RunArtifacts {
        RunArtifacts {
            config,
            panic: None,
            markdown: None,
            coverage: None,
            degraded: Vec::new(),
            ingest: None,
            cache: None,
            resume: None,
            baseline: None,
        }
    }
}

/// Runs one configuration end to end, catching any panic that escapes
/// the pipeline's own fault handling (which the `no_escaped_panic`
/// oracle then flags).
///
/// `inject_known_bug` arms a deliberate accounting bug — one analyzed
/// instance over-counted whenever corruption and exec faults are both
/// active — used to prove the campaign detects and minimizes real
/// violations (`--inject-known-bug` end to end).
pub fn run_config(cfg: &ChaosConfig, inject_known_bug: bool) -> RunArtifacts {
    match catch_unwind(AssertUnwindSafe(|| execute(cfg))) {
        Ok(mut artifacts) => {
            if inject_known_bug && cfg.corruption_active() && cfg.exec_active() {
                if let Some(c) = artifacts.coverage.as_mut() {
                    c.analyzed_instances += 1;
                }
            }
            artifacts
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            let mut artifacts = RunArtifacts::empty(cfg.clone());
            artifacts.panic = Some(msg);
            artifacts
        }
    }
}

fn execute(cfg: &ChaosConfig) -> RunArtifacts {
    let mut art = RunArtifacts::empty(cfg.clone());
    let noop = Telemetry::noop();
    let ds = DatasetBuilder::new(cfg.seed)
        .traces(cfg.traces)
        .mix(ScenarioMix::Selected)
        .build();
    let mut text = Vec::new();
    ds.write_text(&mut text).expect("in-memory write");

    if cfg.read_faults_active() {
        let flaky = FlakyReader::new(&text[..], cfg.read_plan());
        match store::ingest_reader(flaky, &noop) {
            Ok((flaky, _report)) => {
                let mut round = Vec::new();
                flaky.write_text(&mut round).expect("in-memory write");
                art.ingest = Some(if round == text {
                    Ok(())
                } else {
                    Err(format!(
                        "flaky streamed ingest silently altered the data set \
                         (read-fault rate {})",
                        cfg.read_fault_rate
                    ))
                });
            }
            // Exhausted retries are the designed degraded outcome for a
            // read-fault storm: loud, typed, and not a violation.
            Err(e) => art
                .degraded
                .push(format!("flaky ingest exhausted retries: {e}")),
        }
    }

    if cfg.torn_cache_active() {
        art.cache = Some(check_torn_cache(cfg, &text));
    }

    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let study_input = if cfg.corruption_active() {
        FaultInjector::new(cfg.seed)
            .with_all(cfg.corruption_eps)
            .inject(&ds)
            .0
    } else {
        ds
    };

    let ckpt_dir = cfg
        .torn_checkpoint_active()
        .then(|| scratch_dir(cfg, "ckpt"));
    let config = StudyConfig {
        exec_faults: cfg.exec_plan(),
        checkpoint: ckpt_dir.clone(),
        sanitize: cfg.corruption_active(),
        ..StudyConfig::default()
    };

    let (study, markdown) = match run_study(&study_input, &config, &names) {
        Ok(run) => run,
        Err(e) => {
            // A typed study error (e.g. every instance quarantined) is
            // an allowed degraded outcome, not a violation.
            art.degraded.push(format!("study refused: {e}"));
            if let Some(dir) = &ckpt_dir {
                let _ = fs::remove_dir_all(dir);
            }
            return art;
        }
    };
    art.coverage = Some(snapshot(&study));

    if let Some(dir) = &ckpt_dir {
        art.resume = Some(check_torn_resume(
            cfg,
            dir,
            &study_input,
            &config,
            &names,
            &markdown,
        ));
        let _ = fs::remove_dir_all(dir);
    }

    if !cfg.exec_active() {
        art.baseline = Some(check_baseline(&study_input, &config, &names, &markdown));
    }

    art.markdown = Some(markdown);
    art
}

/// Runs the study on a clone of `input`, which the oracles run again,
/// and renders its report; a typed refusal becomes its message.
fn run_study(
    input: &Dataset,
    config: &StudyConfig,
    names: &[ScenarioName],
) -> Result<(Study, String), String> {
    let (study, analyzed) =
        Study::run(input.clone(), config, names, &Telemetry::noop()).map_err(|e| e.to_string())?;
    let markdown = render_markdown(&study, &analyzed, &ReportOptions::default());
    Ok((study, markdown))
}

fn snapshot(study: &Study) -> CoverageNumbers {
    let c = &study.coverage;
    CoverageNumbers {
        total_traces: c.total_traces,
        analyzed_traces: c.analyzed_traces,
        quarantined_traces: c.quarantined_traces,
        total_instances: c.total_instances,
        analyzed_instances: c.analyzed_instances,
        quarantined_instances: c.quarantined_instances,
        failed_units: c.failed_units,
        exec_quarantined: study.execution.quarantined(),
    }
}

/// Torn-cache plane: study the corpus through a `.tlb` cache the way
/// `tracelens report --cache` does, tear the cache, study it again, and
/// verify the tear is detected, the evidence preserved, and neither the
/// data nor the report laundered. Depending on where the tear falls, the
/// second study finds it before it starts or part way through its pass
/// over the streams.
fn check_torn_cache(cfg: &ChaosConfig, text: &[u8]) -> Result<(), String> {
    let dir = scratch_dir(cfg, "cache");
    let result = check_torn_cache_in(cfg, text, &dir);
    let _ = fs::remove_dir_all(&dir);
    result
}

fn check_torn_cache_in(cfg: &ChaosConfig, text: &[u8], dir: &Path) -> Result<(), String> {
    let corpus = dir.join("corpus.tlt");
    fs::write(&corpus, text).expect("write corpus");
    let study = |what: &str| {
        let run = Study::run_file(&corpus, true, &StudyConfig::default(), &Telemetry::noop())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let markdown = render_markdown(&run.study, &run.dataset, &ReportOptions::default());
        (run, markdown)
    };

    // Cold: no cache yet, so this is the text's report.
    let (cold, want) = study("clean first study");
    if !cold.ingest.cache_written {
        return Err("first ingest did not write a cache".to_owned());
    }

    let cache = store::cache_path_for(&corpus);
    let len = fs::metadata(&cache).expect("cache metadata").len();
    assert!(len >= 2, "cache too small to tear");
    let cut = (len * u64::from(cfg.torn_cache_per_mille) / 1000).clamp(1, len - 1);
    let handle = fs::OpenOptions::new()
        .write(true)
        .open(&cache)
        .expect("open cache for tearing");
    handle.set_len(cut).expect("tear cache");
    drop(handle);
    let torn_bytes = fs::read(&cache).expect("read torn cache");

    let (recovered, markdown) = study("study over torn cache");
    let report = &recovered.ingest;
    if report.cache_fallback != Some(CacheFallback::Corrupt) {
        return Err(format!(
            "torn cache was not detected as corrupt (fallback {:?})",
            report.cache_fallback
        ));
    }
    if !report.cache_quarantined {
        return Err("torn cache was not quarantined for post-mortem".to_owned());
    }
    let quarantined = store::quarantined_cache_path(&cache);
    match fs::read(&quarantined) {
        Ok(bytes) if bytes == torn_bytes => {}
        Ok(_) => return Err("quarantined cache lost the torn evidence".to_owned()),
        Err(e) => return Err(format!("quarantined cache unreadable: {e}")),
    }
    let mut round = Vec::new();
    recovered
        .dataset
        .write_text(&mut round)
        .expect("in-memory write");
    if round != text {
        return Err("torn cache laundered corruption into the data set".to_owned());
    }
    if markdown != want {
        return Err("torn cache changed the report".to_owned());
    }

    let (reloaded, markdown) = study("study after repack");
    let report = &reloaded.ingest;
    if report.source != IngestSource::BinaryCache || report.cache_fallback.is_some() {
        return Err(format!(
            "repacked cache did not serve the third load (source {}, fallback {:?})",
            report.source, report.cache_fallback
        ));
    }
    if markdown != want {
        return Err("repacked cache altered the report".to_owned());
    }
    Ok(())
}

/// Torn-checkpoint plane: tear one stored unit file, resume, and
/// verify the resumed report is byte-identical to the fresh one.
fn check_torn_resume(
    cfg: &ChaosConfig,
    dir: &Path,
    input: &Dataset,
    config: &StudyConfig,
    names: &[ScenarioName],
    fresh_markdown: &str,
) -> Result<(), String> {
    let mut units: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("checkpoint entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("unit-") && n.ends_with(".tlc"))
        })
        .collect();
    units.sort();
    if let Some(victim) = units.get(cfg.seed as usize % units.len().max(1)) {
        let len = fs::metadata(victim).expect("unit metadata").len();
        let cut =
            (len * u64::from(cfg.torn_checkpoint_per_mille) / 1000).min(len.saturating_sub(1));
        let handle = fs::OpenOptions::new()
            .write(true)
            .open(victim)
            .expect("open unit for tearing");
        handle.set_len(cut).expect("tear unit");
    }
    let (_, markdown) = run_study(input, config, names)
        .map_err(|e| format!("resume over a torn checkpoint refused: {e}"))?;
    if markdown != fresh_markdown {
        return Err("resumed report differs from the fresh report".to_owned());
    }
    Ok(())
}

/// Baseline oracle (exec plane inactive): supervision with no exec
/// faults must be invisible in the report.
fn check_baseline(
    input: &Dataset,
    config: &StudyConfig,
    names: &[ScenarioName],
    primary_markdown: &str,
) -> Result<(), String> {
    let plain_config = StudyConfig {
        components: config.components.clone(),
        causality: config.causality.clone(),
        sanitize: config.sanitize,
        ..StudyConfig::default()
    };
    let (_, plain_markdown) =
        run_study(input, &plain_config, names).map_err(|e| format!("plain run refused: {e}"))?;
    if primary_markdown != plain_markdown {
        return Err("supervised report differs from the plain report".to_owned());
    }
    Ok(())
}

/// A per-run scratch directory under the system temp dir; any previous
/// leftover is removed first. A process-wide sequence number keeps two
/// campaigns that sample the same config in one process (concurrent
/// tests, say) out of each other's directories.
fn scratch_dir(cfg: &ChaosConfig, purpose: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tl-chaos-{}-{run}-{:016x}-{purpose}",
        std::process::id(),
        cfg.seed
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

/// What a campaign runs: how many configs, over which planes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Campaign seed: determines every sampled config.
    pub seed: u64,
    /// Number of composite configurations to run.
    pub runs: usize,
    /// Traces per run corpus.
    pub traces: usize,
    /// Fault planes the sampler may arm.
    pub planes: Vec<FaultPlane>,
    /// Arm the deliberate accounting bug (see [`run_config`]).
    pub inject_known_bug: bool,
    /// Cap on minimizer candidate evaluations.
    pub max_minimize_steps: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0,
            runs: 25,
            traces: 12,
            planes: FaultPlane::ALL.to_vec(),
            inject_known_bug: false,
            max_minimize_steps: 48,
        }
    }
}

/// One campaign run's outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The configuration that ran.
    pub config: ChaosConfig,
    /// Applicable oracle checks performed.
    pub checks: usize,
    /// Allowed degraded outcomes the run absorbed.
    pub degraded: Vec<String>,
    /// Oracle violations (normally empty).
    pub violations: Vec<Violation>,
}

/// A whole campaign's outcome: per-run records plus the minimized
/// repro of the first violation, if any.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The options the campaign ran under.
    pub options: CampaignOptions,
    /// Per-run outcomes, in sampled order.
    pub records: Vec<RunRecord>,
    /// Minimized repro of the first violating run.
    pub minimized: Option<MinimizedRepro>,
}

impl CampaignReport {
    /// Total applicable oracle checks across the campaign.
    pub fn checks(&self) -> usize {
        self.records.iter().map(|r| r.checks).sum()
    }

    /// Total oracle violations across the campaign.
    pub fn violations(&self) -> usize {
        self.records.iter().map(|r| r.violations.len()).sum()
    }

    /// Renders the campaign outcome. Deliberately free of timings, so
    /// two runs of the same campaign render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let planes: Vec<&str> = self.options.planes.iter().map(|p| p.name()).collect();
        let _ = writeln!(
            out,
            "chaos campaign: seed {}, {} runs, {} traces, planes {}",
            self.options.seed,
            self.options.runs,
            self.options.traces,
            planes.join("+")
        );
        for (i, rec) in self.records.iter().enumerate() {
            let degraded = if rec.degraded.is_empty() {
                String::new()
            } else {
                format!(", degraded {}", rec.degraded.len())
            };
            match rec.violations.first() {
                None => {
                    let _ = writeln!(
                        out,
                        "run {i:3} {} checks {}{degraded} ok",
                        rec.config.plane_tag(),
                        rec.checks
                    );
                }
                Some(v) => {
                    let _ = writeln!(
                        out,
                        "run {i:3} {} checks {}{degraded} VIOLATION {}: {}",
                        rec.config.plane_tag(),
                        rec.checks,
                        v.oracle,
                        v.detail
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "oracle checks: {}, violations: {}",
            self.checks(),
            self.violations()
        );
        match &self.minimized {
            None => {
                let _ = writeln!(out, "minimizer: idle (no violations)");
            }
            Some(m) => {
                let _ = writeln!(
                    out,
                    "minimizer: {} steps to {} ({} traces) violating {}: {}",
                    m.steps,
                    m.config.plane_tag(),
                    m.config.traces,
                    m.oracle,
                    m.detail
                );
            }
        }
        out
    }
}

/// Runs a full campaign: sample every config upfront from the campaign
/// seed, run them in order, check every applicable oracle, and minimize
/// the first violating config into a replayable repro.
pub fn run_campaign(options: &CampaignOptions, telemetry: &Telemetry) -> CampaignReport {
    let _span = telemetry.span(stage::CHAOS);
    let configs = sample_campaign(options.seed, options.runs, options.traces, &options.planes);
    let records: Vec<RunRecord> = configs
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            let artifacts = run_config(&config, options.inject_known_bug);
            let checks = ORACLES.iter().filter(|o| (o.applies)(&artifacts)).count();
            let violations = check_all(i, &artifacts);
            RunRecord {
                config,
                checks,
                degraded: artifacts.degraded,
                violations,
            }
        })
        .collect();
    if telemetry.enabled() {
        telemetry.count("chaos.runs", records.len() as u64);
        let checks: usize = records.iter().map(|r| r.checks).sum();
        telemetry.count("chaos.oracle_checks", checks as u64);
        let violations: usize = records.iter().map(|r| r.violations.len()).sum();
        telemetry.count("chaos.violations", violations as u64);
    }
    let minimized = records.iter().find(|r| !r.violations.is_empty()).map(|r| {
        minimize(
            &r.config,
            &r.violations[0],
            options.inject_known_bug,
            options.max_minimize_steps,
        )
    });
    if let Some(m) = &minimized {
        if telemetry.enabled() {
            telemetry.count("chaos.minimize_steps", m.steps as u64);
        }
    }
    CampaignReport {
        options: options.clone(),
        records,
        minimized,
    }
}
