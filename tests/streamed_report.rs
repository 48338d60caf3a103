//! `Study::run_file` without a cache, the route `tracelens report FILE`
//! takes, streams text in the layout `write_text` writes (instances
//! before traces) through the study one trace at a time. Text in any
//! other layout takes the in-memory route: text with its instances last
//! is collected by the same reader, and text with a record out of the
//! streamed order is dropped with the partial study and parsed whole.
//! Whatever the route, the report, the `SanitizeReport`, the `Coverage`
//! and the validation verdict must equal the in-memory route's (parse
//! whole, validate, `Study::run`), and so must any error.

use std::path::{Path, PathBuf};
use std::process::Command;
use tracelens::model::{SanitizeReport, ScenarioInstance, TimeNs, TraceId, ValidationError};
use tracelens::prelude::*;
use tracelens::{render_markdown, Coverage, ReportOptions};

/// What a study of a corpus comes to, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: String,
    sanitize: Option<SanitizeReport>,
    coverage: Coverage,
    validation: Result<(), ValidationError>,
}

fn outcome(study: &Study, ds: &Dataset, validation: Result<(), ValidationError>) -> Outcome {
    Outcome {
        report: render_markdown(study, ds, &ReportOptions::default()),
        sanitize: study.sanitize.clone(),
        coverage: study.coverage.clone(),
        validation,
    }
}

/// The in-memory route: the text parsed whole and validated, then
/// studied by `Study::run`; or the error it stops at.
fn in_memory(text: &[u8], config: &StudyConfig) -> Result<Outcome, String> {
    let ds = Dataset::read_text_bytes(text).map_err(|e| e.to_string())?;
    let validation = ds.validate();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let (study, ds) =
        Study::run(ds, config, &names, &Telemetry::noop()).map_err(|e| e.to_string())?;
    Ok(outcome(&study, &ds, validation))
}

/// Which way `Study::run_file` read a corpus.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Route {
    /// One stream at a time: the study hands back the tables alone.
    Streamed,
    /// Whole, in memory.
    Whole,
}

/// `text` written to `dir` and studied by `Study::run_file` without a
/// cache: the outcome or error, and the route it took.
fn from_file(dir: &Path, text: &[u8], config: &StudyConfig) -> (Result<Outcome, String>, Route) {
    let path = dir.join("corpus.tlt");
    std::fs::write(&path, text).expect("write corpus");
    match Study::run_file(&path, false, config, &Telemetry::noop()) {
        Ok(run) => {
            let route = if run.dataset.streams.is_empty() {
                Route::Streamed
            } else {
                Route::Whole
            };
            (Ok(outcome(&run.study, &run.dataset, run.validation)), route)
        }
        Err(e) => (Err(e.to_string()), Route::Whole),
    }
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-streamed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn text_of(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

fn corpus(seed: u64, traces: usize) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Selected)
        .build()
}

fn sanitizing() -> StudyConfig {
    StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    }
}

/// Both routes agree on `text` under `config`, and the file route took
/// `route`.
fn agree(dir: &Path, what: &str, text: &[u8], config: &StudyConfig, route: Route) {
    let want = in_memory(text, config);
    let (got, took) = from_file(dir, text, config);
    assert!(
        got == want,
        "{what}: the file route differs:\n{got:#?}\nwant\n{want:#?}"
    );
    assert_eq!(took, route, "{what}");
}

/// Text lines, without their newlines.
fn lines(text: &[u8]) -> Vec<String> {
    String::from_utf8(text.to_vec())
        .expect("utf-8 corpus")
        .lines()
        .map(str::to_owned)
        .collect()
}

fn join(lines: &[String]) -> Vec<u8> {
    let mut text = lines.join("\n");
    text.push('\n');
    text.into_bytes()
}

/// The index of the line `!trace\t{id}`.
fn trace_line(lines: &[String], id: u32) -> usize {
    let header = format!("!trace\t{id}");
    lines
        .iter()
        .position(|l| *l == header)
        .expect("trace present")
}

#[test]
fn canonical_and_legacy_layouts_report_like_the_whole_parse() {
    let dir = scratch("layouts");
    let ds = corpus(3, 12);
    let canonical = text_of(&ds);
    let mut legacy = lines(&canonical);
    legacy.sort_by_key(|l| l.starts_with("!instance"));
    let legacy = join(&legacy);
    assert_ne!(legacy, canonical);
    for config in [StudyConfig::default(), sanitizing()] {
        agree(&dir, "canonical", &canonical, &config, Route::Streamed);
        agree(&dir, "legacy", &legacy, &config, Route::Whole);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn records_out_of_the_streamed_order_fall_back_to_the_whole_parse() {
    let dir = scratch("late");
    let base = lines(&text_of(&corpus(4, 10)));
    let second = trace_line(&base, 1);
    let mut cases: Vec<(&str, Vec<String>)> = Vec::new();

    // A stack declared between traces, used by the next event.
    let mut late_stack = base.clone();
    late_stack.insert(second, "!stack\t4000000\tlate.sys!Late".to_owned());
    let event = second + 2;
    let mut fields: Vec<String> = late_stack[event].split('\t').map(str::to_owned).collect();
    assert_eq!(fields[0], "e");
    fields[6] = "4000000".to_owned();
    late_stack[event] = fields.join("\t");
    cases.push(("late !stack", late_stack));

    let mut late_scenario = base.clone();
    late_scenario.insert(second, "!scenario\tLateScenario\t1000\t2000".to_owned());
    cases.push(("late !scenario", late_scenario));

    let mut late_instance = base.clone();
    let first_instance = late_instance
        .iter()
        .position(|l| l.starts_with("!instance"))
        .expect("an instance");
    let moved = late_instance.remove(first_instance);
    late_instance.insert(second - 1, moved);
    cases.push(("late !instance", late_instance));

    // Trace 1's and trace 2's sections swapped: valid, sorted on read.
    let mut unordered = base.clone();
    let third = trace_line(&unordered, 2);
    unordered[second] = "!trace\t2".to_owned();
    unordered[third] = "!trace\t1".to_owned();
    cases.push(("out-of-order trace ids", unordered));

    for (what, case) in &cases {
        for config in [StudyConfig::default(), sanitizing()] {
            agree(&dir, what, &join(case), &config, Route::Whole);
        }
    }

    // Two sections under one id: both routes refuse the text alike.
    let mut duplicate = base.clone();
    let third = trace_line(&duplicate, 2);
    duplicate[third] = "!trace\t1".to_owned();
    let duplicate = join(&duplicate);
    for config in [StudyConfig::default(), sanitizing()] {
        let (got, _) = from_file(&dir, &duplicate, &config);
        let want = in_memory(&duplicate, &config);
        assert_eq!(got.unwrap_err(), want.unwrap_err(), "duplicate trace ids");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parse_error_in_the_last_trace_is_the_whole_parse_error() {
    let dir = scratch("error");
    let mut text = text_of(&corpus(5, 6));
    text.extend_from_slice(b"e\tr\tbad\t1\t0\t5\t0\n");
    let line = lines(&text).len();
    for config in [StudyConfig::default(), sanitizing()] {
        let (got, _) = from_file(&dir, &text, &config);
        let want = in_memory(&text, &config).unwrap_err();
        assert_eq!(got.unwrap_err(), want);
        assert_eq!(want, format!("parse error at line {line}: bad tid"));
    }

    // The CLI writes no report and says what stdin's in-memory route says.
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write corpus");
    let out = dir.join("out.md");
    let report = |input: &str, stdin: Option<&Path>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tracelens"));
        cmd.args(["report", input, "-o"]).arg(&out);
        if let Some(path) = stdin {
            cmd.stdin(std::fs::File::open(path).expect("open corpus"));
        }
        cmd.output().expect("binary runs")
    };
    let file = report(tlt.to_str().expect("utf-8 path"), None);
    let piped = report("-", Some(&tlt));
    assert!(!file.status.success() && !piped.status.success());
    assert_eq!(file.stderr, piped.stderr);
    assert!(!out.exists(), "a failed report writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ds` with its faults, plus an instance of an undefined scenario on
/// an existing trace and one on a missing trace.
fn with_strays(mut ds: Dataset) -> Dataset {
    let missing = TraceId(ds.streams.len() as u32 + 3);
    for (k, trace) in [TraceId(0), missing].into_iter().enumerate() {
        let mut stray: ScenarioInstance = ds.instances[k].clone();
        stray.trace = trace;
        stray.scenario = ScenarioName::new("Undefined");
        ds.instances.push(stray);
    }
    ds
}

#[test]
fn fault_injected_corpora_report_like_the_whole_parse() {
    let dir = scratch("faults");
    let kinds: Vec<FaultKind> = ALL_FAULT_KINDS
        .into_iter()
        .filter(|&k| k != FaultKind::DanglingStacks)
        .collect();
    let mut plans: Vec<(String, Vec<FaultKind>)> = kinds
        .iter()
        .map(|&k| (k.label().to_owned(), vec![k]))
        .collect();
    plans.push(("every kind".to_owned(), kinds));
    for (label, plan) in &plans {
        for (step, rate) in [0.0, 0.1, 0.2, 0.3].into_iter().enumerate() {
            let seed = 40 + step as u64;
            let injector = plan
                .iter()
                .fold(FaultInjector::new(seed), |inj, &k| inj.with(k, rate));
            let (ds, _) = injector.inject(&corpus(seed, 8));
            let ds = if step % 2 == 1 { with_strays(ds) } else { ds };
            let text = text_of(&ds);
            let what = format!("{label} at {rate}");
            for config in [StudyConfig::default(), sanitizing()] {
                agree(&dir, &what, &text, &config, Route::Streamed);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_instances_leave_the_class_split_the_whole_parse_gives() {
    // Every instance of one scenario is fast and on a missing trace. As
    // read, the scenario has a fast class and no slow one; once sanitize
    // quarantines them it has neither, and the report names the fast
    // class first, as the whole parse does.
    let dir = scratch("classes");
    let mut ds = corpus(6, 10);
    let scenario = ds.scenarios[0].clone();
    let missing = TraceId(ds.streams.len() as u32 + 1);
    let fast = TimeNs(scenario.thresholds.fast().as_nanos() / 2);
    for instance in ds.instances.iter_mut() {
        if instance.scenario == scenario.name {
            instance.trace = missing;
            instance.t1 = TimeNs(instance.t0.as_nanos() + fast.as_nanos());
        }
    }
    let text = text_of(&ds);
    for config in [StudyConfig::default(), sanitizing()] {
        agree(&dir, "orphaned scenario", &text, &config, Route::Streamed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_streams_quarantine_like_the_whole_parse() {
    let dir = scratch("exec");
    let ds = with_strays(corpus(9, 16));
    let text = text_of(&ds);
    for seed in [5, 11] {
        let faults = Some(ExecFaultPlan::new(seed).with_panic_rate(0.3));
        for sanitize in [false, true] {
            let config = StudyConfig {
                exec_faults: faults,
                sanitize,
                ..StudyConfig::default()
            };
            let what = format!("exec faults seed {seed}, sanitize {sanitize}");
            agree(&dir, &what, &text, &config, Route::Streamed);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
