//! End-to-end tests of the `tracelens` binary: the full
//! simulate → persist → analyze workflow through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tracelens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracelens"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn workload_file() -> PathBuf {
    let dir = std::env::temp_dir().join("tracelens-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("workload.tlt")
}

#[test]
fn full_workflow_through_the_binary() {
    let file = workload_file();
    let path = file.to_str().expect("utf-8 path");

    // simulate → .tlt
    let out = tracelens(&[
        "simulate",
        "-o",
        path,
        "--traces",
        "40",
        "--seed",
        "7",
        "--mix",
        "BrowserTabCreate",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");

    // info
    let out = tracelens(&["info", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("traces      : 40"), "{text}");
    assert!(text.contains("BrowserTabCreate"));

    // impact
    let out = tracelens(&["impact", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IA_wait"), "{text}");

    // blame
    let out = tracelens(&["blame", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("component wait by module:"), "{text}");

    // causality
    let out = tracelens(&[
        "causality",
        path,
        "--scenario",
        "BrowserTabCreate",
        "--top",
        "2",
    ]);
    assert!(out.status.success(), "causality failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("contrast patterns"), "{text}");
    assert!(text.contains("wait    :"), "{text}");

    // locate rank 1
    let out = tracelens(&[
        "locate",
        path,
        "--scenario",
        "BrowserTabCreate",
        "--rank",
        "1",
    ]);
    assert!(out.status.success(), "locate failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("concrete incidents"), "{text}");

    // baselines
    let out = tracelens(&["baselines", path, "--top", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("%cpu"), "{text}");
    assert!(text.contains("costly callstacks"), "{text}");
}

#[test]
fn run_subcommand_executes_the_dsl() {
    let script = std::env::temp_dir().join("tracelens-cli-test-fig1.tsim");
    let asset = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/figure1.tsim");
    std::fs::copy(asset, &script).expect("copy asset");
    let out = tracelens(&["run", script.to_str().unwrap()]);
    assert!(out.status.success(), "run failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BrowserTabCreate"), "{text}");
}

#[test]
fn validate_reports_violations_and_sanitize_recovers() {
    use tracelens::model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
    use tracelens::prelude::*;

    let dir = std::env::temp_dir().join("tracelens-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A clean data set validates with zero exit.
    let clean_path = dir.join("clean.tlt");
    let ds = DatasetBuilder::new(3)
        .traces(10)
        .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
        .build();
    let f = std::fs::File::create(&clean_path).expect("create");
    ds.write_text(std::io::BufWriter::new(f)).expect("write");
    let out = tracelens(&["validate", clean_path.to_str().unwrap()]);
    assert!(out.status.success(), "clean validate failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no violations"), "{text}");

    // Corrupt it: an instance referencing a stream that does not exist.
    let corrupt_path = dir.join("corrupt.tlt");
    let mut bad = ds.clone();
    bad.instances.push(ScenarioInstance {
        trace: TraceId(bad.streams.len() as u32 + 2),
        scenario: bad.scenarios[0].name,
        tid: ThreadId(1),
        t0: TimeNs(0),
        t1: TimeNs(1),
    });
    let f = std::fs::File::create(&corrupt_path).expect("create");
    bad.write_text(std::io::BufWriter::new(f)).expect("write");
    let path = corrupt_path.to_str().unwrap();

    // validate: nonzero exit, per-kind counts, every violation listed.
    let out = tracelens(&["validate", path]);
    assert!(!out.status.success(), "corrupt validate must fail");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 violations"), "{text}");
    assert!(text.contains("instance_without_stream"), "{text}");

    // --strict: analysis refuses to run.
    let out = tracelens(&["impact", path, "--strict"]);
    assert!(!out.status.success(), "--strict must fail on corrupt input");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sanitize"), "{err}");

    // --sanitize: analysis runs on the quarantined survivor.
    let out = tracelens(&["impact", path, "--sanitize"]);
    assert!(out.status.success(), "--sanitize failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 instances quarantined"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IA_wait"), "{text}");

    // Default mode still warns and proceeds.
    let out = tracelens(&["impact", path]);
    assert!(out.status.success(), "default mode proceeds: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning"), "{err}");

    // The two modes together are rejected.
    let out = tracelens(&["impact", path, "--strict", "--sanitize"]);
    assert!(!out.status.success());
}

#[test]
fn report_sanitize_quarantines_covers_and_refuses_empty_survivors() {
    use tracelens::model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
    use tracelens::prelude::*;

    let dir = std::env::temp_dir().join(format!("tracelens-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, ds: &Dataset| {
        let path = dir.join(name);
        let f = std::fs::File::create(&path).expect("create");
        ds.write_text(std::io::BufWriter::new(f)).expect("write");
        path.to_str().expect("utf-8 path").to_owned()
    };
    let dangling = |ds: &Dataset, k: u32| ScenarioInstance {
        trace: TraceId(ds.streams.len() as u32 + 2 + k),
        scenario: ds.scenarios[0].name,
        tid: ThreadId(1),
        t0: TimeNs(0),
        t1: TimeNs(1),
    };
    let ds = DatasetBuilder::new(3)
        .traces(12)
        .mix(ScenarioMix::Selected)
        .build();

    // Clean input: `--sanitize` is invisible in the report.
    let clean = write("clean.tlt", &ds);
    let plain = tracelens(&["report", &clean, "--jobs", "1"]);
    assert!(plain.status.success(), "plain report failed: {plain:?}");
    let sanitized = tracelens(&["report", &clean, "--jobs", "1", "--sanitize"]);
    assert!(
        sanitized.status.success(),
        "sanitized report failed: {sanitized:?}"
    );
    assert_eq!(
        plain.stdout, sanitized.stdout,
        "--sanitize on clean input must not change the report"
    );
    let err = String::from_utf8_lossy(&sanitized.stderr);
    assert!(err.contains("sanitize: input is clean"), "{err}");

    // Dangling instances: quarantined, reported on stderr, and the
    // report carries a Coverage section.
    let mut bad = ds.clone();
    for k in 0..5 {
        bad.instances.push(dangling(&ds, k));
    }
    let corrupt = write("dangling.tlt", &bad);
    let out = tracelens(&["report", &corrupt, "--jobs", "1", "--sanitize"]);
    assert!(out.status.success(), "--sanitize report failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sanitize: "), "{err}");
    assert!(err.contains("5 instances quarantined"), "{err}");
    let md = String::from_utf8_lossy(&out.stdout);
    assert!(md.contains("## Coverage"), "{md}");

    // The two corruption modes together are rejected.
    let out = tracelens(&["report", &corrupt, "--strict", "--sanitize"]);
    assert!(
        !out.status.success(),
        "--strict --sanitize must be rejected"
    );

    // Every instance dangles: a typed refusal, not an all-zero report.
    let mut hollow = ds.clone();
    let n = hollow.instances.len() as u32;
    hollow.instances = (0..n).map(|k| dangling(&ds, k)).collect();
    let hollow = write("hollow.tlt", &hollow);
    let out = tracelens(&["report", &hollow, "--sanitize"]);
    assert!(!out.status.success(), "an empty survivor set must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no analyzable instances"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = tracelens(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");

    let out = tracelens(&["impact", "/nonexistent/file.tlt"]);
    assert!(!out.status.success());

    let out = tracelens(&["causality", "--scenario", "X"]);
    assert!(!out.status.success());
}

#[test]
fn single_threaded_commands_reject_jobs() {
    let dir = std::env::temp_dir().join(format!("tracelens-cli-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("w.tlt");
    let path = file.to_str().expect("utf-8 path");
    let out = tracelens(&["simulate", "-o", path, "--traces", "10", "--seed", "3"]);
    assert!(out.status.success(), "simulate failed: {out:?}");

    let scenario = "BrowserTabCreate";
    let cases: [&[&str]; 5] = [
        &["impact", "--jobs", "2", path],
        &["impact", path, "--jobs", "2"],
        &["causality", "--jobs", "2", path, "--scenario", scenario],
        &["causality", path, "--scenario", scenario, "--jobs", "2"],
        &["chaos", "--runs", "1", "--jobs", "2"],
    ];
    for args in cases {
        let out = tracelens(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("{} is single-threaded and takes no --jobs", args[0]);
        assert!(err.contains(&want), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_and_pack_accept_only_one_job() {
    let dir = std::env::temp_dir().join(format!("tracelens-cli-one-job-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("w.tlt");
    let path = file.to_str().expect("utf-8 path");
    let out = tracelens(&["simulate", "-o", path, "--traces", "10", "--seed", "3"]);
    assert!(out.status.success(), "simulate failed: {out:?}");

    // The benchmark's `--jobs 1` is accepted and changes nothing.
    let plain = tracelens(&["report", path]);
    assert!(plain.status.success(), "report failed: {plain:?}");
    let one = tracelens(&["report", path, "--jobs", "1"]);
    assert!(one.status.success(), "report --jobs 1 failed: {one:?}");
    assert_eq!(
        plain.stdout, one.stdout,
        "--jobs 1 must not change the report"
    );
    let packed = dir.join("w.tlb");
    let packed = packed.to_str().expect("utf-8 path");
    let out = tracelens(&["pack", path, "-o", packed, "--jobs", "1"]);
    assert!(out.status.success(), "pack --jobs 1 failed: {out:?}");

    let cases: [(&[&str], &str); 3] = [
        (&["report", path, "--jobs", "0"], "report"),
        (&["report", path, "--jobs", "2"], "report"),
        (&["pack", path, "-o", packed, "--jobs", "2"], "pack"),
    ];
    for (args, command) in cases {
        let out = tracelens(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("{command} runs on one thread; --jobs accepts only 1");
        assert!(err.contains(&want), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_rejects_undeclared_flags() {
    let commands = [
        "simulate",
        "run",
        "info",
        "pack",
        "validate",
        "impact",
        "blame",
        "causality",
        "scenarios",
        "locate",
        "report",
        "regress",
        "baselines",
        "chaos",
    ];
    let flags = [
        "--memory-budget-mb",
        "--shed",
        "--degrade",
        "--mem-faults",
        "--bogus",
    ];
    for command in commands {
        for flag in flags {
            let out = tracelens(&[command, flag]);
            assert!(!out.status.success(), "{command} {flag} must fail");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("unknown flag {flag}")),
                "{command} {flag}: {err}"
            );
        }
    }
}

#[test]
fn help_prints_usage() {
    let out = tracelens(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("causality"));
    assert!(text.contains("regress"));
}
