//! Self-tracing integration: golden format for the Chrome trace
//! export, model-level hygiene of the lowered self-trace data set, and
//! a non-trivial self-observation of a parallel study run.

use std::collections::BTreeMap;
use tracelens::obs::json;
use tracelens::prelude::*;
use tracelens::selftrace::lower;

/// One self-traced study run over a small simulated corpus.
fn traced_session(jobs: usize) -> SelfTraceSession {
    let ds = DatasetBuilder::new(7)
        .traces(12)
        .mix(ScenarioMix::Selected)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let config = StudyConfig {
        jobs,
        ..StudyConfig::default()
    };
    let sink = SelfTraceSink::new();
    let study = Study::run(&ds, &config, &names, &sink.telemetry()).expect("study runs");
    let recording = sink.recording();
    assert!(!study.scenarios.is_empty(), "study produced no results");
    assert!(!recording.is_empty(), "self-trace recorded no events");
    SelfTraceSession::new(format!("jobs={jobs}"), recording)
}

/// Golden-format contract for the Chrome trace-event export: the
/// output parses as JSON, every event carries the required `ph`, `ts`,
/// `pid` and `tid` fields, and duration events balance (every `B` has
/// a matching `E`) per `(pid, tid)` track.
#[test]
fn chrome_export_satisfies_trace_event_format() {
    let sessions = vec![traced_session(2)];
    let text = chrome_trace_json(&sessions);
    let root = json::parse(&text).expect("export must be valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "export contains no events");

    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut phases: BTreeMap<String, usize> = BTreeMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("event missing ph")
            .to_string();
        assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some(), "no pid");
        assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some(), "no tid");
        // Metadata events are timeless; everything else is on the
        // timeline and needs a timestamp.
        if ph != "M" {
            assert!(ev.get("ts").and_then(|v| v.as_u64()).is_some(), "no ts");
        }
        let pid = ev.get("pid").and_then(|v| v.as_u64()).unwrap();
        let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap();
        match ph.as_str() {
            "B" => *depth.entry((pid, tid)).or_insert(0) += 1,
            "E" => *depth.entry((pid, tid)).or_insert(0) -= 1,
            _ => {}
        }
        *phases.entry(ph).or_insert(0) += 1;
    }
    for (&(pid, tid), &d) in &depth {
        assert_eq!(d, 0, "unbalanced B/E on pid {pid} tid {tid}");
    }
    assert!(phases.contains_key("B"), "no duration events");
    assert!(phases.contains_key("M"), "no thread/process names");
    assert!(phases.contains_key("C"), "no counter tracks");
}

/// The lowered self-trace is a first-class data set: it passes the
/// model's own validation, and the sanitize pass finds nothing to
/// repair or quarantine — the recorder and lowering never produce the
/// corruption classes ingestion defends against.
#[test]
fn lowered_self_trace_is_model_clean() {
    let sessions = vec![traced_session(2)];
    let lowered = lower(&sessions);
    lowered
        .dataset
        .validate()
        .expect("self-trace dataset must validate");
    let (_clean, report) = lowered.dataset.sanitize();
    assert!(report.is_clean(), "sanitize found problems: {report:?}");
    assert_eq!(report.quarantined_traces, 0);
    assert_eq!(report.quarantined_instances, 0);
}

/// The meta-analysis of a parallel run is non-empty: pipeline
/// components show up with real running and wait time, and the wait
/// attribution names a concrete wait point.
#[test]
fn self_observation_of_parallel_run_is_nonempty() {
    let sessions = vec![traced_session(2)];
    let obs = SelfObservation::analyze(&sessions);
    assert!(obs.overall.d_scn > tracelens::model::TimeNs(0));
    assert!(
        obs.overall.ia_run() + obs.overall.ia_wait() > 0.0,
        "pipeline invisible in its own trace"
    );
    assert!(!obs.per_module.is_empty());
    let (name, ns) = obs.dominant_wait_source().expect("no waits recorded");
    assert!(ns > 0, "dominant wait {name} has zero cost");
}
