//! Integration test: a full [`Study`] run observed through a
//! [`CollectingSink`] reports the expected pipeline stages and non-zero
//! work counters, the JSON report round-trips through the bundled
//! parser, and the whole layer stays silent when disabled.

use tracelens::obs::json;
use tracelens::prelude::*;

fn observed_study() -> (Study, RunReport) {
    let (telemetry, sink) = CollectingSink::telemetry();
    let ds = DatasetBuilder::new(11)
        .traces(50)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(2, 4)
        .start_window_ms(350)
        .telemetry(telemetry.clone())
        .build();
    let names: Vec<ScenarioName> = ScenarioName::SELECTED
        .iter()
        .map(|&s| ScenarioName::new(s))
        .collect();
    let study = Study::run(&ds, &StudyConfig::default(), &names, &telemetry).expect("study runs");
    (study, sink.report())
}

#[test]
fn study_reports_every_pipeline_stage() {
    let (study, report) = observed_study();
    assert!(study.scenarios.values().any(|s| s.causality.is_ok()));

    let names = report.span_names();
    for stage in [
        stage::SIM,
        stage::STUDY,
        stage::IMPACT,
        stage::CLASSES,
        stage::WAITGRAPH,
        stage::AGGREGATE,
        stage::SEGMENTS,
        stage::CONTRAST,
    ] {
        assert!(names.contains(&stage), "missing stage {stage:?}: {names:?}");
        assert!(report.total_ns(stage) > 0, "zero time in stage {stage:?}");
    }
    // The pipeline stages run inside the study span.
    let study_span = report
        .spans
        .iter()
        .find(|s| s.name == stage::STUDY)
        .expect("study span present");
    assert!(study_span.children.iter().any(|c| c.name == stage::CLASSES));
}

#[test]
fn study_counters_reflect_the_work_done() {
    let (study, report) = observed_study();
    let counters = &report.metrics.counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);

    // Simulation emitted the data set the analyses consumed.
    assert_eq!(get("sim.traces"), 50);
    assert!(get("sim.instances") >= 100);
    assert!(get("sim.events") > get("sim.instances"));

    // The analyses ran over Wait Graphs and accounted their nodes.
    assert!(get("waitgraph.graphs") > 0);
    assert!(get("waitgraph.nodes") >= get("waitgraph.graphs"));
    assert!(get("impact.instances") > 0);
    assert!(get("impact.nodes_visited") > 0);

    // Class counters cover every classified instance: the splits run
    // (and report) before the empty-class check, so the sum over all
    // eight scenarios is the full instance population.
    assert_eq!(
        get("classes.fast") + get("classes.slow") + get("classes.margin"),
        get("sim.instances"),
        "class counters must partition the instance population"
    );

    // Mining produced patterns and pruned zero-cost leaves somewhere.
    let patterns: u64 = study
        .scenarios
        .values()
        .filter_map(|s| s.causality.as_ref().ok())
        .map(|r| r.patterns.len() as u64)
        .sum();
    assert_eq!(get("contrast.patterns"), patterns);
    assert!(get("contrast.slow_paths") > 0, "AWG paths enumerated");
    assert!(get("segments.slow_metas") > 0);

    // Per-stream build times landed in the histograms.
    let hist = report
        .metrics
        .histograms
        .get("waitgraph.build_ns")
        .expect("build-time histogram recorded");
    assert_eq!(hist.n(), get("waitgraph.graphs"));
}

#[test]
fn study_indexes_each_stream_and_builds_each_wait_graph_once() {
    let ds = DatasetBuilder::new(11)
        .traces(40)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(2, 4)
        .start_window_ms(350)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let (telemetry, sink) = CollectingSink::telemetry();
    let study = Study::run(&ds, &StudyConfig::default(), &names, &telemetry).expect("study runs");
    let counters = sink.report().metrics.counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);

    let streams_with_instances = ds
        .streams
        .iter()
        .filter(|s| ds.instances.iter().any(|i| i.trace == s.id()))
        .count() as u64;
    let analyzed = study.impact.instances as u64;
    assert_eq!(
        analyzed,
        ds.instances.len() as u64,
        "every instance analyzed"
    );
    // One pass: each stream indexed once, each instance's graph built
    // once and accounted once, however many reports and AWGs use it.
    assert_eq!(get("waitgraph.indices"), streams_with_instances);
    assert_eq!(get("waitgraph.graphs"), analyzed);
    assert_eq!(get("impact.instances"), analyzed);
    // Every report folds records, never re-walking a graph.
    assert_eq!(
        get("impact.nodes_visited"),
        study.impact.nodes_visited as u64
    );
}

#[test]
fn report_json_parses_and_matches() {
    let (_, report) = observed_study();
    let text = report.to_json();
    let value = json::parse(&text).expect("report JSON is valid");
    assert_eq!(
        value
            .get("tracelens_telemetry")
            .and_then(json::Value::as_u64),
        Some(1)
    );
    let spans = value
        .get("spans")
        .and_then(json::Value::as_arr)
        .expect("spans array");
    assert!(!spans.is_empty());
    let counters = value.get("counters").expect("counters object");
    assert_eq!(
        counters.get("sim.traces").and_then(json::Value::as_u64),
        report.metrics.counters.get("sim.traces").copied()
    );
}

#[test]
fn class_counter_identity_holds_exactly() {
    // Focused variant of the sum check: one scenario, one analysis.
    let (telemetry, sink) = CollectingSink::telemetry();
    let ds = DatasetBuilder::new(3)
        .traces(40)
        .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
        .telemetry(telemetry.clone())
        .build();
    let report = CausalityAnalysis::default()
        .with_telemetry(telemetry.clone())
        .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))
        .expect("analysis succeeds");
    let metrics = sink.report().metrics;
    let get = |n: &str| metrics.counters.get(n).copied().unwrap_or(0);
    assert_eq!(get("classes.fast"), report.fast_instances as u64);
    assert_eq!(get("classes.slow"), report.slow_instances as u64);
    assert_eq!(get("classes.margin"), report.margin_instances as u64);
    assert_eq!(get("contrast.patterns"), report.patterns.len() as u64);
    assert_eq!(
        get("contrast.zero_cost_pruned"),
        report.stats.zero_cost_pruned as u64
    );
    assert_eq!(
        get("waitgraph.graphs"),
        (report.fast_instances + report.slow_instances) as u64
    );
}

#[test]
fn disabled_telemetry_changes_nothing_and_collects_nothing() {
    let names = vec![ScenarioName::new("BrowserTabCreate")];
    let ds = DatasetBuilder::new(5)
        .traces(30)
        .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
        .build();
    let run = |telemetry: &Telemetry| {
        let study =
            Study::run(&ds, &StudyConfig::default(), &names, telemetry).expect("study runs");
        tracelens::render_markdown(&study, &ds, &tracelens::ReportOptions::default())
    };
    let (telemetry, sink) = CollectingSink::telemetry();
    assert_eq!(
        run(&Telemetry::noop()),
        run(&telemetry),
        "an attached sink must not change the report"
    );
    assert!(!sink.report().span_names().is_empty(), "the sink collected");
    assert!(
        !Telemetry::noop().enabled(),
        "a disabled handle collects nothing"
    );
}
