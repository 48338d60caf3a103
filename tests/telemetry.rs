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
fn arena_nodes_count_what_sharing_built() {
    // Dense traces: several instances wait on the same holders, so their
    // graphs share wait subtrees and the arena holds fewer nodes than
    // the instances' trees.
    let ds = DatasetBuilder::new(11)
        .traces(20)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(8, 12)
        .start_window_ms(100)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let (telemetry, sink) = CollectingSink::telemetry();
    let study = Study::run(&ds, &StudyConfig::default(), &names, &telemetry).expect("study runs");
    let counters = sink.report().metrics.counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(get("waitgraph.nodes"), study.impact.nodes_visited as u64);
    assert!(get("waitgraph.arena_nodes") > 0);
    assert!(
        get("waitgraph.arena_nodes") < get("waitgraph.nodes"),
        "arena {} vs tree nodes {}",
        get("waitgraph.arena_nodes"),
        get("waitgraph.nodes")
    );
    // On the paper's sparser corpus the arena never exceeds the trees.
    let (_, report) = observed_study();
    let get = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
    assert!(get("waitgraph.arena_nodes") <= get("waitgraph.nodes"));
}

#[test]
fn supervisor_counters_match_the_execution_report() {
    let ds = DatasetBuilder::new(12)
        .traces(16)
        .mix(ScenarioMix::Selected)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let observe = |config: &StudyConfig| {
        let (telemetry, sink) = CollectingSink::telemetry();
        let study = Study::run(&ds, config, &names, &telemetry).expect("study runs");
        (study, sink.report().metrics.counters)
    };

    // A clean study supervises one unit per stream with instances and
    // one per scenario, and completes every one of them.
    let streams = ds
        .streams
        .iter()
        .filter(|s| ds.instances.iter().any(|i| i.trace == s.id()))
        .count() as u64;
    let (clean, counters) = observe(&StudyConfig::default());
    assert!(clean.execution.is_clean());
    assert_eq!(
        counters["supervisor.units"],
        streams + names.len() as u64,
        "one unit per stream and per scenario"
    );
    assert_eq!(
        counters["supervisor.completed"],
        counters["supervisor.units"]
    );
    assert_eq!(counters["supervisor.quarantined"], 0);

    // Under injected panics the counters agree with the study's own
    // execution report.
    let faulted = StudyConfig {
        exec_faults: Some(ExecFaultPlan::new(5).with_panic_rate(0.4)),
        supervise: SupervisePolicy {
            max_retries: 1,
            ..SupervisePolicy::default()
        },
        ..StudyConfig::default()
    };
    let (study, counters) = observe(&faulted);
    assert!(
        study.execution.quarantined() > 0,
        "the plan must hit a unit"
    );
    assert_eq!(
        counters["supervisor.quarantined"],
        study.execution.quarantined() as u64
    );
    assert_eq!(
        counters["supervisor.retries"],
        study.execution.retries as u64
    );
}

/// The price of the telemetry plumbing itself: a study with an attached
/// but discarding sink must stay within 2% + 2 ms of the same study with
/// telemetry disabled. The fastest of five runs each resists scheduler
/// noise, and the absolute slack keeps a short study from failing on
/// timer granularity. At 60 traces that slack is a quarter or more of
/// the study, so the gate catches only gross regressions.
#[test]
#[ignore = "timing gate; ci.sh runs it alone in release"]
fn attached_noop_sink_stays_within_the_overhead_budget() {
    const RUNS: usize = 5;
    const GATE_PCT: f64 = 2.0;
    const SLACK_NS: u64 = 2_000_000;
    let ds = DatasetBuilder::new(2014)
        .traces(60)
        .mix(ScenarioMix::Selected)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let fastest_ns = |telemetry: &Telemetry| {
        (0..RUNS)
            .map(|_| {
                let start = std::time::Instant::now();
                let study = Study::run(&ds, &StudyConfig::default(), &names, telemetry);
                let elapsed = start.elapsed().as_nanos() as u64;
                assert!(study.is_ok_and(|s| !s.scenarios.is_empty()));
                elapsed
            })
            .min()
            .expect("at least one run")
    };
    let disabled_ns = fastest_ns(&Telemetry::noop());
    let attached = Telemetry::with_sink(std::sync::Arc::new(tracelens::obs::NoopSink));
    let attached_ns = fastest_ns(&attached);
    let budget_ns = (disabled_ns as f64 * GATE_PCT / 100.0) as u64 + SLACK_NS;
    let overhead_ns = attached_ns.saturating_sub(disabled_ns);
    eprintln!(
        "overhead gate: disabled {:.3} ms, attached {:.3} ms, \
         overhead {:.3} ms (budget {:.3} ms)",
        disabled_ns as f64 / 1e6,
        attached_ns as f64 / 1e6,
        overhead_ns as f64 / 1e6,
        budget_ns as f64 / 1e6,
    );
    assert!(
        overhead_ns <= budget_ns,
        "telemetry overhead {overhead_ns} ns exceeds the {GATE_PCT}% + 2 ms budget ({budget_ns} ns)"
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
