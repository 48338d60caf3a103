//! Differential robustness tests: every fault kind, injected at
//! ε = 0.05, must flow through sanitize and the full study without a
//! panic, with coverage and quarantine counts that line up with what
//! was actually injected — and a zero-rate injector must be a perfect
//! no-op.

use tracelens::prelude::*;

const EPS: f64 = 0.05;
const SEED: u64 = 9;

fn dataset() -> Dataset {
    DatasetBuilder::new(77)
        .traces(30)
        .mix(ScenarioMix::Selected)
        .build()
}

fn scenario_names(ds: &Dataset) -> Vec<ScenarioName> {
    ds.scenarios.iter().map(|s| s.name).collect()
}

/// A study over the sanitized survivor of `ds`, and that survivor.
fn sanitized_study(ds: Dataset, names: &[ScenarioName], telemetry: &Telemetry) -> (Study, Dataset) {
    let config = StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    };
    Study::run(ds, &config, names, telemetry).expect("some instances survive")
}

fn bytes(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    ds.write_text(&mut buf).expect("serialize");
    buf
}

#[test]
fn zero_rate_injection_and_sanitize_are_byte_identical() {
    let ds = dataset();
    let original = bytes(&ds);
    let (injected, log) = FaultInjector::new(SEED).with_all(0.0).inject(&ds);
    assert_eq!(log.total(), 0);
    assert_eq!(
        bytes(&injected),
        original,
        "zero-rate injection is identity"
    );
    let (clean, report) = injected.sanitize();
    assert!(report.is_clean(), "clean input must sanitize cleanly");
    assert_eq!(
        bytes(&clean),
        original,
        "sanitize is a byte-identical no-op"
    );
}

#[test]
fn every_fault_kind_survives_the_full_pipeline() {
    let ds = dataset();
    let names = scenario_names(&ds);
    for kind in ALL_FAULT_KINDS {
        let (corrupt, log) = FaultInjector::new(SEED).with(kind, EPS).inject(&ds);
        assert!(
            log.total() > 0,
            "{} at ε={EPS} must inject something",
            kind.label()
        );
        let (study, clean) = sanitized_study(corrupt, &names, &Telemetry::noop());
        let report = study.sanitize.as_ref().expect("sanitized");
        assert!(
            study.impact.ia_wait().is_finite(),
            "{}: IA_wait finite",
            kind.label()
        );
        assert!(study.coverage.fraction() > 0.0, "{}", kind.label());
        assert!(
            report.quarantined_instances <= report.input_instances,
            "{}",
            kind.label()
        );
        // Sanitize output is always fully valid.
        assert!(
            clean.validate().is_ok(),
            "{}: sanitize output validates",
            kind.label()
        );
    }
}

#[test]
fn dangling_instance_refs_quarantine_exactly_the_injected_instances() {
    let ds = dataset();
    let (corrupt, log) = FaultInjector::new(SEED)
        .with(FaultKind::DanglingInstanceRefs, EPS)
        .inject(&ds);
    let injected = log.injected(FaultKind::DanglingInstanceRefs);
    assert!(injected > 0);
    let names = scenario_names(&ds);
    let (study, _) = sanitized_study(corrupt, &names, &Telemetry::noop());
    let report = study.sanitize.as_ref().expect("sanitized");
    assert_eq!(
        report.quarantined_instances, injected,
        "each dangled reference quarantines exactly one instance"
    );
    assert!(study.coverage.fraction() < 1.0);
    assert_eq!(
        study.coverage.analyzed_instances,
        ds.instances.len() - injected
    );
}

#[test]
fn dangling_stacks_drop_exactly_the_injected_events() {
    let ds = dataset();
    let (corrupt, log) = FaultInjector::new(SEED)
        .with(FaultKind::DanglingStacks, EPS)
        .inject(&ds);
    let injected = log.injected(FaultKind::DanglingStacks);
    assert!(injected > 0);
    let (clean, report) = corrupt.sanitize();
    assert_eq!(
        report.dropped_events, injected,
        "each dangling stack drops exactly one event"
    );
    assert_eq!(clean.total_events(), ds.total_events() - injected);
}

#[test]
fn clock_skew_is_repaired_by_resorting() {
    let ds = dataset();
    let (corrupt, log) = FaultInjector::new(SEED)
        .with(FaultKind::ClockSkew, EPS)
        .inject(&ds);
    assert!(log.injected(FaultKind::ClockSkew) > 0);
    let (clean, report) = corrupt.sanitize();
    assert!(report.resorted_streams > 0, "skew must unsort some stream");
    assert_eq!(
        report.quarantined_traces, 0,
        "skew is repairable, not fatal"
    );
    assert_eq!(clean.total_events(), ds.total_events(), "no events lost");
    assert!(clean.validate().is_ok());
}

#[test]
fn dropped_and_orphaned_unwaits_surface_in_waitgraph_counters() {
    let ds = dataset();
    let orphans_of = |ds: &Dataset| -> (usize, usize) {
        ds.streams.iter().fold((0, 0), |(o, s), stream| {
            let idx = StreamIndex::new(stream);
            (o + idx.orphan_waits(), s + idx.stray_unwaits())
        })
    };
    let (baseline_orphans, _) = orphans_of(&ds);

    let (corrupt, log) = FaultInjector::new(SEED)
        .with(FaultKind::DropUnwaits, EPS)
        .inject(&ds);
    assert!(log.injected(FaultKind::DropUnwaits) > 0);
    let (sanitized, report) = corrupt.sanitize();
    assert_eq!(report.quarantined_traces, 0, "semantic corruption only");
    let (orphans, _) = orphans_of(&sanitized);
    assert!(
        orphans > baseline_orphans,
        "dropping unwaits must orphan waits ({orphans} vs {baseline_orphans})"
    );

    let (corrupt, log) = FaultInjector::new(SEED)
        .with(FaultKind::OrphanWaits, EPS)
        .inject(&ds);
    assert!(log.injected(FaultKind::OrphanWaits) > 0);
    let (sanitized, _) = corrupt.sanitize();
    let (orphans, _) = orphans_of(&sanitized);
    assert!(orphans > baseline_orphans, "ghost waits are never woken");
}

#[test]
fn sanitize_telemetry_counters_match_the_report() {
    let ds = dataset();
    let (corrupt, _) = FaultInjector::new(SEED).with_all(EPS).inject(&ds);
    let (telemetry, sink) = CollectingSink::telemetry();
    let names = scenario_names(&ds);
    let (study, _) = sanitized_study(corrupt, &names, &telemetry);
    let report = study.sanitize.expect("sanitized");
    let counters = sink.report().metrics.counters;
    let get = |n: &str| counters.get(n).copied().unwrap_or(0);
    assert_eq!(get("sanitize.repaired"), report.repaired() as u64);
    assert_eq!(
        get("sanitize.quarantined_traces"),
        report.quarantined_traces as u64
    );
    assert_eq!(
        get("sanitize.quarantined_instances"),
        report.quarantined_instances as u64
    );
    let run = sink.report();
    assert!(
        run.span_names().contains(&stage::SANITIZE),
        "sanitize span recorded"
    );
}
