//! Golden report digests: the rendered Markdown of four study shapes is
//! pinned by FNV-1a digest, so any change to how the study computes its
//! numbers — supervision, checkpoint resume — that alters a
//! single byte of a report fails here.

use tracelens::prelude::*;

fn render(study: &Study, ds: &Dataset) -> String {
    tracelens::render_markdown(study, ds, &tracelens::ReportOptions::default())
}

/// FNV-1a 64 of the report text.
fn digest(text: &str) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

fn names_of(ds: &Dataset) -> Vec<ScenarioName> {
    ds.scenarios.iter().map(|s| s.name).collect()
}

fn run(ds: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> Result<Study, StudyError> {
    Study::run(ds, config, names, &Telemetry::noop())
}

fn selected(seed: u64, traces: usize) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Selected)
        .build()
}

#[test]
fn clean_selected_mix_report_is_pinned() {
    let ds = selected(9, 40);
    let study = run(&ds, &StudyConfig::default(), &names_of(&ds)).expect("study runs");
    assert_eq!(digest(&render(&study, &ds)), "61932613e04e978d");
}

#[test]
fn dense_corpus_report_is_pinned() {
    let ds = DatasetBuilder::new(2014)
        .traces(30)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(8, 12)
        .start_window_ms(100)
        .build();
    let study = run(&ds, &StudyConfig::default(), &names_of(&ds)).expect("study runs");
    assert_eq!(digest(&render(&study, &ds)), "6d977665704fc722");
}

#[test]
fn sanitized_fault_injected_report_is_pinned() {
    let clean = selected(21, 40);
    let (corrupt, _) = FaultInjector::new(21).with_all(0.03).inject(&clean);
    let cfg = StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    };
    let study = run(&corrupt, &cfg, &names_of(&clean)).expect("sanitized run completes");
    assert_eq!(digest(&render(&study, &corrupt)), "99af0e6d4bf62ca7");
}

#[test]
fn checkpoint_resumed_report_is_pinned() {
    let ds = selected(64, 24);
    let names = names_of(&ds);
    let dir = std::env::temp_dir().join("tracelens-report-identity-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let faulted = StudyConfig {
        exec_faults: Some(ExecFaultPlan::new(91).with_panic_rate(0.1)),
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let first = run(&ds, &faulted, &names).expect("faulted run completes");
    assert!(
        first.execution.quarantined() > 0,
        "the plan must hit a unit"
    );
    let resume = StudyConfig {
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let resumed = run(&ds, &resume, &names).expect("resumed run completes");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        resumed.execution.restored > 0,
        "the resume must restore a unit"
    );
    assert_eq!(digest(&render(&resumed, &ds)), "52f189489918ea32");
}
