//! Golden report digests: the rendered Markdown of five study shapes is
//! pinned by FNV-1a digest, so any change to how the study computes its
//! numbers — scheduling, supervision, governance, checkpoint resume —
//! that alters a single byte of a report fails here.

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

fn selected(seed: u64, traces: usize) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Selected)
        .build()
}

/// Runs `study` at one and at three jobs, checks both render the same
/// bytes, and returns the digest.
fn digest_at_every_job_count(study: impl Fn(usize) -> (Study, Dataset)) -> String {
    let (one, ds) = study(1);
    let md = render(&one, &ds);
    let (three, ds3) = study(3);
    assert_eq!(md, render(&three, &ds3), "jobs 1 and 3 render differently");
    digest(&md)
}

#[test]
fn clean_selected_mix_report_is_pinned() {
    let got = digest_at_every_job_count(|jobs| {
        let ds = selected(9, 40);
        let cfg = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        (Study::run(&ds, &cfg, &names_of(&ds)), ds)
    });
    assert_eq!(got, "61932613e04e978d");
}

#[test]
fn dense_corpus_report_is_pinned() {
    let got = digest_at_every_job_count(|jobs| {
        let ds = DatasetBuilder::new(2014)
            .traces(30)
            .mix(ScenarioMix::Selected)
            .instances_per_trace(8, 12)
            .start_window_ms(100)
            .build();
        let cfg = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        (Study::run(&ds, &cfg, &names_of(&ds)), ds)
    });
    assert_eq!(got, "6d977665704fc722");
}

#[test]
fn sanitized_fault_injected_report_is_pinned() {
    let got = digest_at_every_job_count(|jobs| {
        let clean = selected(21, 40);
        let (corrupt, _) = FaultInjector::new(21).with_all(0.03).inject(&clean);
        let cfg = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        let (study, _) = Study::run_sanitized_supervised(&corrupt, &cfg, &names_of(&clean))
            .expect("sanitized run completes");
        (study, corrupt)
    });
    assert_eq!(got, "99af0e6d4bf62ca7");
}

#[test]
fn degraded_governed_report_is_pinned() {
    let got = digest_at_every_job_count(|jobs| {
        let ds = selected(73, 40);
        let cfg = StudyConfig {
            jobs,
            govern: GovernPolicy::with_budget_mb(1).on_over_budget(OverBudgetAction::Degrade),
            mem_faults: Some(MemFaultPlan::new(3).with_rate(0.5).with_factor(64)),
            ..StudyConfig::default()
        };
        let study = Study::run_governed(&ds, &cfg, &names_of(&ds)).expect("governed run");
        assert!(
            study.governance.degraded > 0,
            "the budget must degrade a unit"
        );
        (study, ds)
    });
    assert_eq!(got, "106a6918c065f28b");
}

#[test]
fn checkpoint_resumed_report_is_pinned() {
    let ds = selected(64, 24);
    let names = names_of(&ds);
    let dir = std::env::temp_dir().join("tracelens-report-identity-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let faulted = StudyConfig {
        jobs: 2,
        exec_faults: Some(ExecFaultPlan::new(91).with_panic_rate(0.1)),
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let first = Study::run_supervised(&ds, &faulted, &names).expect("faulted run completes");
    assert!(
        first.execution.quarantined() > 0,
        "the plan must hit a unit"
    );
    let resume = StudyConfig {
        jobs: 1,
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let resumed = Study::run_supervised(&ds, &resume, &names).expect("resumed run completes");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        resumed.execution.restored > 0,
        "the resume must restore a unit"
    );
    assert_eq!(digest(&render(&resumed, &ds)), "52f189489918ea32");
}
