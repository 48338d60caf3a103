//! Parallel/sequential equivalence: `Study::run` must produce
//! *identical* results at every job count — same impact metrics, same
//! ranked contrast patterns, same sanitize coverage, byte-identical
//! rendered report. The pool is an execution detail, never an output
//! detail.

use tracelens::prelude::*;

fn study_at(ds: &Dataset, names: &[ScenarioName], jobs: usize, sanitize: bool) -> Study {
    let config = StudyConfig {
        jobs,
        sanitize,
        ..StudyConfig::default()
    };
    Study::run(ds, &config, names, &Telemetry::noop()).expect("study runs")
}

fn render(study: &Study, ds: &Dataset) -> String {
    tracelens::render_markdown(study, ds, &tracelens::ReportOptions::default())
}

/// Field-by-field comparison with labelled failures, so a divergence
/// names the scenario and stage rather than dumping two full studies.
fn assert_studies_equal(seq: &Study, par: &Study, label: &str) {
    assert_eq!(seq.impact, par.impact, "{label}: global impact");
    assert_eq!(seq.coverage, par.coverage, "{label}: coverage");
    assert_eq!(
        seq.scenarios.len(),
        par.scenarios.len(),
        "{label}: scenario count"
    );
    for ((name_a, a), (name_b, b)) in seq.scenarios.iter().zip(&par.scenarios) {
        assert_eq!(name_a, name_b, "{label}: scenario order");
        assert_eq!(a.impact, b.impact, "{label}/{name_a}: scenario impact");
        assert_eq!(
            a.slow_impact, b.slow_impact,
            "{label}/{name_a}: slow impact"
        );
        assert_eq!(a.causality, b.causality, "{label}/{name_a}: causality");
    }
}

#[test]
fn clean_dataset_is_identical_at_every_job_count() {
    let ds = DatasetBuilder::new(41)
        .traces(30)
        .mix(ScenarioMix::Selected)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let seq = study_at(&ds, &names, 1, false);
    let seq_md = render(&seq, &ds);
    for jobs in [2, 4, 8] {
        let par = study_at(&ds, &names, jobs, false);
        assert_studies_equal(&seq, &par, &format!("jobs={jobs}"));
        assert_eq!(
            seq_md,
            render(&par, &ds),
            "jobs={jobs}: markdown must be byte-identical"
        );
    }
}

#[test]
fn sanitized_fault_injected_dataset_is_identical_at_every_job_count() {
    let ds = DatasetBuilder::new(42)
        .traces(24)
        .mix(ScenarioMix::Selected)
        .build();
    let (corrupt, log) = FaultInjector::new(7).with_all(0.04).inject(&ds);
    assert!(log.total() > 0, "injection must corrupt something");
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let seq = study_at(&corrupt, &names, 1, true);
    let seq_md = render(&seq, &corrupt);
    for jobs in [2, 4] {
        let par = study_at(&corrupt, &names, jobs, true);
        assert_eq!(
            seq.sanitize, par.sanitize,
            "jobs={jobs}: sanitize report (coverage) must not depend on jobs"
        );
        assert_studies_equal(&seq, &par, &format!("sanitized jobs={jobs}"));
        assert_eq!(
            seq_md,
            render(&par, &corrupt),
            "jobs={jobs}: sanitized markdown must be byte-identical"
        );
    }
}

#[test]
fn jobs_zero_honors_tracelens_jobs_env() {
    // `jobs: 0` resolves through TRACELENS_JOBS; whatever it resolves
    // to, the study must still match the sequential run.
    let ds = DatasetBuilder::new(43)
        .traces(12)
        .mix(ScenarioMix::Selected)
        .build();
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let seq = study_at(&ds, &names, 1, false);
    let auto = study_at(&ds, &names, 0, false);
    assert_studies_equal(&seq, &auto, "jobs=0 (auto)");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random workloads, clean and corrupted: sequential and
        /// parallel studies agree exactly.
        #[test]
        fn random_datasets_are_jobs_invariant(
            seed in 0u64..1_000,
            traces in 4usize..16,
            jobs in 2usize..6,
            eps_pct in 0u32..6,
        ) {
            let eps = eps_pct as f64 / 100.0;
            let clean = DatasetBuilder::new(seed)
                .traces(traces)
                .mix(ScenarioMix::Selected)
                .build();
            let (ds, _) = FaultInjector::new(seed ^ 0xA5).with_all(eps).inject(&clean);
            let names: Vec<ScenarioName> =
                ds.scenarios.iter().map(|s| s.name).collect();
            let seq = study_at(&ds, &names, 1, true);
            let par = study_at(&ds, &names, jobs, true);
            prop_assert_eq!(&seq.sanitize, &par.sanitize);
            prop_assert_eq!(&seq.impact, &par.impact);
            prop_assert_eq!(&seq.coverage, &par.coverage);
            prop_assert_eq!(
                render(&seq, &ds),
                render(&par, &ds),
                "markdown diverged at jobs={}", jobs
            );
        }
    }
}
