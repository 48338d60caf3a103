//! Resource-governed execution: every study runs under an explicit
//! memory budget. These tests pin the governance contract: an unlimited
//! budget is byte-identical to no governance at all, a finite budget
//! accounts for every unit (admitted + queued + degraded + shed), the
//! governor's decisions are deterministic at every job count, and the
//! cost estimator really is an upper bound of what the analyses retain.

use tracelens::prelude::*;

fn render(study: &Study, ds: &Dataset) -> String {
    tracelens::render_markdown(study, ds, &tracelens::ReportOptions::default())
}

fn dataset(seed: u64, traces: usize) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Selected)
        .build()
}

fn names_of(ds: &Dataset) -> Vec<ScenarioName> {
    ds.scenarios.iter().map(|s| s.name).collect()
}

fn run(ds: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> Result<Study, StudyError> {
    Study::run(ds, config, names, &Telemetry::noop())
}

/// An overload scenario: estimates inflated so a finite budget must
/// queue, degrade, or shed — without the corpus being huge.
fn pressured(jobs: usize, budget_mb: u64, action: OverBudgetAction) -> StudyConfig {
    StudyConfig {
        jobs,
        govern: GovernPolicy::with_budget_mb(budget_mb).on_over_budget(action),
        mem_faults: Some(MemFaultPlan::new(3).with_rate(0.5).with_factor(64)),
        ..StudyConfig::default()
    }
}

#[test]
fn unlimited_budget_is_byte_identical_to_ungoverned() {
    let ds = dataset(71, 24);
    let names = names_of(&ds);
    let plain = run(&ds, &StudyConfig::default(), &names).expect("plain run completes");
    // Both spellings of "no budget": the default policy and an explicit
    // zero via the CLI's `--memory-budget-mb 0`.
    for govern in [GovernPolicy::unlimited(), GovernPolicy::with_budget_mb(0)] {
        let cfg = StudyConfig {
            govern,
            ..StudyConfig::default()
        };
        let governed = run(&ds, &cfg, &names).expect("governed run completes");
        assert!(!governed.governance.is_governed());
        assert_eq!(governed.governance.admitted, governed.governance.units);
        assert_eq!(
            render(&plain, &ds),
            render(&governed, &ds),
            "unlimited budget must not change a single byte"
        );
    }
}

#[test]
fn overload_accounts_for_every_unit_and_sheds_as_typed_failures() {
    let ds = dataset(72, 40);
    let names = names_of(&ds);
    let cfg = pressured(1, 1, OverBudgetAction::Shed);
    let study = run(&ds, &cfg, &names).expect("overloaded run still completes");
    let gov = &study.governance;
    assert!(gov.is_governed());
    assert_eq!(gov.units, names.len());
    assert_eq!(
        gov.admitted + gov.queued + gov.degraded + gov.shed,
        gov.units,
        "every unit must be accounted for exactly once"
    );
    assert!(
        gov.shed > 0,
        "64x inflation against a 1 MiB budget must shed something"
    );
    assert_eq!(gov.degraded, 0, "shed policy must never degrade");
    // Shed units are quarantined as typed failures, absent from the
    // results, and visible in coverage.
    let shed_failures = study
        .execution
        .failures
        .iter()
        .filter(|f| matches!(f.reason, FailureReason::OverBudget { .. }))
        .count();
    assert_eq!(shed_failures, gov.shed);
    assert_eq!(study.scenarios.len(), names.len() - gov.shed);
    assert_eq!(study.coverage.shed_units, gov.shed);
    assert_eq!(study.coverage.failed_units, study.execution.quarantined());
    for f in &study.execution.failures {
        assert_eq!(f.attempts, 0, "shed units must never have run");
        assert!(f.reason.to_string().contains("over budget"), "{f}");
    }
}

#[test]
fn degrade_mode_runs_every_unit_on_a_bounded_slice() {
    let ds = dataset(73, 40);
    let names = names_of(&ds);
    let cfg = pressured(1, 1, OverBudgetAction::Degrade);
    let study = run(&ds, &cfg, &names).expect("degraded run completes");
    let gov = &study.governance;
    assert!(gov.shed == 0, "degrade policy must never shed");
    assert!(
        gov.degraded > 0,
        "64x inflation against a 1 MiB budget must degrade something"
    );
    assert_eq!(
        gov.admitted + gov.queued + gov.degraded,
        gov.units,
        "every unit accounted for"
    );
    // Degraded units still produce results — nothing is lost outright.
    assert_eq!(study.scenarios.len(), names.len());
    assert!(study.execution.failures.is_empty());
    assert_eq!(study.coverage.degraded_units, gov.degraded);
    // Each degradation record is within the budget's arithmetic.
    for d in &gov.decisions {
        if let Admission::Degraded(deg) = &d.admission {
            assert!(deg.retain_per_mille >= 1 && deg.retain_per_mille < 1000);
            assert!(deg.estimated_bytes > deg.budget_bytes);
        }
    }
}

#[test]
fn governed_decisions_and_markdown_are_identical_at_every_job_count() {
    let ds = dataset(74, 32);
    let names = names_of(&ds);
    for action in [OverBudgetAction::Shed, OverBudgetAction::Degrade] {
        let base = run(&ds, &pressured(1, 1, action), &names).expect("governed run completes");
        let base_md = render(&base, &ds);
        assert!(
            base.governance.constrained() > 0,
            "pressure must constrain something for the test to mean anything"
        );
        for jobs in [2, 8] {
            let par = run(&ds, &pressured(jobs, 1, action), &names)
                .expect("governed parallel run completes");
            assert_eq!(
                base.governance, par.governance,
                "jobs={jobs}: admission decisions diverged"
            );
            assert_eq!(base_md, render(&par, &ds), "jobs={jobs}: markdown diverged");
        }
    }
}

#[test]
fn governed_markdown_reports_the_budget_and_every_non_admitted_unit() {
    let ds = dataset(75, 32);
    let names = names_of(&ds);
    let study =
        run(&ds, &pressured(2, 1, OverBudgetAction::Shed), &names).expect("governed run completes");
    let md = render(&study, &ds);
    assert!(md.contains("## Execution"));
    assert!(md.contains("Resource governance:"));
    assert!(md.contains("KiB budget"));
    for d in &study.governance.decisions {
        match d.admission {
            Admission::Admitted => {}
            _ => assert!(
                md.contains(&format!("| {} |", d.unit)),
                "non-admitted unit {} missing from the decision table",
                d.unit
            ),
        }
    }
}

#[test]
fn budget_sweep_never_loses_a_unit() {
    let ds = dataset(76, 24);
    let names = names_of(&ds);
    for budget_mb in [1u64, 2, 4, 16, 64, 1024] {
        let cfg = pressured(2, budget_mb, OverBudgetAction::Shed);
        let study = run(&ds, &cfg, &names).expect("sweep run completes");
        let gov = &study.governance;
        assert_eq!(
            gov.admitted + gov.queued + gov.degraded + gov.shed,
            names.len(),
            "budget {budget_mb} MiB: unit lost"
        );
        assert_eq!(
            study.scenarios.len() + gov.shed,
            names.len(),
            "budget {budget_mb} MiB: results and sheds must partition the units"
        );
        assert!(gov.peak_estimated_bytes > 0);
    }
}

#[test]
fn cost_estimator_is_an_upper_bound_of_retained_heap() {
    let ds = dataset(77, 24);
    let mut index_cache: std::collections::BTreeMap<u32, StreamIndex> =
        std::collections::BTreeMap::new();
    for scenario in &ds.scenarios {
        let est = tracelens::estimated_unit_bytes(&ds, &scenario.name);
        let mut actual = 0usize;
        let mut counted: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for instance in ds.instances.iter().filter(|i| i.scenario == scenario.name) {
            let stream = ds.stream_of(instance).expect("instance has a stream");
            let index = index_cache
                .entry(instance.trace.0)
                .or_insert_with(|| StreamIndex::new(stream));
            if counted.insert(instance.trace.0) {
                actual += index.heap_size();
            }
            actual += WaitGraph::build(stream, index, instance).heap_size();
        }
        assert!(
            est as usize >= actual,
            "{}: estimate {est} under-estimates retained heap {actual}",
            scenario.name
        );
    }
}
