//! Fail-operational execution: a supervised study must complete under
//! injected panics, account for every quarantined unit, and stay
//! deterministic — byte-identical markdown across reruns.

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

/// A study of a clone of `ds`: the tests run several studies of one
/// input and render each against it.
fn run(ds: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> Result<Study, StudyError> {
    Study::run(ds.clone(), config, names, &Telemetry::noop()).map(|(study, _)| study)
}

/// The markdown of a fault-free study.
fn clean_render(ds: &Dataset, names: &[ScenarioName]) -> String {
    let clean = run(ds, &StudyConfig::default(), names).expect("clean run succeeds");
    render(&clean, ds)
}

#[test]
fn clean_supervised_run_is_byte_identical_to_unsupervised() {
    let ds = dataset(61, 24);
    let names = names_of(&ds);
    // A disarmed fault plan changes nothing on a run where no unit
    // fails.
    let explicit = StudyConfig {
        exec_faults: Some(ExecFaultPlan::new(61)),
        ..StudyConfig::default()
    };
    let sup = run(&ds, &explicit, &names).expect("clean supervised run succeeds");
    assert!(sup.execution.is_clean());
    assert_eq!(clean_render(&ds, &names), render(&sup, &ds));
}

#[test]
fn faulted_study_completes_and_lists_every_quarantined_unit() {
    let ds = dataset(62, 20);
    let names = names_of(&ds);
    let config = StudyConfig {
        exec_faults: Some(ExecFaultPlan::new(19).with_panic_rate(0.35)),
        ..StudyConfig::default()
    };
    let study = run(&ds, &config, &names).expect("faulted run still completes");
    let exec = &study.execution;
    assert!(exec.quarantined() > 0, "fault plan must hit something");
    let md = render(&study, &ds);
    assert!(md.contains("## Execution"));
    for f in &exec.failures {
        assert!(
            md.contains(&format!("| {} | {} |", f.unit, f.stage)),
            "failure {f} missing from report"
        );
    }
    // Determinism: a rerun of the same fault plan produces the same
    // failures and byte-identical markdown.
    let again = run(&ds, &config, &names).expect("faulted rerun completes");
    assert_eq!(exec.failures, again.execution.failures);
    assert_eq!(md, render(&again, &ds), "markdown diverged");
}

#[test]
fn quarantined_streams_drop_out_of_every_report() {
    let ds = dataset(68, 16);
    let names = names_of(&ds);
    let clean = run(&ds, &StudyConfig::default(), &names).expect("clean run");
    // A plan that poisons some streams but no scenario unit, so every
    // difference from the clean run is the lost streams' doing.
    let poisons = |plan: &ExecFaultPlan, stage: &str, unit: String| plan.panics(stage, &unit);
    let plan = (0..500u64)
        .map(|seed| ExecFaultPlan::new(seed).with_panic_rate(0.15))
        .find(|plan| {
            let streams = ds
                .streams
                .iter()
                .filter(|s| poisons(plan, "impact", format!("stream:{}", s.id().0)))
                .count();
            let scenarios = names.iter().any(|n| {
                poisons(plan, "scenario", format!("scenario:{n}"))
                    || poisons(plan, "causality", format!("scenario:{n}"))
            });
            (1..=3).contains(&streams) && !scenarios
        })
        .expect("some seed poisons only streams");
    let lost: Vec<&ScenarioInstance> = ds
        .instances
        .iter()
        .filter(|i| poisons(&plan, "impact", format!("stream:{}", i.trace.0)))
        .collect();
    assert!(!lost.is_empty(), "the poisoned streams carry instances");

    let faulted_cfg = StudyConfig {
        exec_faults: Some(plan),
        ..StudyConfig::default()
    };
    let faulted = run(&ds, &faulted_cfg, &names).expect("faulted run");
    assert!(faulted
        .execution
        .failures
        .iter()
        .all(|f| f.stage == "impact"));
    assert_eq!(faulted.execution.lost_instances(), lost.len());
    assert_eq!(
        faulted.impact.instances,
        clean.impact.instances - lost.len()
    );

    let mut checked = 0;
    for name in &names {
        let th = ds.scenario(name).expect("defined").thresholds;
        let gone = |class: Option<bool>| {
            lost.iter()
                .filter(|i| i.scenario == *name && th.classify(i.duration()) == class)
                .count()
        };
        let (fast, slow, margin) = (gone(Some(true)), gone(Some(false)), gone(None));
        let (a, b) = (&clean.scenarios[name], &faulted.scenarios[name]);
        assert_eq!(
            b.impact.instances,
            a.impact.instances - fast - slow - margin
        );
        assert_eq!(b.slow_impact.instances, a.slow_impact.instances - slow);
        if let (Ok(a), Ok(b)) = (&a.causality, &b.causality) {
            assert_eq!(b.fast_instances, a.fast_instances - fast, "{name}");
            assert_eq!(b.slow_instances, a.slow_instances - slow, "{name}");
            assert_eq!(b.margin_instances, a.margin_instances - margin, "{name}");
            checked += usize::from(fast + slow + margin > 0);
        }
    }
    assert!(checked > 0, "a mined scenario lost instances");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Random panic injection: the supervised study never aborts,
        /// and its markdown is byte-identical across reruns.
        #[test]
        fn supervision_is_deterministic_under_random_faults(
            seed in 0u64..500,
            traces in 4usize..12,
            panic_pct in 10u32..60,
        ) {
            let ds = dataset(seed, traces);
            let names = names_of(&ds);
            let plan = ExecFaultPlan::new(seed ^ 0x5EED)
                .with_panic_rate(panic_pct as f64 / 100.0);

            // Byte-identical faulted runs: a run and its rerun.
            let faulted = || {
                let cfg = StudyConfig {
                    exec_faults: Some(plan),
                    ..StudyConfig::default()
                };
                let study = run(&ds, &cfg, &names)
                    .expect("supervised run never aborts");
                render(&study, &ds)
            };
            prop_assert_eq!(&faulted(), &faulted(), "faulted markdown diverged on a rerun");
        }

        /// Supervision × sanitize: a corrupt corpus (quarantined
        /// streams and all) run exec-faulted under sanitize completes
        /// whenever its fault-free sanitized run does.
        #[test]
        fn exec_faulted_sanitized_study_completes(
            seed in 800u64..1100,
            traces in 4usize..10,
            panic_pct in 10u32..60,
        ) {
            let clean = dataset(seed, traces);
            let (corrupt, _log) = FaultInjector::new(seed ^ 0xC0FFEE)
                .with_all(0.03)
                .inject(&clean);
            let names = names_of(&clean);
            let sanitized = StudyConfig {
                sanitize: true,
                ..StudyConfig::default()
            };
            // Everything quarantined: a legal degraded outcome with
            // nothing left to fault.
            if run(&corrupt, &sanitized, &names).is_err() {
                return Ok(());
            }

            let plan = ExecFaultPlan::new(seed ^ 0x5EED)
                .with_panic_rate(panic_pct as f64 / 100.0);
            let faulted_cfg = StudyConfig {
                exec_faults: Some(plan),
                ..sanitized
            };
            run(&corrupt, &faulted_cfg, &names).expect("faulted sanitized run");
        }
    }
}
