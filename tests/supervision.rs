//! Fail-operational execution: a supervised study must complete under
//! injected panics and deadline overruns, account for every quarantined
//! unit, and stay deterministic — byte-identical markdown across reruns
//! and checkpoint/resume boundaries.

use std::path::PathBuf;
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

/// The markdown of a fault-free, checkpoint-free study.
fn clean_render(ds: &Dataset, names: &[ScenarioName]) -> String {
    let clean = run(ds, &StudyConfig::default(), names).expect("clean run succeeds");
    render(&clean, ds)
}

/// A scratch checkpoint directory, wiped before use so stale state from
/// a previous (possibly crashed) test run cannot leak in.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-supervision-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_supervised_run_is_byte_identical_to_unsupervised() {
    let ds = dataset(61, 24);
    let names = names_of(&ds);
    // A generous deadline and extra retries change nothing on a run
    // where no unit fails.
    let explicit = StudyConfig {
        supervise: SupervisePolicy::from_knobs(60_000, 3),
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
fn slow_units_are_quarantined_by_the_soft_deadline() {
    let ds = dataset(63, 6);
    let names = names_of(&ds);
    let config = StudyConfig {
        supervise: SupervisePolicy::from_knobs(40, 1),
        exec_faults: Some(
            ExecFaultPlan::new(5)
                .with_slow_rate(0.3)
                .with_slow_for(std::time::Duration::from_millis(150)),
        ),
        ..StudyConfig::default()
    };
    let study = run(&ds, &config, &names).expect("slow run completes");
    let exec = &study.execution;
    assert!(exec.quarantined() > 0, "slow faults must trip the deadline");
    for f in &exec.failures {
        assert!(
            matches!(f.reason, FailureReason::DeadlineExceeded { .. }),
            "expected deadline failure, got {f}"
        );
        assert_eq!(f.attempts, 1, "deadline overruns must not be retried");
    }
    // The rendered reason names the configured budget, never measured
    // wall-clock time — required for byte-identical reruns.
    assert!(render(&study, &ds).contains("exceeded soft deadline (40ms)"));
}

#[test]
fn checkpoint_resume_is_byte_identical_to_an_uninterrupted_run() {
    let ds = dataset(64, 18);
    let names = names_of(&ds);
    let clean_md = clean_render(&ds, &names);
    let dir = scratch_dir("resume");

    // First attempt: faults quarantine part of the study; survivors are
    // checkpointed.
    let faulted_cfg = StudyConfig {
        exec_faults: Some(ExecFaultPlan::new(91).with_panic_rate(0.2)),
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let faulted = run(&ds, &faulted_cfg, &names).expect("faulted run completes");
    assert!(faulted.execution.quarantined() > 0);

    // Resume with the faults gone: only the missing units re-run, and
    // the result is byte-identical to a never-interrupted study. A
    // rerun of the resume restores every unit and matches too.
    let resume_cfg = StudyConfig {
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    for attempt in ["resume", "rerun of the resume"] {
        let resumed = run(&ds, &resume_cfg, &names).expect("resumed run completes");
        assert!(resumed.execution.restored > 0, "resume must reuse units");
        assert!(resumed.execution.is_clean());
        assert_eq!(clean_md, render(&resumed, &ds), "{attempt} diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_streams_drop_out_of_every_report_and_every_checkpoint() {
    let ds = dataset(68, 16);
    let names = names_of(&ds);
    let clean = run(&ds, &StudyConfig::default(), &names).expect("clean run");
    // A plan that poisons some streams but no scenario unit, so every
    // difference from the clean run is the lost streams' doing.
    let poisons = |plan: &ExecFaultPlan, stage: &str, unit: String| {
        plan.fault_for(stage, &unit) == Some(ExecFault::Panic)
    };
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

    let dir = scratch_dir("stream-quarantine");
    let faulted_cfg = StudyConfig {
        exec_faults: Some(plan),
        checkpoint: Some(dir.clone()),
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
    assert!(!dir.join("impact.tlc").exists(), "partial impact stored");

    let mut checked = 0;
    for (idx, name) in names.iter().enumerate() {
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
        // A scenario that lost instances is partial: never checkpointed.
        let affected = fast + slow + margin > 0;
        assert_eq!(
            dir.join(format!("unit-{idx}.tlc")).exists(),
            !affected,
            "{name}: affected {affected}"
        );
    }
    assert!(checked > 0, "a mined scenario lost instances");

    let resume_cfg = StudyConfig {
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    let resumed = run(&ds, &resume_cfg, &names).expect("resumed run");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resumed.execution.is_clean());
    assert!(resumed.execution.restored > 0, "unaffected units restore");
    assert_eq!(render(&clean, &ds), render(&resumed, &ds));
}

#[test]
fn torn_checkpoint_units_are_recomputed_not_trusted() {
    let ds = dataset(65, 12);
    let names = names_of(&ds);
    let clean_md = clean_render(&ds, &names);
    let dir = scratch_dir("torn");
    let cfg = StudyConfig {
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    run(&ds, &cfg, &names).expect("checkpointed run completes");

    // Simulate a torn write: truncate one unit file mid-record.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("unit-"))
        })
        .expect("at least one unit checkpointed");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();

    let resumed = run(&ds, &cfg, &names).expect("resume tolerates torn unit");
    assert!(resumed.execution.is_clean());
    assert_eq!(
        clean_md,
        render(&resumed, &ds),
        "torn unit must be recomputed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_from_a_different_dataset_is_discarded() {
    let ds_a = dataset(66, 10);
    let ds_b = dataset(67, 10);
    let dir = scratch_dir("fingerprint");
    let cfg = StudyConfig {
        checkpoint: Some(dir.clone()),
        ..StudyConfig::default()
    };
    run(&ds_a, &cfg, &names_of(&ds_a)).expect("first run");
    // Same directory, different data set: nothing may be restored.
    let names_b = names_of(&ds_b);
    let clean_md = clean_render(&ds_b, &names_b);
    let second = run(&ds_b, &cfg, &names_b).expect("second run");
    assert_eq!(second.execution.restored, 0, "stale checkpoint reused");
    assert_eq!(clean_md, render(&second, &ds_b));
    let _ = std::fs::remove_dir_all(&dir);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Random panic injection: the supervised study never aborts,
        /// its markdown is byte-identical across reruns, and a
        /// faulted-then-resumed study matches a clean run exactly.
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

            // Faulted + checkpoint, then fault-free resume: identical to
            // a study that was never interrupted.
            let clean_md = clean_render(&ds, &names);
            let dir = scratch_dir(&format!("prop-{seed}-{traces}-{panic_pct}"));
            let ckpt_cfg = StudyConfig {
                exec_faults: Some(plan),
                checkpoint: Some(dir.clone()),
                ..StudyConfig::default()
            };
            run(&ds, &ckpt_cfg, &names).expect("faulted checkpointed run");
            let resume_cfg = StudyConfig {
                checkpoint: Some(dir.clone()),
                ..StudyConfig::default()
            };
            let resumed = run(&ds, &resume_cfg, &names)
                .expect("resumed run");
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(resumed.execution.is_clean());
            prop_assert_eq!(&clean_md, &render(&resumed, &ds), "resume diverged from clean run");
        }

        /// Crash consistency: a checkpoint unit file torn at ANY byte
        /// offset — simulating a crash mid-write — must never be
        /// trusted as complete. The resume either restores a unit whose
        /// record survived intact or recomputes it; the rendered study
        /// is byte-identical to a never-interrupted run either way.
        #[test]
        fn torn_unit_files_at_any_offset_resume_to_a_clean_study(
            seed in 500u64..800,
            traces in 4usize..10,
            cut_per_mille in 0u32..1000,
        ) {
            let ds = dataset(seed, traces);
            let names = names_of(&ds);
            let clean_md = clean_render(&ds, &names);
            let dir = scratch_dir(&format!("torn-prop-{seed}-{traces}-{cut_per_mille}"));
            let cfg = StudyConfig {
                checkpoint: Some(dir.clone()),
                ..StudyConfig::default()
            };
            run(&ds, &cfg, &names).expect("checkpointed run completes");

            // Tear every unit file at the sampled relative offset (the
            // per-unit absolute offset varies with file length, widening
            // the space of torn states a single case exercises).
            let mut torn = 0usize;
            for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
                let path = entry.path();
                let is_unit = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("unit-"));
                if !is_unit {
                    continue;
                }
                let bytes = std::fs::read(&path).unwrap();
                let cut = (bytes.len() as u64 * cut_per_mille as u64 / 1000) as usize;
                std::fs::write(&path, &bytes[..cut]).unwrap();
                torn += 1;
            }
            prop_assert!(torn > 0, "run must have checkpointed at least one unit");

            let resumed = run(&ds, &cfg, &names)
                .expect("resume tolerates torn units");
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(resumed.execution.is_clean());
            prop_assert_eq!(
                &clean_md,
                &render(&resumed, &ds),
                "torn units must be restored-if-whole or recomputed, never half-trusted"
            );
        }

        /// Checkpoint × sanitize: a corrupt corpus (quarantined streams
        /// and all) run exec-faulted with a checkpoint, then resumed
        /// faults-off, renders byte-identically to a fresh, never-
        /// faulted sanitized run — and so does a rerun of the resume.
        #[test]
        fn sanitized_checkpoint_resume_matches_a_fresh_clean_run(
            seed in 800u64..1100,
            traces in 4usize..10,
            panic_pct in 10u32..60,
        ) {
            let clean = dataset(seed, traces);
            let (corrupt, _log) = FaultInjector::new(seed ^ 0xC0FFEE)
                .with_all(0.03)
                .inject(&clean);
            let names = names_of(&clean);

            // The reference: a fresh sanitized run that never faulted.
            let sanitized = StudyConfig {
                sanitize: true,
                ..StudyConfig::default()
            };
            let fresh_md = match run(&corrupt, &sanitized, &names) {
                Ok(study) => render(&study, &corrupt),
                // Everything quarantined: a legal degraded outcome with
                // nothing left to checkpoint or resume.
                Err(_) => return Ok(()),
            };

            let plan = ExecFaultPlan::new(seed ^ 0x5EED)
                .with_panic_rate(panic_pct as f64 / 100.0);
            let dir = scratch_dir(&format!("san-ckpt-{seed}-{traces}-{panic_pct}"));
            let faulted_cfg = StudyConfig {
                exec_faults: Some(plan),
                checkpoint: Some(dir.clone()),
                ..sanitized.clone()
            };
            run(&corrupt, &faulted_cfg, &names)
                .expect("faulted sanitized checkpointed run");
            let resume_cfg = StudyConfig {
                checkpoint: Some(dir.clone()),
                ..sanitized.clone()
            };
            for attempt in ["resume", "rerun of the resume"] {
                let resumed = run(&corrupt, &resume_cfg, &names).expect("sanitized resume");
                prop_assert!(resumed.execution.is_clean());
                prop_assert_eq!(
                    &fresh_md,
                    &render(&resumed, &corrupt),
                    "sanitized {} diverged from the fresh clean run",
                    attempt
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
