//! End-to-end pipeline tests: simulate → impact → causality, checking
//! cross-crate invariants the unit tests cannot see.

use tracelens::prelude::*;

fn dataset() -> Dataset {
    DatasetBuilder::new(1234)
        .traces(80)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(2, 4)
        .start_window_ms(300)
        .build()
}

#[test]
fn study_covers_all_selected_scenarios() {
    let ds = dataset();
    let names: Vec<ScenarioName> = ScenarioName::SELECTED
        .iter()
        .map(|&s| ScenarioName::new(s))
        .collect();
    let (study, ds) =
        Study::run(ds, &StudyConfig::default(), &names, &Telemetry::noop()).expect("study runs");

    // Instance partitioning is exact.
    let total: usize = study.scenarios.values().map(|s| s.impact.instances).sum();
    assert_eq!(total, ds.instances.len());

    // The global report equals the sum of per-scenario D_scn.
    let d_scn_sum: TimeNs = study.scenarios.values().map(|s| s.impact.d_scn).sum();
    assert_eq!(d_scn_sum, study.impact.d_scn);

    for (name, s) in &study.scenarios {
        // Slow-class impact is a subset of the scenario's impact.
        assert!(s.slow_impact.d_scn <= s.impact.d_scn, "{name}");
        assert!(s.slow_impact.d_wait <= s.impact.d_wait, "{name}");
        if let Ok(report) = &s.causality {
            // Classification agrees between impact and causality paths.
            assert_eq!(report.slow_instances, s.slow_impact.instances, "{name}");
            // Coverage identities.
            assert!(report.itc() <= report.ttc() + 1e-12, "{name}");
            // TTC can slightly exceed 1: child costs are not clipped to
            // their parents' windows (see EXPERIMENTS.md).
            assert!(report.ttc() <= 1.5, "{name}");
            // Ranking is by average cost, descending.
            for w in report.patterns.windows(2) {
                assert!(w[0].avg_cost() >= w[1].avg_cost(), "{name}");
            }
            // Coverage by rank is monotone in the fraction.
            let (c1, c2, c3) = (
                report.coverage_top_fraction(0.1),
                report.coverage_top_fraction(0.2),
                report.coverage_top_fraction(0.3),
            );
            assert!(c1 <= c2 + 1e-12 && c2 <= c3 + 1e-12, "{name}");
            // Every pattern has consistent counters.
            for p in &report.patterns {
                assert!(p.n > 0, "{name}");
                assert!(p.c_max > TimeNs::ZERO, "{name}");
                assert!(!p.tuple.is_empty(), "{name}");
            }
        }
    }
}

#[test]
fn impact_is_deterministic_across_runs() {
    let ds = dataset();
    let a = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
    let b = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
    assert_eq!(a, b);
}

#[test]
fn causality_is_deterministic_across_runs() {
    let ds = dataset();
    let name = ScenarioName::new("BrowserTabCreate");
    let a = CausalityAnalysis::default().analyze(&ds, &name).unwrap();
    let b = CausalityAnalysis::default().analyze(&ds, &name).unwrap();
    assert_eq!(a.patterns.len(), b.patterns.len());
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x, y);
    }
}

#[test]
fn broader_filter_never_measures_less() {
    let ds = dataset();
    let drivers = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
    let everything = ImpactAnalyzer::new(ComponentFilter::Any).analyze(&ds);
    assert!(everything.d_run >= drivers.d_run);
    assert_eq!(everything.d_scn, drivers.d_scn);
    // Note: top-level wait accounting is not monotone in the filter (a
    // broader filter can count a shallow wait and skip a deeper, longer
    // one), so only D_run and D_scn are compared here.
}

#[test]
fn baselines_run_over_the_same_dataset() {
    let ds = dataset();
    let prof = CallGraphProfile::build(&ds);
    let locks = LockContentionReport::build(&ds);
    assert!(prof.total_cpu().as_nanos() > 0);
    assert!(locks.total_wait().as_nanos() > 0);
    // The profiler's total CPU equals the sum of running-event costs.
    let cpu: TimeNs = ds
        .streams
        .iter()
        .flat_map(|s| s.events())
        .filter(|e| e.kind == tracelens::model::EventKind::Running)
        .map(|e| e.cost)
        .sum();
    assert_eq!(prof.total_cpu(), cpu);
}
