//! Robustness: the analyses must tolerate traces cut mid-flight — a
//! common reality of deployment-site tracing sessions. Truncation
//! produces unpaired wait events, partial chains, and clipped instances;
//! nothing may panic and all metrics must stay bounded.

use tracelens::prelude::*;

fn dataset() -> Dataset {
    DatasetBuilder::new(404)
        .traces(40)
        .mix(ScenarioMix::Selected)
        .build()
}

#[test]
fn impact_survives_truncation_at_any_point() {
    let ds = dataset();
    let an = ImpactAnalyzer::new(ComponentFilter::suffix(".sys"));
    let full = an.analyze(&ds);
    for cut_ms in [0u64, 1, 50, 200, 600, 5_000] {
        let cut = ds.truncated(TimeNs::from_millis(cut_ms));
        let r = an.analyze(&cut);
        assert!(r.instances <= full.instances, "cut at {cut_ms}ms");
        assert!(r.d_scn <= full.d_scn, "cut at {cut_ms}ms");
        assert!(r.ia_wait().is_finite());
        assert!(r.ia_opt() >= -1e-12);
        // Unpaired waits are clipped to the instance window, so counted
        // waiting can never exceed measured time by more than the
        // cross-instance amplification bound (instances per trace).
        assert!(r.d_wait_dist <= r.d_wait);
    }
}

#[test]
fn causality_survives_truncation() {
    let ds = dataset();
    let name = ScenarioName::new("BrowserTabCreate");
    for cut_ms in [150u64, 400, 1_000] {
        let cut = ds.truncated(TimeNs::from_millis(cut_ms));
        // May legitimately fail with an empty class; must never panic.
        match CausalityAnalysis::default().analyze(&cut, &name) {
            Ok(report) => {
                assert!(report.ttc() <= 1.5); // child costs unclipped, may pass 1
                for p in &report.patterns {
                    assert!(p.n > 0);
                }
            }
            Err(e) => {
                let text = e.to_string();
                assert!(text.contains("contrast class"), "unexpected error: {text}");
            }
        }
    }
}

#[test]
fn truncated_streams_contain_unpaired_waits() {
    // Sanity: the truncation actually produces the degenerate inputs the
    // other tests claim to exercise.
    let ds = dataset();
    let cut = ds.truncated(TimeNs::from_millis(120));
    let mut unpaired = 0usize;
    for stream in &cut.streams {
        let index = StreamIndex::new(stream);
        for e in stream.events() {
            if e.kind == tracelens::model::EventKind::Wait
                && index.pair_unwait(stream, e.tid, e.t).is_none()
            {
                unpaired += 1;
            }
        }
    }
    assert!(unpaired > 0, "expected unpaired waits after the cut");
}

/// A cut timestamp strictly between some wait and its paired unwait,
/// so truncating there severs the pair mid-wait.
fn mid_wait_cut(ds: &Dataset) -> TimeNs {
    for stream in &ds.streams {
        let index = StreamIndex::new(stream);
        for e in stream.events() {
            if e.kind != tracelens::model::EventKind::Wait {
                continue;
            }
            if let Some(u) = index.pair_unwait(stream, e.tid, e.t) {
                let tu = stream.event(u).expect("paired event exists").t;
                if tu.0 > e.t.0 + 1 {
                    return TimeNs((e.t.0 + tu.0) / 2);
                }
            }
        }
    }
    panic!("no paired wait with a gap in the workload");
}

#[test]
fn mid_wait_truncation_orphans_waits_and_analyses_survive() {
    let ds = dataset();
    let cut = ds.truncated(mid_wait_cut(&ds));
    // The severed pair shows up in the tolerance counters.
    let orphans: usize = cut
        .streams
        .iter()
        .map(|s| StreamIndex::new(s).orphan_waits())
        .sum();
    assert!(orphans > 0, "mid-wait cut must orphan at least one wait");
    // The sanitized study still runs end-to-end with finite metrics:
    // truncation is semantic corruption, not structural, so nothing is
    // quarantined and coverage stays full.
    let names: Vec<ScenarioName> = cut.scenarios.iter().map(|s| s.name).collect();
    let config = StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    };
    let study = Study::run(&cut, &config, &names, &Telemetry::noop()).expect("study runs");
    assert!(study.impact.ia_wait().is_finite());
    assert_eq!(study.sanitize.as_ref().unwrap().quarantined_traces, 0);
    assert!(study.coverage.is_full());
    // And the sanitizer's output passes full validation.
    let (clean, _) = cut.sanitize();
    assert!(clean.validate().is_ok());
}

#[test]
fn orphan_wait_counters_surface_through_telemetry() {
    let ds = dataset();
    let cut = ds.truncated(mid_wait_cut(&ds));
    let (telemetry, sink) = CollectingSink::telemetry();
    for stream in &cut.streams {
        StreamIndex::new_traced(stream, &telemetry);
    }
    let counters = sink.report().metrics.counters;
    assert!(
        counters.get("waitgraph.orphan_waits").copied().unwrap_or(0) > 0,
        "orphan waits must be counted: {counters:?}"
    );
}

#[test]
fn truncation_at_zero_empties_everything() {
    let ds = dataset();
    let cut = ds.truncated(TimeNs::ZERO);
    assert_eq!(cut.total_events(), 0);
    assert!(cut.instances.is_empty());
    assert_eq!(cut.streams.len(), ds.streams.len(), "streams remain, empty");
}

#[test]
fn truncation_beyond_end_is_identity() {
    let ds = dataset();
    let cut = ds.truncated(TimeNs::from_secs(3600));
    assert_eq!(cut.total_events(), ds.total_events());
    assert_eq!(cut.instances.len(), ds.instances.len());
}
