//! Markdown report rendering for a full [`Study`].
//!
//! Produces the artifact a performance analyst hands around: the global
//! impact numbers, the per-scenario coverage table, and the top ranked
//! contrast patterns per scenario — as a single Markdown document.

use crate::study::Study;
use std::fmt::Write as _;
use tracelens_model::{Dataset, DriverType};

/// Options for [`render_markdown`].
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// How many top patterns to include per scenario.
    pub top_patterns: usize,
    /// Whether to include the per-scenario driver-type histogram.
    pub driver_types: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top_patterns: 3,
            driver_types: true,
        }
    }
}

/// Renders `study` as a Markdown document. `dataset` is the data set
/// the study analyzed, as [`Study::run`] hands it back, or its tables
/// alone, as [`Study::run_file`] hands them back after streaming its
/// input; its stack table renders the patterns, and its streams are not
/// read.
///
/// The `Data set:` line states the size of the study's *input*, from
/// [`Study::coverage`]: for a sanitized study that is the sanitize
/// report's input counts, since the analyzed survivor may be smaller.
pub fn render_markdown(study: &Study, dataset: &Dataset, opts: &ReportOptions) -> String {
    let mut out = String::new();
    let pct = |x: f64| format!("{:.1}%", x * 100.0);

    let cov = &study.coverage;
    let _ = writeln!(out, "# tracelens performance report\n");
    let _ = writeln!(
        out,
        "Data set: {} traces, {} scenario instances, {} events.\n",
        cov.total_traces, cov.total_instances, cov.total_events
    );

    if !cov.is_full() {
        let _ = writeln!(out, "## Coverage\n");
        let _ = writeln!(
            out,
            "This study ran on **sanitized** input: {} of {} instances \
             ({}) and {} of {} traces survived quarantine; {} repairs were \
             applied. All numbers below describe the surviving data only.\n",
            cov.analyzed_instances,
            cov.total_instances,
            pct(cov.fraction()),
            cov.analyzed_traces,
            cov.total_traces,
            cov.repaired
        );
    }

    // Rendered only when something was quarantined, so supervision
    // stays an execution detail of a clean run. Counts that vary across
    // checkpoint resume (restored units) are deliberately absent; the
    // failure list is deterministic.
    let exec = &study.execution;
    if !exec.failures.is_empty() {
        let _ = writeln!(out, "## Execution\n");
        let _ = writeln!(
            out,
            "Supervised execution **quarantined {} work unit{}** \
             ({} scenario instance{} lost); all numbers below describe \
             the work that completed.\n",
            exec.quarantined(),
            if exec.quarantined() == 1 { "" } else { "s" },
            exec.lost_instances(),
            if exec.lost_instances() == 1 { "" } else { "s" },
        );
        let _ = writeln!(out, "| unit | stage | scenario | reason |");
        let _ = writeln!(out, "|---|---|---|---|");
        for f in &exec.failures {
            let _ = writeln!(
                out,
                "| {} | {} | {} | panic: {} |",
                f.unit,
                f.stage,
                f.scenario.as_deref().unwrap_or("–"),
                f.panic
            );
        }
        out.push('\n');
    }

    let _ = writeln!(out, "## Impact analysis (all instances)\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let r = &study.impact;
    let _ = writeln!(out, "| IA_wait | {} |", pct(r.ia_wait()));
    let _ = writeln!(out, "| IA_run | {} |", pct(r.ia_run()));
    let _ = writeln!(out, "| IA_opt | {} |", pct(r.ia_opt()));
    let _ = writeln!(out, "| Dwait/Dwaitdist | {:.2} |", r.wait_amplification());
    let _ = writeln!(out, "| instances | {} |", r.instances);
    out.push('\n');

    let _ = writeln!(out, "## Scenarios\n");
    let _ = writeln!(
        out,
        "| scenario | instances | fast | slow | driver cost (slow) | ITC | TTC | patterns |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for (name, s) in &study.scenarios {
        match &s.causality {
            Ok(c) => {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} |",
                    name,
                    s.impact.instances,
                    c.fast_instances,
                    c.slow_instances,
                    pct(s.slow_impact.component_cost_share()),
                    pct(c.itc()),
                    pct(c.ttc()),
                    c.patterns.len()
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "| {} | {} | – | – | {} | – | – | ({e}) |",
                    name,
                    s.impact.instances,
                    pct(s.slow_impact.component_cost_share()),
                );
            }
        }
    }
    out.push('\n');

    for (name, s) in &study.scenarios {
        let Ok(c) = &s.causality else { continue };
        if c.patterns.is_empty() {
            continue;
        }
        let _ = writeln!(out, "## {name}: top contrast patterns\n");
        for (i, p) in c.top(opts.top_patterns).iter().enumerate() {
            let hi = if p.is_high_impact(c.thresholds.slow()) {
                " — **high impact**"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "**#{}** avg `{}` over {} occurrences (worst `{}`){hi}\n",
                i + 1,
                p.avg_cost(),
                p.n,
                p.c_max
            );
            let _ = writeln!(out, "```");
            let _ = writeln!(out, "{}", p.tuple.render(&dataset.stacks));
            let _ = writeln!(out, "```\n");
        }
        if opts.driver_types {
            let hist = c.driver_type_histogram(&dataset.stacks, 10);
            if !hist.is_empty() {
                let mut row = String::from("driver types in top-10: ");
                let mut first = true;
                for ty in DriverType::ALL {
                    if let Some(n) = hist.get(&ty) {
                        if !first {
                            row.push_str(", ");
                        }
                        let _ = write!(row, "{} ({n})", ty.label());
                        first = false;
                    }
                }
                let _ = writeln!(out, "{row}\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use tracelens_model::ScenarioName;
    use tracelens_obs::Telemetry;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    /// A study of a clone of `ds`, which the tests render against.
    fn run(ds: &Dataset, cfg: &StudyConfig, names: &[ScenarioName]) -> Study {
        let _gate = crate::supervise::tests::batch_gate();
        Study::run(ds.clone(), cfg, names, &Telemetry::noop())
            .expect("study runs")
            .0
    }

    #[test]
    fn report_renders_all_sections() {
        let ds = DatasetBuilder::new(8)
            .traces(40)
            .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
            .build();
        let study = run(
            &ds,
            &StudyConfig::default(),
            &[ScenarioName::new("BrowserTabCreate")],
        );
        let md = render_markdown(&study, &ds, &ReportOptions::default());
        assert!(md.starts_with("# tracelens performance report"));
        assert!(md.contains("## Impact analysis"));
        assert!(md.contains("## Scenarios"));
        assert!(md.contains("IA_wait"));
        assert!(md.contains("BrowserTabCreate"));
        // Pattern section appears when causality succeeded.
        if study.scenarios[&ScenarioName::new("BrowserTabCreate")]
            .causality
            .is_ok()
        {
            assert!(md.contains("top contrast patterns"));
            assert!(md.contains("wait    :"));
        }
        // Markdown tables are well-formed: every table row has the same
        // column count as its header.
        for block in md.split("\n\n") {
            let rows: Vec<&str> = block.lines().filter(|l| l.starts_with('|')).collect();
            if rows.len() >= 2 {
                let cols = rows[0].matches('|').count();
                for r in &rows {
                    assert_eq!(r.matches('|').count(), cols, "ragged row: {r}");
                }
            }
        }
    }

    #[test]
    fn coverage_section_appears_only_for_partial_studies() {
        use tracelens_model::{ScenarioInstance, ThreadId, TimeNs, TraceId};
        let mut ds = DatasetBuilder::new(9).traces(10).build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let full = run(&ds, &StudyConfig::default(), &names);
        let md = render_markdown(&full, &ds, &ReportOptions::default());
        assert!(!md.contains("## Coverage"));

        ds.instances.push(ScenarioInstance {
            trace: TraceId(ds.streams.len() as u32 + 3),
            scenario: ds.scenarios[0].name,
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(1),
        });
        let sanitize = StudyConfig {
            sanitize: true,
            ..StudyConfig::default()
        };
        let partial = run(&ds, &sanitize, &names);
        let md = render_markdown(&partial, &ds, &ReportOptions::default());
        assert!(md.contains("## Coverage"));
        assert!(md.contains("survived quarantine"));
    }

    #[test]
    fn empty_study_still_renders() {
        let ds = tracelens_model::Dataset::new();
        let study = run(&ds, &StudyConfig::default(), &[]);
        let md = render_markdown(&study, &ds, &ReportOptions::default());
        assert!(md.contains("0 traces"));
    }
}
