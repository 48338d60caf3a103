//! Meta-analysis: the wait-graph/impact pipeline pointed at itself.
//!
//! [`SelfObservation::analyze`] lowers recorded
//! [`SelfTraceSession`]s into a data set (see
//! [`tracelens_selftrace::lower`]) and runs the *ordinary* impact
//! machinery over it with `ComponentFilter::suffix(".tl")` — the
//! pipeline's own crates playing the role device drivers play in the
//! paper. The rendered report answers the paper's questions about the
//! analysis pipeline: how much of a run is pipeline code running
//! (IA_run), how much is blocked behind it (IA_wait), and which wait
//! source dominates.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use tracelens_impact::{breakdown, Breakdown, ImpactAnalyzer, ImpactReport};
use tracelens_model::{ComponentFilter, Dataset, TimeNs};
use tracelens_selftrace::{lower, SelfTraceSession, SessionStats};

/// The self-observation results: one ordinary impact analysis (plus
/// per-module slices and a time breakdown) over the pipeline's own
/// lowered execution traces.
#[derive(Debug, Clone)]
pub struct SelfObservation {
    /// The lowered data set (one stream per recorded session).
    pub dataset: Dataset,
    /// Per-session aggregates from the lowering.
    pub stats: Vec<SessionStats>,
    /// Impact of all `.tl` components over all sessions.
    pub overall: ImpactReport,
    /// Impact sliced per synthetic module (`impact.tl`, `pool.tl`, …) —
    /// the per-stage IA_wait/IA_run table.
    pub per_module: Vec<(String, ImpactReport)>,
    /// Where the time goes: CPU vs wait, per module.
    pub breakdown: Breakdown,
}

impl SelfObservation {
    /// Lowers `sessions` and runs the impact pipeline over the result.
    pub fn analyze(sessions: &[SelfTraceSession]) -> SelfObservation {
        let lowered = lower(sessions);
        let dataset = lowered.dataset;
        let filter = ComponentFilter::suffix(".tl");
        let overall = ImpactAnalyzer::new(filter.clone()).analyze(&dataset);

        // Every synthetic module present in the stack table gets its own
        // impact slice — components here are the pipeline's crates.
        let mut modules: BTreeSet<String> = BTreeSet::new();
        for (_, text) in dataset.stacks.symbols().iter() {
            if let Some(module) = tracelens_model::Signature::module_of(text) {
                if module.ends_with(".tl") {
                    modules.insert(module.to_string());
                }
            }
        }
        let per_module = modules
            .into_iter()
            .map(|m| {
                let report =
                    ImpactAnalyzer::new(ComponentFilter::names([m.as_str()])).analyze(&dataset);
                (m, report)
            })
            .collect();

        let breakdown = breakdown(&dataset, &filter, |_| true);
        SelfObservation {
            dataset,
            stats: lowered.stats,
            overall,
            per_module,
            breakdown,
        }
    }

    /// The wait point that cost the most blocked time across all
    /// sessions, with its total, if any wait completed.
    pub fn dominant_wait_source(&self) -> Option<(String, u64)> {
        let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for s in &self.stats {
            for (name, ns) in &s.wait_ns_by_name {
                *totals.entry(name.as_str()).or_insert(0) += ns;
            }
        }
        totals
            .into_iter()
            .max_by_key(|&(_, ns)| ns)
            .map(|(name, ns)| (name.to_string(), ns))
    }

    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let pct = |x: f64| format!("{:.1}%", 100.0 * x);
        let ms = |ns: u64| format!("{:.3} ms", ns as f64 / 1e6);

        let _ = writeln!(out, "# Self-observation report");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "The analysis pipeline, traced in the paper's event shape and \
             analyzed by its own wait-graph impact machinery \
             (components = `*.tl`, the pipeline's crates)."
        );
        let _ = writeln!(out);

        let _ = writeln!(out, "## Sessions");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| session | wall | busy | waits | recorder lock | queue wait | events |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for s in &self.stats {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                s.label,
                ms(s.duration_ns),
                ms(s.busy_ns()),
                ms(s.wait_ns()),
                ms(s.lock_wait_ns),
                ms(s.queue_wait_ns),
                s.raw_events,
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Worker streams");
        let _ = writeln!(out);
        let _ = writeln!(out, "| session | thread | busy |");
        let _ = writeln!(out, "|---|---|---|");
        for s in &self.stats {
            for (&vtid, &busy) in &s.busy_ns_by_thread {
                let name = match vtid {
                    1 => "main".to_string(),
                    v if v >= 1000 => format!("thread-{v}"),
                    v => format!("worker-{}", v - 2),
                };
                let _ = writeln!(out, "| {} | {} | {} |", s.label, name, ms(busy));
            }
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Pipeline impact (all `.tl` components)");
        let _ = writeln!(out);
        let _ = writeln!(out, "| metric | value |");
        let _ = writeln!(out, "|---|---|");
        let _ = writeln!(out, "| sessions (instances) | {} |", self.overall.instances);
        let _ = writeln!(out, "| D_scn | {} |", self.overall.d_scn);
        let _ = writeln!(out, "| D_run | {} |", self.overall.d_run);
        let _ = writeln!(out, "| D_wait | {} |", self.overall.d_wait);
        let _ = writeln!(out, "| IA_run | {} |", pct(self.overall.ia_run()));
        let _ = writeln!(out, "| IA_wait | {} |", pct(self.overall.ia_wait()));
        let _ = writeln!(out, "| IA_opt | {} |", pct(self.overall.ia_opt()));
        let _ = writeln!(out);

        let _ = writeln!(out, "## Per-stage impact");
        let _ = writeln!(out);
        let _ = writeln!(out, "| component | IA_run | IA_wait | D_run | D_wait |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for (module, r) in &self.per_module {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                module,
                pct(r.ia_run()),
                pct(r.ia_wait()),
                r.d_run,
                r.d_wait,
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Wait sources");
        let _ = writeln!(out);
        let _ = writeln!(out, "| wait point | blocked |");
        let _ = writeln!(out, "|---|---|");
        let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for s in &self.stats {
            for (name, ns) in &s.wait_ns_by_name {
                *totals.entry(name.as_str()).or_insert(0) += ns;
            }
        }
        for (name, ns) in &totals {
            let _ = writeln!(out, "| {name} | {} |", ms(*ns));
        }
        if let Some((name, ns)) = self.dominant_wait_source() {
            let _ = writeln!(out);
            let _ = writeln!(out, "Dominant wait source: **{name}** ({}).", ms(ns));
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Time breakdown");
        let _ = writeln!(out);
        let _ = writeln!(out, "| bucket | time | share |");
        let _ = writeln!(out, "|---|---|---|");
        let total = self.breakdown.total.max(TimeNs(1));
        let row =
            |label: &str, t: TimeNs| format!("| {label} | {t} | {:.1}% |", 100.0 * t.ratio(total));
        let _ = writeln!(out, "{}", row("runtime CPU", self.breakdown.app_cpu));
        let _ = writeln!(out, "{}", row("pipeline CPU", self.breakdown.component_cpu));
        let _ = writeln!(
            out,
            "{}",
            row("pipeline wait", self.breakdown.component_wait())
        );
        let _ = writeln!(out, "{}", row("unattributed", self.breakdown.unattributed));
        for (module, t) in self.breakdown.ranked_modules() {
            let _ = writeln!(out, "{}", row(&format!("wait in {module}"), t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Study, StudyConfig};
    use tracelens_model::ScenarioName;
    use tracelens_selftrace::SelfTraceSink;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn observed_run(jobs: usize) -> SelfObservation {
        let ds = DatasetBuilder::new(21)
            .traces(10)
            .mix(ScenarioMix::Selected)
            .build();
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        let config = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        let sink = SelfTraceSink::new();
        Study::run(&ds, &config, &names, &sink.telemetry()).expect("study runs");
        SelfObservation::analyze(&[SelfTraceSession::new(
            format!("jobs={jobs}"),
            sink.recording(),
        )])
    }

    #[test]
    fn self_observation_is_non_empty_and_valid() {
        let obs = observed_run(2);
        obs.dataset.validate().expect("self dataset validates");
        assert!(obs.overall.d_scn > TimeNs(0), "observed no time at all");
        assert!(
            obs.overall.ia_run() + obs.overall.ia_wait() > 0.0,
            "pipeline impact must be visible in its own trace"
        );
        assert!(!obs.per_module.is_empty(), "no .tl modules seen");
        assert!(obs
            .per_module
            .iter()
            .any(|(m, _)| m == "impact.tl" || m == "core.tl"));
    }

    #[test]
    fn parallel_run_reports_join_waits() {
        let obs = observed_run(2);
        let (name, ns) = obs.dominant_wait_source().expect("a wait was recorded");
        assert!(ns > 0);
        assert!(
            name == "pool.join" || name == "obs.lock",
            "unexpected dominant wait {name}"
        );
        let md = obs.to_markdown();
        assert!(md.contains("IA_wait"));
        assert!(md.contains("## Per-stage impact"));
        assert!(md.contains("worker-0"), "worker stream missing:\n{md}");
    }
}
