//! Regression detection across data sets.
//!
//! Contrast data mining needs only two classes with a performance gap —
//! nothing restricts them to fast/slow *within* one data set. This
//! module points the same machinery across *builds* (or deployments, or
//! weeks): the baseline data set plays the fast class, the candidate
//! data set the slow class, and the mined contrasts are the behaviors
//! that appeared or got drastically more expensive — performance
//! regressions, in the paper's own vocabulary.
//!
//! Because the two data sets have independent stack tables, patterns are
//! compared and reported by their *rendered signature text*, which is
//! stable across interners.

use crate::aggregate::Aggregator;
use crate::classes::split_classes;
use crate::segments::enumerate_meta_patterns;
use crate::tuple::SignatureSetTuple;
use std::collections::BTreeSet;
use std::collections::HashMap;
use tracelens_model::{ComponentFilter, Dataset, ScenarioName, StackTable, TimeNs, TraceId};
use tracelens_waitgraph::{StreamIndex, WaitGraph};

/// One regressed behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Wait signatures (rendered), sorted.
    pub wait: Vec<String>,
    /// Unwait signatures (rendered), sorted.
    pub unwait: Vec<String>,
    /// Running signatures (rendered), sorted.
    pub running: Vec<String>,
    /// Average cost in the baseline (`None` if the behavior is new).
    pub baseline_avg: Option<TimeNs>,
    /// Average cost in the candidate.
    pub candidate_avg: TimeNs,
    /// Occurrences in the candidate.
    pub candidate_n: u64,
}

impl Regression {
    /// The cost growth factor (`f64::INFINITY` for new behaviors).
    pub fn factor(&self) -> f64 {
        match self.baseline_avg {
            None => f64::INFINITY,
            Some(b) if b.as_nanos() == 0 => f64::INFINITY,
            Some(b) => self.candidate_avg.as_nanos() as f64 / b.as_nanos() as f64,
        }
    }

    /// Whether the behavior is absent from the baseline.
    pub fn is_new(&self) -> bool {
        self.baseline_avg.is_none()
    }

    /// Renders the three-line tuple.
    pub fn render(&self) -> String {
        format!(
            "wait    : {{{}}}\nunwait  : {{{}}}\nrunning : {{{}}}",
            self.wait.join(", "),
            self.unwait.join(", "),
            self.running.join(", ")
        )
    }
}

/// Configuration for [`find_regressions`].
#[derive(Debug, Clone)]
pub struct RegressionConfig {
    /// Components under analysis.
    pub components: ComponentFilter,
    /// Segment bound `k`.
    pub segment_bound: usize,
    /// Minimum growth factor for a common behavior to count as regressed.
    pub min_factor: f64,
    /// Minimum candidate average cost (filters noise).
    pub min_avg: TimeNs,
}

impl Default for RegressionConfig {
    fn default() -> Self {
        RegressionConfig {
            components: ComponentFilter::suffix(".sys"),
            segment_bound: crate::DEFAULT_SEGMENT_BOUND,
            min_factor: 2.0,
            min_avg: TimeNs::from_millis(5),
        }
    }
}

/// Finds regressed behaviors of `scenario` between two data sets
/// (typically: the previous build's traces vs. the current build's).
///
/// Only *slow-class* instances of each data set are compared — both
/// corpora contain healthy runs, and comparing the pathological tails is
/// what surfaces what changed. If a data set has no slow instances, its
/// whole instance population is used instead.
///
/// Results are sorted by candidate average cost, highest first.
pub fn find_regressions(
    baseline: &Dataset,
    candidate: &Dataset,
    scenario: &ScenarioName,
    config: &RegressionConfig,
) -> Vec<Regression> {
    let base_metas = rendered_metas(baseline, scenario, config);
    let cand_metas = rendered_metas(candidate, scenario, config);

    let mut out = Vec::new();
    for (key, (c_avg, c_n)) in &cand_metas {
        if *c_avg < config.min_avg {
            continue;
        }
        let baseline_avg = base_metas.get(key).map(|&(avg, _)| avg);
        let regressed = match baseline_avg {
            None => true,
            Some(b) => {
                b.as_nanos() == 0
                    || c_avg.as_nanos() as f64 / b.as_nanos() as f64 > config.min_factor
            }
        };
        if regressed {
            out.push(Regression {
                wait: key.0.iter().cloned().collect(),
                unwait: key.1.iter().cloned().collect(),
                running: key.2.iter().cloned().collect(),
                baseline_avg,
                candidate_avg: *c_avg,
                candidate_n: *c_n,
            });
        }
    }
    out.sort_by(|a, b| {
        b.candidate_avg
            .cmp(&a.candidate_avg)
            .then_with(|| a.wait.cmp(&b.wait))
    });
    out
}

type RenderedKey = (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>);

/// Enumerates the scenario's slow-class meta-patterns keyed by rendered
/// signature text: `(avg cost, occurrences)` per tuple.
fn rendered_metas(
    dataset: &Dataset,
    scenario: &ScenarioName,
    config: &RegressionConfig,
) -> HashMap<RenderedKey, (TimeNs, u64)> {
    let mut metas = HashMap::new();
    let Some(split) = split_classes(dataset, scenario) else {
        return metas;
    };
    let instances: Vec<_> = if split.slow.is_empty() {
        dataset.instances_of(scenario).collect()
    } else {
        split.slow
    };
    let mut agg = Aggregator::new(&dataset.stacks, &config.components);
    // Consecutive instances on one stream share its index.
    let mut indexed: Option<(TraceId, StreamIndex)> = None;
    for instance in instances {
        let Some(stream) = dataset.stream_of(instance) else {
            continue;
        };
        if indexed.as_ref().is_none_or(|(t, _)| *t != instance.trace) {
            indexed = Some((instance.trace, StreamIndex::new(stream)));
        }
        let (_, index) = indexed.as_ref().expect("indexed above");
        agg.add_graph(&WaitGraph::build(stream, index, instance));
    }
    let awg = agg.finish();
    for (tuple, m) in enumerate_meta_patterns(&awg, config.segment_bound) {
        let key = render_key(&tuple, &dataset.stacks);
        let entry = metas.entry(key).or_insert((TimeNs::ZERO, 0u64));
        // Merge same-text tuples conservatively: keep the larger average.
        if m.avg() > entry.0 {
            entry.0 = m.avg();
        }
        entry.1 += m.n;
    }
    metas
}

fn render_key(tuple: &SignatureSetTuple, stacks: &StackTable) -> RenderedKey {
    let render = |set: &std::collections::BTreeSet<tracelens_model::Symbol>| {
        set.iter()
            .filter_map(|&s| stacks.symbols().resolve(s).map(str::to_owned))
            .collect::<BTreeSet<String>>()
    };
    (
        render(&tuple.wait),
        render(&tuple.unwait),
        render(&tuple.running),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn dataset(seed: u64, scenario: &str) -> Dataset {
        DatasetBuilder::new(seed)
            .traces(40)
            .mix(ScenarioMix::Only(vec![scenario.into()]))
            .build()
    }

    #[test]
    fn identical_datasets_have_no_regressions() {
        let a = dataset(5, "BrowserTabCreate");
        let b = dataset(5, "BrowserTabCreate");
        let regs = find_regressions(
            &a,
            &b,
            &ScenarioName::new("BrowserTabCreate"),
            &RegressionConfig::default(),
        );
        assert!(
            regs.is_empty(),
            "identical corpora: {} regressions",
            regs.len()
        );
    }

    #[test]
    fn new_problem_class_is_detected() {
        // Baseline: MenuDisplay (network problems). Candidate: the same
        // scenario *plus* an injected population with BrowserTabCreate's
        // filesystem chains — emulated by comparing MenuDisplay against
        // BrowserTabCreate under the BrowserTabCreate scenario name...
        // Simplest honest setup: different seeds draw different problem
        // mixes; a seed whose candidate hits chains the baseline never
        // saw must flag them as new.
        let baseline = dataset(11, "AppAccessControl");
        let candidate = dataset(12, "AppAccessControl");
        let regs = find_regressions(
            &baseline,
            &candidate,
            &ScenarioName::new("AppAccessControl"),
            &RegressionConfig::default(),
        );
        // Same generator ⇒ same behavior families; any detected entries
        // must at least be well-formed and sorted.
        for w in regs.windows(2) {
            assert!(w[0].candidate_avg >= w[1].candidate_avg);
        }
        for r in &regs {
            assert!(r.candidate_avg >= RegressionConfig::default().min_avg);
            assert!(r.factor() > 2.0 || r.is_new());
            assert!(!r.render().is_empty());
        }
    }

    #[test]
    fn cross_scenario_comparison_flags_new_chains() {
        // Pretend the "new build" changed MenuDisplay to hit filesystem
        // chains: compare MenuDisplay (baseline) against a tab-create
        // workload relabeled as the same scenario. MenuDisplay itself
        // issues quick `fv.sys` file-table queries, so those tuples are
        // NOT new — but the encrypted-read chains (`fs.sys!Read` waiting
        // behind `se.sys!ReadDecrypt`) exist only in the tab-create
        // workload and must be flagged as new.
        let baseline = dataset(21, "MenuDisplay");
        let mut candidate = dataset(22, "BrowserTabCreate");
        for i in &mut candidate.instances {
            i.scenario = ScenarioName::new("MenuDisplay");
        }
        candidate.scenarios[0].name = ScenarioName::new("MenuDisplay");
        let regs = find_regressions(
            &baseline,
            &candidate,
            &ScenarioName::new("MenuDisplay"),
            &RegressionConfig::default(),
        );
        assert!(!regs.is_empty(), "expected new behaviors");
        let text: String = regs.iter().map(|r| r.render()).collect();
        assert!(
            text.contains("se.sys!ReadDecrypt"),
            "encrypted-read chains must be flagged: {text}"
        );
        assert!(
            regs.iter()
                .any(|r| r.is_new() && r.wait.iter().any(|w| w.contains("fs.sys!Read"))),
            "fs.sys!Read waits must be flagged as new"
        );
        assert!(regs.iter().any(|r| r.is_new()));
    }
}
