//! Pattern drill-down: from a mined pattern back to concrete incidents.
//!
//! The paper's analysts use a discovered pattern in two ways (§2.3): as
//! a clue for similar future cases, and as a guide "to realize the
//! concrete performance incident by investigating a specific trace
//! stream". This module implements the second: given a
//! [`SignatureSetTuple`], find the scenario instances whose Wait Graphs
//! actually exhibit it, with the concrete chain duration per incident.

use crate::aggregate::Aggregator;
use crate::tuple::SignatureSetTuple;
use tracelens_model::{ComponentFilter, Dataset, ScenarioInstance, ScenarioName, TimeNs};
use tracelens_obs::Telemetry;
use tracelens_waitgraph::{StreamGraph, StreamIndex};

/// One concrete occurrence of a pattern in a scenario instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSite {
    /// The instance exhibiting the pattern.
    pub instance: ScenarioInstance,
    /// Duration of the chain's root node in this instance — the concrete
    /// delay the pattern explains here.
    pub root_duration: TimeNs,
    /// The exact tuple of the matching path (a superset of the queried
    /// pattern: the incident may involve additional signatures).
    pub tuple: SignatureSetTuple,
}

/// Finds the instances of `scenario` whose Wait Graphs contain `pattern`
/// (component-wise containment on some root→leaf path), sorted by root
/// duration, longest first.
///
/// Each instance is reported at most once, with its longest matching
/// chain. `filter` selects the components under analysis, as in the
/// mining run that produced the pattern.
pub fn locate_pattern(
    dataset: &Dataset,
    scenario: &ScenarioName,
    pattern: &SignatureSetTuple,
    filter: &ComponentFilter,
) -> Vec<PatternSite> {
    let mut sites = Vec::new();
    for stream in &dataset.streams {
        let instances: Vec<&ScenarioInstance> = dataset
            .instances
            .iter()
            .filter(|i| i.trace == stream.id() && &i.scenario == scenario)
            .collect();
        if instances.is_empty() {
            continue;
        }
        let index = StreamIndex::new(stream);
        let graph = StreamGraph::build(stream, &index, &instances, &Telemetry::noop());
        for (k, instance) in instances.into_iter().enumerate() {
            // Aggregate this single graph to reuse the path/tuple logic.
            let mut agg = Aggregator::new(&dataset.stacks, filter);
            agg.add_view(graph.instance(k));
            let awg = agg.finish_unreduced();
            let mut best: Option<(TimeNs, SignatureSetTuple)> = None;
            for id in awg.preorder() {
                if !awg.node(id).is_leaf() {
                    continue;
                }
                let path = awg.path_to(id);
                let tuple = SignatureSetTuple::of_segment(&awg, &path);
                if !tuple.contains(pattern) {
                    continue;
                }
                let root = awg.node(path[0]);
                if best.as_ref().map(|(d, _)| root.c > *d).unwrap_or(true) {
                    best = Some((root.c, tuple));
                }
            }
            if let Some((root_duration, tuple)) = best {
                sites.push(PatternSite {
                    instance: (*instance).clone(),
                    root_duration,
                    tuple,
                });
            }
        }
    }
    sites.sort_by(|a, b| {
        b.root_duration
            .cmp(&a.root_duration)
            .then_with(|| a.instance.trace.cmp(&b.instance.trace))
            .then_with(|| a.instance.tid.cmp(&b.instance.tid))
    });
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CausalityAnalysis;
    use tracelens_sim::{DatasetBuilder, ScenarioMix};

    fn dataset() -> Dataset {
        DatasetBuilder::new(321)
            .traces(50)
            .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
            .build()
    }

    #[test]
    fn top_pattern_locates_slow_instances() {
        let ds = dataset();
        let name = ScenarioName::new("BrowserTabCreate");
        let report = CausalityAnalysis::default().analyze(&ds, &name).unwrap();
        let top = report.patterns.first().expect("patterns found");
        let filter = ComponentFilter::suffix(".sys");
        let sites = locate_pattern(&ds, &name, &top.tuple, &filter);
        assert!(!sites.is_empty(), "top pattern must be locatable");
        // Sites are sorted by root duration, longest first.
        for w in sites.windows(2) {
            assert!(w[0].root_duration >= w[1].root_duration);
        }
        // Each site's tuple contains the queried pattern.
        for s in &sites {
            assert!(s.tuple.contains(&top.tuple));
            assert_eq!(s.instance.scenario, name);
        }
        // Occurrence counts line up: N merged occurrences came from at
        // most N distinct instances (each contributes ≥ 1).
        assert!(sites.len() as u64 <= top.n.max(1) * 2);
    }

    #[test]
    fn nonexistent_pattern_finds_nothing() {
        let ds = dataset();
        let name = ScenarioName::new("BrowserTabCreate");
        // A pattern with a fresh, never-interned symbol cannot match.
        let mut tuple = SignatureSetTuple::default();
        tuple.wait.insert(tracelens_model::Symbol(u32::MAX - 1));
        let filter = ComponentFilter::suffix(".sys");
        assert!(locate_pattern(&ds, &name, &tuple, &filter).is_empty());
    }

    #[test]
    fn empty_pattern_matches_everything_with_driver_chains() {
        let ds = dataset();
        let name = ScenarioName::new("BrowserTabCreate");
        let filter = ComponentFilter::suffix(".sys");
        let sites = locate_pattern(&ds, &name, &SignatureSetTuple::default(), &filter);
        // Every instance with at least one driver-relevant node matches.
        assert!(!sites.is_empty());
        let count = ds.instances_of(&name).count();
        assert!(sites.len() <= count);
    }
}
