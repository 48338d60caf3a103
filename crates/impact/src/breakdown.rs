//! Per-module time attribution: where a scenario's time goes.
//!
//! Impact analysis answers "how much do the chosen components matter";
//! this module answers the analyst's follow-up — *which* modules carry
//! the waiting. Instance time is split into application CPU, per-module
//! top-level component waits, component CPU, and the unattributed
//! remainder (scheduling gaps, app-level waits).

use std::collections::BTreeMap;
use tracelens_model::{ComponentFilter, Dataset, ScenarioInstance, Signature, StackTable, TimeNs};
use tracelens_obs::Telemetry;
use tracelens_waitgraph::{GraphView, NodeKind, StreamGraph, StreamIndex};

/// Aggregated attribution over a set of instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Total instance time (`D_scn` of the selection).
    pub total: TimeNs,
    /// CPU samples of initiating threads with no component frame.
    pub app_cpu: TimeNs,
    /// CPU samples (anywhere in the graphs) with a component frame.
    pub component_cpu: TimeNs,
    /// Top-level component wait time, attributed to the *module* of the
    /// wait's topmost component signature.
    pub wait_by_module: BTreeMap<String, TimeNs>,
    /// Instance time not covered by the above (app-level waits,
    /// idle gaps).
    pub unattributed: TimeNs,
    /// Instances analyzed.
    pub instances: usize,
}

impl Breakdown {
    /// Total component wait time across modules.
    pub fn component_wait(&self) -> TimeNs {
        self.wait_by_module.values().copied().sum()
    }

    /// Modules ranked by attributed wait time, highest first.
    pub fn ranked_modules(&self) -> Vec<(&str, TimeNs)> {
        let mut rows: Vec<(&str, TimeNs)> = self
            .wait_by_module
            .iter()
            .map(|(m, &t)| (m.as_str(), t))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }
}

/// Computes the attribution for the instances selected by `keep`.
///
/// Per instance: its duration joins `total`; root running samples split
/// into app vs component CPU by their callstack; top-level component
/// waits (same rule as [`crate::ImpactAnalyzer`]) are attributed to the
/// module of their topmost matching frame; whatever duration remains
/// (relative to the instance duration) is `unattributed`. Component CPU
/// below wait chains is counted in `component_cpu` but not subtracted
/// from module waits (it executes *inside* them).
pub fn breakdown<F>(dataset: &Dataset, filter: &ComponentFilter, keep: F) -> Breakdown
where
    F: Fn(&ScenarioInstance) -> bool,
{
    let mut out = Breakdown::default();
    for stream in &dataset.streams {
        let instances: Vec<&ScenarioInstance> = dataset
            .instances
            .iter()
            .filter(|i| i.trace == stream.id() && keep(i))
            .collect();
        if instances.is_empty() {
            continue;
        }
        let index = StreamIndex::new(stream);
        let graph = StreamGraph::build(stream, &index, &instances, &Telemetry::noop());
        for (k, instance) in instances.into_iter().enumerate() {
            out.total += instance.duration();
            out.instances += 1;
            let mut covered = TimeNs::ZERO;
            account(
                graph.instance(k),
                &dataset.stacks,
                filter,
                &mut out,
                &mut covered,
            );
            out.unattributed += instance
                .duration()
                .checked_sub(covered)
                .unwrap_or(TimeNs::ZERO);
        }
    }
    out
}

fn account(
    graph: GraphView<'_>,
    stacks: &StackTable,
    filter: &ComponentFilter,
    out: &mut Breakdown,
    covered: &mut TimeNs,
) {
    // Roots: initiating-thread events. `covered` counts the root-level
    // durations that the breakdown attributes.
    let mut todo: Vec<(tracelens_waitgraph::NodeId, bool, bool)> =
        graph.roots().iter().map(|&r| (r, true, false)).collect();
    while let Some((id, is_root, under)) = todo.pop() {
        let node = graph.node(id);
        let mut now_under = under;
        match node.kind {
            NodeKind::Running => {
                let component = stacks.top_component_symbol(node.stack, filter).is_some();
                if component {
                    out.component_cpu += node.duration;
                } else if is_root {
                    out.app_cpu += node.duration;
                }
                if is_root {
                    *covered += node.duration;
                }
            }
            NodeKind::Wait { .. } | NodeKind::UnpairedWait => {
                if is_root {
                    *covered += node.duration;
                }
                if !under {
                    if let Some(sym) = stacks.top_component_symbol(node.stack, filter) {
                        let module = stacks
                            .symbols()
                            .resolve(sym)
                            .and_then(Signature::module_of)
                            .unwrap_or("?")
                            .to_owned();
                        *out.wait_by_module.entry(module).or_insert(TimeNs::ZERO) += node.duration;
                        now_under = true;
                    }
                }
            }
            NodeKind::Hardware => {}
        }
        for &c in graph.children_of(node) {
            todo.push((c, false, now_under));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{ScenarioName, ThreadId, TraceId, TraceStreamBuilder};

    fn fixture() -> Dataset {
        let mut ds = Dataset::new();
        let app = ds.stacks.intern_symbols(&["app!Main"]);
        let fv =
            ds.stacks
                .intern_symbols(&["app!Main", "fv.sys!QueryFileTable", "kernel!AcquireLock"]);
        let se_run = ds.stacks.intern_symbols(&["w!W", "se.sys!ReadDecrypt"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), app); // app cpu 10
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, fv); // fv wait 30
        b.push_running(ThreadId(2), TimeNs(10), TimeNs(30), se_run); // se cpu 30
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(40), se_run);
        b.push_running(ThreadId(1), TimeNs(40), TimeNs(5), app); // app cpu 5
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(50),
        });
        ds
    }

    #[test]
    fn attribution_splits_as_expected() {
        let ds = fixture();
        let b = breakdown(&ds, &ComponentFilter::suffix(".sys"), |_| true);
        assert_eq!(b.instances, 1);
        assert_eq!(b.total, TimeNs(50));
        assert_eq!(b.app_cpu, TimeNs(15));
        assert_eq!(b.component_cpu, TimeNs(30));
        assert_eq!(b.wait_by_module.len(), 1);
        assert_eq!(b.wait_by_module["fv.sys"], TimeNs(30));
        assert_eq!(b.component_wait(), TimeNs(30));
        // covered = 10 + 30 + 5 = 45 of 50 → 5 unattributed.
        assert_eq!(b.unattributed, TimeNs(5));
        let ranked = b.ranked_modules();
        assert_eq!(ranked[0], ("fv.sys", TimeNs(30)));
    }

    #[test]
    fn empty_selection_is_zero() {
        let ds = fixture();
        let b = breakdown(&ds, &ComponentFilter::suffix(".sys"), |_| false);
        assert_eq!(b, Breakdown::default());
    }

    #[test]
    fn modules_accumulate_across_instances() {
        let mut ds = fixture();
        // Second instance on the same stream, waiting in fs.sys.
        let fs = ds
            .stacks
            .intern_symbols(&["app!W", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let mut b = TraceStreamBuilder::new(1);
        b.push_wait(ThreadId(3), TimeNs(0), TimeNs::ZERO, fs);
        b.push_unwait(ThreadId(9), ThreadId(3), TimeNs(20), fs);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(1),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(3),
            t0: TimeNs(0),
            t1: TimeNs(25),
        });
        let b = breakdown(&ds, &ComponentFilter::suffix(".sys"), |_| true);
        assert_eq!(b.instances, 2);
        assert_eq!(b.wait_by_module.len(), 2);
        assert_eq!(b.wait_by_module["fs.sys"], TimeNs(20));
        assert_eq!(b.wait_by_module["fv.sys"], TimeNs(30));
    }
}
