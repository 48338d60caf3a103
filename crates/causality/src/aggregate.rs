//! Algorithm 1: aggregating Wait Graphs into an Aggregated Wait Graph.

use crate::awg::{AggregatedWaitGraph, AwgId, AwgKey, AwgNode, InstanceTag, MAX_EXAMPLES};
use tracelens_model::{ComponentFilter, FilterView, StackTable, Symbol, TimeNs};
use tracelens_waitgraph::{GraphView, NodeId, NodeKind, WaitGraph};

/// Builds an [`AggregatedWaitGraph`] from many Wait Graphs of the same
/// scenario class (paper Algorithm 1).
///
/// Per source graph:
/// 1. *Eliminate component-irrelevant roots*: roots whose callstack holds
///    no signature of the chosen components are dropped and their
///    children promoted, repeatedly, until all roots are relevant.
/// 2. *Merge wait/unwait pairs*: each wait node becomes a waiting node
///    keyed by its wait and unwait signatures (the Wait Graph already
///    carries the pairing).
/// 3. *Aggregate by common signature prefix*: the source tree is merged
///    into the AWG trie; two nodes coincide exactly when their key paths
///    from the root are equal.
///
/// After all graphs are added, [`Aggregator::finish`] applies the
/// *non-optimizable reduction*: root waiting nodes pointing to a single
/// hardware-service leaf are pruned (direct hardware interaction without
/// cost propagation — nothing a developer can optimize).
#[derive(Debug)]
pub struct Aggregator<'a> {
    stacks: &'a StackTable,
    view: FilterView,
    awg: AggregatedWaitGraph,
    current_tag: Option<InstanceTag>,
}

impl<'a> Aggregator<'a> {
    /// Creates an aggregator for the chosen components.
    ///
    /// The filter is precomputed into a [`FilterView`] up front, so the
    /// per-node signature lookups during aggregation are array indexes
    /// rather than glob matches.
    pub fn new(stacks: &'a StackTable, filter: &ComponentFilter) -> Self {
        Aggregator {
            stacks,
            view: stacks.filter_view(filter),
            awg: AggregatedWaitGraph::default(),
            current_tag: None,
        }
    }

    /// [`Aggregator::add_view_tagged`] of a whole [`WaitGraph`].
    pub fn add_graph_tagged(&mut self, graph: &WaitGraph, tag: InstanceTag) {
        self.add_view_tagged(graph.view(), tag);
    }

    /// [`Aggregator::add_view`] of a whole [`WaitGraph`].
    pub fn add_graph(&mut self, graph: &WaitGraph) {
        self.add_view(graph.view());
    }

    /// Adds one scenario instance's Wait Graph to the aggregate,
    /// recording `tag` as an example on every aggregated node it touches
    /// (up to [`MAX_EXAMPLES`] per node).
    pub fn add_view_tagged(&mut self, graph: GraphView<'_>, tag: InstanceTag) {
        self.current_tag = Some(tag);
        self.add_view(graph);
        self.current_tag = None;
    }

    /// Adds one scenario instance's Wait Graph to the aggregate.
    pub fn add_view(&mut self, graph: GraphView<'_>) {
        self.awg.source_graphs += 1;
        let mut relevant_roots = Vec::new();
        for &r in graph.roots() {
            self.collect_relevant_roots(graph, r, &mut relevant_roots);
        }
        self.insert_children(None, graph, &relevant_roots);
    }

    /// Seals the aggregate *without* the non-optimizable reduction
    /// (ablation support; the paper always reduces).
    pub fn finish_unreduced(self) -> AggregatedWaitGraph {
        self.awg
    }

    /// Seals the aggregate, applying the non-optimizable reduction.
    pub fn finish(mut self) -> AggregatedWaitGraph {
        let mut kept = Vec::new();
        let mut reduced = TimeNs::ZERO;
        for &root in &self.awg.roots {
            let node = self.awg.node(root);
            let prune = node.key.is_waiting()
                && node.children.len() == 1
                && self.awg.node(node.children[0]).key.is_hardware()
                && self.awg.node(node.children[0]).is_leaf();
            if prune {
                reduced += node.c;
            } else {
                kept.push(root);
            }
        }
        self.awg.roots = kept;
        self.awg.reduced_time = reduced;
        self.awg
    }

    /// Descends through component-irrelevant roots, collecting the first
    /// relevant node on each path (Algorithm 1, lines 3–8).
    fn collect_relevant_roots(&self, graph: GraphView<'_>, id: NodeId, out: &mut Vec<NodeId>) {
        let node = graph.node(id);
        if self.view.contains_component(node.stack) {
            out.push(id);
        } else {
            for &c in graph.children_of(node) {
                self.collect_relevant_roots(graph, c, out);
            }
        }
    }

    /// The node's characterizing signature: the topmost component
    /// signature on the stack if present, otherwise the innermost frame.
    fn signature_of(&self, stack: tracelens_model::StackId) -> Option<Symbol> {
        self.view
            .top_component_symbol(stack)
            .or_else(|| self.stacks.frames(stack).last().copied())
    }

    fn key_of(&self, graph: GraphView<'_>, id: NodeId) -> Option<AwgKey> {
        let node = graph.node(id);
        match node.kind {
            NodeKind::Running => Some(AwgKey::Running {
                r: self.signature_of(node.stack)?,
            }),
            NodeKind::Hardware => Some(AwgKey::Hardware {
                h: self.stacks.frames(node.stack).last().copied()?,
            }),
            NodeKind::Wait { unwait_stack, .. } => Some(AwgKey::Waiting {
                w: self.signature_of(node.stack)?,
                u: self.signature_of(unwait_stack),
            }),
            NodeKind::UnpairedWait => Some(AwgKey::Waiting {
                w: self.signature_of(node.stack)?,
                u: None,
            }),
        }
    }

    /// Inserts a sibling list under `parent`, coalescing runs of
    /// consecutive running nodes with the same signature into a single
    /// aggregated execution — the "aggregated running in the same
    /// signature function" of the paper's Figure 2. Without this, every
    /// 1 ms CPU sample would count as one occurrence, flooding `v.N` and
    /// flattening the ranking's average costs.
    ///
    /// A [`tracelens_waitgraph::StreamGraph`] already merges each run of
    /// consecutive running siblings with one stack into one node with
    /// the summed duration. Such a run always lies inside one maximal
    /// run of equal keys here: one stack gives one key, and whether a
    /// root is relevant depends only on its stack, so the run's nodes
    /// stay adjacent in the relevant-root list too. Each maximal run
    /// therefore has the same sum, and records once, in either graph
    /// form, and the AWG comes out the same node for node.
    fn insert_children(&mut self, parent: Option<AwgId>, graph: GraphView<'_>, ids: &[NodeId]) {
        let mut i = 0;
        while i < ids.len() {
            let id = ids[i];
            let Some(key) = self.key_of(graph, id) else {
                i += 1;
                continue;
            };
            let node = graph.node(id);
            if matches!(node.kind, NodeKind::Running) {
                // Coalesce the maximal run of equal-signature samples.
                let mut duration = node.duration;
                let mut j = i + 1;
                while j < ids.len() {
                    let next = graph.node(ids[j]);
                    if matches!(next.kind, NodeKind::Running)
                        && self.key_of(graph, ids[j]) == Some(key)
                    {
                        duration += next.duration;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let awg_id = self.find_or_create(parent, key);
                self.record(awg_id, duration);
                i = j;
            } else {
                let awg_id = self.find_or_create(parent, key);
                self.record(awg_id, node.duration);
                self.insert_children(Some(awg_id), graph, graph.children_of(node));
                i += 1;
            }
        }
    }

    fn record(&mut self, awg_id: AwgId, duration: TimeNs) {
        let slot = &mut self.awg.nodes[awg_id.0 as usize];
        slot.c += duration;
        slot.n += 1;
        slot.c_max = slot.c_max.max(duration);
        if let Some(tag) = self.current_tag {
            if slot.examples.len() < MAX_EXAMPLES && !slot.examples.contains(&tag) {
                slot.examples.push(tag);
            }
        }
    }

    fn find_or_create(&mut self, parent: Option<AwgId>, key: AwgKey) -> AwgId {
        let siblings: &[AwgId] = match parent {
            Some(p) => &self.awg.node(p).children,
            None => &self.awg.roots,
        };
        if let Some(&found) = siblings.iter().find(|&&s| self.awg.node(s).key == key) {
            return found;
        }
        let id = AwgId(self.awg.nodes.len() as u32);
        self.awg.nodes.push(AwgNode {
            key,
            parent,
            children: Vec::new(),
            c: TimeNs::ZERO,
            n: 0,
            c_max: TimeNs::ZERO,
            examples: Vec::new(),
        });
        match parent {
            Some(p) => self.awg.nodes[p.0 as usize].children.push(id),
            None => self.awg.roots.push(id),
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{
        ScenarioInstance, ScenarioName, ThreadId, TimeNs, TraceId, TraceStreamBuilder,
    };
    use tracelens_waitgraph::StreamIndex;

    fn filter() -> ComponentFilter {
        ComponentFilter::suffix(".sys")
    }

    /// Stream: T1 app-running (irrelevant root), then T1 waits in fv.sys,
    /// unwaited by T2 which runs in se.sys during the wait.
    fn one_graph(stacks: &mut StackTable) -> (WaitGraph, WaitGraph) {
        let app = stacks.intern_symbols(&["app!Main"]);
        let fv =
            stacks.intern_symbols(&["app!Main", "fv.sys!QueryFileTable", "kernel!AcquireLock"]);
        let se = stacks.intern_symbols(&["w!W", "se.sys!ReadDecrypt"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), app);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, fv);
        b.push_running(ThreadId(2), TimeNs(10), TimeNs(30), se);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(40), se);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let inst = |t0: u64| ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(t0),
            t1: TimeNs(50),
        };
        (
            WaitGraph::build(&stream, &idx, &inst(0)),
            WaitGraph::build(&stream, &idx, &inst(0)),
        )
    }

    #[test]
    fn aggregates_two_identical_graphs() {
        let mut stacks = StackTable::new();
        let (g1, g2) = one_graph(&mut stacks);
        let f = filter();
        let mut agg = Aggregator::new(&stacks, &f);
        agg.add_graph(&g1);
        agg.add_graph(&g2);
        let awg = agg.finish();
        assert_eq!(awg.source_graphs(), 2);
        // App-running root eliminated; one waiting root with N=2.
        assert_eq!(awg.roots().len(), 1);
        let root = awg.node(awg.roots()[0]);
        assert!(root.key.is_waiting());
        assert_eq!(root.n, 2);
        assert_eq!(root.c, TimeNs(60)); // 30 + 30
        assert_eq!(root.c_max, TimeNs(30));
        // One running child, also merged.
        assert_eq!(root.children.len(), 1);
        let child = awg.node(root.children[0]);
        assert_eq!(child.n, 2);
        assert_eq!(child.c, TimeNs(60));
    }

    #[test]
    fn irrelevant_roots_promote_children() {
        // T1 waits on an APP-level lock (no driver frame); the holder T2
        // waits in fs.sys. The app wait root must be eliminated and the
        // fs.sys wait promoted to a root.
        let mut stacks = StackTable::new();
        let app_wait = stacks.intern_symbols(&["app!Main", "kernel!AcquireLock"]);
        let fs_wait = stacks.intern_symbols(&["app!W", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let run = stacks.intern_symbols(&["w!W", "se.sys!ReadDecrypt"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, app_wait);
        b.push_wait(ThreadId(2), TimeNs(0), TimeNs::ZERO, fs_wait);
        b.push_running(ThreadId(3), TimeNs(0), TimeNs(50), run);
        b.push_unwait(ThreadId(3), ThreadId(2), TimeNs(50), run);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(55), fs_wait);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let wg = WaitGraph::build(
            &stream,
            &idx,
            &ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("S"),
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(60),
            },
        );
        let f = filter();
        let mut agg = Aggregator::new(&stacks, &f);
        agg.add_graph(&wg);
        let awg = agg.finish();
        assert_eq!(awg.roots().len(), 1);
        let root = awg.node(awg.roots()[0]);
        match root.key {
            AwgKey::Waiting { w, .. } => {
                assert_eq!(
                    stacks.symbols().resolve(w),
                    Some("fs.sys!AcquireMDU"),
                    "promoted root must be the driver wait"
                );
            }
            other => panic!("expected waiting root, got {other:?}"),
        }
    }

    #[test]
    fn reduction_prunes_direct_hardware_roots() {
        // T1 waits in fs.sys; a hardware event alone serves it: the
        // classic direct-read pattern, pruned by the reduction.
        let mut stacks = StackTable::new();
        let fs = stacks.intern_symbols(&["app!Main", "fs.sys!Read", "kernel!WaitForObject"]);
        let hw = stacks.intern_symbols(&["kernel!Worker", "DiskService!Transfer"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, fs);
        b.push_hardware(ThreadId(2), TimeNs(0), TimeNs(30), hw);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), hw);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let wg = WaitGraph::build(
            &stream,
            &idx,
            &ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("S"),
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(40),
            },
        );
        let f = filter();
        let mut agg = Aggregator::new(&stacks, &f);
        agg.add_graph(&wg);
        let awg = agg.finish();
        assert!(awg.is_empty(), "direct hw root must be pruned");
        assert_eq!(awg.reduced_time(), TimeNs(30));
    }

    #[test]
    fn propagating_hardware_roots_survive_reduction() {
        // Same as above, but the device worker also runs decryption:
        // two leaves under the wait, so the root is kept.
        let mut stacks = StackTable::new();
        let fs = stacks.intern_symbols(&["app!Main", "fs.sys!Read", "kernel!WaitForObject"]);
        let hw = stacks.intern_symbols(&["kernel!Worker", "DiskService!Transfer"]);
        let se = stacks.intern_symbols(&["kernel!Worker", "se.sys!ReadDecrypt"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, fs);
        b.push_hardware(ThreadId(2), TimeNs(0), TimeNs(30), hw);
        b.push_running(ThreadId(2), TimeNs(30), TimeNs(5), se);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(35), se);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let wg = WaitGraph::build(
            &stream,
            &idx,
            &ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("S"),
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(40),
            },
        );
        let f = filter();
        let mut agg = Aggregator::new(&stacks, &f);
        agg.add_graph(&wg);
        let awg = agg.finish();
        assert_eq!(awg.roots().len(), 1);
        assert_eq!(awg.reduced_time(), TimeNs::ZERO);
        let root = awg.node(awg.roots()[0]);
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn different_prefixes_do_not_merge() {
        // Two graphs whose roots differ (fv vs fs waits) but share an
        // identical running child signature: the children must remain
        // separate trie nodes because their prefixes differ.
        let mut stacks = StackTable::new();
        let fv =
            stacks.intern_symbols(&["app!Main", "fv.sys!QueryFileTable", "kernel!AcquireLock"]);
        let fs = stacks.intern_symbols(&["app!Main", "fs.sys!AcquireMDU", "kernel!AcquireLock"]);
        let se = stacks.intern_symbols(&["w!W", "se.sys!ReadDecrypt"]);
        let mk = |wait_stack| {
            let mut b = TraceStreamBuilder::new(0);
            b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, wait_stack);
            b.push_running(ThreadId(2), TimeNs(0), TimeNs(20), se);
            b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(20), se);
            let stream = b.finish().unwrap();
            let idx = StreamIndex::new(&stream);
            WaitGraph::build(
                &stream,
                &idx,
                &ScenarioInstance {
                    trace: TraceId(0),
                    scenario: ScenarioName::new("S"),
                    tid: ThreadId(1),
                    t0: TimeNs(0),
                    t1: TimeNs(30),
                },
            )
        };
        let g1 = mk(fv);
        let g2 = mk(fs);
        let f = filter();
        let mut agg = Aggregator::new(&stacks, &f);
        agg.add_graph(&g1);
        agg.add_graph(&g2);
        let awg = agg.finish();
        assert_eq!(awg.roots().len(), 2);
        assert_eq!(awg.node_count(), 4);
    }
}
