//! Wait-Graph construction from a trace stream and its scenario
//! instances.
//!
//! One builder serves both graph forms. [`StreamGraph::build`] shares
//! subtrees: a paired wait's subtree is built once per stream and reused
//! wherever the same wait event is reached again. It also coalesces
//! samples: a running event extends the previous node of its sibling
//! list (one instance's roots, or one wait's children) when that node is
//! a running node with the same stack, so a run of 1 ms CPU samples is
//! one node that counts them in [`Node::samples`]. [`WaitGraph::build`]
//! is the same builder with both off: one node per event.
//!
//! A run never reaches past its sibling list: the list of an instance's
//! roots starts empty, and a wait's children are a list of their own.
//! Unwaits never become nodes, so they do not break a run; a wait, an
//! unpaired wait or a hardware node does. Only wait nodes are shared, so
//! the previous node a sample extends is always one this list built.
//!
//! Only *clean* subtrees are shared: those whose building hit no cycle
//! cut and no depth cap. A clean subtree holds no wait that lies on a
//! path reaching it (that wait would lead back to the subtree's own
//! root, which the cycle guard would have cut), and its children and
//! clip ends depend only on its root wait. So wherever the wait is
//! reached again, off the recursion path and shallow enough that its
//! deepest wait stays above the cap, building it afresh would give the
//! same tree.

use crate::graph::{Edges, Node, NodeId, NodeKind, StreamGraph, WaitGraph};
use crate::index::StreamIndex;
use std::time::Instant;
use tracelens_model::{
    Event, EventId, EventKind, ScenarioInstance, StackId, ThreadId, TimeNs, TraceStream,
};
use tracelens_obs::Telemetry;

/// Hard cap on wait-chain recursion depth; real propagation chains are
/// shallow (the paper bounds mining at segment length 5), and the cap
/// guards against pathological pairings in malformed streams.
const MAX_DEPTH: usize = 64;

impl WaitGraph {
    /// Builds the Wait Graph of `instance` over `stream`.
    ///
    /// Roots are the initiating thread's events overlapping the instance
    /// window `[t0, t1)`. Each wait event is paired with the earliest
    /// unwait targeting its thread at or after the wait start; its
    /// children are the signalling thread's events within the wait
    /// interval, recursively. Wait events whose unwait is missing (e.g.
    /// truncated traces) become [`NodeKind::UnpairedWait`] leaves with
    /// their duration clipped to the enclosing interval.
    pub fn build(
        stream: &TraceStream,
        index: &StreamIndex,
        instance: &ScenarioInstance,
    ) -> WaitGraph {
        let mut b = Builder::new(stream, index, false);
        b.add_instance(instance);
        WaitGraph::from_parts(stream.id(), b.nodes, b.edges, b.roots)
    }

    /// [`WaitGraph::build`] with telemetry: reports graph/node counters
    /// and a per-graph build-time histogram through `telemetry`. With a
    /// disabled handle this is exactly `build` — no timing, no counting.
    pub fn build_traced(
        stream: &TraceStream,
        index: &StreamIndex,
        instance: &ScenarioInstance,
        telemetry: &Telemetry,
    ) -> WaitGraph {
        if !telemetry.enabled() {
            return WaitGraph::build(stream, index, instance);
        }
        let start = Instant::now();
        let graph = WaitGraph::build(stream, index, instance);
        telemetry.record("waitgraph.build_ns", nanos_between(start, Instant::now()));
        telemetry.count("waitgraph.graphs", 1);
        telemetry.count("waitgraph.nodes", graph.node_count() as u64);
        telemetry.count("waitgraph.arena_nodes", graph.node_count() as u64);
        graph
    }
}

impl StreamGraph {
    /// Builds the Wait Graphs of `instances`, all on `stream`, sharing
    /// clean wait subtrees across them and coalescing each run of
    /// consecutive same-stack running siblings into one node. Instance
    /// `k` of the result is `instances[k]`, and its tree equals
    /// [`WaitGraph::build`]`(stream, index, instances[k])` with each such
    /// run merged: the first sample's event and start, the summed
    /// duration, and the run's length in [`Node::samples`].
    ///
    /// With an enabled `telemetry`, counts `waitgraph.graphs` (one per
    /// instance), `waitgraph.nodes` (the events the instances' trees
    /// stand for: a shared node once per use, a run once per sample, so
    /// the per-instance graphs' node count), `waitgraph.arena_nodes`
    /// (nodes actually built) and records one `waitgraph.build_ns` sample
    /// per instance. The first sample also times the builder's setup, so
    /// a stream's samples sum to its whole build.
    pub fn build(
        stream: &TraceStream,
        index: &StreamIndex,
        instances: &[&ScenarioInstance],
        telemetry: &Telemetry,
    ) -> StreamGraph {
        let traced = telemetry.enabled();
        // Each sample runs from where the previous one ended.
        let mut since = traced.then(Instant::now);
        let mut b = Builder::new(stream, index, true);
        let mut ends = Vec::with_capacity(instances.len());
        let mut tree_nodes = 0;
        for instance in instances {
            tree_nodes += b.add_instance(instance);
            ends.push(b.roots.len());
            if let Some(start) = since {
                let now = Instant::now();
                telemetry.record("waitgraph.build_ns", nanos_between(start, now));
                since = Some(now);
            }
        }
        if traced {
            telemetry.count("waitgraph.graphs", instances.len() as u64);
            telemetry.count("waitgraph.nodes", tree_nodes as u64);
            telemetry.count("waitgraph.arena_nodes", b.nodes.len() as u64);
        }
        StreamGraph::from_parts(b.nodes, b.edges, b.roots, ends)
    }
}

/// Whether `subtree`, built clean, would build the same at `depth`: its
/// deepest expanded wait must stay above the depth cap.
fn fits(depth: usize, subtree: &Subtree) -> bool {
    depth + subtree.reach.unwrap_or(0) < MAX_DEPTH
}

fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A built subtree, as its parent sees it.
#[derive(Debug, Clone, Copy)]
struct Subtree {
    node: NodeId,
    /// Events the subtree stands for as a tree: a shared node once per
    /// use, a run of samples once per sample.
    size: usize,
    /// For an expanded paired wait, how many levels below it the deepest
    /// expanded wait of its subtree sits; `None` for a leaf.
    reach: Option<usize>,
    /// Whether building the subtree hit no cycle cut and no depth cap.
    clean: bool,
}

struct Builder<'a> {
    stream: &'a TraceStream,
    index: &'a StreamIndex,
    nodes: Vec<Node>,
    /// Every closed wait's children, one wait's after another.
    edges: Vec<NodeId>,
    roots: Vec<NodeId>,
    /// The children of the waits still open on the recursion path, the
    /// innermost wait's last; they move to `edges` when it closes.
    open: Vec<NodeId>,
    /// The wait events on the current recursion path (cycle guard): at
    /// most [`MAX_DEPTH`] of them.
    path: Vec<EventId>,
    /// Per wait, by its ordinal in the index: the clean subtree already
    /// built for it. Empty in the per-instance form.
    shared: Vec<Option<Subtree>>,
    /// Whether a running event may extend the previous node of its
    /// sibling list (the stream form).
    coalesce: bool,
}

/// A built sibling list, as its parent sees it.
#[derive(Debug, Clone, Copy)]
struct Siblings {
    /// Events the list stands for, as [`Subtree::size`] counts them.
    size: usize,
    /// How many levels below the list the deepest expanded wait sits;
    /// `None` if the list expands no wait.
    reach: Option<usize>,
    /// Whether building the list hit no cycle cut and no depth cap.
    clean: bool,
}

impl<'a> Builder<'a> {
    /// A builder of the stream form (`stream_form`: shared wait subtrees,
    /// coalesced samples) or of the per-instance form.
    fn new(stream: &'a TraceStream, index: &'a StreamIndex, stream_form: bool) -> Self {
        Builder {
            stream,
            index,
            nodes: Vec::new(),
            edges: Vec::new(),
            roots: Vec::new(),
            open: Vec::new(),
            path: Vec::with_capacity(MAX_DEPTH),
            shared: if stream_form {
                vec![None; index.wait_count()]
            } else {
                Vec::new()
            },
            coalesce: stream_form,
        }
    }

    /// Appends `instance`'s roots, building what they reach; returns the
    /// instance's tree size.
    fn add_instance(&mut self, instance: &ScenarioInstance) -> usize {
        debug_assert_eq!(self.stream.id(), instance.trace, "instance/stream mismatch");
        let first = self.open.len();
        let roots = self.add_siblings(instance.tid, instance.t0, instance.t1, 0);
        self.roots.extend(self.open.drain(first..));
        roots.size
    }

    /// Builds the events of `tid` overlapping `[from, to)` as one sibling
    /// list at `depth`, pushed on `open`. Unpaired waits are clipped to
    /// `to`.
    ///
    /// In the stream form a running event extends the list's last node
    /// when that node is a running node of the same stack: `run` holds
    /// it and its stack. It is never shared, since only waits are.
    fn add_siblings(&mut self, tid: ThreadId, from: TimeNs, to: TimeNs, depth: usize) -> Siblings {
        let mut list = Siblings {
            size: 0,
            reach: None,
            clean: true,
        };
        let mut run: Option<(NodeId, StackId)> = None;
        let index = self.index;
        for &id in index.thread_events_overlapping(self.stream, tid, from, to) {
            let Some(&e) = self.stream.event(id) else {
                continue;
            };
            let sample = self.coalesce && e.kind == EventKind::Running;
            if let Some((node, _)) = run.filter(|&(_, stack)| sample && stack == e.stack) {
                let node = &mut self.nodes[node.0 as usize];
                node.duration += e.cost;
                node.samples += 1;
                list.size += 1;
                continue;
            }
            if let Some(c) = self.add_event(id, &e, to, depth) {
                self.open.push(c.node);
                run = sample.then_some((c.node, e.stack));
                list.size += c.size;
                list.clean &= c.clean;
                list.reach = list.reach.max(c.reach);
            }
        }
        list
    }

    fn leaf(&mut self, node: Node, clean: bool) -> Subtree {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node ids fit in u32"));
        self.nodes.push(node);
        Subtree {
            node: id,
            size: 1,
            reach: None,
            clean,
        }
    }

    /// Moves the open children from `first` on, those of the wait now
    /// closing, to the edge array; returns where they landed.
    fn close(&mut self, first: usize) -> Edges {
        let offset = |len: usize| u32::try_from(len).expect("edge offsets fit in u32");
        let start = offset(self.edges.len());
        self.edges.extend(self.open.drain(first..));
        Edges {
            start,
            end: offset(self.edges.len()),
        }
    }

    /// Adds the node for event `e`, whose id is `id`, recursing into wait
    /// chains. `clip_end` bounds unpaired-wait durations.
    fn add_event(
        &mut self,
        id: EventId,
        e: &Event,
        clip_end: TimeNs,
        depth: usize,
    ) -> Option<Subtree> {
        let node = |kind, duration| Node {
            event: id,
            kind,
            tid: e.tid,
            stack: e.stack,
            t: e.t,
            duration,
            samples: 1,
            children: Edges::default(),
        };
        match e.kind {
            EventKind::Unwait => None,
            EventKind::Running => Some(self.leaf(node(NodeKind::Running, e.cost), true)),
            EventKind::HardwareService => Some(self.leaf(node(NodeKind::Hardware, e.cost), true)),
            EventKind::Wait => {
                let (ordinal, pair) = self.index.wait(id);
                let cut = self.path.contains(&id) || depth >= MAX_DEPTH;
                match pair {
                    Some(u_id) if !cut => {
                        // A shared subtree stays whole only while its
                        // deepest wait stays above the cap.
                        let reusable = ordinal.and_then(|k| self.shared.get(k).copied().flatten());
                        if let Some(s) = reusable.filter(|s| fits(depth, s)) {
                            return Some(s);
                        }
                        let u = *self.stream.event(u_id).expect("paired event exists");
                        let kind = NodeKind::Wait {
                            unwait: u_id,
                            unwait_stack: u.stack,
                            unwait_tid: u.tid,
                        };
                        // Reserve the node slot so parents precede children.
                        let mut wait = self.leaf(node(kind, e.t.saturating_span_to(u.t)), true);
                        self.path.push(id);
                        let first = self.open.len();
                        let children = self.add_siblings(u.tid, e.t, u.t, depth + 1);
                        self.path.pop();
                        wait.size += children.size;
                        wait.clean = children.clean;
                        wait.reach = Some(children.reach.map_or(0, |r| r + 1));
                        self.nodes[wait.node.0 as usize].children = self.close(first);
                        if wait.clean {
                            if let Some(slot) = ordinal.and_then(|k| self.shared.get_mut(k)) {
                                *slot = Some(wait);
                            }
                        }
                        Some(wait)
                    }
                    _ => {
                        // Unpaired: a leaf whose duration is clipped to
                        // the enclosing interval. A cycle cut or the
                        // depth cap makes the same leaf, and leaves the
                        // subtrees above it unshareable.
                        let duration = e.cost.max(e.t.saturating_span_to(clip_end));
                        Some(self.leaf(node(NodeKind::UnpairedWait, duration), pair.is_none()))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{ScenarioName, StackTable, ThreadId, TraceId, TraceStreamBuilder};

    fn instance(tid: u32, t0: u64, t1: u64) -> ScenarioInstance {
        ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("T"),
            tid: ThreadId(tid),
            t0: TimeNs(t0),
            t1: TimeNs(t1),
        }
    }

    /// T1 waits at 10; T2 runs [10,20), unwaits T1 at 20.
    fn simple_chain() -> TraceStream {
        let mut stacks = StackTable::new();
        let s = stacks.intern_symbols(&["a!b"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), s);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, s);
        b.push_running(ThreadId(2), TimeNs(10), TimeNs(10), s);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(20), s);
        b.push_running(ThreadId(1), TimeNs(20), TimeNs(5), s);
        b.finish().unwrap()
    }

    #[test]
    fn simple_wait_chain_is_restored() {
        let s = simple_chain();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(1, 0, 25));
        assert_eq!(wg.roots().len(), 3); // run, wait, run
        let wait_root = wg
            .roots()
            .iter()
            .map(|&r| wg.node(r))
            .find(|n| n.kind.is_wait())
            .expect("wait root");
        assert_eq!(wait_root.duration, TimeNs(10));
        let children = wg.view().children_of(wait_root);
        assert_eq!(children.len(), 1);
        let child = wg.node(children[0]);
        assert_eq!(child.kind, NodeKind::Running);
        assert_eq!(child.tid, ThreadId(2));
    }

    #[test]
    fn nested_chain_two_levels() {
        // T1 waits at 10 for T2; T2 waits at 10 for T3; T3 runs [10,30),
        // unwaits T2 at 30; T2 runs [30,35), unwaits T1 at 35.
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["a!b"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, s0);
        b.push_wait(ThreadId(2), TimeNs(10), TimeNs::ZERO, s0);
        b.push_running(ThreadId(3), TimeNs(10), TimeNs(20), s0);
        b.push_unwait(ThreadId(3), ThreadId(2), TimeNs(30), s0);
        b.push_running(ThreadId(2), TimeNs(30), TimeNs(5), s0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(35), s0);
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(1, 0, 40));
        assert_eq!(wg.roots().len(), 1);
        let root = wg.node(wg.roots()[0]);
        assert_eq!(root.duration, TimeNs(25)); // 10 → 35
                                               // Children: T2's wait (recursing to T3) and T2's running event.
        let children = wg.view().children_of(root);
        assert_eq!(children.len(), 2);
        let nested_wait = children
            .iter()
            .map(|&c| wg.node(c))
            .find(|n| n.kind.is_wait())
            .expect("nested wait");
        assert_eq!(nested_wait.duration, TimeNs(20)); // 10 → 30
        let leaf = wg.node(wg.view().children_of(nested_wait)[0]);
        assert_eq!(leaf.tid, ThreadId(3));
        assert_eq!(leaf.duration, TimeNs(20));
    }

    #[test]
    fn unpaired_wait_clips_to_window() {
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["a!b"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, s0);
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(1, 0, 50));
        let root = wg.node(wg.roots()[0]);
        assert_eq!(root.kind, NodeKind::UnpairedWait);
        assert_eq!(root.duration, TimeNs(40));
    }

    #[test]
    fn events_outside_window_are_excluded() {
        let s = simple_chain();
        let idx = StreamIndex::new(&s);
        // Window [21, 26): only the last running event.
        let wg = WaitGraph::build(&s, &idx, &instance(1, 21, 26));
        // The running event [20,25) spans 21 and is included; nothing else.
        assert_eq!(wg.roots().len(), 1);
        assert_eq!(wg.node(wg.roots()[0]).t, TimeNs(20));
    }

    #[test]
    fn unwait_events_never_become_nodes() {
        let s = simple_chain();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(2, 0, 25));
        for n in wg.nodes() {
            assert!(matches!(
                n.kind,
                NodeKind::Running
                    | NodeKind::Wait { .. }
                    | NodeKind::Hardware
                    | NodeKind::UnpairedWait
            ));
            let e = s.event(n.event).unwrap();
            assert_ne!(e.kind, EventKind::Unwait);
        }
    }

    #[test]
    fn mutual_wait_cycle_is_cut() {
        // Pathological stream: T1 waits, T2 "unwaits" T1 but T2's own
        // wait pairs back through T1 — forged to exercise the guard.
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["a!b"]);
        // Simultaneous waits with crossing unwaits force re-entry into
        // the same wait event on the recursion path.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(5), TimeNs::ZERO, s0);
        b.push_wait(ThreadId(2), TimeNs(5), TimeNs::ZERO, s0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(10), s0);
        b.push_unwait(ThreadId(1), ThreadId(2), TimeNs(9), s0);
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(1, 0, 20));
        // Must terminate; the inner re-entry of T1's wait becomes a leaf.
        assert!(wg.node_count() >= 2);
        assert!(wg.nodes().iter().any(|n| n.kind == NodeKind::UnpairedWait));
    }

    #[test]
    fn stream_form_makes_one_node_per_run_of_samples() {
        // T1: samples a a, an unwait, a, then b, a, a wait on T2 (which
        // runs a a inside it), then a a. T2 unwaits T1 at 40.
        let mut stacks = StackTable::new();
        let a = stacks.intern_symbols(&["m.sys!A"]);
        let b_stack = stacks.intern_symbols(&["m.sys!B"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(1), a);
        b.push_running(ThreadId(1), TimeNs(1), TimeNs(1), a);
        b.push_unwait(ThreadId(1), ThreadId(3), TimeNs(2), a);
        b.push_running(ThreadId(1), TimeNs(2), TimeNs(1), a);
        b.push_running(ThreadId(1), TimeNs(3), TimeNs(1), b_stack);
        b.push_running(ThreadId(1), TimeNs(4), TimeNs(1), a);
        b.push_wait(ThreadId(1), TimeNs(5), TimeNs::ZERO, a);
        b.push_running(ThreadId(2), TimeNs(5), TimeNs(10), a);
        b.push_running(ThreadId(2), TimeNs(15), TimeNs(10), a);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(40), a);
        b.push_running(ThreadId(1), TimeNs(40), TimeNs(1), a);
        b.push_running(ThreadId(1), TimeNs(41), TimeNs(1), a);
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let (first, second) = (instance(1, 0, 41), instance(1, 41, 50));
        let g = StreamGraph::build(&s, &idx, &[&first, &second], &Telemetry::noop());
        let rows = |k: usize| -> Vec<(usize, u64, u32)> {
            let view = g.instance(k);
            view.dfs()
                .map(|(depth, id)| {
                    let n = view.node(id);
                    (depth, n.duration.0, n.samples)
                })
                .collect()
        };
        // The unwait does not break the first run; b and the wait do,
        // and the wait's children are a list of their own.
        assert_eq!(
            rows(0),
            [
                (0, 3, 3),
                (0, 1, 1),
                (0, 1, 1),
                (0, 35, 1),
                (1, 20, 2),
                (0, 1, 1)
            ]
        );
        // The second instance's root does not extend the first's.
        assert_eq!(rows(1), [(0, 1, 1)]);
        assert_eq!(g.node_count(), 7);
        let own = WaitGraph::build(&s, &idx, &first);
        assert_eq!(own.node_count(), 9);
        assert!(own.nodes().iter().all(|n| n.samples == 1));
    }

    #[test]
    fn entangled_instances_share_each_clean_wait_subtree() {
        // Without sharing every arena node sits at one place in one
        // instance's view, so the views walk as many nodes as the arena
        // holds; dense streams' instances reach many of the same waits.
        let ds = tracelens_sim::DatasetBuilder::new(1)
            .traces(8)
            .mix(tracelens_sim::ScenarioMix::Selected)
            .instances_per_trace(8, 12)
            .start_window_ms(100)
            .build();
        let (mut arena, mut walked) = (0, 0);
        for stream in &ds.streams {
            let instances: Vec<&ScenarioInstance> = ds
                .instances
                .iter()
                .filter(|i| i.trace == stream.id())
                .collect();
            let idx = StreamIndex::new(stream);
            let g = StreamGraph::build(stream, &idx, &instances, &Telemetry::noop());
            arena += g.node_count();
            walked += (0..instances.len())
                .map(|k| g.instance(k).dfs().count())
                .sum::<usize>();
        }
        assert!(
            3 * arena < 2 * walked,
            "the arena ({arena}) must share the nodes the views walk ({walked})"
        );
    }

    #[test]
    fn hardware_events_become_leaves() {
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["kernel!Worker", "DiskService!Transfer"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, s0);
        b.push_hardware(ThreadId(2), TimeNs(0), TimeNs(30), s0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), s0);
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let wg = WaitGraph::build(&s, &idx, &instance(1, 0, 40));
        let root = wg.node(wg.roots()[0]);
        let children = wg.view().children_of(root);
        assert_eq!(children.len(), 1);
        let hw = wg.node(children[0]);
        assert_eq!(hw.kind, NodeKind::Hardware);
        assert_eq!(hw.duration, TimeNs(30));
    }
}
