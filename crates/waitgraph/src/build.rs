//! Wait-Graph construction from a trace stream and a scenario instance.

use crate::graph::{Node, NodeId, NodeKind, WaitGraph};
use crate::index::StreamIndex;
use std::collections::HashSet;
use tracelens_model::{EventId, EventKind, ScenarioInstance, TimeNs, TraceStream};

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
        debug_assert_eq!(stream.id(), instance.trace, "instance/stream mismatch");
        let mut b = Builder {
            stream,
            index,
            nodes: Vec::new(),
        };
        let mut roots = Vec::new();
        let mut path = HashSet::new();
        for id in index.thread_events_overlapping(stream, instance.tid, instance.t0, instance.t1) {
            if let Some(n) = b.add_event(id, instance.t1, &mut path, 0) {
                roots.push(n);
            }
        }
        WaitGraph::from_parts(stream.id(), b.nodes, roots)
    }

    /// [`WaitGraph::build`] with telemetry: reports graph/node counters
    /// and a per-graph build-time histogram through `telemetry`. With a
    /// disabled handle this is exactly `build` — no timing, no counting.
    pub fn build_traced(
        stream: &TraceStream,
        index: &StreamIndex,
        instance: &ScenarioInstance,
        telemetry: &tracelens_obs::Telemetry,
    ) -> WaitGraph {
        if !telemetry.enabled() {
            return WaitGraph::build(stream, index, instance);
        }
        let start = std::time::Instant::now();
        let graph = WaitGraph::build(stream, index, instance);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry.count("waitgraph.graphs", 1);
        telemetry.count("waitgraph.nodes", graph.node_count() as u64);
        telemetry.record("waitgraph.build_ns", elapsed);
        graph
    }
}

struct Builder<'a> {
    stream: &'a TraceStream,
    index: &'a StreamIndex,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds the node for event `id`, recursing into wait chains.
    /// `clip_end` bounds unpaired-wait durations; `path` holds the wait
    /// events on the current recursion path (cycle guard).
    fn add_event(
        &mut self,
        id: EventId,
        clip_end: TimeNs,
        path: &mut HashSet<EventId>,
        depth: usize,
    ) -> Option<NodeId> {
        let e = *self.stream.event(id)?;
        match e.kind {
            EventKind::Unwait => None,
            EventKind::Running => Some(self.push(Node {
                event: id,
                kind: NodeKind::Running,
                tid: e.tid,
                stack: e.stack,
                t: e.t,
                duration: e.cost,
                children: Vec::new(),
            })),
            EventKind::HardwareService => Some(self.push(Node {
                event: id,
                kind: NodeKind::Hardware,
                tid: e.tid,
                stack: e.stack,
                t: e.t,
                duration: e.cost,
                children: Vec::new(),
            })),
            EventKind::Wait => {
                let pair = self.index.pair_unwait(self.stream, e.tid, e.t);
                let cyclic = path.contains(&id) || depth >= MAX_DEPTH;
                match pair {
                    Some(u_id) if !cyclic => {
                        let u = *self.stream.event(u_id).expect("paired event exists");
                        let duration = e.t.saturating_span_to(u.t);
                        // Reserve the node slot so parents precede children.
                        let node_id = self.push(Node {
                            event: id,
                            kind: NodeKind::Wait {
                                unwait: u_id,
                                unwait_stack: u.stack,
                                unwait_tid: u.tid,
                            },
                            tid: e.tid,
                            stack: e.stack,
                            t: e.t,
                            duration,
                            children: Vec::new(),
                        });
                        path.insert(id);
                        let mut children = Vec::new();
                        for cid in
                            self.index
                                .thread_events_overlapping(self.stream, u.tid, e.t, u.t)
                        {
                            if let Some(c) = self.add_event(cid, u.t, path, depth + 1) {
                                children.push(c);
                            }
                        }
                        path.remove(&id);
                        self.nodes[node_id.0 as usize].children = children;
                        Some(node_id)
                    }
                    _ => {
                        // Unpaired (or cyclic/over-deep): a leaf whose
                        // duration is clipped to the enclosing interval.
                        let duration = e.cost.max(e.t.saturating_span_to(clip_end));
                        Some(self.push(Node {
                            event: id,
                            kind: NodeKind::UnpairedWait,
                            tid: e.tid,
                            stack: e.stack,
                            t: e.t,
                            duration,
                            children: Vec::new(),
                        }))
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
        assert_eq!(wait_root.children.len(), 1);
        let child = wg.node(wait_root.children[0]);
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
        assert_eq!(root.children.len(), 2);
        let nested_wait = root
            .children
            .iter()
            .map(|&c| wg.node(c))
            .find(|n| n.kind.is_wait())
            .expect("nested wait");
        assert_eq!(nested_wait.duration, TimeNs(20)); // 10 → 30
        let leaf = wg.node(nested_wait.children[0]);
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
        assert_eq!(root.children.len(), 1);
        let hw = wg.node(root.children[0]);
        assert_eq!(hw.kind, NodeKind::Hardware);
        assert_eq!(hw.duration, TimeNs(30));
    }
}
