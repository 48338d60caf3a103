//! Property-based tests: Wait-Graph construction over randomized streams
//! must uphold its structural invariants and never panic.

mod common;

use common::{build_stream, raw_event};
use proptest::prelude::*;
use tracelens_model::{
    EventKind, ScenarioInstance, ScenarioName, StackTable, ThreadId, TimeNs, TraceId,
};
use tracelens_waitgraph::{NodeKind, StreamIndex, WaitGraph};

fn instance(tid: u8) -> ScenarioInstance {
    ScenarioInstance {
        trace: TraceId(0),
        scenario: ScenarioName::new("P"),
        tid: ThreadId(tid as u32),
        t0: TimeNs(0),
        t1: TimeNs(2000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn construction_never_panics_and_holds_invariants(
        events in prop::collection::vec(raw_event(), 0..60),
        tid in 0u8..4,
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        let graph = WaitGraph::build(&stream, &index, &instance(tid));

        for (_, id) in graph.dfs() {
            let node = graph.node(id);
            // Only wait nodes have children (edges start at wait events).
            if !node.kind.is_wait() {
                prop_assert!(graph.children(id).is_empty());
            }
            // Nodes reference real events of the right kind.
            let e = stream.event(node.event).expect("node references an event");
            match node.kind {
                NodeKind::Running => prop_assert_eq!(e.kind, EventKind::Running),
                NodeKind::Hardware => prop_assert_eq!(e.kind, EventKind::HardwareService),
                NodeKind::Wait { .. } | NodeKind::UnpairedWait => {
                    prop_assert_eq!(e.kind, EventKind::Wait)
                }
            }
            prop_assert_eq!(e.tid, node.tid);

            // Paired waits: duration equals the pairing span; children
            // belong to the signalling thread and overlap the interval.
            if let NodeKind::Wait { unwait, unwait_tid, .. } = node.kind {
                let u = stream.event(unwait).expect("unwait exists");
                prop_assert_eq!(u.kind, EventKind::Unwait);
                prop_assert_eq!(u.wtid, Some(node.tid));
                prop_assert_eq!(node.duration, node.t.saturating_span_to(u.t));
                for &c in graph.children(id) {
                    let child = graph.node(c);
                    prop_assert_eq!(child.tid, unwait_tid);
                    // Child starts before the wait resolves.
                    prop_assert!(child.t < u.t || node.duration == TimeNs::ZERO);
                }
            }
        }

        // Roots belong to the initiating thread.
        for &r in graph.roots() {
            prop_assert_eq!(graph.node(r).tid, ThreadId(tid as u32));
        }
    }

    #[test]
    fn index_effective_ends_cover_costs(
        events in prop::collection::vec(raw_event(), 0..60),
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        for (i, e) in stream.events().iter().enumerate() {
            let id = tracelens_model::EventId(i as u32);
            let end = index.effective_end(id);
            if e.kind == EventKind::Wait {
                // Paired waits end at the unwait; unpaired at their start.
                prop_assert!(end >= e.t);
            } else {
                prop_assert_eq!(end, e.end());
            }
        }
    }

    #[test]
    fn overlap_query_agrees_with_naive_scan(
        events in prop::collection::vec(raw_event(), 0..60),
        from in 0u64..1500,
        len in 1u64..400,
        tid in 0u8..4,
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let index = StreamIndex::new(&stream);
        let (from, to) = (TimeNs(from), TimeNs(from + len));
        let got = index.thread_events_overlapping(&stream, ThreadId(tid as u32), from, to);
        // Naive reference: per-thread events whose [t, effective_end)
        // intersects [from, to) — modulo the contiguity assumption the
        // index exploits, the fast path must never return wrong events
        // and never miss events that *start* inside the window.
        for &id in got {
            let e = stream.event(id).unwrap();
            prop_assert_eq!(e.tid, ThreadId(tid as u32));
            prop_assert!(e.t < to);
        }
        for (i, e) in stream.events().iter().enumerate() {
            if e.tid == ThreadId(tid as u32) && e.t >= from && e.t < to {
                prop_assert!(
                    got.contains(&tracelens_model::EventId(i as u32)),
                    "event starting in window missed"
                );
            }
        }
    }
}
