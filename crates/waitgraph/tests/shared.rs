//! A `StreamGraph` shares wait subtrees across a stream's instances and
//! stands each run of consecutive same-stack running siblings in one
//! node, yet each instance must read as the tree `WaitGraph::build` gives
//! it once those runs are merged: walked in pre-order, node for node —
//! depth, event, kind, thread, stack, start, duration and sample count.

mod common;

use common::{build_stream, raw_event};
use proptest::prelude::*;
use tracelens_faults::FaultInjector;
use tracelens_model::{
    Dataset, EventId, ScenarioInstance, ScenarioName, StackId, StackTable, ThreadId, TimeNs,
    TraceId, TraceStream, TraceStreamBuilder,
};
use tracelens_obs::Telemetry;
use tracelens_sim::{DatasetBuilder, ScenarioMix};
use tracelens_waitgraph::{GraphView, NodeKind, StreamGraph, StreamIndex, WaitGraph};

type Row = (
    usize,
    EventId,
    NodeKind,
    ThreadId,
    StackId,
    TimeNs,
    TimeNs,
    u32,
);

fn preorder(view: GraphView<'_>) -> Vec<Row> {
    view.dfs()
        .map(|(depth, id)| {
            let n = view.node(id);
            (
                depth, n.event, n.kind, n.tid, n.stack, n.t, n.duration, n.samples,
            )
        })
        .collect()
}

/// `rows`, a pre-order, with each run of adjacent running rows of one
/// depth and one stack merged into its first row: the summed duration
/// and sample count. A running node is a leaf, so the row after it at
/// its own depth is its next sibling.
fn merge_runs(rows: Vec<Row>) -> Vec<Row> {
    let mut merged: Vec<Row> = Vec::with_capacity(rows.len());
    for row in rows {
        if let Some(last) = merged.last_mut() {
            let run = |r: &Row| (r.0, r.2, r.4);
            if row.2 == NodeKind::Running && run(last) == run(&row) {
                last.6 += row.6;
                last.7 += row.7;
                continue;
            }
        }
        merged.push(row);
    }
    merged
}

/// Checks every instance of one stream graph against its own Wait
/// Graph; returns the arena's node count and the trees' total.
fn check(stream: &TraceStream, instances: &[&ScenarioInstance]) -> (usize, usize) {
    let index = StreamIndex::new(stream);
    let shared = StreamGraph::build(stream, &index, instances, &Telemetry::noop());
    let mut tree_nodes = 0;
    for (k, instance) in instances.iter().enumerate() {
        let own = WaitGraph::build(stream, &index, instance);
        let own_rows = preorder(own.view());
        assert!(
            own_rows.iter().all(|r| r.7 == 1),
            "WaitGraph::build makes one node per event"
        );
        let rows = preorder(shared.instance(k));
        assert_eq!(
            rows,
            merge_runs(own_rows),
            "instance {k} of trace {} ({:?})",
            stream.id().0,
            instance
        );
        let samples: usize = rows.iter().map(|r| r.7 as usize).sum();
        assert_eq!(
            samples,
            own.node_count(),
            "instance {k} of trace {}: samples against per-instance nodes",
            stream.id().0
        );
        tree_nodes += own.node_count();
    }
    (shared.node_count(), tree_nodes)
}

/// Checks every stream of `ds` with its instances in data-set order.
fn check_dataset(ds: &Dataset) -> (usize, usize) {
    let mut totals = (0, 0);
    for stream in &ds.streams {
        let instances: Vec<&ScenarioInstance> = ds
            .instances
            .iter()
            .filter(|i| i.trace == stream.id())
            .collect();
        let (arena, trees) = check(stream, &instances);
        totals.0 += arena;
        totals.1 += trees;
    }
    totals
}

fn instance(tid: u32, t0: u64, t1: u64) -> ScenarioInstance {
    ScenarioInstance {
        trace: TraceId(0),
        scenario: ScenarioName::new("S"),
        tid: ThreadId(tid),
        t0: TimeNs(t0),
        t1: TimeNs(t1),
    }
}

#[test]
fn simulated_corpora_match_and_share() {
    for seed in 1..=3 {
        let paper = DatasetBuilder::new(seed)
            .traces(8)
            .mix(ScenarioMix::Selected)
            .instances_per_trace(2, 4)
            .start_window_ms(350)
            .build();
        let (arena, trees) = check_dataset(&paper);
        assert!(arena <= trees, "paper seed {seed}: {arena} > {trees}");
        let dense = DatasetBuilder::new(seed)
            .traces(8)
            .mix(ScenarioMix::Selected)
            .instances_per_trace(8, 12)
            .start_window_ms(100)
            .build();
        let (arena, trees) = check_dataset(&dense);
        assert!(
            arena < trees,
            "dense seed {seed}: the arena ({arena}) must share nodes of the trees ({trees})"
        );
    }
}

#[test]
fn sanitized_fault_injected_corpora_match() {
    for seed in 1..=6 {
        let ds = DatasetBuilder::new(seed).traces(10).build();
        let (corrupt, _) = FaultInjector::new(seed).with_all(0.05).inject(&ds);
        let (clean, _) = corrupt.sanitize();
        check_dataset(&clean);
    }
}

/// A chain of 70 waits: thread `i` waits at `i` for thread `i + 1`,
/// which wakes it at `1000 - i`; the last thread runs, then wakes its
/// waiter. Entered at thread 0, the chain passes the 64-level depth cap;
/// entered at thread 10, it does not.
fn deep_chain() -> TraceStream {
    let mut stacks = StackTable::new();
    let s = stacks.intern_symbols(&["mod.sys!Fn"]);
    let mut b = TraceStreamBuilder::new(0);
    const LAST: u32 = 70;
    for i in 0..LAST {
        b.push_wait(ThreadId(i), TimeNs(u64::from(i)), TimeNs::ZERO, s);
    }
    b.push_running(ThreadId(LAST), TimeNs(100), TimeNs(50), s);
    for i in 0..LAST {
        b.push_unwait(ThreadId(i + 1), ThreadId(i), TimeNs(1000 - u64::from(i)), s);
    }
    b.finish().expect("the chain is a valid stream")
}

#[test]
fn a_chain_past_the_depth_cap_matches_in_either_order() {
    let stream = deep_chain();
    let from_top = instance(0, 0, 2000);
    let from_middle = instance(10, 0, 2000);
    let below = instance(30, 0, 2000);
    // The top entry must see the cap cut the chain where it would have
    // without sharing, whether or not the middle entry built the tail
    // first; the entry further down reuses the middle one's subtree.
    check(&stream, &[&from_top, &from_middle, &below]);
    let (arena, trees) = check(&stream, &[&from_middle, &from_top, &below]);
    assert!(arena < trees, "the lower entries share: {arena} vs {trees}");
    let index = StreamIndex::new(&stream);
    let capped = WaitGraph::build(&stream, &index, &from_top);
    assert!(capped
        .nodes()
        .iter()
        .any(|n| n.kind == NodeKind::UnpairedWait));
}

#[test]
fn a_mutual_wait_cycle_matches_in_either_order() {
    // T1 and T2 wait on each other: each entry cuts the cycle at its own
    // wait, so neither may reuse the other's cut subtree.
    let mut stacks = StackTable::new();
    let s0 = stacks.intern_symbols(&["a!b"]);
    let mut b = TraceStreamBuilder::new(0);
    b.push_wait(ThreadId(1), TimeNs(5), TimeNs::ZERO, s0);
    b.push_wait(ThreadId(2), TimeNs(5), TimeNs::ZERO, s0);
    b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(10), s0);
    b.push_unwait(ThreadId(1), ThreadId(2), TimeNs(9), s0);
    let stream = b.finish().unwrap();
    let (one, two) = (instance(1, 0, 20), instance(2, 0, 20));
    check(&stream, &[&one, &two]);
    check(&stream, &[&two, &one]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_streams_match_with_several_instances(
        events in prop::collection::vec(raw_event(), 0..60),
        windows in prop::collection::vec((0u32..4, 0u64..1200, 1u64..800), 1..5),
    ) {
        let mut stacks = StackTable::new();
        let stream = build_stream(&events, &mut stacks);
        let instances: Vec<ScenarioInstance> = windows
            .iter()
            .map(|&(tid, t0, len)| instance(tid, t0, t0 + len))
            .collect();
        let refs: Vec<&ScenarioInstance> = instances.iter().collect();
        let (arena, trees) = check(&stream, &refs);
        prop_assert!(arena <= trees);
    }
}
