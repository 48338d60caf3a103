//! The study reads each stream's Wait Graphs in the stream form: one
//! `StreamGraph` per stream, with shared wait subtrees and each run of
//! consecutive same-stack samples in one node. Everything it computes
//! from them must equal what the per-instance form gives, one
//! `WaitGraph::build` per instance with one node per event:
//!
//! * every instance's `account_view` record and counted wait intervals;
//! * every scenario's fast and slow AWG, fed in the study's order (stream
//!   order, then instance order), node for node: id, key, parent, child
//!   order, `c`, `n`, `c_max` and examples. The AWGs are compared before
//!   the non-optimizable reduction, which only drops roots of that trie.

use proptest::prelude::*;
use tracelens::causality::{AggregatedWaitGraph, Aggregator, AwgId, AwgKey, InstanceTag};
use tracelens::impact::instances_by_stream;
use tracelens::model::{StackId, ThreadId, TraceId};
use tracelens::prelude::*;
use tracelens::waitgraph::{GraphView, StreamGraph};

/// One AWG node as compared.
type AwgRow = (
    AwgId,
    AwgKey,
    Option<AwgId>,
    Vec<AwgId>,
    TimeNs,
    u64,
    TimeNs,
    Vec<InstanceTag>,
);

/// Every node of `awg`, in pre-order, and how many graphs fed it.
fn rows(awg: &AggregatedWaitGraph) -> (Vec<AwgRow>, usize) {
    let rows = awg
        .preorder()
        .into_iter()
        .map(|id| {
            let n = awg.node(id);
            let children = n.children.clone();
            (
                id,
                n.key,
                n.parent,
                children,
                n.c,
                n.n,
                n.c_max,
                n.examples.clone(),
            )
        })
        .collect();
    (rows, awg.source_graphs())
}

/// A scenario's fast and slow aggregators.
struct Classes<'a> {
    scenario: &'a Scenario,
    fast: Aggregator<'a>,
    slow: Aggregator<'a>,
}

impl<'a> Classes<'a> {
    fn of(ds: &'a Dataset, filter: &ComponentFilter) -> Vec<Classes<'a>> {
        ds.scenarios
            .iter()
            .map(|scenario| Classes {
                scenario,
                fast: Aggregator::new(&ds.stacks, filter),
                slow: Aggregator::new(&ds.stacks, filter),
            })
            .collect()
    }

    fn add(all: &mut [Classes<'_>], instance: &ScenarioInstance, graph: GraphView<'_>) {
        let tag = (instance.trace, instance.tid);
        for c in all
            .iter_mut()
            .filter(|c| c.scenario.name == instance.scenario)
        {
            match c.scenario.thresholds.classify(instance.duration()) {
                Some(true) => c.fast.add_view_tagged(graph, tag),
                Some(false) => c.slow.add_view_tagged(graph, tag),
                None => {}
            }
        }
    }
}

/// Per scenario: its fast and slow AWGs as [`rows`].
type Finished = Vec<(ScenarioName, (Vec<AwgRow>, usize), (Vec<AwgRow>, usize))>;

fn finish(classes: Vec<Classes<'_>>) -> Finished {
    classes
        .into_iter()
        .map(|c| {
            let fast = rows(&c.fast.finish_unreduced());
            let slow = rows(&c.slow.finish_unreduced());
            (c.scenario.name, fast, slow)
        })
        .collect()
}

/// Checks the stream form against the per-instance form on `ds`; returns
/// how many instances it compared and how many sample runs of more than
/// one sample their stream graphs held.
fn check(ds: &Dataset, label: &str) -> (usize, usize) {
    let filter = ComponentFilter::suffix(".sys");
    let view = ds.stacks.filter_view(&filter);
    let analyzer = ImpactAnalyzer::new(filter.clone());
    let mut stream_classes = Classes::of(ds, &filter);
    let mut instance_classes = Classes::of(ds, &filter);
    let (mut compared, mut runs) = (0, 0);
    for (stream, instances) in instances_by_stream(ds, |_| true) {
        let index = StreamIndex::new(stream);
        let graph = StreamGraph::build(stream, &index, &instances, &Telemetry::noop());
        for (k, &instance) in instances.iter().enumerate() {
            let own = WaitGraph::build(stream, &index, instance);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let record = analyzer.account_view(graph.instance(k), &view, instance, &mut got);
            let expected = analyzer.account_graph(&own, &view, instance, &mut want);
            assert_eq!(record, expected, "{label}: record of {instance:?}");
            assert_eq!(got, want, "{label}: wait intervals of {instance:?}");
            Classes::add(&mut stream_classes, instance, graph.instance(k));
            Classes::add(&mut instance_classes, instance, own.view());
            let tree = graph.instance(k);
            runs += tree
                .dfs()
                .filter(|&(_, id)| tree.node(id).samples > 1)
                .count();
            compared += 1;
        }
    }
    let (got, want) = (finish(stream_classes), finish(instance_classes));
    assert_eq!(got.len(), want.len());
    for ((name, fast, slow), (_, want_fast, want_slow)) in got.iter().zip(&want) {
        assert_eq!(fast, want_fast, "{label}: fast AWG of {name}");
        assert_eq!(slow, want_slow, "{label}: slow AWG of {name}");
    }
    (compared, runs)
}

/// The paper's corpus shape (2–4 instances per trace over 350 ms) or
/// the dense one (8–12 instances per trace over 100 ms).
fn corpus(seed: u64, dense: bool) -> Dataset {
    let builder = DatasetBuilder::new(seed)
        .traces(8)
        .mix(ScenarioMix::Selected);
    if dense {
        builder.instances_per_trace(8, 12).start_window_ms(100)
    } else {
        builder.instances_per_trace(2, 4).start_window_ms(350)
    }
    .build()
}

#[test]
fn simulated_shapes_give_the_same_records_and_awgs() {
    for seed in 1..=3 {
        for dense in [false, true] {
            let label = format!("{} seed {seed}", if dense { "dense" } else { "paper" });
            let (compared, runs) = check(&corpus(seed, dense), &label);
            assert!(
                compared > 0 && runs > 0,
                "{label}: {compared} instances, {runs} runs"
            );
        }
    }
}

#[test]
fn fault_injected_corpora_give_the_same_records_and_awgs_raw_and_sanitized() {
    for seed in 1..=4 {
        let ds = DatasetBuilder::new(seed).traces(10).build();
        let (corrupt, _) = FaultInjector::new(seed).with_all(0.05).inject(&ds);
        let (raw, _) = check(&corrupt, &format!("raw seed {seed}"));
        let (clean, _) = corrupt.sanitize();
        let (sanitized, _) = check(&clean, &format!("sanitized seed {seed}"));
        assert!(
            raw > 0 && sanitized > 0,
            "seed {seed}: {raw} and {sanitized}"
        );
    }
}

/// A random event: kind (0 running, 1 wait, 2 unwait, 3 hardware),
/// thread, time, cost, stack and, for an unwait, the woken thread.
type RawEvent = (u8, u32, u64, u64, usize, u32);

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (0u8..4, 0u32..3, 0u64..600, 1u64..30, 0usize..3, 0u32..3)
}

/// A data set of one stream built from `events`, with one scenario whose
/// thresholds split `windows` into both classes.
fn random_dataset(events: &[RawEvent], windows: &[(u32, u64, u64)]) -> Dataset {
    let mut ds = Dataset::new();
    let stacks: [StackId; 3] = [
        ds.stacks.intern_symbols(&["app!Main"]),
        ds.stacks.intern_symbols(&["app!Main", "a.sys!Read"]),
        ds.stacks.intern_symbols(&["w!Worker", "b.sys!Decrypt"]),
    ];
    let mut b = TraceStreamBuilder::new(0);
    for &(kind, tid, t, cost, stack, woken) in events {
        let (tid, t, cost, stack) = (ThreadId(tid), TimeNs(t), TimeNs(cost), stacks[stack]);
        match kind {
            0 => b.push_running(tid, t, cost, stack),
            1 => b.push_wait(tid, t, TimeNs::ZERO, stack),
            2 => {
                let woken = if woken == tid.0 {
                    (woken + 1) % 3
                } else {
                    woken
                };
                b.push_unwait(tid, ThreadId(woken), t, stack)
            }
            _ => b.push_hardware(tid, t, cost, stack),
        };
    }
    ds.streams
        .push(b.finish().expect("builder output is valid"));
    let name = ScenarioName::new("R");
    ds.scenarios.push(Scenario {
        name,
        thresholds: Thresholds::new(TimeNs(200), TimeNs(300)),
    });
    ds.instances = windows
        .iter()
        .map(|&(tid, t0, len)| ScenarioInstance {
            trace: TraceId(0),
            scenario: name,
            tid: ThreadId(tid),
            t0: TimeNs(t0),
            t1: TimeNs(t0 + len),
        })
        .collect();
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_streams_give_the_same_records_and_awgs(
        events in prop::collection::vec(raw_event(), 0..80),
        windows in prop::collection::vec((0u32..3, 0u64..500, 1u64..500), 1..6),
    ) {
        check(&random_dataset(&events, &windows), "random stream");
    }
}
