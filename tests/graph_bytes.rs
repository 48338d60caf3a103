//! The Wait Graph layer sizes its tables by waits, not by events. A
//! counting global allocator measures the peak bytes held above each
//! stream while `StreamIndex::new` and `StreamGraph::build` run, as the
//! study runs them, on a dense corpus (8 to 12 entangled instances per
//! trace). Summed over the streams and divided by their events, it must
//! stay at most 24 bytes per event. It reads 20.5: the per-thread event
//! lists and the effective ends take 12, each event's thread slot 4 more
//! while the index is built, and the graphs hold about one node per run
//! of samples. Any 8-byte table per event on top crosses the bound, such
//! as a pair slot per event or a shared-subtree table indexed by event
//! id rather than by wait. A change that adds such a table on purpose
//! raises the bound and says why.
//!
//! Byte counts, not times, so the gate is deterministic. The binary
//! holds this one test, so nothing else allocates while it measures.

#[path = "common/counting.rs"]
mod counting;

use counting::{mark, MIB, PEAK};
use std::sync::atomic::Ordering::Relaxed;
use tracelens::impact::instances_by_stream;
use tracelens::model::Event;
use tracelens::prelude::*;
use tracelens::waitgraph::StreamGraph;

#[test]
fn the_graph_layer_holds_at_most_24_bytes_per_event() {
    let ds = DatasetBuilder::new(2014)
        .traces(100)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(8, 12)
        .start_window_ms(100)
        .build();
    let noop = Telemetry::noop();
    let (mut peaks, mut events) = (0, 0);
    for (stream, instances) in instances_by_stream(&ds, |_| true) {
        let base = mark();
        let index = StreamIndex::new(stream);
        let graph = StreamGraph::build(stream, &index, &instances, &noop);
        peaks += PEAK.load(Relaxed) - base;
        events += stream.len();
        drop((graph, index));
    }
    let held = events * std::mem::size_of::<Event>();
    assert!(held > 4 * MIB, "the corpus must be dense: {events} events");
    let per_event = peaks as f64 / events as f64;
    println!("graph layer: {per_event:.1} bytes per event over {events} events");
    assert!(
        per_event <= 24.0,
        "the graph layer held {per_event:.1} bytes per event (bound 24)"
    );
}
