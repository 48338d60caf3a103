//! # tracelens-waitgraph
//!
//! Wait Graph construction (the paper's §3.1, after StackMine):
//! a [`WaitGraph`] models one scenario instance, encoding wait/unwait
//! chains among threads so both running and waiting time can be measured
//! per component.
//!
//! Construction pairs each wait event with its corresponding unwait event
//! (the earliest unwait targeting the waiting thread at or after the wait
//! start), restores wait durations from the paired timestamps, and makes
//! the signalling thread's events during the wait interval the children
//! of the wait node — recursively, so multi-lock propagation chains
//! become multi-level graphs.
//!
//! ```
//! use tracelens_sim::{DatasetBuilder, ScenarioMix};
//! use tracelens_waitgraph::{StreamIndex, WaitGraph};
//!
//! let ds = DatasetBuilder::new(1).traces(2).mix(ScenarioMix::Selected).build();
//! let instance = &ds.instances[0];
//! let stream = ds.stream_of(instance).unwrap();
//! let index = StreamIndex::new(stream);
//! let wg = WaitGraph::build(stream, &index, instance);
//! assert!(wg.node_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod dot;
mod graph;
mod index;

pub use graph::{GraphView, Node, NodeId, NodeKind, StreamGraph, WaitGraph};
pub use index::StreamIndex;
