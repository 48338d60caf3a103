//! # tracelens-model
//!
//! The trace schema shared by every tracelens crate: an abstracted,
//! ETW/DTrace-compatible representation of execution traces (the *trace
//! stream* of the paper's §2.1), plus the vocabulary the analyses are
//! phrased in — callstacks, function [`Signature`]s, [`ComponentFilter`]s,
//! application [`Scenario`]s and their instances.
//!
//! A [`TraceStream`] is a time-ordered sequence of [`Event`]s of four
//! kinds:
//!
//! * **running** — CPU usage sampled at a constant interval (1 ms in ETW),
//! * **wait** — a thread enters the waiting state (lock acquisition, I/O…),
//! * **unwait** — a running thread signals a waiting thread to continue,
//! * **hardware service** — a hardware operation with start and duration.
//!
//! Every event carries a callstack, a timestamp, a cost (duration), the
//! emitting thread id, and — for unwait events — the id of the thread
//! being woken.
//!
//! ## Example
//!
//! ```
//! use tracelens_model::{EventKind, StackTable, ThreadId, TraceStreamBuilder, TimeNs};
//!
//! let mut stacks = StackTable::new();
//! let s = stacks.intern_symbols(&["kernel!Worker", "fv.sys!QueryFileTable"]);
//! let mut b = TraceStreamBuilder::new(0);
//! b.push_wait(ThreadId(1), TimeNs(1_000), TimeNs(500), s);
//! b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(1_500), s);
//! let ts = b.finish().expect("well-formed stream");
//! assert_eq!(ts.len(), 2);
//! assert_eq!(ts.events()[0].kind, EventKind::Wait);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binio;
mod component;
mod dataset;
mod event;
mod idhash;
mod ids;
mod intern;
mod sanitize;
mod scenario;
mod signature;
mod stack;
mod stream;
mod summary;
pub mod textio;
mod time;
mod validate;

pub use binio::{
    fingerprint_bytes, header_fingerprint, BinReadError, BinReader, BIN_FORMAT_VERSION,
};
pub use component::{ComponentFilter, DriverType};
pub use dataset::{instance_counts, Dataset};
pub use event::{Event, EventKind};
pub use idhash::IdHashing;
pub use ids::{EventId, ProcessId, ThreadId, TraceId};
pub use intern::{Interner, Symbol};
pub use sanitize::{sanitize_instances, SanitizeReport, DUPLICATE_TRACE_ID};
pub use scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
pub use signature::{ParseSignatureError, Signature};
pub use stack::{FilterView, StackId, StackTable};
pub use stream::{StreamError, TraceStream, TraceStreamBuilder};
pub use summary::{DatasetSummary, DurationStats};
pub use time::TimeNs;
pub use validate::{ValidationError, Validator, Violation};

/// The CPU sampling interval used by the tracing infrastructure
/// (1 millisecond, matching ETW and DTrace as described in the paper §2.1).
pub const SAMPLE_INTERVAL: TimeNs = TimeNs(1_000_000);
