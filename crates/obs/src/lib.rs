//! # tracelens-obs — zero-dependency observability for tracelens
//!
//! The analysis pipeline described in the paper is itself a program
//! whose performance and behavior deserve traces. This crate provides
//! the minimal vocabulary to observe it from the inside:
//!
//! * **spans** — hierarchical wall-time measurements opened with
//!   [`Telemetry::span`] and closed by RAII guard drop;
//! * **counters** — named atomics for "how many";
//! * **histograms** — fixed-bucket latency distributions
//!   ([`Histogram`]);
//! * **sinks** — where events go: the allocation-free disabled default
//!   ([`Telemetry::noop`] / [`NoopSink`]) or the in-memory
//!   [`CollectingSink`] whose [`RunReport`] renders to JSON or
//!   markdown.
//!
//! Everything is hand-rolled on `std` — no external crates — matching
//! the workspace's textio philosophy. The JSON layer lives in
//! [`json`]; the report schema is:
//!
//! ```json
//! {
//!   "tracelens_telemetry": 1,
//!   "spans": [ {"name": "sim", "elapsed_ns": 12345, "children": [...]} ],
//!   "counters": { "sim.events": 678 },
//!   "histograms": { "waitgraph.build_ns": {"bounds": [...], "counts": [...], "sum": 9} }
//! }
//! ```
//!
//! ## Cost model
//!
//! A disabled [`Telemetry`] handle holds no sink: every call is one
//! `Option` branch, with no allocation, atomics or thread-local access.
//! Instrumented code follows two rules to keep that true:
//!
//! 1. metric names are `&'static str` constants (see [`stage`]);
//! 2. per-event work guards on [`Telemetry::enabled`] and records
//!    *stage-level* aggregates, never per-event allocations.

mod collect;
mod histogram;
pub mod json;
mod registry;
mod telemetry;

pub use collect::{CollectingSink, RunReport, SpanReport, REPORT_VERSION};
pub use histogram::{percentile_from_buckets, Histogram, DEFAULT_TIME_BOUNDS_NS};
pub use registry::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use telemetry::{NoopSink, SpanGuard, SpanId, Telemetry, TelemetrySink};

/// Canonical span names for the analysis pipeline's stages.
///
/// Every instrumented layer uses these constants so reports from
/// different binaries agree on vocabulary.
pub mod stage {
    /// Trace-corpus generation (`tracelens-sim`).
    pub const SIM: &str = "sim";
    /// Stream indexing and wait-graph construction
    /// (`tracelens-waitgraph`).
    pub const WAITGRAPH: &str = "waitgraph";
    /// Component impact accounting (`tracelens-impact`).
    pub const IMPACT: &str = "impact";
    /// Fast/slow class splitting (`tracelens-causality`).
    pub const CLASSES: &str = "classes";
    /// Per-class aggregated wait-graph construction.
    pub const AGGREGATE: &str = "aggregate";
    /// AWG reduction.
    pub const REDUCE: &str = "reduce";
    /// Segment/meta-pattern enumeration.
    pub const SEGMENTS: &str = "segments";
    /// Contrast mining of fast vs. slow patterns.
    pub const CONTRAST: &str = "contrast";
    /// A whole `Study` scenario run (parent of the above).
    pub const STUDY: &str = "study";
    /// Data-set sanitization (repair + quarantine) before analysis.
    /// Not part of [`PIPELINE`]: it only runs on corrupt input paths.
    pub const SANITIZE: &str = "sanitize";
    /// Supervised (fail-operational) execution: panic isolation and
    /// quarantine accounting. Not part of [`PIPELINE`]: supervision
    /// wraps the other stages.
    pub const SUPERVISE: &str = "supervise";
    /// Trace-store ingestion: streamed text parse or binary-cache load,
    /// plus cache writes. Not part of [`PIPELINE`]: it only runs when
    /// loading external data sets.
    pub const INGEST: &str = "ingest";
    /// Chaos campaign execution (`tracelens-chaos`): composed
    /// fault-plane runs, invariant-oracle checks, and failure
    /// minimization. Not part of [`PIPELINE`]: chaos wraps whole
    /// studies.
    pub const CHAOS: &str = "chaos";

    /// The pipeline stages every full analysis run reports, in order.
    pub const PIPELINE: &[&str] = &[
        SIM, WAITGRAPH, IMPACT, CLASSES, AGGREGATE, SEGMENTS, CONTRAST,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<&str> = stage::PIPELINE.to_vec();
        names.push(stage::REDUCE);
        names.push(stage::STUDY);
        names.push(stage::SANITIZE);
        names.push(stage::SUPERVISE);
        names.push(stage::CHAOS);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn end_to_end_smoke() {
        let (t, sink) = CollectingSink::telemetry();
        {
            let _study = t.span(stage::STUDY);
            for s in stage::PIPELINE {
                let _stage = t.span(s);
            }
            t.count("study.instances", 600);
        }
        let report = sink.report();
        for s in stage::PIPELINE {
            assert!(report.span_names().contains(s), "missing stage {s}");
        }
        let json = report.to_json();
        json::parse(&json).expect("valid JSON");
    }
}
