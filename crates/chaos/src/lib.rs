//! # tracelens-chaos — deterministic chaos campaigns for the pipeline
//!
//! The workspace hardens each fault plane in isolation: the faults
//! crate corrupts data, the store retries flaky transports and falls
//! back from torn caches, supervision quarantines panicking units.
//! This crate asks the question none of those answer alone: **do the
//! guarantees still hold when the planes fire together?**
//!
//! A campaign samples composite fault configurations — every plane
//! independently armed with seeded knobs ([`sample_campaign`]) — and
//! pushes each through the *full* pipeline: simulate, ingest through
//! injected read faults and torn caches, corrupt, sanitize, run the
//! supervised study. After every run a registry of cross-cutting
//! invariant [`oracles`] checks what fault tolerance is never allowed
//! to trade away:
//!
//! * no panic escapes the pipeline's own handling;
//! * coverage accounting is conserved — every trace, instance and unit
//!   is analyzed or quarantined, never silently dropped or invented;
//! * transient read faults and torn caches never launder a different
//!   data set into the analysis;
//! * supervision is invisible in the report when no fault fires;
//! * rendered reports stay structurally well-formed.
//!
//! Everything is deterministic in the campaign seed: configs are
//! sampled up front, runs execute in order on one thread, and campaign
//! output carries no timings — so two runs of a campaign print the same
//! bytes, and any violation replays from its seed alone. When
//! an oracle fires, [`minimize`] shrinks the configuration (drop
//! planes, halve rates, shrink the corpus) to a minimal reproducer
//! that ships as a replayable `chaos-repro.toml` ([`repro`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod minimize;
pub mod oracles;
pub mod repro;

pub use config::{sample_campaign, ChaosConfig, FaultPlane};
pub use engine::{
    run_campaign, run_config, CampaignOptions, CampaignReport, CoverageNumbers, RunArtifacts,
    RunRecord,
};
pub use minimize::{minimize, MinimizedRepro};
pub use oracles::{check_all, Oracle, Violation, ORACLES};
