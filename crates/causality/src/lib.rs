//! # tracelens-causality
//!
//! Causality analysis (paper §4): discovers behavioral patterns that are
//! likely to cause observed performance impacts, via contrast data mining
//! between a *fast* and a *slow* class of scenario instances.
//!
//! The pipeline:
//!
//! 1. **Classify** instances into contrast classes by the scenario's
//!    developer thresholds (`T_fast`, `T_slow`) — [`split_classes`].
//! 2. **Abstract** each class's Wait Graphs into an
//!    [`AggregatedWaitGraph`] (Algorithm 1): eliminate component-irrelevant
//!    roots, merge wait/unwait pairs into waiting nodes, aggregate paths
//!    by common signature prefix, and prune non-optimizable
//!    wait→hardware roots.
//! 3. **Mine** contrasts: enumerate meta-patterns ([`SignatureSetTuple`]s
//!    from path segments bounded by `k`), select contrast meta-patterns
//!    (slow-only, or common with average cost ratio above
//!    `T_slow / T_fast`), lift them to full-path contrast patterns, merge
//!    and rank by average cost `P.C / P.N`.
//!
//! ```
//! use tracelens_causality::{CausalityAnalysis, CausalityConfig};
//! use tracelens_model::ScenarioName;
//! use tracelens_sim::{DatasetBuilder, ScenarioMix};
//!
//! let ds = DatasetBuilder::new(11)
//!     .traces(60)
//!     .mix(ScenarioMix::Only(vec!["BrowserTabCreate".into()]))
//!     .build();
//! let report = CausalityAnalysis::new(CausalityConfig::default())
//!     .analyze(&ds, &ScenarioName::new("BrowserTabCreate"))?;
//! assert!(!report.patterns.is_empty());
//! # Ok::<(), tracelens_causality::CausalityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod awg;
mod classes;
mod contrast;
mod drilldown;
mod pipeline;
mod regress;
mod segments;
mod triage;
mod tuple;

pub use aggregate::Aggregator;
pub use awg::{AggregatedWaitGraph, AwgId, AwgKey, AwgNode, InstanceTag, MAX_EXAMPLES};
pub use classes::{split_classes, ClassSplit};
pub use contrast::{
    mine_contrasts, mine_contrasts_pooled, mine_contrasts_traced, ContrastPattern, MiningStats,
};
pub use drilldown::{locate_pattern, PatternSite};
pub use pipeline::{
    AnalysisProbe, CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport,
    ClassAggregators,
};
pub use regress::{find_regressions, Regression, RegressionConfig};
pub use segments::{enumerate_meta_patterns, MetaPatternTable};
pub use triage::Triage;
pub use tuple::SignatureSetTuple;

/// Default bound on path-segment length for meta-pattern enumeration;
/// the paper uses 5 in all experiments (§5.2.1).
pub const DEFAULT_SEGMENT_BOUND: usize = 5;
