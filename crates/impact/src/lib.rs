//! # tracelens-impact
//!
//! Impact analysis (paper §3): measures, for a chosen set of components,
//! how much of the overall scenario time is spent running them, waiting
//! in them, and — via the distinct-wait metric — how much waiting is
//! multiplied across scenario instances by cost propagation.
//!
//! The analyzer consumes a [`tracelens_model::Dataset`], builds each
//! scenario instance's Wait Graph (one shared arena per stream), and
//! produces an [`ImpactReport`] with the paper's metrics:
//!
//! * `IA_run  = D_run / D_scn` — running-time percentage,
//! * `IA_wait = D_wait / D_scn` — wait-time percentage,
//! * `IA_opt  = (D_wait − D_waitdist) / D_scn` — the extra waiting
//!   introduced by cost propagation, an upper bound on what optimizing
//!   the propagation could recover.
//!
//! ```
//! use tracelens_impact::ImpactAnalyzer;
//! use tracelens_model::ComponentFilter;
//! use tracelens_sim::DatasetBuilder;
//!
//! let ds = DatasetBuilder::new(7).traces(10).build();
//! let report = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
//! assert!(report.ia_wait() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod breakdown;
mod record;
mod report;

pub use analyzer::{instances_by_stream, instances_by_trace, ImpactAnalyzer};
pub use breakdown::{breakdown, Breakdown};
pub use record::{fold, InstanceRecord};
pub use report::ImpactReport;
