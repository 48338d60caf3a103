//! # tracelens
//!
//! Comprehending performance from execution traces: a Rust implementation
//! of the two-step trace-analysis approach of *"Comprehending
//! Performance from Real-World Execution Traces: A Device-Driver Case"*
//! (ASPLOS 2014) — **impact analysis** over Wait Graphs and **causality
//! analysis** via contrast data mining over Aggregated Wait Graphs —
//! together with the discrete-event OS/driver simulator used to generate
//! ETW-shaped synthetic trace data sets.
//!
//! This facade crate re-exports the public API of the component crates
//! and adds the [`Study`] driver that runs the paper's full evaluation
//! workflow over a data set.
//!
//! ## Quickstart
//!
//! ```
//! use tracelens::prelude::*;
//!
//! // 1. Obtain a data set (here: simulate 20 machine traces).
//! let ds = DatasetBuilder::new(42).traces(20).build();
//!
//! // 2. Impact analysis: how much do device drivers matter?
//! let impact = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&ds);
//! assert!(impact.ia_wait() > impact.ia_run());
//!
//! // 3. Causality analysis on a high-impact scenario.
//! let report = CausalityAnalysis::default()
//!     .analyze(&ds, &ScenarioName::new("BrowserTabCreate"));
//! if let Ok(report) = report {
//!     for p in report.top(3) {
//!         println!("avg {}\n{}", p.avg_cost(), p.tuple.render(&ds.stacks));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod report;
pub mod store;
mod study;
pub mod supervise;

pub use checkpoint::Checkpoint;
pub use report::{render_markdown, ReportOptions};
pub use store::{CacheFallback, IngestReport, IngestSource};
pub use study::{
    Coverage, FileStudy, FileStudyError, ScenarioStudy, Study, StudyConfig, StudyError,
    CAUSALITY_STAGE, SCENARIO_STAGE,
};

pub use tracelens_baselines as baselines;
pub use tracelens_causality as causality;
pub use tracelens_faults as faults;
pub use tracelens_impact as impact;
pub use tracelens_model as model;
pub use tracelens_obs as obs;
pub use tracelens_sim as sim;
pub use tracelens_waitgraph as waitgraph;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use tracelens_baselines::{CallGraphProfile, CostlyStackReport, LockContentionReport};
    pub use tracelens_causality::{
        locate_pattern, CausalityAnalysis, CausalityConfig, CausalityError, CausalityReport,
        ContrastPattern, PatternSite, SignatureSetTuple, Triage,
    };
    pub use tracelens_faults::{
        ExecFaultPlan, FaultInjector, FaultKind, FaultLog, FlakyReader, ReadFaultPlan,
        ALL_FAULT_KINDS,
    };
    pub use tracelens_impact::{ImpactAnalyzer, ImpactReport};
    pub use tracelens_model::textio::{RetryPolicy, RetryingReader};
    pub use tracelens_model::{
        ComponentFilter, Dataset, DatasetSummary, DriverType, DurationStats, SanitizeReport,
        Scenario, ScenarioInstance, ScenarioName, StackTable, Thresholds, TimeNs, TraceStream,
        TraceStreamBuilder,
    };
    pub use tracelens_obs::{stage, CollectingSink, RunReport, Telemetry};
    pub use tracelens_sim::{DatasetBuilder, Machine, ProgramBuilder, ScenarioMix};
    pub use tracelens_waitgraph::{StreamIndex, WaitGraph};

    pub use crate::store::{CacheFallback, IngestReport, IngestSource};
    pub use crate::supervise::{ExecutionReport, UnitFailure};
    pub use crate::{Coverage, ScenarioStudy, Study, StudyConfig, StudyError};
}
