//! # tracelens-bench
//!
//! Experiment harness: binaries that regenerate every table and figure of
//! the paper's evaluation (see `DESIGN.md` §4 for the experiment index),
//! plus Criterion benches over the analysis algorithms.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p tracelens-bench --bin exp_table2
//! ```
//!
//! Every binary accepts two optional positional arguments:
//! `<traces> <seed>` — the number of simulated trace streams and the
//! workload seed — so results are reproducible and scalable — plus an
//! optional `--telemetry <path>` flag (or the `TRACELENS_TELEMETRY`
//! environment variable) that writes per-stage spans, counters, and
//! histograms of the run to `<path>` as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use tracelens::prelude::*;

/// Default number of simulated traces for the causality experiments
/// (≈ 1/10 of the paper's instance counts for the selected scenarios).
pub const DEFAULT_TRACES: usize = 600;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2014;

/// Environment variable naming the telemetry output path; the
/// `--telemetry` flag takes precedence.
pub const TELEMETRY_ENV: &str = "TRACELENS_TELEMETRY";

/// The common CLI surface of every experiment binary:
/// `[traces] [seed] [--telemetry <path>]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Number of simulated trace streams.
    pub traces: usize,
    /// Workload seed.
    pub seed: u64,
    /// Where to write the run's telemetry report (JSON); `None`
    /// disables collection entirely (the default).
    pub telemetry: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            traces: DEFAULT_TRACES,
            seed: DEFAULT_SEED,
            telemetry: None,
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments and the [`TELEMETRY_ENV`] variable.
    pub fn parse() -> BenchArgs {
        BenchArgs::from_iter(
            std::env::args().skip(1),
            std::env::var(TELEMETRY_ENV).ok().filter(|v| !v.is_empty()),
        )
    }

    /// Parsing core, split out for testing: positionals fill `traces`
    /// then `seed`; `--telemetry <path>` / `--telemetry=<path>`
    /// overrides `env` (the [`TELEMETRY_ENV`] value, if any).
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I, env: Option<String>) -> BenchArgs {
        let mut out = BenchArgs {
            telemetry: env.map(PathBuf::from),
            ..BenchArgs::default()
        };
        let mut positional = 0;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--telemetry" {
                if let Some(path) = args.next() {
                    out.telemetry = Some(PathBuf::from(path));
                }
            } else if let Some(path) = arg.strip_prefix("--telemetry=") {
                out.telemetry = Some(PathBuf::from(path));
            } else {
                match positional {
                    0 => out.traces = arg.parse().unwrap_or(DEFAULT_TRACES),
                    1 => out.seed = arg.parse().unwrap_or(DEFAULT_SEED),
                    _ => {}
                }
                positional += 1;
            }
        }
        out
    }

    /// A telemetry handle for the run: a collecting sink when a
    /// telemetry path was requested, a free disabled handle otherwise.
    pub fn telemetry_handle(&self) -> (Telemetry, Option<Arc<CollectingSink>>) {
        if self.telemetry.is_some() {
            let (telemetry, sink) = CollectingSink::telemetry();
            (telemetry, Some(sink))
        } else {
            (Telemetry::noop(), None)
        }
    }

    /// Writes the collected report as JSON to the requested path. Call
    /// once, after the instrumented work (and after dropping any open
    /// [`tracelens::obs::SpanGuard`]s). No-op when telemetry is off.
    pub fn write_telemetry(&self, sink: Option<&CollectingSink>) {
        let (Some(path), Some(sink)) = (&self.telemetry, sink) else {
            return;
        };
        let report = sink.report();
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("telemetry written to {}", path.display()),
            Err(e) => eprintln!("error: cannot write telemetry to {}: {e}", path.display()),
        }
    }
}

/// Parses the common `<traces> <seed>` CLI arguments.
///
/// Thin wrapper over [`BenchArgs::parse`] for binaries that do not
/// emit telemetry.
pub fn cli_args() -> (usize, u64) {
    let args = BenchArgs::parse();
    (args.traces, args.seed)
}

/// Builds the selected-scenario data set used by Tables 1–4.
///
/// Uses a wider start window and fewer instances per trace than the
/// full-population mix: the eight selected scenarios are driver-heavy,
/// and packing them too densely entangles nearly every instance into a
/// chain, starving the fast contrast classes. Generation reports the
/// `sim` stage through `telemetry`.
pub fn selected_dataset(traces: usize, seed: u64, telemetry: &Telemetry) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Selected)
        .instances_per_trace(2, 4)
        .start_window_ms(350)
        .telemetry(telemetry.clone())
        .build()
}

/// Builds the full-population data set used by the §5.1 impact study,
/// reporting the `sim` stage through `telemetry`.
pub fn full_dataset(traces: usize, seed: u64, telemetry: &Telemetry) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(traces)
        .mix(ScenarioMix::Full)
        .telemetry(telemetry.clone())
        .build()
}

/// The eight selected scenario names, in Table-1 order.
pub fn selected_names() -> Vec<ScenarioName> {
    ScenarioName::SELECTED
        .iter()
        .map(|&s| ScenarioName::new(s))
        .collect()
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a fixed-width table row.
pub fn row(cells: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:<w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a horizontal rule sized for `widths`.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.364), "36.4%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn selected_names_match_table1() {
        let names = selected_names();
        assert_eq!(names.len(), 8);
        assert_eq!(names[0].as_str(), "AppAccessControl");
    }

    #[test]
    fn datasets_build_small() {
        let ds = selected_dataset(2, 1, &Telemetry::noop());
        assert_eq!(ds.streams.len(), 2);
        let full = full_dataset(2, 1, &Telemetry::noop());
        assert_eq!(full.scenarios.len(), 13);
    }

    fn parse(args: &[&str], env: Option<&str>) -> BenchArgs {
        BenchArgs::from_iter(
            args.iter().map(|s| s.to_string()),
            env.map(|s| s.to_string()),
        )
    }

    #[test]
    fn args_defaults() {
        let a = parse(&[], None);
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.traces, DEFAULT_TRACES);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(a.telemetry.is_none());
    }

    #[test]
    fn args_positionals_and_flag() {
        let a = parse(&["50", "7", "--telemetry", "out.json"], None);
        assert_eq!((a.traces, a.seed), (50, 7));
        assert_eq!(
            a.telemetry.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        // = form, and flag before positionals.
        let b = parse(&["--telemetry=t.json", "50"], None);
        assert_eq!((b.traces, b.seed), (50, DEFAULT_SEED));
        assert_eq!(b.telemetry.as_deref(), Some(std::path::Path::new("t.json")));
    }

    #[test]
    fn args_env_fallback_and_override() {
        let a = parse(&[], Some("env.json"));
        assert_eq!(
            a.telemetry.as_deref(),
            Some(std::path::Path::new("env.json"))
        );
        let b = parse(&["--telemetry", "cli.json"], Some("env.json"));
        assert_eq!(
            b.telemetry.as_deref(),
            Some(std::path::Path::new("cli.json"))
        );
    }

    #[test]
    fn telemetry_handle_off_by_default() {
        let (t, sink) = BenchArgs::default().telemetry_handle();
        assert!(!t.enabled());
        assert!(sink.is_none());
        let on = BenchArgs {
            telemetry: Some("x.json".into()),
            ..BenchArgs::default()
        };
        let (t, sink) = on.telemetry_handle();
        assert!(t.enabled());
        assert!(sink.is_some());
    }
}
