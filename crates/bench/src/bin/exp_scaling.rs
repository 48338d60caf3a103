//! E-scaling — full-pipeline thread-scaling: `Study::run` over the
//! selected-scenario corpus at 1, 2, 4 and 8 worker threads.
//!
//! For every job count the run records wall time, the trace-store
//! ingest wall time and RSS high-water mark (measured separately so the
//! JSON keeps ingest cost apart from analysis cost), per-stage *busy*
//! time (summed across workers, so it can exceed wall time once the
//! pool fans out), pool task/batch counters, the process RSS high-water
//! mark (`VmHWM`, monotonic across runs), and the speedup against the
//! sequential run — and asserts the rendered Markdown report is
//! byte-identical to the `jobs=1` report, so the scaling numbers are
//! only ever about *speed*.
//!
//! Results land in `BENCH_pipeline.json` (override the path with
//! `TRACELENS_BENCH_OUT`), hand-rolled JSON in the house style:
//!
//! ```text
//! TRACELENS_BENCH_OUT=/tmp/b.json \
//!   cargo run --release -p tracelens-bench --bin exp_scaling -- 600 2014
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tracelens::prelude::*;
use tracelens_bench::{selected_dataset, selected_names, BenchArgs};

/// Job counts exercised, ascending; the first is the baseline.
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pipeline stages whose busy time the report breaks out.
const STAGES: [&str; 6] = [
    stage::WAITGRAPH,
    stage::IMPACT,
    stage::CLASSES,
    stage::AGGREGATE,
    stage::SEGMENTS,
    stage::CONTRAST,
];

/// Default output path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_pipeline.json";

struct RunSample {
    jobs: usize,
    wall_s: f64,
    speedup: f64,
    ingest_wall_s: f64,
    ingest_peak_rss_kb: Option<u64>,
    peak_rss_kb: Option<u64>,
    stage_busy_s: Vec<(&'static str, f64)>,
    pool_tasks: u64,
    pool_batches: u64,
    report_identical: bool,
}

/// The process resident-set high-water mark in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("generating {traces} traces (seed {seed}); {cores} cores available...");
    let ds = selected_dataset(traces, seed);
    let names = selected_names();
    let mut text = Vec::new();
    ds.write_text(&mut text).expect("serialize corpus");

    let mut baseline_md: Option<String> = None;
    let mut baseline_wall = 0.0f64;
    let mut samples = Vec::new();
    for jobs in JOB_COUNTS {
        let (telemetry, sink) = CollectingSink::telemetry();
        // Ingest cost is measured separately from the analysis pipeline
        // so BENCH_pipeline.json keeps the two apart.
        let t0 = Instant::now();
        let (ingested, _) =
            tracelens::store::ingest_reader(&text[..], &telemetry).expect("corpus reparses");
        let ingest_wall_s = t0.elapsed().as_secs_f64();
        let ingest_peak_rss_kb = peak_rss_kb();
        assert_eq!(
            ingested.total_events(),
            ds.total_events(),
            "jobs={jobs}: ingest dropped events"
        );
        drop(ingested);
        let config = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        let t0 = Instant::now();
        let study = Study::run_traced(&ds, &config, &names, &telemetry);
        let wall_s = t0.elapsed().as_secs_f64();
        let md = tracelens::render_markdown(&study, &ds, &tracelens::ReportOptions::default());
        let report_identical = match &baseline_md {
            None => {
                baseline_md = Some(md);
                baseline_wall = wall_s;
                true
            }
            Some(base) => *base == md,
        };
        assert!(
            report_identical,
            "jobs={jobs}: report diverged from the sequential run"
        );
        let report = sink.report();
        let ns = |name: &str| report.total_ns(name) as f64 / 1e9;
        samples.push(RunSample {
            jobs,
            wall_s,
            speedup: baseline_wall / wall_s,
            ingest_wall_s,
            ingest_peak_rss_kb,
            peak_rss_kb: peak_rss_kb(),
            stage_busy_s: STAGES.iter().map(|&s| (s, ns(s))).collect(),
            pool_tasks: counter(&report, "pool.tasks"),
            pool_batches: counter(&report, "pool.batches"),
            report_identical,
        });
        eprintln!(
            "jobs={jobs}: ingest {ingest_wall_s:.3}s, analysis {wall_s:.3}s (speedup {:.2}x)",
            baseline_wall / wall_s
        );
    }

    let json = render_json(&ds, traces, seed, cores, &samples);
    let out = std::env::var("TRACELENS_BENCH_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_owned());
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    print!("{json}");
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.metrics.counters.get(name).copied().unwrap_or(0)
}

fn render_json(
    ds: &Dataset,
    traces: usize,
    seed: u64,
    cores: usize,
    samples: &[RunSample],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"pipeline_scaling\",");
    let _ = writeln!(out, "  \"traces\": {traces},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"instances\": {},", ds.instances.len());
    let _ = writeln!(out, "  \"events\": {},", ds.total_events());
    let _ = writeln!(out, "  \"runs\": [");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"jobs\": {},", s.jobs);
        let _ = writeln!(out, "      \"wall_s\": {:.6},", s.wall_s);
        let _ = writeln!(out, "      \"speedup\": {:.3},", s.speedup);
        let _ = writeln!(out, "      \"ingest_wall_s\": {:.6},", s.ingest_wall_s);
        match s.ingest_peak_rss_kb {
            Some(kb) => {
                let _ = writeln!(out, "      \"ingest_peak_rss_kb\": {kb},");
            }
            None => {
                let _ = writeln!(out, "      \"ingest_peak_rss_kb\": null,");
            }
        }
        match s.peak_rss_kb {
            Some(kb) => {
                let _ = writeln!(out, "      \"peak_rss_kb\": {kb},");
            }
            None => {
                let _ = writeln!(out, "      \"peak_rss_kb\": null,");
            }
        }
        let _ = writeln!(out, "      \"pool_tasks\": {},", s.pool_tasks);
        let _ = writeln!(out, "      \"pool_batches\": {},", s.pool_batches);
        let _ = writeln!(out, "      \"stage_busy_s\": {{");
        for (j, (name, busy)) in s.stage_busy_s.iter().enumerate() {
            let comma = if j + 1 < s.stage_busy_s.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "        \"{name}\": {busy:.6}{comma}");
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"report_identical\": {}", s.report_identical);
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
