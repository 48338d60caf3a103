//! E-selftrace — where does the flat scaling curve come from?
//!
//! `BENCH_pipeline.json` shows the study pipeline barely speeding up
//! from 1 to 8 jobs. This experiment answers *why* with the pipeline's
//! own instruments: every job count runs `Study::run` with a
//! `SelfTraceSink` attached, the recordings are lowered into the
//! paper's event shape, and the per-session wait accounting attributes
//! the lost wall time to pool queue waits, recorder-lock contention,
//! join-barrier idling, or the busy-time inflation that is the
//! signature of a memory-bandwidth (or single-core) ceiling.
//!
//! Results land in `BENCH_selftrace.json` (override the path with
//! `TRACELENS_BENCH_OUT`), hand-rolled JSON in the house style:
//!
//! ```text
//! TRACELENS_BENCH_OUT=/tmp/b.json \
//!   cargo run --release -p tracelens-bench --bin exp_selftrace -- 200 2014
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tracelens::prelude::*;
use tracelens::selftrace::lower;
use tracelens_bench::{selected_dataset, selected_names, BenchArgs};

/// Job counts exercised, ascending; the first is the baseline.
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Default output path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_selftrace.json";

struct RunSample {
    jobs: usize,
    wall_s: f64,
    speedup: f64,
    peak_rss_kb: Option<u64>,
    raw_events: usize,
    busy_s: f64,
    join_wait_s: f64,
    lock_wait_s: f64,
    queue_wait_s: f64,
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
    let ds = selected_dataset(traces, seed, &Telemetry::noop());
    let names = selected_names();

    let mut baseline_md: Option<String> = None;
    let mut baseline_wall = 0.0f64;
    let mut samples = Vec::new();
    for jobs in JOB_COUNTS {
        let config = StudyConfig {
            jobs,
            ..StudyConfig::default()
        };
        let t0 = Instant::now();
        let sink = SelfTraceSink::new();
        let study = Study::run(&ds, &config, &names, &sink.telemetry()).expect("study runs");
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

        let session = SelfTraceSession::new(format!("jobs={jobs}"), sink.recording());
        let lowered = lower(std::slice::from_ref(&session));
        let stats = &lowered.stats[0];
        let named = |name: &str| stats.wait_ns_by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
        samples.push(RunSample {
            jobs,
            wall_s,
            speedup: baseline_wall / wall_s,
            peak_rss_kb: peak_rss_kb(),
            raw_events: stats.raw_events,
            busy_s: stats.busy_ns() as f64 / 1e9,
            join_wait_s: named(tracelens::obs::waitpoint::POOL_JOIN),
            lock_wait_s: stats.lock_wait_ns as f64 / 1e9,
            queue_wait_s: stats.queue_wait_ns as f64 / 1e9,
            report_identical,
        });
        eprintln!(
            "jobs={jobs}: {wall_s:.3}s (speedup {:.2}x), join wait {:.3}s",
            baseline_wall / wall_s,
            named(tracelens::obs::waitpoint::POOL_JOIN),
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

/// Names the wait source that explains the gap between the ideal and
/// the observed scaling at the widest fan-out.
///
/// The candidates are the three measured wait channels plus the
/// *busy-time residual*: when workers are not blocked anywhere yet the
/// summed busy time inflates past the sequential run, the threads are
/// running but starved below the CPU — the memory-bandwidth /
/// oversubscription signature (on this corpus, pinned to however many
/// cores the host actually has).
fn dominant_wait_source(widest: &RunSample, baseline: &RunSample) -> (&'static str, f64) {
    let residual_s = (widest.busy_s - baseline.busy_s).max(0.0);
    let candidates = [
        ("pool.join (join-barrier idling)", widest.join_wait_s),
        ("obs.lock (recorder-lock contention)", widest.lock_wait_s),
        ("pool.queue (task-claim waiting)", widest.queue_wait_s),
        ("memory-bandwidth-residual (busy inflation)", residual_s),
    ];
    candidates
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", 0.0))
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
    let _ = writeln!(out, "  \"bench\": \"selftrace_wait_attribution\",");
    let _ = writeln!(out, "  \"traces\": {traces},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"instances\": {},", ds.instances.len());
    let _ = writeln!(out, "  \"events\": {},", ds.total_events());
    let (source, cost_s) = dominant_wait_source(
        samples.last().expect("at least one run"),
        samples.first().expect("at least one run"),
    );
    let _ = writeln!(out, "  \"dominant_wait_source\": \"{source}\",");
    let _ = writeln!(out, "  \"dominant_wait_s\": {cost_s:.6},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"jobs\": {},", s.jobs);
        let _ = writeln!(out, "      \"wall_s\": {:.6},", s.wall_s);
        let _ = writeln!(out, "      \"speedup\": {:.3},", s.speedup);
        match s.peak_rss_kb {
            Some(kb) => {
                let _ = writeln!(out, "      \"peak_rss_kb\": {kb},");
            }
            None => {
                let _ = writeln!(out, "      \"peak_rss_kb\": null,");
            }
        }
        let _ = writeln!(out, "      \"raw_events\": {},", s.raw_events);
        let _ = writeln!(out, "      \"busy_s\": {:.6},", s.busy_s);
        let _ = writeln!(out, "      \"join_wait_s\": {:.6},", s.join_wait_s);
        let _ = writeln!(out, "      \"lock_wait_s\": {:.6},", s.lock_wait_s);
        let _ = writeln!(out, "      \"queue_wait_s\": {:.6},", s.queue_wait_s);
        let _ = writeln!(out, "      \"report_identical\": {}", s.report_identical);
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
