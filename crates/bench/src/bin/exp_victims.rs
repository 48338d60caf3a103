//! E7 (extension) — victim analysis: which applications suffer the
//! driver waiting.
//!
//! The paper's motivating case stresses that the incident hurt not just
//! the browser but "the other two applications along the propagation
//! path" (§2.2, §3.2). This experiment groups the impact analysis by the
//! initiating thread's *process*, showing how one component's delays
//! spread across victims.

use tracelens::prelude::*;
use tracelens_bench::{full_dataset, pct, row, rule, BenchArgs};

fn process_label(pid: u32) -> &'static str {
    match pid {
        0 => "system",
        1 => "browser",
        2 => "antivirus",
        3 => "config-manager",
        4 => "application",
        5 => "backup",
        _ => "other",
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = full_dataset(traces, seed, &telemetry);

    let by = ImpactAnalyzer::new(ComponentFilter::suffix(".sys"))
        .with_telemetry(telemetry.clone())
        .analyze_by_process(&ds);
    println!("== E7: victim analysis — driver impact per process ==");
    let widths = [18, 10, 12, 10, 10, 10];
    row(
        &["process", "instances", "D_wait", "IA_wait", "IA_opt", "amp"],
        &widths,
    );
    rule(&widths);
    let mut rows: Vec<_> = by.into_iter().collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.d_wait));
    for (pid, r) in &rows {
        row(
            &[
                process_label(pid.0),
                &r.instances.to_string(),
                &r.d_wait.to_string(),
                &pct(r.ia_wait()),
                &pct(r.ia_opt()),
                &format!("{:.2}", r.wait_amplification()),
            ],
            &widths,
        );
    }
    println!();
    println!("shape: every process that runs scenarios inherits driver");
    println!("waiting — cost propagation does not respect process");
    println!("boundaries (the paper's six-thread, four-process incident).");
    args.write_telemetry(sink.as_deref());
}
