//! E1 — §5.1 impact analysis on device drivers over the full data set.
//!
//! Paper reference values: `IA_wait ≈ 36.4 %`, `IA_run ≈ 1.6 %`,
//! `IA_opt ≈ 26 %`, `D_wait / D_waitdist ≈ 3.5`.

use tracelens::prelude::*;
use tracelens_bench::{full_dataset, pct, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = full_dataset(traces, seed, &telemetry);
    eprintln!(
        "dataset: {} traces, {} instances, {} events",
        ds.streams.len(),
        ds.instances.len(),
        ds.total_events()
    );

    let report = ImpactAnalyzer::new(ComponentFilter::suffix(".sys"))
        .with_telemetry(telemetry.clone())
        .analyze(&ds);

    println!("== E1: Impact analysis on device drivers (components = *.sys) ==");
    println!("{report}");
    println!();
    println!("{:<22}{:>12}{:>12}", "metric", "paper", "measured");
    println!(
        "{:<22}{:>12}{:>12}",
        "IA_wait",
        "36.4%",
        pct(report.ia_wait())
    );
    println!("{:<22}{:>12}{:>12}", "IA_run", "1.6%", pct(report.ia_run()));
    println!(
        "{:<22}{:>12}{:>12}",
        "IA_opt",
        "26.0%",
        pct(report.ia_opt())
    );
    println!(
        "{:<22}{:>12}{:>12.2}",
        "Dwait/Dwaitdist",
        "3.5",
        report.wait_amplification()
    );
    args.write_telemetry(sink.as_deref());
}
