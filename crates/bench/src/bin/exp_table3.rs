//! E4 — Table 3: pattern counts and execution-time coverage of the top
//! 10 / 20 / 30 % ranked contrast patterns.
//!
//! Paper shape: strongly concave ranking curves — on average the top
//! 10 % of patterns cover 47.9 % of pattern time, top 20 % cover 80.1 %,
//! top 30 % cover 95.9 %.

use tracelens::prelude::*;
use tracelens_bench::{pct, row, rule, selected_dataset, selected_names, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = selected_dataset(traces, seed, &telemetry);
    let analysis = CausalityAnalysis::default().with_telemetry(telemetry.clone());

    let widths = [22, 10, 8, 8, 8];
    println!("== E4: Table 3 — Coverages by Ranking ==");
    row(
        &["Scenario (Tslow)", "#Patterns", "10%", "20%", "30%"],
        &widths,
    );
    rule(&widths);
    let mut sums = (0usize, 0.0, 0.0, 0.0, 0usize);
    for name in selected_names() {
        match analysis.analyze(&ds, &name) {
            Ok(report) => {
                let (c10, c20, c30) = (
                    report.coverage_top_fraction(0.10),
                    report.coverage_top_fraction(0.20),
                    report.coverage_top_fraction(0.30),
                );
                sums.0 += report.patterns.len();
                sums.1 += c10;
                sums.2 += c20;
                sums.3 += c30;
                sums.4 += 1;
                row(
                    &[
                        name.as_str(),
                        &report.patterns.len().to_string(),
                        &pct(c10),
                        &pct(c20),
                        &pct(c30),
                    ],
                    &widths,
                );
            }
            Err(e) => row(&[name.as_str(), &format!("({e})"), "-", "-", "-"], &widths),
        }
    }
    rule(&widths);
    if sums.4 > 0 {
        let n = sums.4 as f64;
        row(
            &[
                "Average",
                &(sums.0 / sums.4).to_string(),
                &pct(sums.1 / n),
                &pct(sums.2 / n),
                &pct(sums.3 / n),
            ],
            &widths,
        );
    }
    println!();
    println!("paper averages: 2822 patterns, 47.9% / 80.1% / 95.9%");
    println!("(pattern counts scale with trace diversity; the synthetic");
    println!(" workload yields fewer distinct patterns at the same shape)");
    args.write_telemetry(sink.as_deref());
}
