//! E2 — Table 1: selected scenarios, instance counts, and contrast-class
//! sizes.
//!
//! Paper shape: 17,612 instances across the eight scenarios (we default
//! to ≈ 1/10 scale), with per-scenario fast/slow splits such as
//! BrowserTabCreate 2491 → 597 fast / 1601 slow.

use tracelens::causality::split_classes;
use tracelens_bench::{row, rule, selected_dataset, selected_names, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = selected_dataset(traces, seed, &telemetry);

    let widths = [22, 12, 12, 12, 12];
    println!("== E2: Table 1 — Selected Scenarios ==");
    row(
        &[
            "Scenario",
            "#Instances",
            "in {I}fast",
            "in {I}slow",
            "margin",
        ],
        &widths,
    );
    rule(&widths);
    let (mut ti, mut tf, mut ts, mut tm) = (0, 0, 0, 0);
    for name in selected_names() {
        let split = split_classes(&ds, &name).expect("selected scenario defined");
        ti += split.total();
        tf += split.fast.len();
        ts += split.slow.len();
        tm += split.margin.len();
        row(
            &[
                name.as_str(),
                &split.total().to_string(),
                &split.fast.len().to_string(),
                &split.slow.len().to_string(),
                &split.margin.len().to_string(),
            ],
            &widths,
        );
    }
    rule(&widths);
    row(
        &[
            "Total",
            &ti.to_string(),
            &tf.to_string(),
            &ts.to_string(),
            &tm.to_string(),
        ],
        &widths,
    );
    println!();
    println!("paper totals: 17612 instances, 7426 fast, 6738 slow (margin not reported)");
    args.write_telemetry(sink.as_deref());
}
