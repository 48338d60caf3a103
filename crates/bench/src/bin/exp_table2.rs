//! E3 — Table 2: per-scenario Driver Cost, impactful-time coverage (ITC),
//! and total-time coverage (TTC) of the discovered contrast patterns.
//!
//! Paper averages: driver cost 54.2 %, ITC 24.9 %, TTC 36.0 %; shape:
//! ITC ≤ TTC everywhere, with BrowserTabSwitch lowest (7.8 % / 17.5 %)
//! because most of its driver cost is direct hardware service.

use tracelens::prelude::*;
use tracelens_bench::{pct, row, rule, selected_dataset, selected_names, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = selected_dataset(traces, seed, &telemetry);
    let (study, _) =
        Study::run(ds, &StudyConfig::default(), &selected_names(), &telemetry).expect("study runs");

    let widths = [22, 12, 10, 10];
    println!("== E3: Table 2 — Impactful-Time and Total-Time Coverages ==");
    row(&["Scenario (Tslow)", "DriverCost", "ITC", "TTC"], &widths);
    rule(&widths);
    let (mut dc_sum, mut itc_sum, mut ttc_sum, mut n) = (0.0, 0.0, 0.0, 0usize);
    for name in selected_names() {
        let s = &study.scenarios[&name];
        let driver_cost = s.slow_impact.component_cost_share();
        match &s.causality {
            Ok(report) => {
                dc_sum += driver_cost;
                itc_sum += report.itc();
                ttc_sum += report.ttc();
                n += 1;
                row(
                    &[
                        name.as_str(),
                        &pct(driver_cost),
                        &pct(report.itc()),
                        &pct(report.ttc()),
                    ],
                    &widths,
                );
            }
            Err(e) => row(
                &[name.as_str(), &pct(driver_cost), "-", &format!("({e})")],
                &widths,
            ),
        }
    }
    rule(&widths);
    if n > 0 {
        row(
            &[
                "Average",
                &pct(dc_sum / n as f64),
                &pct(itc_sum / n as f64),
                &pct(ttc_sum / n as f64),
            ],
            &widths,
        );
    }
    println!();
    println!("paper averages: DriverCost 54.2%, ITC 24.9%, TTC 36.0%");
    args.write_telemetry(sink.as_deref());
}
