//! E6 (extension) — impact analysis on different scopes.
//!
//! §2.3: "The analyst may conduct impact analysis on different scopes to
//! realize performance impacts of different components." This experiment
//! scopes the impact analysis to each driver *type* separately,
//! producing a ranked view of which driver categories block the system
//! most — the step an analyst takes between the global §5.1 numbers and
//! picking a component set for causality analysis.

use tracelens::prelude::*;
use tracelens_bench::{full_dataset, pct, row, rule, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = full_dataset(traces, seed, &telemetry);

    println!("== E6: impact by driver type (components scoped per row) ==");
    let widths = [26, 10, 10, 10, 10];
    row(
        &["Driver type", "IA_wait", "IA_run", "IA_opt", "amp"],
        &widths,
    );
    rule(&widths);

    let mut rows: Vec<(DriverType, ImpactReport)> = DriverType::ALL
        .iter()
        .map(|&ty| {
            let filter = ComponentFilter::names(ty.known_modules().iter().copied());
            let scoped = ImpactAnalyzer::new(filter).with_telemetry(telemetry.clone());
            (ty, scoped.analyze(&ds))
        })
        .collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.d_wait));
    for (ty, r) in &rows {
        row(
            &[
                ty.label(),
                &pct(r.ia_wait()),
                &pct(r.ia_run()),
                &pct(r.ia_opt()),
                &format!("{:.2}", r.wait_amplification()),
            ],
            &widths,
        );
    }
    rule(&widths);
    let all = ImpactAnalyzer::new(ComponentFilter::suffix(".sys"))
        .with_telemetry(telemetry.clone())
        .analyze(&ds);
    row(
        &[
            "all drivers (*.sys)",
            &pct(all.ia_wait()),
            &pct(all.ia_run()),
            &pct(all.ia_opt()),
            &format!("{:.2}", all.wait_amplification()),
        ],
        &widths,
    );
    println!();
    println!("expected shape: file-system + filter drivers lead; the sum of");
    println!("scoped IA_wait values exceeds the *.sys total because nested");
    println!("waits across types are each top-level within their own scope.");
    args.write_telemetry(sink.as_deref());
}
