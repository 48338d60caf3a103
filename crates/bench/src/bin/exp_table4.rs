//! E5 — Table 4: driver types involved in the top-10 contrast patterns
//! of each scenario.
//!
//! Paper shape: file-system + filter drivers dominate most scenarios
//! (AppAccessControl 9 + 9), network drivers dominate MenuDisplay
//! (7 of 10), and AppNonResponsive shows the graphics/fs/se hard-fault
//! composition.

use tracelens::prelude::*;
use tracelens_bench::{row, rule, selected_dataset, selected_names, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = selected_dataset(traces, seed, &telemetry);
    let analysis = CausalityAnalysis::default().with_telemetry(telemetry.clone());

    let types = DriverType::ALL;
    let mut widths = vec![22usize];
    widths.extend(types.iter().map(|t| t.label().len().clamp(4, 12)));

    println!("== E5: Table 4 — Top-10 Patterns Categorized by Driver Types ==");
    let mut header: Vec<String> = vec!["Scenario".into()];
    header.extend(types.iter().map(|t| shorten(t.label())));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    row(&header_refs, &widths);
    rule(&widths);

    for name in selected_names() {
        match analysis.analyze(&ds, &name) {
            Ok(report) => {
                let hist = report.driver_type_histogram(&ds.stacks, 10);
                let mut cells: Vec<String> = vec![name.as_str().to_owned()];
                for t in types {
                    let c = hist.get(&t).copied().unwrap_or(0);
                    cells.push(if c == 0 { "-".into() } else { c.to_string() });
                }
                let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
                row(&refs, &widths);
            }
            Err(e) => {
                let cells = [name.as_str().to_owned(), format!("({e})")];
                let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
                row(&refs, &widths);
            }
        }
    }
    println!();
    println!("paper shape: FileSystem+Filter dominate most rows;");
    println!("Network dominates MenuDisplay (7/10); Graphics appears in");
    println!("AppNonResponsive via the hard-fault case.");
    args.write_telemetry(sink.as_deref());
}

fn shorten(label: &str) -> String {
    label.chars().take(12).collect()
}
