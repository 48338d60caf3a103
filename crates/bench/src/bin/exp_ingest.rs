//! I1 — trace-store ingest throughput: the text parse in memory, the
//! same parse streamed from a file through the store, and the `.tlb`
//! binary-cache load, over the selected-scenario corpus (600 traces by
//! default, the Table 1–4 workload).
//!
//! The paper's evaluation ingests ~19,500 real ETW traces, so ingest is
//! what a user of the study waits on first. Every mode's result is
//! verified byte-identical (via `write_text`) to the corpus before its
//! throughput counts, and two gates are enforced in-process:
//!
//! * the binary load must beat the in-memory text parse outright, and
//! * stack/symbol interning must not dominate the text parse (the
//!   satellite check for the `StackTable::intern` fix: interning is
//!   bounded below half the parse wall).
//!
//! Results land in `BENCH_ingest.json` (override with
//! `TRACELENS_BENCH_OUT`):
//!
//! ```text
//! TRACELENS_BENCH_OUT=/tmp/i.json \
//!   cargo run --release -p tracelens-bench --bin exp_ingest -- 600 2014
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tracelens::model::{fingerprint_bytes, StackId};
use tracelens::prelude::*;
use tracelens_bench::{row, rule, selected_dataset, BenchArgs};

/// Wall-time samples per mode; the minimum is reported.
const RUNS: usize = 5;

/// Default JSON artifact path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_ingest.json";

struct ModeSample {
    mode: &'static str,
    wall_s: f64,
    events_per_s: f64,
    mb_per_s: f64,
    speedup_vs_serial: f64,
}

/// Minimum wall time over [`RUNS`] runs of `f`, plus one result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("RUNS >= 1"))
}

fn main() {
    let args = BenchArgs::parse();
    let (traces, seed) = (args.traces, args.seed);
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = selected_dataset(traces, seed, &Telemetry::noop());
    let mut text = Vec::new();
    ds.write_text(&mut text).expect("serialize corpus");
    let events = ds.total_events();
    let mb = text.len() as f64 / 1e6;
    eprintln!(
        "corpus: {} traces / {events} events / {:.1} MB of text",
        ds.streams.len(),
        mb
    );

    let verify = |parsed: &Dataset, mode: &str| {
        let mut back = Vec::new();
        parsed.write_text(&mut back).expect("serialize");
        assert_eq!(back, text, "{mode}: ingest result diverged from the corpus");
    };

    // Mode 1 — the text parse over in-memory bytes.
    let (text_wall, parsed) = best_of(|| Dataset::read_text_bytes(&text).expect("clean corpus"));
    verify(&parsed, "text-serial");

    // Mode 2 — the same parse streamed from a file through the store,
    // as `tracelens report FILE` reads it (the file sits in the page
    // cache after the first run).
    let path =
        std::env::temp_dir().join(format!("tracelens-exp-ingest-{}.tlt", std::process::id()));
    std::fs::write(&path, &text).expect("write corpus file");
    let telemetry = Telemetry::noop();
    let (stream_wall, (parsed, _)) =
        best_of(|| tracelens::store::ingest_path(&path, false, &telemetry).expect("clean corpus"));
    let _ = std::fs::remove_file(&path);
    verify(&parsed, "text-stream");

    // Mode 3 — `.tlb` binary columnar load (pack once, read many).
    let image = ds.to_binary(fingerprint_bytes(&text));
    let (binary_wall, (parsed, _)) = best_of(|| Dataset::read_binary(&image).expect("fresh image"));
    verify(&parsed, "binary");

    // Satellite micro-assertion: replay exactly the interning the text
    // parse performs (every frame string and stack of the corpus, once)
    // and bound it below half the text parse wall — interning must
    // not be the top ingest cost.
    let resolved: Vec<Vec<&str>> = (0..ds.stacks.len())
        .map(|i| ds.stacks.resolve_frames(StackId(i as u32)))
        .collect();
    let (intern_wall, table) = best_of(|| {
        let mut t = StackTable::new();
        let mut frames = Vec::new();
        for stack in &resolved {
            frames.clear();
            for f in stack {
                frames.push(t.intern_frame(f));
            }
            t.intern(&frames);
        }
        t
    });
    assert_eq!(table.len(), ds.stacks.len(), "intern replay is faithful");
    assert!(
        intern_wall < text_wall * 0.5,
        "interning ({intern_wall:.4}s) dominates the text parse ({text_wall:.4}s)"
    );

    assert!(
        binary_wall < text_wall,
        "binary load ({binary_wall:.4}s) must beat the text parse ({text_wall:.4}s)"
    );

    let sample = |mode: &'static str, wall: f64, bytes: usize| ModeSample {
        mode,
        wall_s: wall,
        events_per_s: events as f64 / wall,
        mb_per_s: bytes as f64 / 1e6 / wall,
        speedup_vs_serial: text_wall / wall,
    };
    let samples = [
        sample("text-serial", text_wall, text.len()),
        sample("text-stream", stream_wall, text.len()),
        sample("binary", binary_wall, image.len()),
    ];

    println!("== I1: ingest throughput — {traces} traces, {events} events ==\n");
    let widths = [14, 10, 13, 10, 9];
    row(&["mode", "wall", "events/s", "MB/s", "speedup"], &widths);
    rule(&widths);
    for s in &samples {
        row(
            &[
                s.mode,
                &format!("{:.4}s", s.wall_s),
                &format!("{:.0}", s.events_per_s),
                &format!("{:.1}", s.mb_per_s),
                &format!("{:.2}x", s.speedup_vs_serial),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "interning replay: {intern_wall:.4}s ({:.0}% of the text parse)",
        100.0 * intern_wall / text_wall
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ingest_throughput\",");
    let _ = writeln!(json, "  \"traces\": {traces},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"text_bytes\": {},", text.len());
    let _ = writeln!(json, "  \"binary_bytes\": {},", image.len());
    let _ = writeln!(json, "  \"intern_wall_s\": {intern_wall:.6},");
    let _ = writeln!(
        json,
        "  \"intern_fraction_of_serial\": {:.4},",
        intern_wall / text_wall
    );
    let _ = writeln!(json, "  \"modes\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"mode\": \"{}\", \"wall_s\": {:.6}, \"events_per_s\": {:.0}, \
             \"mb_per_s\": {:.2}, \"speedup_vs_serial\": {:.3} }}{comma}",
            s.mode, s.wall_s, s.events_per_s, s.mb_per_s, s.speedup_vs_serial
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("TRACELENS_BENCH_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_owned());
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
