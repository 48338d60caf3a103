//! R1/R2 — Robustness sweeps: graceful degradation under trace
//! corruption (R1) and under analysis-stage execution faults (R2).
//!
//! **R1** injects every *data* fault kind at rate ε into a clean
//! selected-scenario workload, sanitizes, and reruns the full study,
//! reporting how the headline numbers degrade as corruption grows:
//!
//! * coverage — fraction of input instances surviving quarantine,
//! * IA_wait — the §5.1 wait-impact headline, vs. the clean baseline,
//! * top-10 retention — fraction of the clean baseline's per-scenario
//!   top-10 contrast patterns still recovered from the corrupt data.
//!
//! The ε = 0 row doubles as the no-op check: injection and sanitization
//! must leave the data set byte-identical.
//!
//! **R2** leaves the data intact and instead makes the *analysis* fail:
//! an [`ExecFaultPlan`] panics a deterministic ε-fraction of supervised
//! work units. Every run must still complete (fail-operational), and
//! the sweep reports unit completion rate, quarantined units, lost
//! instances, and the IA_wait drift of the surviving work. Results land
//! in `BENCH_robustness.json` (override with `TRACELENS_BENCH_OUT`).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use tracelens::prelude::*;
use tracelens_bench::{pct, row, rule, selected_names, BenchArgs};

/// Fault rates swept, per fault kind.
const RATES: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.1];

/// Unit panic rates swept by the R2 execution-fault sweep.
const EXEC_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// How many top patterns per scenario form the retention baseline.
const TOP: usize = 10;

/// Default JSON artifact path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_robustness.json";

fn dataset_bytes(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    ds.write_text(&mut buf).expect("serialize");
    buf
}

/// The per-scenario top-`TOP` contrast patterns, as comparable keys.
fn top_patterns(study: &Study, stacks: &StackTable) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for (name, s) in &study.scenarios {
        let Ok(c) = &s.causality else { continue };
        for p in c.top(TOP) {
            keys.insert(format!("{name}\n{}", p.tuple.render(stacks)));
        }
    }
    keys
}

fn main() {
    let args = BenchArgs::parse();
    let traces = args.traces.min(200); // 5 full studies; keep the sweep snappy
    let seed = args.seed;
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} clean traces (seed {seed})...");
    let clean = tracelens_bench::selected_dataset(traces, seed, &telemetry);
    let clean_bytes = dataset_bytes(&clean);
    let names = selected_names();

    eprintln!("running clean baseline study...");
    let (baseline, clean) =
        Study::run(clean, &StudyConfig::default(), &names, &telemetry).expect("clean study runs");
    let baseline_ia = baseline.impact.ia_wait();
    let baseline_top = top_patterns(&baseline, &clean.stacks);
    eprintln!(
        "baseline: IA_wait {}, {} top-{TOP} patterns across {} scenarios",
        pct(baseline_ia),
        baseline_top.len(),
        baseline.scenarios.len()
    );

    // ε = 0 no-op check, hoisted out of the sweep so the data set is
    // serialized exactly once instead of once per rate: zero-rate
    // injection followed by sanitization must leave the bytes untouched.
    {
        let (uncorrupt, log) = FaultInjector::new(seed).with_all(0.0).inject(&clean);
        assert_eq!(log.total(), 0, "zero rate injects nothing");
        let (resan, report) = uncorrupt.sanitize();
        assert!(report.is_clean(), "ε=0 sanitize is a no-op");
        assert_eq!(
            dataset_bytes(&resan),
            clean_bytes,
            "ε=0 round-trip is byte-identical"
        );
    }

    println!("== R1: robustness sweep — every fault kind at rate ε ==\n");
    let widths = [7, 9, 9, 12, 9, 9, 9, 10];
    row(
        &[
            "ε",
            "injected",
            "repaired",
            "quarantined",
            "coverage",
            "IA_wait",
            "ΔIA_wait",
            "top-10 ret",
        ],
        &widths,
    );
    rule(&widths);

    let sanitize = StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    };
    for eps in RATES {
        let injector = FaultInjector::new(seed).with_all(eps);
        let (corrupt, log) = injector.inject(&clean);
        let (study, analyzed) = Study::run(corrupt, &sanitize, &names, &telemetry)
            .expect("some instances survive sanitization");
        let report = study.sanitize.as_ref().expect("sanitized");

        if eps == 0.0 {
            assert_eq!(log.total(), 0, "zero rate injects nothing");
            assert!(report.is_clean(), "ε=0 sanitize is a no-op");
        }

        let ia = study.impact.ia_wait();
        let retained = if baseline_top.is_empty() {
            1.0
        } else {
            let now = top_patterns(&study, &analyzed.stacks);
            baseline_top.intersection(&now).count() as f64 / baseline_top.len() as f64
        };
        row(
            &[
                &format!("{eps}"),
                &log.total().to_string(),
                &report.repaired().to_string(),
                &format!(
                    "{}t/{}i",
                    report.quarantined_traces, report.quarantined_instances
                ),
                &pct(study.coverage.fraction()),
                &pct(ia),
                &format!("{:+.1}pp", (ia - baseline_ia) * 100.0),
                &pct(retained),
            ],
            &widths,
        );
    }

    println!();
    println!("fault kinds injected (each at rate ε): drop_unwaits, truncate_streams,");
    println!("duplicate_events, clock_skew, dangling_stacks, orphan_waits,");
    println!("dangling_instance_refs — see tracelens-faults for the corruption model.");

    // ---- R2: execution faults — the data is fine, the analysis panics.
    println!();
    println!("== R2: execution-fault sweep — panic a fraction ε of work units ==\n");

    let widths = [7, 7, 12, 11, 10, 9, 9];
    row(
        &[
            "ε",
            "units",
            "quarantined",
            "completion",
            "lost inst",
            "IA_wait",
            "ΔIA_wait",
        ],
        &widths,
    );
    rule(&widths);

    struct ExecSample {
        rate: f64,
        units: usize,
        quarantined: usize,
        completion: f64,
        lost_instances: usize,
        ia_wait: f64,
    }
    let mut exec_samples = Vec::new();
    for eps in EXEC_RATES {
        let cfg = StudyConfig {
            exec_faults: Some(ExecFaultPlan::new(seed ^ 0xE4EC).with_panic_rate(eps)),
            ..StudyConfig::default()
        };
        let (study, _) = Study::run(clean.clone(), &cfg, &names, &telemetry)
            .expect("supervised study completes under execution faults");
        let exec = &study.execution;
        if eps == 0.0 {
            assert!(exec.is_clean(), "ε=0 must quarantine nothing");
        }
        let ia = study.impact.ia_wait();
        row(
            &[
                &format!("{eps}"),
                &exec.units.to_string(),
                &exec.quarantined().to_string(),
                &pct(exec.completion_rate()),
                &exec.lost_instances().to_string(),
                &pct(ia),
                &format!("{:+.1}pp", (ia - baseline_ia) * 100.0),
            ],
            &widths,
        );
        exec_samples.push(ExecSample {
            rate: eps,
            units: exec.units,
            quarantined: exec.quarantined(),
            completion: exec.completion_rate(),
            lost_instances: exec.lost_instances(),
            ia_wait: ia,
        });
    }

    println!();
    println!("every row completed a full study: panicking units are quarantined and");
    println!("accounted for, never fatal — see tracelens::supervise::Supervisor.");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"robustness_execution\",");
    let _ = writeln!(json, "  \"traces\": {traces},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"instances\": {},", clean.instances.len());
    let _ = writeln!(json, "  \"baseline_ia_wait\": {baseline_ia:.6},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, s) in exec_samples.iter().enumerate() {
        let comma = if i + 1 < exec_samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"panic_rate\": {}, \"units\": {}, \"quarantined\": {}, \
             \"completion_rate\": {:.4}, \"lost_instances\": {}, \
             \"ia_wait\": {:.6} }}{comma}",
            s.rate, s.units, s.quarantined, s.completion, s.lost_instances, s.ia_wait
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

    args.write_telemetry(sink.as_deref());
}
