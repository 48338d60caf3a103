//! R3 — Resource-governance sweep: memory budget vs. coverage.
//!
//! Under injected resource pressure (a [`MemFaultPlan`] inflating a
//! deterministic fraction of unit cost estimates 64×), the study runs
//! against a sweep of live-bytes budgets under both over-budget
//! policies:
//!
//! * **shed** — over-budget units are quarantined without running; the
//!   sweep reports how scenario coverage falls as the budget tightens,
//! * **degrade** — over-budget units run on a budget-bounded input
//!   slice; coverage stays full while the numbers describe less data.
//!
//! Every row must complete (governance is fail-operational) with every
//! unit accounted for: admitted + queued + degraded + shed = units.
//! The preamble measures governance overhead — a governed run whose
//! budget is finite but never constraining, against the plain
//! supervised pipeline — which CI gates at < 5%. Results land in
//! `BENCH_governance.json` (override with `TRACELENS_BENCH_OUT`).

use std::fmt::Write as _;
use std::time::Instant;
use tracelens::prelude::*;
use tracelens_bench::{pct, row, rule, selected_names, BenchArgs};

/// Budgets swept, in MiB; `0` means unlimited (the governance-off row).
const BUDGETS_MB: [u64; 7] = [0, 64, 16, 8, 4, 2, 1];

/// A finite budget no estimate of this workload ever approaches: arms
/// the whole governance machinery without constraining anything.
const UNCONSTRAINED_MB: u64 = 1 << 20;

/// Default JSON artifact path (repo root when run via `cargo run`).
const DEFAULT_OUT: &str = "BENCH_governance.json";

fn main() {
    let args = BenchArgs::parse();
    let traces = args.traces.min(120); // 14 governed studies; keep the sweep snappy
    let seed = args.seed;
    let (telemetry, sink) = args.telemetry_handle();
    eprintln!("generating {traces} traces (seed {seed})...");
    let ds = tracelens_bench::selected_dataset_traced(traces, seed, &telemetry);
    let names = selected_names();
    let pressure = MemFaultPlan::new(seed ^ 0x90BE)
        .with_rate(0.5)
        .with_factor(64);

    eprintln!("running ungoverned baseline study...");
    let baseline = Study::run_supervised_traced(&ds, &StudyConfig::default(), &names, &telemetry)
        .expect("baseline run completes");
    let baseline_ia = baseline.impact.ia_wait();
    eprintln!(
        "baseline: IA_wait {}, {} scenarios",
        pct(baseline_ia),
        baseline.scenarios.len()
    );

    // ---- Governance overhead: estimates + admission + reporting on a
    // budget that never constrains, against the plain supervised run.
    // Each sample times a batch of runs so that single-run jitter (the
    // whole study is about ten milliseconds) does not dominate. Samples
    // come in (plain, governed) pairs taken back to back, so drift in the
    // host's load hits both sides of a pair alike; the overhead is the
    // median of the pairs' ratios.
    const RUNS_PER_SAMPLE: u32 = 6;
    const PAIRS: usize = 15;
    let sample = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..RUNS_PER_SAMPLE {
            f();
        }
        t0.elapsed().as_secs_f64() / RUNS_PER_SAMPLE as f64
    };
    let plain = || {
        let _ = Study::run_supervised(&ds, &StudyConfig::default(), &names)
            .expect("plain supervised run");
    };
    let governed_cfg = StudyConfig {
        govern: GovernPolicy::with_budget_mb(UNCONSTRAINED_MB),
        ..StudyConfig::default()
    };
    let governed = || {
        let study =
            Study::run_governed(&ds, &governed_cfg, &names).expect("unconstrained governed run");
        assert_eq!(study.governance.constrained(), 0, "budget must not bind");
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|_| (sample(&plain), sample(&governed)))
        .collect();
    let plain_wall = median(pairs.iter().map(|p| p.0).collect());
    let governed_wall = median(pairs.iter().map(|p| p.1).collect());
    let overhead = median(pairs.iter().map(|(p, g)| g / p).collect()) - 1.0;
    eprintln!(
        "clean run: plain {plain_wall:.3}s, governed {governed_wall:.3}s \
         (governance overhead {:+.1}%)",
        overhead * 100.0
    );

    println!("== R3: budget sweep under 64x resource pressure (rate 0.5) ==\n");
    let widths = [8, 9, 9, 7, 9, 5, 10, 10, 12];
    row(
        &[
            "budget",
            "policy",
            "admitted",
            "queued",
            "degraded",
            "shed",
            "scenarios",
            "lost inst",
            "min retain",
        ],
        &widths,
    );
    rule(&widths);

    struct Sample {
        budget_mb: u64,
        action: &'static str,
        admitted: usize,
        queued: usize,
        degraded: usize,
        shed: usize,
        completed_scenarios: usize,
        lost_instances: usize,
        peak_estimated_bytes: u64,
        min_retain_per_mille: u32,
        ia_wait: f64,
    }
    let mut samples: Vec<Sample> = Vec::new();

    for budget_mb in BUDGETS_MB {
        for (action, label) in [
            (OverBudgetAction::Shed, "shed"),
            (OverBudgetAction::Degrade, "degrade"),
        ] {
            // The unlimited row is policy-independent; emit it once.
            if budget_mb == 0 && action == OverBudgetAction::Degrade {
                continue;
            }
            let cfg = StudyConfig {
                govern: GovernPolicy::with_budget_mb(budget_mb).on_over_budget(action),
                mem_faults: Some(pressure),
                ..StudyConfig::default()
            };
            let study = Study::run_governed_traced(&ds, &cfg, &names, &telemetry)
                .expect("governed run always completes");
            let gov = &study.governance;
            assert_eq!(
                gov.admitted + gov.queued + gov.degraded + gov.shed,
                names.len(),
                "budget {budget_mb} MiB / {label}: unit lost"
            );
            if budget_mb == 0 {
                assert!(!gov.is_governed(), "0 MiB must mean unlimited");
                assert_eq!(study.scenarios.len(), baseline.scenarios.len());
            }
            let ia = study.impact.ia_wait();
            // The smallest input slice any degraded unit ran on; 1000‰
            // means no unit was degraded on this row.
            let min_retain = gov
                .decisions
                .iter()
                .filter_map(|d| match &d.admission {
                    Admission::Degraded(deg) => Some(deg.retain_per_mille),
                    _ => None,
                })
                .min()
                .unwrap_or(1000);
            row(
                &[
                    &if budget_mb == 0 {
                        "inf".to_owned()
                    } else {
                        format!("{budget_mb} MiB")
                    },
                    if budget_mb == 0 { "-" } else { label },
                    &gov.admitted.to_string(),
                    &gov.queued.to_string(),
                    &gov.degraded.to_string(),
                    &gov.shed.to_string(),
                    &format!("{}/{}", study.scenarios.len(), names.len()),
                    &study.execution.lost_instances().to_string(),
                    &format!("{min_retain}‰"),
                ],
                &widths,
            );
            samples.push(Sample {
                budget_mb,
                action: if budget_mb == 0 { "none" } else { label },
                admitted: gov.admitted,
                queued: gov.queued,
                degraded: gov.degraded,
                shed: gov.shed,
                completed_scenarios: study.scenarios.len(),
                lost_instances: study.execution.lost_instances(),
                peak_estimated_bytes: gov.peak_estimated_bytes,
                min_retain_per_mille: min_retain,
                ia_wait: ia,
            });
        }
    }

    println!();
    println!("every row completed a full study: over-budget units are queued,");
    println!("degraded, or shed — never fatal. See tracelens-pool::governed_supervised_map.");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"governance\",");
    let _ = writeln!(json, "  \"traces\": {traces},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"instances\": {},", ds.instances.len());
    let _ = writeln!(json, "  \"pressure\": \"{pressure}\",");
    let _ = writeln!(json, "  \"baseline_ia_wait\": {baseline_ia:.6},");
    let _ = writeln!(json, "  \"plain_wall_s\": {plain_wall:.6},");
    let _ = writeln!(json, "  \"governed_wall_s\": {governed_wall:.6},");
    let _ = writeln!(json, "  \"governance_overhead\": {overhead:.4},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"budget_mb\": {}, \"action\": \"{}\", \"admitted\": {}, \
             \"queued\": {}, \"degraded\": {}, \"shed\": {}, \
             \"completed_scenarios\": {}, \"lost_instances\": {}, \
             \"peak_estimated_bytes\": {}, \"min_retain_per_mille\": {}, \
             \"ia_wait\": {:.6} }}{comma}",
            s.budget_mb,
            s.action,
            s.admitted,
            s.queued,
            s.degraded,
            s.shed,
            s.completed_scenarios,
            s.lost_instances,
            s.peak_estimated_bytes,
            s.min_retain_per_mille,
            s.ia_wait
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
