//! `exp_e2e` — the repository's end-to-end benchmark.
//!
//! One run measures one workload:
//!
//! ```text
//! exp_e2e --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--record FILE] [--cli PATH]
//! exp_e2e compare A.jsonl B.jsonl
//! ```
//!
//! A run generates the workload's input files from `--seed` (default
//! 2014) and times that setup three times (`setup_s`, the median). It
//! then times `tracelens report FILE -o OUT --jobs 1` as a user runs it:
//! a closed loop of one child process at a time, after one warm-up rep,
//! for `--seconds`. Each rep's wall time, spawn to exit, is divided by
//! the mean time of the [`reference`] kernel run just before and just
//! after it, which cancels the host contention both suffer; the median
//! of these ratios is `report_cost`. The run also reports events per
//! reference unit at that median and the median peak RSS of the child.
//! With `--trace 1` every rep is followed by a pass through the layers'
//! public functions ([`pass`]), alternately with per-call timers and
//! with one outer timer, giving the per-layer breakdown and what the
//! timers cost.
//!
//! Every run checks the program's output: every rep's report must be
//! byte-identical to the warm-up's; the cached workload's report must
//! equal an uncached report of the same text, and its `.tlb` must not be
//! rewritten; the `Data set:` line must state the generated corpus; the
//! `IA_wait`/`IA_run` rows must equal the one pass's `D_wait/D_scn` and
//! `D_run/D_scn`; and the one pass must agree with `ImpactAnalyzer` and
//! `CausalityAnalysis`. A failed check fails the run (exit 1).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--record FILE` also
//! appends the run, with every rep's wall time and the report digest, to
//! FILE as one JSON line; `compare` reads two such files. The workloads, the
//! layer-to-end-to-end map and a measured baseline are in README.md.
//!
//! The benchmark calls only the `report` and `pack` commands of the CLI
//! and the public functions of the `model`, `waitgraph`, `impact` and
//! `causality` crates (plus `sim` and `faults` to make inputs), so that
//! the pipeline between them can be restructured without editing it.

mod cli;
mod compare;
mod json;
mod metrics;
mod pass;
mod reference;
mod stats;
mod workload;

use json::Json;
use pass::{Layer, Pass, SanitizeCounts, LAYERS};
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{ReadPath, Workload};

/// Timed reps made even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

/// Where runs keep their generated inputs, under the working directory.
const WORK_ROOT: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("reference-kernel") => {
            std::hint::black_box(reference::kernel());
            Ok(true)
        }
        _ => Opts::parse(&args).and_then(|opts| run(&opts)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("exp_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    cli: PathBuf,
    /// This harness, re-run as the reference kernel.
    exe: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (2014u64, 15u64, false);
        let (mut record, mut cli) = (None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let number = |v: &String| v.parse::<u64>().map_err(|_| format!("{flag} {v:?}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        workload::by_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = number(value()?)?,
                "--seconds" => seconds = number(value()?)?.max(1),
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--record" => record = Some(PathBuf::from(value()?)),
                "--cli" => cli = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        let workload =
            workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let cli = cli.unwrap_or_else(|| exe.with_file_name("tracelens"));
        if !cli.is_file() {
            return Err(format!(
                "no tracelens binary at {}; build it with `cargo build --release`",
                cli.display()
            ));
        }
        Ok(Opts {
            workload,
            seed,
            seconds: seconds as f64,
            trace,
            record,
            cli,
            exe,
        })
    }
}

/// FNV-1a over `bytes`: the digest runs and records compare reports by.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one workload, prints the result line, and removes its inputs.
fn run(opts: &Opts) -> Result<bool, String> {
    let dir = Path::new(WORK_ROOT).join(format!("{}-{}", opts.workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = measure(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let outcome = outcome?;
    for problem in &outcome.problems {
        eprintln!("exp_e2e: check failed: {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, value)| {
                let unit = metrics::by_name(name)
                    .expect("reported metrics are listed")
                    .unit;
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    if let Some(path) = &opts.record {
        append_record(path, opts, &outcome, &result)?;
    }
    println!("{result}");
    Ok(correct)
}

/// What one run measured and found.
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    wall_s: Vec<f64>,
    /// Reference-kernel wall times, one before the first rep and one
    /// after each.
    kernel_s: Vec<f64>,
    report_digest: u64,
}

fn measure(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let w = &opts.workload;
    let prepared = workload::prepare(w, opts.seed, dir, &opts.cli)?;
    let inputs = &prepared.inputs;
    let out = dir.join("report.md");
    let log = dir.join("stderr.log");
    let report = |flag| cli::report(&opts.cli, &inputs.tlt, &out, flag, &log);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);

    // The cached workload must print what the text path prints.
    let uncached = match w.path {
        ReadPath::Cached => {
            attempted += 1;
            match report(None)?.output {
                Ok(bytes) => Some(digest(&bytes)),
                Err(e) => {
                    failed += 1;
                    problems.push(format!("uncached verification report: {e}"));
                    None
                }
            }
        }
        _ => None,
    };
    let cache_stamp = || inputs.tlb.as_deref().map(file_stamp);
    let stamp = cache_stamp();

    // An untimed kernel run, so the first timed one starts warm too.
    reference::time_child(&opts.exe)?;
    attempted += 1;
    let warm_up = report(w.report_flag())?;
    let reference = match warm_up.output {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) => return Err(format!("warm-up report failed: {e}")),
    };
    let report_digest = digest(reference.as_bytes());
    if uncached.is_some_and(|d| d != report_digest) {
        problems.push("the --cache report differs from the uncached report".to_owned());
    }
    let expected = format!(
        "Data set: {} traces, {} scenario instances, {} events.",
        prepared.traces, prepared.instances, prepared.events
    );
    if !reference.lines().any(|l| l == expected) {
        problems.push(format!("the report does not state {expected:?}"));
    }

    // With --trace 1, each rep is followed by a pair of traced passes, so
    // that reps and passes see the same share of the host's drifting
    // contention.
    let (mut wall_s, mut cost, mut rss_kib) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut off_sanitize) = (Vec::new(), None);
    if opts.trace {
        pass::run(w, inputs, false)?;
    }
    let mut kernel_s = vec![reference::time_child(&opts.exe)?];
    let start = Instant::now();
    while wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        let rep = report(w.report_flag())?;
        kernel_s.push(reference::time_child(&opts.exe)?);
        let problem = match &rep.output {
            Err(e) => Some(e.clone()),
            Ok(bytes) if digest(bytes) != report_digest => {
                Some("report differs from the warm-up's".to_owned())
            }
            Ok(_) if cache_stamp() != stamp => Some("the .tlb cache was rewritten".to_owned()),
            Ok(_) => None,
        };
        match problem {
            Some(p) => {
                failed += 1;
                problems.push(format!("rep {attempted}: {p}"));
                if failed >= MIN_REPS {
                    break;
                }
            }
            None => {
                wall_s.push(rep.wall_s);
                let around = &kernel_s[kernel_s.len() - 2..];
                cost.push(rep.wall_s / ((around[0] + around[1]) / 2.0));
                rss_kib.push(rep.peak_rss_kib as f64);
            }
        }
        if opts.trace {
            let per_call_first = samples.len() % 2 == 0;
            let (sample, sanitize) = traced_pair(w, inputs, per_call_first)?;
            samples.push(sample);
            off_sanitize = off_sanitize.or(sanitize);
        }
    }

    let pass = pass::run(w, inputs, false)?;
    for (row, d_x) in [
        ("IA_wait", pass.impact.d_wait),
        ("IA_run", pass.impact.d_run),
    ] {
        let want = format!("| {row} | {:.1}% |", 100.0 * d_x.ratio(pass.impact.d_scn));
        if !reference.lines().any(|l| l == want) {
            problems.push(format!("the report's {row} row is not {want:?}"));
        }
    }
    problems.extend(pass::check_against_analyzers(&pass));
    if !problems.is_empty() {
        // Every rep printed the same report; if it is wrong, all are.
        failed = attempted;
    }

    let p50 = median(&wall_s).ok_or("no rep succeeded")?;
    let metrics = if opts.trace {
        let sanitize = pass
            .sanitize
            .or(off_sanitize)
            .ok_or("sanitize not measured")?;
        per_layer(w, &pass, sanitize, &samples, p50)
    } else {
        let cost = median(&cost).expect("as many costs as reps");
        vec![
            ("report_cost", cost),
            ("events_per_ref", prepared.events as f64 / cost),
            (
                "peak_rss_mb",
                median(&rss_kib).unwrap_or(0.0) * 1024.0 / 1e6,
            ),
            ("setup_s", median(&prepared.setup_s).expect("setup ran")),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        wall_s,
        kernel_s,
        report_digest,
    })
}

/// `(modification time, length)` of a file, to see it was not rewritten.
fn file_stamp(path: &Path) -> Option<(std::time::SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// One pair of traced passes.
struct LayerSample {
    /// Per-layer seconds of the pass with per-call timers, plus the
    /// off-path layers'.
    times: pass::Times,
    /// Wall time of the pass with per-call timers over that of the pass
    /// under one outer timer run right next to it.
    overhead: f64,
}

/// Two adjacent passes, one with per-call timers and one under an outer
/// timer only (`per_call_first` says which runs first), then the
/// off-path layers. Also returns what sanitizing would do on a path that
/// does not sanitize.
fn traced_pair(
    w: &Workload,
    inputs: &workload::Inputs,
    per_call_first: bool,
) -> Result<(LayerSample, Option<SanitizeCounts>), String> {
    let timed_pass = |per_call| {
        let start = Instant::now();
        let pass = pass::run(w, inputs, per_call)?;
        Ok::<_, String>((start.elapsed().as_secs_f64(), pass.times))
    };
    let first = timed_pass(per_call_first)?;
    let second = timed_pass(!per_call_first)?;
    let ((per_call_s, mut times), (outer_s, _)) = if per_call_first {
        (first, second)
    } else {
        (second, first)
    };
    let (off, sanitize) = pass::off_path(w, inputs)?;
    for (t, o) in times.iter_mut().zip(off) {
        *t += o;
    }
    let sample = LayerSample {
        times,
        overhead: per_call_s / outer_s,
    };
    Ok((sample, sanitize))
}

/// The per-layer metrics from the traced passes.
fn per_layer(
    w: &Workload,
    pass: &Pass,
    sanitize: SanitizeCounts,
    samples: &[LayerSample],
    report_p50_s: f64,
) -> Vec<(&'static str, f64)> {
    let layer_median = |layer: Layer| {
        let v: Vec<f64> = samples.iter().map(|s| s.times[layer.slot()]).collect();
        median(&v).expect("one pair per rep")
    };
    let overheads: Vec<f64> = samples.iter().map(|s| s.overhead).collect();
    let layer_sum: f64 = LAYERS
        .iter()
        .filter(|l| l.on_report_path(w.path))
        .map(|&l| layer_median(l))
        .sum();
    let unattributed = report_p50_s - layer_sum;
    let c = &pass.counts;
    let mut out: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&l| (l.metric(), layer_median(l)))
        .collect();
    let parse_s = layer_median(Layer::TextioParse);
    out.extend([
        ("textio.mb_per_s", c.text_bytes as f64 / 1e6 / parse_s),
        ("sanitize.repairs", sanitize.repairs as f64),
        (
            "sanitize.quarantined_instances",
            sanitize.quarantined_instances as f64,
        ),
        ("sanitize.instance_coverage", sanitize.instance_coverage),
        ("index.streams", c.streams as f64),
        ("waitgraph.graphs", c.graphs as f64),
        ("waitgraph.nodes", c.nodes as f64),
        ("impact.nodes_visited", pass.impact.nodes_visited as f64),
        ("aggregate.awg_nodes", c.awg_nodes as f64),
        ("segments.metas", c.metas as f64),
        ("contrast.patterns", c.patterns as f64),
        (
            "contrast.yield",
            c.contrast_metas as f64 / c.slow_metas.max(1) as f64,
        ),
        ("study.unattributed_s", unattributed),
        ("study.unattributed_share", unattributed / report_p50_s),
        (
            "trace.overhead_ratio",
            median(&overheads).expect("one pair per rep"),
        ),
    ]);
    // Keep BENCHMARK.json's order.
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = out
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .expect("every per-layer metric is measured");
            (m.name, value)
        })
        .collect()
}

fn append_record(path: &Path, opts: &Opts, outcome: &Outcome, result: &Json) -> Result<(), String> {
    use std::io::Write;
    let mut reps = vec![
        ("n", Json::Num(outcome.wall_s.len() as f64)),
        (
            "wall_s",
            Json::Arr(outcome.wall_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    if let Some((q1, p50, q3)) = quartiles(&outcome.wall_s) {
        reps.extend([
            ("q1_s", Json::Num(q1)),
            ("p50_s", Json::Num(p50)),
            ("q3_s", Json::Num(q3)),
        ]);
    }
    reps.push((
        "reference_s",
        Json::Arr(outcome.kernel_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
    if let Some(p) = stats::tail_percentile(outcome.wall_s.len()) {
        let tail = stats::percentile(&outcome.wall_s, p).expect("n >= 100");
        reps.extend([
            ("tail_percentile", Json::Num(f64::from(p))),
            ("tail_s", Json::Num(tail)),
        ]);
    }
    let record = Json::obj([
        ("workload", Json::Str(opts.workload.name.into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("seconds", Json::Num(opts.seconds)),
        (
            "digest",
            Json::Str(format!("{:016x}", outcome.report_digest)),
        ),
        ("reps", Json::obj(reps)),
        ("result", result.clone()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))
}
