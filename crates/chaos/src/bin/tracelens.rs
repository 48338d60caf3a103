//! The `tracelens` command-line tool.
//!
//! ```text
//! tracelens simulate  -o FILE [--traces N] [--seed S] [--mix full|selected|SCENARIO]
//! tracelens run       SCRIPT.tsim [-o FILE]
//! tracelens info      FILE
//! tracelens pack      FILE [-o OUT.tlb]
//! tracelens validate  FILE [--sanitize]
//! tracelens impact    FILE [--components GLOB] [--scenario NAME]
//! tracelens blame     FILE [--scenario NAME] [--components GLOB]
//! tracelens causality FILE --scenario NAME [--top N] [--k K] [--no-reduce]
//! tracelens scenarios FILE
//! tracelens locate    FILE --scenario NAME [--rank R] [--top N]
//! tracelens report    FILE [-o REPORT.md] [--top N]
//!                     [--checkpoint DIR] [--exec-faults SPEC]
//! tracelens regress   BASELINE CANDIDATE --scenario NAME [--top N]
//! tracelens baselines FILE [--top N]
//! tracelens chaos     [--seed S] [--runs N] [--traces N] [--planes LIST]
//!                     [--repro-out FILE] [--replay FILE]
//! ```
//!
//! `FILE` is a data set in the `.tlt` text format
//! (see [`tracelens::model::textio`]); `-` means stdin/stdout.
//!
//! Every command reading `FILE` except `pack` accepts `--sanitize`
//! (repair/quarantine corrupt input before analysis, reporting coverage
//! on stderr), `--strict` (treat any validation violation as a hard
//! error), and `--cache` (maintain a `.tlb` binary columnar cache next
//! to the input; see [`tracelens::store`]). The default keeps the
//! historical behavior: warn and proceed. A flag a command does not
//! declare is an error.
//!
//! Every command runs on one thread. `report` and `pack` still accept
//! `--jobs 1`, which the end-to-end benchmark passes, and refuse any
//! other value; `impact`, `causality` and `chaos` refuse `--jobs`.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tracelens::causality::{split_classes, CausalityAnalysis, CausalityConfig};
use tracelens::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracelens: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match command.as_str() {
        "simulate" => cmd_simulate(rest),
        "run" => cmd_run(rest),
        "info" => cmd_info(rest),
        "pack" => cmd_pack(rest),
        "validate" => cmd_validate(rest),
        "impact" => cmd_impact(rest),
        "blame" => cmd_blame(rest),
        "causality" => cmd_causality(rest),
        "scenarios" => cmd_scenarios(rest),
        "locate" => cmd_locate(rest),
        "report" => cmd_report(rest),
        "regress" => cmd_regress(rest),
        "baselines" => cmd_baselines(rest),
        "chaos" => cmd_chaos(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `tracelens help`")),
    }
}

fn print_usage() {
    println!(
        "tracelens — trace-based performance analysis\n\
         \n\
         USAGE:\n\
         \x20 tracelens simulate  -o FILE [--traces N] [--seed S] [--mix full|selected|SCENARIO]\n\
         \x20 tracelens run       SCRIPT.tsim [-o FILE]   (machine DSL; see sim::script)\n\
         \x20 tracelens info      FILE\n\
         \x20 tracelens pack      FILE [-o OUT.tlb]   (write binary columnar cache)\n\
         \x20 tracelens validate  FILE [--sanitize]   (list violations; nonzero exit if any)\n\
         \x20 tracelens impact    FILE [--components GLOB] [--scenario NAME]\n\
         \x20 tracelens blame     FILE [--scenario NAME] [--components GLOB]\n\
         \x20 tracelens causality FILE --scenario NAME [--top N] [--k K] [--no-reduce]\n\
         \x20 tracelens scenarios FILE\n\
         \x20 tracelens locate    FILE --scenario NAME [--rank R] [--top N]\n\
         \x20 tracelens report    FILE [-o REPORT.md] [--top N]\n\
         \x20                     [--checkpoint DIR] [--exec-faults SPEC]\n\
         \x20 tracelens regress   BASELINE CANDIDATE --scenario NAME [--top N]\n\
         \x20 tracelens baselines FILE [--top N]\n\
         \x20 tracelens chaos     [--seed S] [--runs N] [--traces N] [--planes LIST]\n\
         \x20                     [--repro-out FILE] [--replay FILE]\n\
         \n\
         FILE is a .tlt data set; `-` reads stdin / writes stdout.\n\
         Commands reading FILE (except pack) also accept --sanitize\n\
         (repair/quarantine corrupt input, report coverage), --strict\n\
         (violations are fatal), and --cache (keep a FILE.tlb binary\n\
         columnar cache next to the input: packed on first read, reused\n\
         while the text fingerprint matches, with transparent fallback to\n\
         the text parse on any missing/stale/corrupt cache).\n\
         A flag a command does not declare is an error.\n\
         `report` runs supervised: a panicking work unit is quarantined\n\
         and listed in the report instead of aborting the study.\n\
         --checkpoint DIR persists per-unit results for resume;\n\
         --exec-faults `seed=S,panic=P` injects panics for testing.\n\
         File ingestion retries transient i/o errors with bounded\n\
         exponential backoff.\n\
         `chaos` runs a deterministic fault-injection campaign: --runs\n\
         composite fault configurations sampled from --seed over --planes\n\
         (any of corruption,read,exec,checkpoint,cache — default all)\n\
         each run through the full pipeline and checked against the\n\
         cross-cutting invariant oracles. Violations are minimized to a\n\
         replayable repro written to --repro-out (default\n\
         chaos-repro.toml); --replay FILE re-runs one repro config."
    );
}

/// Minimal option parser: positional arguments plus `--flag [value]`.
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// The switches of every command that loads `FILE` through `load` or
/// `read_dataset`.
const FILE_SWITCHES: &[&str] = &["sanitize", "strict", "cache"];

impl Opts {
    /// Parses `args` against a command's declared `value_flags` (which
    /// take a value) and `switches` (which do not); any other `--name`
    /// is an error.
    fn parse(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Opts, String> {
        let mut opts = Opts {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    opts.flags.push((name.to_owned(), Some(v.clone())));
                } else if switches.contains(&name) {
                    opts.flags.push((name.to_owned(), None));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else if a == "-o" {
                let v = it.next().ok_or("-o requires a value")?;
                opts.flags.push(("o".to_owned(), Some(v.clone())));
            } else {
                opts.positional.push(a.clone());
            }
        }
        Ok(opts)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }
}

/// Refuses `--jobs` on a single-threaded command, with a message that
/// says why rather than the parser's `unknown flag`.
fn reject_jobs(command: &str, args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--jobs") {
        return Err(format!("{command} is single-threaded and takes no --jobs"));
    }
    Ok(())
}

/// Accepts the `--jobs 1` the end-to-end benchmark passes to `report`
/// and `pack`; any other value is an error, since both run on one
/// thread.
fn accept_one_job(command: &str, opts: &Opts) -> Result<(), String> {
    match opts.parsed("jobs", 1usize)? {
        1 => Ok(()),
        n => Err(format!(
            "{command} runs on one thread; --jobs accepts only 1, not {n}"
        )),
    }
}

/// Reads a data set through the trace store: the text streams through
/// the parser with transient I/O errors retried with bounded backoff,
/// and `--cache` loads/maintains a `.tlb` binary cache next to the file.
/// Returns the data set and the store's ingest accounting.
fn read_dataset(path: &str, opts: &Opts) -> Result<(Dataset, IngestReport), String> {
    let telemetry = Telemetry::noop();
    if path == "-" {
        if opts.has("cache") {
            return Err("--cache requires a file path (stdin has no cache location)".to_owned());
        }
        return tracelens::store::ingest_reader(io::stdin(), &telemetry).map_err(|e| e.to_string());
    }
    tracelens::store::ingest_path(Path::new(path), opts.has("cache"), &telemetry)
        .map_err(|e| ingest_error(path, e))
}

/// How a failed file ingest reads on stderr.
fn ingest_error(path: &str, e: tracelens::model::textio::ReadError) -> String {
    match e {
        tracelens::model::textio::ReadError::Io(io) => format!("cannot open {path}: {io}"),
        other => other.to_string(),
    }
}

/// Loads `path` honoring the shared corruption-handling flags:
///
/// * `--strict`  — any validation violation is a hard error,
/// * `--sanitize` — repair/quarantine corrupt input and proceed on the
///   clean survivor, summarizing repairs and coverage on stderr,
/// * neither — warn on stderr and proceed on the raw data (historical
///   behavior; analyses tolerate semantic corruption but may undercount).
fn load(path: &str, opts: &Opts) -> Result<Dataset, String> {
    if opts.has("strict") && opts.has("sanitize") {
        return Err("--strict and --sanitize are mutually exclusive".to_owned());
    }
    let (ds, ingest) = read_dataset(path, opts)?;
    report_ingest(path, &ingest);
    if opts.has("sanitize") {
        let (clean, report) = ds.sanitize();
        report_sanitize(&report);
        return Ok(clean);
    }
    check_validation(path, ds.validate(), opts)?;
    Ok(ds)
}

/// Acts on the input's validation verdict: under `--strict` a violation
/// is an error, otherwise a warning on stderr.
fn check_validation(
    path: &str,
    verdict: Result<(), tracelens::model::ValidationError>,
    opts: &Opts,
) -> Result<(), String> {
    if let Err(e) = verdict {
        if opts.has("strict") {
            return Err(format!("{path}: {e} (rerun with --sanitize to repair)"));
        }
        eprintln!("warning: {e}");
    }
    Ok(())
}

/// Summarizes what sanitization repaired and quarantined on stderr.
fn report_sanitize(report: &SanitizeReport) {
    if report.is_clean() {
        eprintln!("sanitize: input is clean");
    } else {
        eprintln!(
            "sanitize: {} repairs, {} traces / {} instances quarantined \
             (instance coverage {:.1}%)",
            report.repaired(),
            report.quarantined_traces,
            report.quarantined_instances,
            report.instance_coverage() * 100.0
        );
    }
}

/// Narrates the ingest path on stderr: absorbed I/O retries, cache
/// hits, and cache fallbacks (stdout stays report-only).
fn report_ingest(path: &str, ingest: &IngestReport) {
    if ingest.io_retries > 0 {
        eprintln!(
            "ingest: absorbed {} transient i/o error(s) while reading {path}",
            ingest.io_retries
        );
    }
    if ingest.source == IngestSource::BinaryCache {
        eprintln!(
            "ingest: loaded binary cache ({} events, {} bytes)",
            ingest.events, ingest.bytes
        );
    }
    if let Some(reason) = ingest.cache_fallback {
        eprintln!(
            "ingest: binary cache {reason}; parsed text{}",
            if ingest.cache_written {
                " and repacked the cache"
            } else {
                ""
            }
        );
    }
}

/// Prints every validation violation with per-kind counts and exits
/// nonzero if any are found. With `--sanitize`, additionally shows what
/// sanitization would repair and quarantine.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("validate requires FILE")?;
    let (ds, ingest) = read_dataset(path, &opts)?;
    report_ingest(path, &ingest);
    let verdict = ds.validate();
    if opts.has("sanitize") {
        let (_, mut report) = ds.sanitize();
        report.io_retries = ingest.io_retries;
        report.cache_fallbacks = ingest.cache_fallback.is_some() as usize;
        print!("{report}");
        println!();
    }
    match verdict {
        Ok(()) => {
            println!("{path}: OK — no violations");
            Ok(())
        }
        Err(e) => {
            println!("{path}: {} violations", e.violations.len());
            for (kind, n) in e.counts_by_kind() {
                println!("  {kind:<24} {n}");
            }
            println!();
            for v in &e.violations {
                println!("  {v}");
            }
            Err(format!("{path} failed validation"))
        }
    }
}

/// Packs a text data set into its `.tlb` binary columnar cache — the
/// same image `--cache` writes transparently, written the same atomic
/// way and produced explicitly (for warming caches ahead of a batch
/// run, or shipping a corpus in its fast-loading form).
fn cmd_pack(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["jobs"], &[])?;
    let path = opts.positional.first().ok_or("pack requires FILE")?;
    if path == "-" {
        return Err("pack requires a file path (stdin has no cache location)".to_owned());
    }
    accept_one_job("pack", &opts)?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (ds, ingest, fingerprint) =
        tracelens::store::ingest_fingerprinted(file, &Telemetry::noop())
            .map_err(|e| ingest_error(path, e))?;
    let out_path = match opts.value("o") {
        Some(o) => PathBuf::from(o),
        None => tracelens::store::cache_path_for(Path::new(path)),
    };
    let cannot_write = |e: io::Error| format!("cannot write {}: {e}", out_path.display());
    tracelens::store::write_cache(&out_path, &ds, fingerprint).map_err(cannot_write)?;
    let bytes = std::fs::metadata(&out_path).map_err(cannot_write)?.len();
    eprintln!(
        "packed {} traces / {} events → {} ({} bytes, {:.1}% of text)",
        ds.streams.len(),
        ds.total_events(),
        out_path.display(),
        bytes,
        100.0 * bytes as f64 / ingest.bytes.max(1) as f64
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["traces", "seed", "mix"], &[])?;
    let traces: usize = opts.parsed("traces", 100)?;
    let seed: u64 = opts.parsed("seed", 2014)?;
    let mix = match opts.value("mix").unwrap_or("full") {
        "full" => ScenarioMix::Full,
        "selected" => ScenarioMix::Selected,
        name => ScenarioMix::Only(vec![name.to_owned()]),
    };
    let out_path = opts.value("o").ok_or("simulate requires -o FILE")?;
    let ds = DatasetBuilder::new(seed).traces(traces).mix(mix).build();
    let out: Box<dyn Write> = if out_path == "-" {
        Box::new(io::stdout())
    } else {
        Box::new(File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?)
    };
    ds.write_text(BufWriter::new(out))
        .map_err(|e| format!("write failed: {e}"))?;
    eprintln!(
        "wrote {} traces / {} instances / {} events",
        ds.streams.len(),
        ds.instances.len(),
        ds.total_events()
    );
    Ok(())
}

/// Runs a machine script (the `.tsim` DSL) and writes the resulting
/// data set, or prints a summary when no output file is given.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &[])?;
    let path = opts.positional.first().ok_or("run requires SCRIPT.tsim")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ds = tracelens::sim::script::run_script(&text).map_err(|e| e.to_string())?;
    eprintln!(
        "simulated {} events, {} instances",
        ds.total_events(),
        ds.instances.len()
    );
    match opts.value("o") {
        Some(out_path) => {
            let out =
                File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
            ds.write_text(BufWriter::new(out))
                .map_err(|e| format!("write failed: {e}"))?;
            eprintln!("wrote {out_path}");
        }
        None => {
            for i in &ds.instances {
                println!(
                    "{}  {}  thread {}  duration {}",
                    i.trace,
                    i.scenario,
                    i.tid,
                    i.duration()
                );
            }
        }
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("info requires FILE")?;
    let ds = load(path, &opts)?;
    println!("traces      : {}", ds.streams.len());
    println!("instances   : {}", ds.instances.len());
    println!("events      : {}", ds.total_events());
    println!("stacks      : {}", ds.stacks.len());
    println!("scenarios   : {}", ds.scenarios.len());
    println!("total time  : {}", ds.total_instance_time());
    println!();
    print!("{}", tracelens::model::DatasetSummary::of(&ds));
    Ok(())
}

fn cmd_impact(args: &[String]) -> Result<(), String> {
    reject_jobs("impact", args)?;
    let opts = Opts::parse(args, &["components", "scenario"], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("impact requires FILE")?;
    let ds = load(path, &opts)?;
    let filter = ComponentFilter::glob(opts.value("components").unwrap_or("*.sys"));
    let analyzer = ImpactAnalyzer::new(filter.clone());
    let report = match opts.value("scenario") {
        Some(name) => {
            let name = ScenarioName::new(name);
            analyzer.analyze_where(&ds, |i| i.scenario == name)
        }
        None => analyzer.analyze(&ds),
    };
    println!("components: {filter}");
    println!("{report}");
    Ok(())
}

/// Per-module time attribution: where the selected instances' time goes.
fn cmd_blame(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["components", "scenario"], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("blame requires FILE")?;
    let ds = load(path, &opts)?;
    let filter = ComponentFilter::glob(opts.value("components").unwrap_or("*.sys"));
    let scenario = opts.value("scenario").map(ScenarioName::new);
    let b = tracelens::impact::breakdown(&ds, &filter, |i| {
        scenario.as_ref().map(|s| &i.scenario == s).unwrap_or(true)
    });
    println!("instances        : {}", b.instances);
    println!("total time       : {}", b.total);
    println!(
        "app CPU          : {}  ({:.1}%)",
        b.app_cpu,
        100.0 * b.app_cpu.ratio(b.total)
    );
    println!(
        "component CPU    : {}  ({:.1}%)",
        b.component_cpu,
        100.0 * b.component_cpu.ratio(b.total)
    );
    println!(
        "component wait   : {}  ({:.1}%)",
        b.component_wait(),
        100.0 * b.component_wait().ratio(b.total)
    );
    println!(
        "unattributed     : {}  ({:.1}%)",
        b.unattributed,
        100.0 * b.unattributed.ratio(b.total)
    );
    println!("\ncomponent wait by module:");
    for (module, t) in b.ranked_modules() {
        println!("  {module:<16} {t:>12}  ({:.1}%)", 100.0 * t.ratio(b.total));
    }
    Ok(())
}

fn cmd_causality(args: &[String]) -> Result<(), String> {
    reject_jobs("causality", args)?;
    let opts = Opts::parse(
        args,
        &["scenario", "top", "k", "components"],
        &["sanitize", "strict", "cache", "no-reduce"],
    )?;
    let path = opts.positional.first().ok_or("causality requires FILE")?;
    let scenario = ScenarioName::new(
        opts.value("scenario")
            .ok_or("causality requires --scenario NAME")?,
    );
    let top: usize = opts.parsed("top", 10)?;
    let k: usize = opts.parsed("k", tracelens::causality::DEFAULT_SEGMENT_BOUND)?;
    if k == 0 {
        return Err("--k must be at least 1".to_owned());
    }
    let ds = load(path, &opts)?;
    let config = CausalityConfig {
        components: ComponentFilter::glob(opts.value("components").unwrap_or("*.sys")),
        segment_bound: k,
        reduce: !opts.has("no-reduce"),
    };
    let report = CausalityAnalysis::new(config)
        .analyze(&ds, &scenario)
        .map_err(|e| e.to_string())?;
    println!(
        "{scenario}: {} fast / {} slow / {} margin — {} contrast patterns",
        report.fast_instances,
        report.slow_instances,
        report.margin_instances,
        report.patterns.len()
    );
    println!(
        "coverage: ITC {:.1}%  TTC {:.1}%  (direct-hw pruned: {:.1}%)\n",
        report.itc() * 100.0,
        report.ttc() * 100.0,
        report.reduced_fraction() * 100.0
    );
    for (i, p) in report.top(top).iter().enumerate() {
        let hi = if p.is_high_impact(report.thresholds.slow()) {
            " [high-impact]"
        } else {
            ""
        };
        println!(
            "#{} avg {} (total {}, N={}, worst {}){hi}",
            i + 1,
            p.avg_cost(),
            p.c,
            p.n,
            p.c_max
        );
        println!("{}", p.tuple.render(&ds.stacks));
        if !p.examples.is_empty() {
            let refs: Vec<String> = p
                .examples
                .iter()
                .map(|(trace, tid)| format!("{trace}/{tid}"))
                .collect();
            println!("examples: {}", refs.join(", "));
        }
        println!();
    }
    Ok(())
}

fn cmd_scenarios(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("scenarios requires FILE")?;
    let ds = load(path, &opts)?;
    println!(
        "{:<26}{:>10}{:>8}{:>8}{:>8}  thresholds",
        "scenario", "instances", "fast", "slow", "margin"
    );
    for s in &ds.scenarios {
        let Some(split) = split_classes(&ds, &s.name) else {
            continue;
        };
        println!(
            "{:<26}{:>10}{:>8}{:>8}{:>8}  {} / {}",
            s.name.as_str(),
            split.total(),
            split.fast.len(),
            split.slow.len(),
            split.margin.len(),
            s.thresholds.fast(),
            s.thresholds.slow()
        );
    }
    Ok(())
}

/// Drill down from a ranked pattern to the concrete incidents: the
/// §2.3 workflow of "investigating a specific trace stream".
fn cmd_locate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["scenario", "rank", "top"], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("locate requires FILE")?;
    let scenario = ScenarioName::new(
        opts.value("scenario")
            .ok_or("locate requires --scenario NAME")?,
    );
    let rank: usize = opts.parsed("rank", 1)?;
    let top: usize = opts.parsed("top", 5)?;
    if rank == 0 {
        return Err("--rank is 1-based".to_owned());
    }
    let ds = load(path, &opts)?;
    let report = CausalityAnalysis::default()
        .analyze(&ds, &scenario)
        .map_err(|e| e.to_string())?;
    let pattern = report
        .patterns
        .get(rank - 1)
        .ok_or_else(|| format!("only {} patterns discovered", report.patterns.len()))?;
    println!("pattern #{rank} (avg {}):", pattern.avg_cost());
    println!("{}\n", pattern.tuple.render(&ds.stacks));
    let filter = ComponentFilter::suffix(".sys");
    let sites = tracelens::causality::locate_pattern(&ds, &scenario, &pattern.tuple, &filter);
    println!("{} concrete incidents; worst {top}:", sites.len());
    for s in sites.iter().take(top) {
        println!(
            "  {} thread {}  instance [{} → {}]  chain root {}",
            s.instance.trace, s.instance.tid, s.instance.t0, s.instance.t1, s.root_duration
        );
    }
    // Walk the worst incident's critical path, Figure-1 style.
    if let Some(worst) = sites.first() {
        let stream = ds.stream_of(&worst.instance).expect("stream exists");
        let index = StreamIndex::new(stream);
        let graph = WaitGraph::build(stream, &index, &worst.instance);
        println!("\ndominant wait chain of the worst incident:");
        for (depth, id) in graph.dominant_path().into_iter().enumerate() {
            let node = graph.node(id);
            let frame = ds
                .stacks
                .frames(node.stack)
                .last()
                .and_then(|&sym| ds.stacks.symbols().resolve(sym))
                .unwrap_or("?");
            println!(
                "  {}{} {} {} [{}]",
                "  ".repeat(depth),
                if node.kind.is_wait() { "wait" } else { "op  " },
                node.tid,
                frame,
                node.duration
            );
        }
    }
    Ok(())
}

/// Renders the full Markdown study report.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["top", "jobs", "checkpoint", "exec-faults"],
        FILE_SWITCHES,
    )?;
    let path = opts.positional.first().ok_or("report requires FILE")?;
    let top: usize = opts.parsed("top", 3)?;
    accept_one_job("report", &opts)?;
    let exec_faults = opts
        .value("exec-faults")
        .map(ExecFaultPlan::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    // With --sanitize the study itself runs the sanitize pass so the
    // report carries the Coverage section and an empty survivor set
    // surfaces as a typed error instead of an all-zero report.
    let sanitize = opts.has("sanitize");
    if sanitize && opts.has("strict") {
        return Err("--strict and --sanitize are mutually exclusive".to_owned());
    }
    let config = StudyConfig {
        exec_faults,
        checkpoint: opts.value("checkpoint").map(std::path::PathBuf::from),
        sanitize,
        ..StudyConfig::default()
    };
    let (study, ds) = if path != "-" && config.checkpoint.is_none() {
        // The study streams the file where it can, so the ingest lines
        // and the validation verdict are known only once it is done. A
        // checkpointed study writes as it goes, so it validates first,
        // on the path below.
        let run = Study::run_file(
            Path::new(path),
            opts.has("cache"),
            &config,
            &Telemetry::noop(),
        )
        .map_err(|e| match e {
            tracelens::FileStudyError::Read(e) => ingest_error(path, e),
            tracelens::FileStudyError::Study(e) => e.to_string(),
        })?;
        report_ingest(path, &run.ingest);
        if !sanitize {
            check_validation(path, run.validation, &opts)?;
        }
        (run.study, run.dataset)
    } else {
        let ds = if sanitize {
            let (ds, ingest) = read_dataset(path, &opts)?;
            report_ingest(path, &ingest);
            ds
        } else {
            load(path, &opts)?
        };
        let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
        Study::run(ds, &config, &names, &Telemetry::noop()).map_err(|e| e.to_string())?
    };
    if let Some(report) = &study.sanitize {
        report_sanitize(report);
    }
    if !study.execution.is_clean() {
        eprintln!("{}", study.execution);
    }
    let md = tracelens::render_markdown(
        &study,
        &ds,
        &tracelens::ReportOptions {
            top_patterns: top,
            ..Default::default()
        },
    );
    match opts.value("o") {
        Some(out_path) => {
            std::fs::write(out_path, md).map_err(|e| format!("cannot write {out_path}: {e}"))?;
            eprintln!("wrote {out_path}");
        }
        None => print!("{md}"),
    }
    Ok(())
}

/// Compares two data sets (e.g. two builds) and reports behaviors that
/// appeared or became drastically more expensive.
fn cmd_regress(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["scenario", "top"], FILE_SWITCHES)?;
    let [base_path, cand_path] = opts.positional.as_slice() else {
        return Err("regress requires BASELINE and CANDIDATE files".to_owned());
    };
    let scenario = ScenarioName::new(
        opts.value("scenario")
            .ok_or("regress requires --scenario NAME")?,
    );
    let top: usize = opts.parsed("top", 10)?;
    let baseline = load(base_path, &opts)?;
    let candidate = load(cand_path, &opts)?;
    let regs = tracelens::causality::find_regressions(
        &baseline,
        &candidate,
        &scenario,
        &tracelens::causality::RegressionConfig::default(),
    );
    println!(
        "{}: {} regressed behaviors (showing top {})",
        scenario,
        regs.len(),
        top.min(regs.len())
    );
    for r in regs.iter().take(top) {
        let growth = if r.is_new() {
            "NEW".to_owned()
        } else {
            format!(
                "{:.1}x (was {})",
                r.factor(),
                r.baseline_avg.expect("not new")
            )
        };
        println!(
            "
avg {} over {} occurrences — {growth}",
            r.candidate_avg, r.candidate_n
        );
        for line in r.render().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

fn cmd_baselines(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["top"], FILE_SWITCHES)?;
    let path = opts.positional.first().ok_or("baselines requires FILE")?;
    let top: usize = opts.parsed("top", 10)?;
    let ds = load(path, &opts)?;
    println!("--- call-graph profile (top {top} by exclusive CPU) ---");
    println!("{}", CallGraphProfile::build(&ds).render(&ds, top));
    println!("--- lock contention (top {top} sites by blocked time) ---");
    println!("{}", LockContentionReport::build(&ds).render(&ds, top));
    println!("--- costly callstacks (StackMine-style, top {top}) ---");
    println!("{}", CostlyStackReport::build(&ds).render(&ds, top));
    Ok(())
}

/// `tracelens chaos` — deterministic fault-injection campaigns over
/// the full pipeline (see [`tracelens_chaos`]). Exits nonzero when any
/// invariant oracle is violated, after writing a minimized replayable
/// repro. `--inject-known-bug` (hidden from usage) arms a deliberate
/// accounting bug so the detection-and-minimization path itself can be
/// exercised end to end.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use tracelens_chaos::{repro, run_campaign, run_config, CampaignOptions, FaultPlane};
    reject_jobs("chaos", args)?;
    let opts = Opts::parse(
        args,
        &["seed", "runs", "traces", "planes", "repro-out", "replay"],
        &["inject-known-bug"],
    )?;

    if let Some(path) = opts.value("replay") {
        let cfg = repro::read_repro(Path::new(path))?;
        eprintln!("replaying {path}: planes {}", cfg.plane_tag());
        let artifacts = run_config(&cfg, opts.has("inject-known-bug"));
        let violations = tracelens_chaos::check_all(0, &artifacts);
        for note in &artifacts.degraded {
            println!("degraded: {note}");
        }
        return if violations.is_empty() {
            println!("replay {}: ok", cfg.plane_tag());
            Ok(())
        } else {
            for v in &violations {
                println!("replay VIOLATION {}: {}", v.oracle, v.detail);
            }
            Err(format!(
                "replay reproduced {} violation(s)",
                violations.len()
            ))
        };
    }

    let options = CampaignOptions {
        seed: opts.parsed("seed", 0u64)?,
        runs: opts.parsed("runs", 25usize)?,
        traces: opts.parsed("traces", 12usize)?,
        planes: match opts.value("planes") {
            None => FaultPlane::ALL.to_vec(),
            Some(list) => FaultPlane::parse_list(list)?,
        },
        inject_known_bug: opts.has("inject-known-bug"),
        ..CampaignOptions::default()
    };
    let report = run_campaign(&options, &Telemetry::noop());
    print!("{}", report.render());
    if let Some(minimized) = &report.minimized {
        let out = PathBuf::from(opts.value("repro-out").unwrap_or("chaos-repro.toml"));
        repro::write_repro(&out, minimized).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("minimized repro written to {}", out.display());
    }
    match report.violations() {
        0 => Ok(()),
        n => Err(format!(
            "{n} oracle violation(s) across {} runs",
            options.runs
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opts_parse_flags_and_positionals() {
        let o = Opts::parse(
            &strings(&["file.tlt", "--scenario", "X", "--no-reduce", "-o", "out"]),
            &["scenario"],
            &["no-reduce"],
        )
        .unwrap();
        assert_eq!(o.positional, ["file.tlt"]);
        assert_eq!(o.value("scenario"), Some("X"));
        assert!(o.has("no-reduce"));
        assert_eq!(o.value("o"), Some("out"));
    }

    #[test]
    fn opts_missing_value_is_an_error() {
        assert!(Opts::parse(&strings(&["--scenario"]), &["scenario"], &[]).is_err());
        assert!(Opts::parse(&strings(&["-o"]), &[], &[]).is_err());
    }

    #[test]
    fn opts_parsed_defaults_and_errors() {
        let o = Opts::parse(&strings(&["--top", "7"]), &["top"], &[]).unwrap();
        assert_eq!(o.parsed::<usize>("top", 3).unwrap(), 7);
        assert_eq!(o.parsed::<usize>("k", 5).unwrap(), 5);
        let bad = Opts::parse(&strings(&["--top", "x"]), &["top"], &[]).unwrap();
        assert!(bad.parsed::<usize>("top", 3).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strings(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_runs() {
        assert!(run(&strings(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }
}
