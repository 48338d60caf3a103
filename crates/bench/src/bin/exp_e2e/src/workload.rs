//! The four workloads and the generation of their inputs from a seed.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use tracelens_faults::{FaultInjector, FaultKind, ALL_FAULT_KINDS};
use tracelens_model::Dataset;
use tracelens_sim::{DatasetBuilder, ScenarioMix};

/// How `tracelens report` reads a workload's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Text parse, then validation.
    Text,
    /// `--cache`: the `.tlb` packed in setup, checked against the text's
    /// fingerprint, then validation.
    Cached,
    /// `--sanitize`: text parse, then repair and quarantine.
    Sanitize,
}

/// One workload: a corpus shape and the report path that reads it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub traces: usize,
    /// `true`: all 13 scenarios; `false`: the eight selected ones.
    pub full_mix: bool,
    /// Scenario instances per trace (inclusive); `None` keeps the
    /// builder's default of 3–6.
    pub instances: Option<(u64, u64)>,
    /// Window instance starts are spread over; `None` keeps 100 ms.
    pub window_ms: Option<u64>,
    /// Inject every fault kind the text format can carry at this rate.
    pub fault_rate: Option<f64>,
    pub path: ReadPath,
}

/// The workloads, in `BENCHMARK.json` order. See README.md for why each
/// one exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper600",
        traces: 600,
        full_mix: false,
        instances: Some((2, 4)),
        window_ms: Some(350),
        fault_rate: None,
        path: ReadPath::Text,
    },
    Workload {
        name: "dense600",
        traces: 600,
        full_mix: false,
        instances: Some((8, 12)),
        window_ms: Some(100),
        fault_rate: None,
        path: ReadPath::Text,
    },
    Workload {
        name: "scale6k-cached",
        traces: 6000,
        full_mix: false,
        instances: Some((2, 4)),
        window_ms: Some(350),
        fault_rate: None,
        path: ReadPath::Cached,
    },
    Workload {
        name: "dirty3k-sanitize",
        traces: 3000,
        full_mix: true,
        instances: None,
        window_ms: None,
        fault_rate: Some(0.02),
        path: ReadPath::Sanitize,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `report` flag selecting this workload's read path.
    pub fn report_flag(&self) -> Option<&'static str> {
        match self.path {
            ReadPath::Text => None,
            ReadPath::Cached => Some("--cache"),
            ReadPath::Sanitize => Some("--sanitize"),
        }
    }

    /// Simulates the corpus for `seed` and applies the workload's faults.
    /// `DanglingStacks` is left out: the text parser rejects its output
    /// ("undeclared stack id"), so no report could run on it.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut builder = DatasetBuilder::new(seed)
            .traces(self.traces)
            .mix(if self.full_mix {
                ScenarioMix::Full
            } else {
                ScenarioMix::Selected
            });
        if let Some((lo, hi)) = self.instances {
            builder = builder.instances_per_trace(lo, hi);
        }
        if let Some(ms) = self.window_ms {
            builder = builder.start_window_ms(ms);
        }
        let ds = builder.build();
        match self.fault_rate {
            None => ds,
            Some(rate) => {
                ALL_FAULT_KINDS
                    .into_iter()
                    .filter(|&k| k != FaultKind::DanglingStacks)
                    .fold(FaultInjector::new(seed), |inj, k| inj.with(k, rate))
                    .inject(&ds)
                    .0
            }
        }
    }
}

/// Where a workload's generated inputs live.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub tlt: PathBuf,
    /// The packed binary cache (scale6k-cached only).
    pub tlb: Option<PathBuf>,
}

/// What setup produced: the files, the size of the corpus as the
/// report's `Data set:` line must state it, and the timings.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub inputs: Inputs,
    pub traces: usize,
    pub instances: usize,
    pub events: usize,
    /// Wall seconds of each timed generation.
    pub setup_s: Vec<f64>,
}

/// Generations timed for `setup_s`; the median is reported.
pub const SETUP_REPS: usize = 3;

/// Generates the workload's inputs into `dir` `SETUP_REPS` times, timing
/// each generation end to end (simulate, inject, write `.tlt`, and `pack`
/// through the CLI for the cached workload). Fails when generations
/// disagree: the benchmark's inputs must be a function of the seed.
pub fn prepare(w: &Workload, seed: u64, dir: &Path, cli: &Path) -> Result<Prepared, String> {
    let tlt = dir.join(format!("{}.tlt", w.name));
    let tlb = (w.path == ReadPath::Cached).then(|| tlt.with_extension("tlb"));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut shape = None;
    let mut digests = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let ds = w.generate(seed);
        write_text(&ds, &tlt)?;
        shape = Some((ds.streams.len(), ds.instances.len(), ds.total_events()));
        drop(ds);
        if tlb.is_some() {
            pack(cli, &tlt)?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        digests.push(crate::digest(
            &std::fs::read(&tlt).map_err(|e| e.to_string())?,
        ));
    }
    if digests.windows(2).any(|d| d[0] != d[1]) {
        return Err(format!("{}: generation is not deterministic", w.name));
    }
    let (traces, instances, events) = shape.expect("SETUP_REPS > 0");
    Ok(Prepared {
        inputs: Inputs { tlt, tlb },
        traces,
        instances,
        events,
        setup_s,
    })
}

fn write_text(ds: &Dataset, path: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(err)?);
    ds.write_text(&mut out).map_err(err)?;
    out.flush().map_err(err)
}

fn pack(cli: &Path, tlt: &Path) -> Result<(), String> {
    let status = Command::new(cli)
        .arg("pack")
        .arg(tlt)
        .args(["--jobs", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("tracelens pack {} failed: {status}", tlt.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_digest(w: &Workload, seed: u64) -> u64 {
        let mut text = Vec::new();
        w.generate(seed).write_text(&mut text).unwrap();
        crate::digest(&text)
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for w in WORKLOADS {
            let small = Workload { traces: 4, ..w };
            assert_eq!(
                text_digest(&small, 2014),
                text_digest(&small, 2014),
                "{}",
                w.name
            );
            assert_ne!(
                text_digest(&small, 2014),
                text_digest(&small, 7),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn names_resolve() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
