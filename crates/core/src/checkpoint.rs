//! On-disk checkpoint/resume for supervised studies.
//!
//! A checkpoint is a directory of small, versioned, line-oriented text
//! files (the workspace's textio idiom — no serialization dependencies):
//!
//! * `meta.tlc` — format version plus a fingerprint of the inputs the
//!   stored results are valid for (dataset bytes, analysis
//!   configuration, scenario list);
//! * `impact.tlc` — the global impact report, stored only when its
//!   supervised pass completed with no quarantined stream;
//! * `unit-<idx>.tlc` — one completed per-scenario result
//!   ([`ScenarioStudy`]), where `<idx>` is the scenario's position in
//!   the study's name list.
//!
//! Three rules make resume safe and byte-reproducible:
//!
//! 1. **Only successes are stored.** A quarantined unit is never
//!    written, so resuming re-executes it — and, with the same inputs,
//!    deterministically reproduces the same failure (or, with faults
//!    disabled, the missing result).
//! 2. **Any unreadable unit is a missing unit.** Torn writes, stale
//!    versions, or hand-edited files fail parsing and simply re-run;
//!    writes go through a temp file + atomic rename so a crash cannot
//!    leave a half-written file under its final name.
//! 3. **Fingerprint mismatch discards the checkpoint.** Results from a
//!    different dataset, configuration, or scenario list are never
//!    resumed into a study they do not describe. (Fault plans are
//!    deliberately *excluded* from the fingerprint: they change how
//!    work executes, not what the results mean.)

use crate::study::{ScenarioStudy, StudyConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use tracelens_causality::{
    CausalityError, CausalityReport, ContrastPattern, MiningStats, SignatureSetTuple,
};
use tracelens_impact::ImpactReport;
use tracelens_model::{Dataset, ScenarioName, Symbol, ThreadId, Thresholds, TimeNs, TraceId};

/// Version tag of the checkpoint format; bump on any codec change so
/// stale checkpoints read as missing rather than as garbage.
const VERSION: u32 = 1;

/// An open checkpoint directory, validated against a fingerprint.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
}

impl Checkpoint {
    /// Opens (creating if needed) the checkpoint at `dir` for inputs
    /// with the given fingerprint. An existing checkpoint written for a
    /// *different* fingerprint is discarded: its `*.tlc` files are
    /// removed and a fresh `meta.tlc` is written.
    pub fn open(dir: &Path, fingerprint: u64) -> io::Result<Checkpoint> {
        fs::create_dir_all(dir)?;
        let meta = dir.join("meta.tlc");
        let fresh = match fs::read_to_string(&meta) {
            Ok(text) => parse_meta(&text) != Some(fingerprint),
            Err(_) => true,
        };
        if fresh {
            for entry in fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "tlc") {
                    fs::remove_file(&path)?;
                }
            }
            let mut text = String::new();
            let _ = writeln!(text, "tracelens-checkpoint {VERSION}");
            let _ = writeln!(text, "fingerprint {fingerprint:016x}");
            let _ = writeln!(text, "end");
            write_atomic(dir, "meta.tlc", &text)?;
        }
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads every readable stored unit whose index addresses `names`
    /// and whose stored scenario matches — anything else is left for
    /// re-execution.
    pub fn load_units(&self, names: &[ScenarioName]) -> BTreeMap<usize, ScenarioStudy> {
        let mut units = BTreeMap::new();
        for (idx, name) in names.iter().enumerate() {
            let path = self.dir.join(format!("unit-{idx}.tlc"));
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            if let Some(unit) = parse_unit(&text, name) {
                units.insert(idx, unit);
            }
        }
        units
    }

    /// Stores one completed per-scenario result under index `idx`.
    pub fn store_unit(
        &self,
        idx: usize,
        name: &ScenarioName,
        unit: &ScenarioStudy,
    ) -> io::Result<()> {
        write_atomic(
            &self.dir,
            &format!("unit-{idx}.tlc"),
            &render_unit(name, unit),
        )
    }

    /// Loads the stored global impact report, if present and readable.
    pub fn load_impact(&self) -> Option<ImpactReport> {
        let text = fs::read_to_string(self.dir.join("impact.tlc")).ok()?;
        let mut lines = text.lines();
        let report = parse_impact(lines.next()?, "impact")?;
        match lines.next() {
            Some("end") => Some(report),
            _ => None,
        }
    }

    /// Stores the global impact report.
    pub fn store_impact(&self, report: &ImpactReport) -> io::Result<()> {
        let mut text = String::new();
        render_impact(&mut text, "impact", report);
        text.push_str("end\n");
        write_atomic(&self.dir, "impact.tlc", &text)
    }
}

/// Writes `name` under `dir` atomically: temp file, flush, rename.
fn write_atomic(dir: &Path, name: &str, text: &str) -> io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(name))
}

fn parse_meta(text: &str) -> Option<u64> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let version: u32 = header.strip_prefix("tracelens-checkpoint ")?.parse().ok()?;
    if version != VERSION {
        return None;
    }
    let fp = lines.next()?.strip_prefix("fingerprint ")?;
    u64::from_str_radix(fp, 16).ok()
}

/// Fingerprint of everything a checkpoint's results depend on: the
/// dataset's canonical text, the analysis configuration, and the
/// ordered scenario list.
pub fn fingerprint(dataset: &Dataset, config: &StudyConfig, names: &[ScenarioName]) -> u64 {
    let mut hasher = FnvWriter::new();
    // write_text to an in-memory hasher cannot fail.
    let _ = dataset.write_text(&mut hasher);
    let mut trailer = format!(
        "|components {:?}|causality {:?} {} {}",
        config.components,
        config.causality.components,
        config.causality.segment_bound,
        config.causality.reduce
    );
    trailer.push_str("|names");
    for name in names {
        let _ = write!(trailer, " {name}");
    }
    let _ = io::Write::write(&mut hasher, trailer.as_bytes());
    hasher.finish()
}

/// FNV-1a 64 over a byte stream, usable as an `io::Write` sink so the
/// dataset's text encoding hashes without materializing it.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> FnvWriter {
        FnvWriter(0xCBF2_9CE4_8422_2325)
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Unit codec
// ---------------------------------------------------------------------

fn render_unit(name: &ScenarioName, unit: &ScenarioStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {name}");
    render_impact(&mut out, "impact", &unit.impact);
    render_impact(&mut out, "slow-impact", &unit.slow_impact);
    match &unit.causality {
        Err(CausalityError::UnknownScenario(s)) => {
            let _ = writeln!(out, "causality-err-unknown {s}");
        }
        Err(CausalityError::EmptyClass { class, scenario }) => {
            let _ = writeln!(out, "causality-err-empty {class} {scenario}");
        }
        Ok(c) => {
            let _ = writeln!(out, "causality-ok");
            let _ = writeln!(
                out,
                "thresholds {} {}",
                c.thresholds.fast().0,
                c.thresholds.slow().0
            );
            let _ = writeln!(
                out,
                "classes {} {} {}",
                c.fast_instances, c.slow_instances, c.margin_instances
            );
            let s = &c.stats;
            let _ = writeln!(
                out,
                "stats {} {} {} {} {} {}",
                s.fast_metas,
                s.slow_metas,
                s.contrast_metas,
                s.slow_paths,
                s.zero_cost_pruned,
                s.patterns
            );
            let _ = writeln!(
                out,
                "scope {} {}",
                c.slow_scope_time.0, c.slow_reduced_time.0
            );
            let _ = writeln!(out, "patterns {}", c.patterns.len());
            for p in &c.patterns {
                render_symbols(&mut out, "wait", &p.tuple.wait);
                render_symbols(&mut out, "unwait", &p.tuple.unwait);
                render_symbols(&mut out, "running", &p.tuple.running);
                let _ = writeln!(out, "cost {} {} {}", p.c.0, p.n, p.c_max.0);
                let mut line = format!("examples {}", p.examples.len());
                for (trace, tid) in &p.examples {
                    let _ = write!(line, " {} {}", trace.0, tid.0);
                }
                let _ = writeln!(out, "{line}");
            }
        }
    }
    out.push_str("end\n");
    out
}

fn render_impact(out: &mut String, key: &str, r: &ImpactReport) {
    let _ = writeln!(
        out,
        "{key} {} {} {} {} {} {}",
        r.d_scn.0, r.d_wait.0, r.d_run.0, r.d_wait_dist.0, r.instances, r.nodes_visited
    );
}

fn render_symbols(out: &mut String, key: &str, set: &std::collections::BTreeSet<Symbol>) {
    let mut line = format!("{key} {}", set.len());
    for s in set {
        let _ = write!(line, " {}", s.0);
    }
    let _ = writeln!(out, "{line}");
}

/// Parses one stored unit; `None` on any mismatch (treated as missing).
fn parse_unit(text: &str, expect: &ScenarioName) -> Option<ScenarioStudy> {
    let mut lines = text.lines();
    let name = lines.next()?.strip_prefix("scenario ")?;
    if name != expect.as_str() {
        return None;
    }
    let impact = parse_impact(lines.next()?, "impact")?;
    let slow_impact = parse_impact(lines.next()?, "slow-impact")?;
    let verdict = lines.next()?;
    let causality = if let Some(s) = verdict.strip_prefix("causality-err-unknown ") {
        Err(CausalityError::UnknownScenario(ScenarioName::new(s)))
    } else if let Some(rest) = verdict.strip_prefix("causality-err-empty ") {
        let (class, scenario) = rest.split_once(' ')?;
        let class = match class {
            "fast" => "fast",
            "slow" => "slow",
            _ => return None,
        };
        Err(CausalityError::EmptyClass {
            class,
            scenario: ScenarioName::new(scenario),
        })
    } else if verdict == "causality-ok" {
        Ok(parse_report(&mut lines, expect)?)
    } else {
        return None;
    };
    match lines.next() {
        Some("end") => Some(ScenarioStudy {
            impact,
            slow_impact,
            causality,
        }),
        _ => None,
    }
}

fn parse_report<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    scenario: &ScenarioName,
) -> Option<CausalityReport> {
    let th = parse_ints::<2>(lines.next()?, "thresholds")?;
    if th[0] >= th[1] {
        return None; // Thresholds::new would panic
    }
    let classes = parse_ints::<3>(lines.next()?, "classes")?;
    let stats = parse_ints::<6>(lines.next()?, "stats")?;
    let scope = parse_ints::<2>(lines.next()?, "scope")?;
    let n_patterns = parse_ints::<1>(lines.next()?, "patterns")?[0] as usize;
    let mut patterns = Vec::with_capacity(n_patterns.min(1024));
    for _ in 0..n_patterns {
        let wait = parse_symbols(lines.next()?, "wait")?;
        let unwait = parse_symbols(lines.next()?, "unwait")?;
        let running = parse_symbols(lines.next()?, "running")?;
        let cost = parse_ints::<3>(lines.next()?, "cost")?;
        let ex_line = lines.next()?.strip_prefix("examples ")?;
        let mut parts = ex_line.split(' ');
        let n_ex: usize = parts.next()?.parse().ok()?;
        let mut examples = Vec::with_capacity(n_ex.min(64));
        for _ in 0..n_ex {
            let trace: u32 = parts.next()?.parse().ok()?;
            let tid: u32 = parts.next()?.parse().ok()?;
            examples.push((TraceId(trace), ThreadId(tid)));
        }
        if parts.next().is_some() {
            return None;
        }
        patterns.push(ContrastPattern {
            tuple: SignatureSetTuple {
                wait,
                unwait,
                running,
            },
            c: TimeNs(cost[0]),
            n: cost[1],
            c_max: TimeNs(cost[2]),
            examples,
        });
    }
    Some(CausalityReport {
        scenario: *scenario,
        thresholds: Thresholds::new(TimeNs(th[0]), TimeNs(th[1])),
        fast_instances: classes[0] as usize,
        slow_instances: classes[1] as usize,
        margin_instances: classes[2] as usize,
        patterns,
        stats: MiningStats {
            fast_metas: stats[0] as usize,
            slow_metas: stats[1] as usize,
            contrast_metas: stats[2] as usize,
            slow_paths: stats[3] as usize,
            zero_cost_pruned: stats[4] as usize,
            patterns: stats[5] as usize,
        },
        slow_scope_time: TimeNs(scope[0]),
        slow_reduced_time: TimeNs(scope[1]),
    })
}

fn parse_impact(line: &str, key: &str) -> Option<ImpactReport> {
    let v = parse_ints::<6>(line, key)?;
    Some(ImpactReport {
        d_scn: TimeNs(v[0]),
        d_wait: TimeNs(v[1]),
        d_run: TimeNs(v[2]),
        d_wait_dist: TimeNs(v[3]),
        instances: v[4] as usize,
        nodes_visited: v[5] as usize,
    })
}

/// Parses `key v1 .. vN` into exactly `N` integers.
fn parse_ints<const N: usize>(line: &str, key: &str) -> Option<[u64; N]> {
    let rest = line.strip_prefix(key)?.strip_prefix(' ')?;
    let mut out = [0u64; N];
    let mut parts = rest.split(' ');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

fn parse_symbols(line: &str, key: &str) -> Option<std::collections::BTreeSet<Symbol>> {
    let rest = line.strip_prefix(key)?.strip_prefix(' ')?;
    let mut parts = rest.split(' ');
    let n: usize = parts.next()?.parse().ok()?;
    let mut set = std::collections::BTreeSet::new();
    for _ in 0..n {
        set.insert(Symbol(parts.next()?.parse().ok()?));
    }
    if parts.next().is_some() || set.len() != n {
        return None;
    }
    Some(set)
}
