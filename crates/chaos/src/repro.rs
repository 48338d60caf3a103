//! Replayable repro files.
//!
//! A minimized violation is written as a small TOML file
//! (`chaos-repro.toml`) holding every [`ChaosConfig`] knob, so
//! `tracelens chaos --replay FILE` re-runs exactly the failing
//! configuration. The codec is hand-rolled line-oriented parsing in
//! the workspace's textio idiom — flat `key = value` pairs under one
//! `[chaos]` section, no external TOML dependency.

use crate::config::ChaosConfig;
use crate::minimize::MinimizedRepro;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Renders a minimized repro as a replayable TOML document.
pub fn render_repro(repro: &MinimizedRepro) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# tracelens chaos minimized repro");
    let _ = writeln!(
        out,
        "# violated oracle: {} — {}",
        repro.oracle, repro.detail
    );
    let _ = writeln!(out, "# replay with: tracelens chaos --replay <this file>");
    let _ = writeln!(out, "[chaos]");
    let c = &repro.config;
    let _ = writeln!(out, "seed = {}", c.seed);
    let _ = writeln!(out, "traces = {}", c.traces);
    let _ = writeln!(out, "corruption_eps = {}", c.corruption_eps);
    let _ = writeln!(out, "read_fault_rate = {}", c.read_fault_rate);
    let _ = writeln!(out, "exec_panic_rate = {}", c.exec_panic_rate);
    let _ = writeln!(out, "torn_cache_per_mille = {}", c.torn_cache_per_mille);
    out
}

/// Writes a minimized repro to `path`.
pub fn write_repro(path: &Path, repro: &MinimizedRepro) -> io::Result<()> {
    fs::write(path, render_repro(repro))
}

/// Parses a repro document back into the config it describes.
/// Unknown keys are errors (a typo must not silently disarm a plane);
/// missing keys keep their disarmed defaults.
pub fn parse_repro(text: &str) -> Result<ChaosConfig, String> {
    let mut cfg = ChaosConfig::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let err = |e: &dyn std::fmt::Display| format!("line {}: bad `{key}`: {e}", lineno + 1);
        match key {
            "seed" => cfg.seed = value.parse().map_err(|e| err(&e))?,
            "traces" => cfg.traces = value.parse().map_err(|e| err(&e))?,
            "corruption_eps" => cfg.corruption_eps = value.parse().map_err(|e| err(&e))?,
            "read_fault_rate" => cfg.read_fault_rate = value.parse().map_err(|e| err(&e))?,
            "exec_panic_rate" => cfg.exec_panic_rate = value.parse().map_err(|e| err(&e))?,
            "torn_cache_per_mille" => {
                cfg.torn_cache_per_mille = value.parse().map_err(|e| err(&e))?
            }
            _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
        }
    }
    Ok(cfg)
}

/// Reads and parses a repro file.
pub fn read_repro(path: &Path) -> Result<ChaosConfig, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_repro(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MinimizedRepro {
        MinimizedRepro {
            config: ChaosConfig {
                seed: 0xDEAD_BEEF,
                traces: 4,
                corruption_eps: 0.0125,
                exec_panic_rate: 0.1,
                ..ChaosConfig::default()
            },
            oracle: "coverage_conserved".to_owned(),
            detail: "instance accounting leaks".to_owned(),
            steps: 17,
        }
    }

    #[test]
    fn repro_round_trips() {
        let repro = sample();
        let text = render_repro(&repro);
        assert!(text.contains("[chaos]"));
        assert!(text.contains("coverage_conserved"));
        let parsed = parse_repro(&text).expect("round trip");
        assert_eq!(parsed, repro.config);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = parse_repro("[chaos]\nbogus = 3\n").unwrap_err();
        assert!(err.contains("unknown key `bogus`"), "{err}");
    }

    #[test]
    fn malformed_line_is_rejected() {
        let err = parse_repro("[chaos]\nseed\n").unwrap_err();
        assert!(err.contains("key = value"), "{err}");
    }

    #[test]
    fn missing_keys_stay_disarmed() {
        let cfg = parse_repro("[chaos]\nseed = 7\n").expect("sparse repro");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.active_planes().is_empty());
    }
}
