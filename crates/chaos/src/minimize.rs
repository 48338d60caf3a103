//! Failure minimization: shrinking a violating configuration to a
//! minimal reproducer.
//!
//! Greedy delta-debugging over the [`ChaosConfig`] knob space, in
//! three phases of decreasing coarseness:
//!
//! 1. **drop planes** — disarm whole fault planes while the violation
//!    persists, to a fixpoint;
//! 2. **shrink rates** — halve surviving rates toward their floors;
//! 3. **shrink the corpus** — halve the trace count toward 4.
//!
//! Every candidate evaluation is one full [`run_config`] pass, so the
//! step cap bounds wall time. Each accepted candidate re-captures the
//! violation it exhibits, so the final repro names the oracle the
//! *minimal* config violates.

use crate::config::ChaosConfig;
use crate::engine::run_config;
use crate::oracles::{check_all, Violation};

/// A minimal reproducer for an oracle violation.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// The smallest configuration found that still violates.
    pub config: ChaosConfig,
    /// The oracle the minimal configuration violates.
    pub oracle: String,
    /// The oracle's explanation at the minimal configuration.
    pub detail: String,
    /// Candidate evaluations spent (each is one full pipeline run).
    pub steps: usize,
}

/// Shrinks `initial` (which violated `violation`) to a minimal config
/// that still violates some oracle, spending at most `max_steps`
/// candidate evaluations.
pub fn minimize(
    initial: &ChaosConfig,
    violation: &Violation,
    inject_known_bug: bool,
    max_steps: usize,
) -> MinimizedRepro {
    let mut best = initial.clone();
    let mut best_violation = violation.clone();
    let mut steps = 0usize;
    // One candidate evaluation: does `cfg` still violate any oracle?
    let fails = |cfg: &ChaosConfig, steps: &mut usize| -> Option<Violation> {
        if *steps >= max_steps {
            return None;
        }
        *steps += 1;
        let artifacts = run_config(cfg, inject_known_bug);
        check_all(0, &artifacts).into_iter().next()
    };

    // Phase 1: drop whole planes, to a fixpoint.
    loop {
        let mut shrunk = false;
        for plane in best.active_planes() {
            let candidate = best.without_plane(plane);
            if let Some(v) = fails(&candidate, &mut steps) {
                best = candidate;
                best_violation = v;
                shrunk = true;
            }
        }
        if !shrunk || steps >= max_steps {
            break;
        }
    }

    // Phase 2: halve surviving rates toward their floors.
    loop {
        let mut shrunk = false;
        for candidate in rate_shrinks(&best) {
            if let Some(v) = fails(&candidate, &mut steps) {
                best = candidate;
                best_violation = v;
                shrunk = true;
                break;
            }
        }
        if !shrunk || steps >= max_steps {
            break;
        }
    }

    // Phase 3: shrink the corpus.
    while best.traces > 4 && steps < max_steps {
        let mut candidate = best.clone();
        candidate.traces = (best.traces / 2).max(4);
        match fails(&candidate, &mut steps) {
            Some(v) => {
                best = candidate;
                best_violation = v;
            }
            None => break,
        }
    }

    MinimizedRepro {
        config: best,
        oracle: best_violation.oracle.to_owned(),
        detail: best_violation.detail,
        steps,
    }
}

/// The next finer shrink candidates for each armed knob. Floors keep
/// rates meaningful: below them a plane is better dropped outright
/// (phase 1 already tried that).
fn rate_shrinks(cfg: &ChaosConfig) -> Vec<ChaosConfig> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ChaosConfig)| {
        let mut c = cfg.clone();
        f(&mut c);
        out.push(c);
    };
    if cfg.corruption_eps > 0.01 {
        push(&|c| c.corruption_eps = (c.corruption_eps / 2.0).max(0.01));
    }
    if cfg.read_fault_rate > 0.05 {
        push(&|c| c.read_fault_rate = (c.read_fault_rate / 2.0).max(0.05));
    }
    if cfg.exec_panic_rate > 0.05 {
        push(&|c| c.exec_panic_rate = (c.exec_panic_rate / 2.0).max(0.05));
    }
    out
}
