//! Composite fault configurations and the deterministic campaign
//! sampler.
//!
//! A [`ChaosConfig`] composes every fault plane the workspace ships —
//! data corruption, transient read faults, execution faults, torn
//! checkpoints, torn caches — into one run of the full pipeline.
//! [`sample_campaign`] derives the whole campaign's configs up front
//! from `(campaign seed, run index)`, so any run replays from the
//! campaign seed alone.

use std::fmt;
use tracelens_faults::{ExecFaultPlan, ReadFaultPlan};

/// One of the workspace's independently armable fault planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlane {
    /// Data-layer corruption of the ingested corpus
    /// (`tracelens_faults::FaultInjector`, all kinds at ε).
    Corruption,
    /// Transient read failures on the ingest transport
    /// (`FlakyReader` under the store's `RetryPolicy`).
    ReadFaults,
    /// Execution faults inside supervised analyzer units
    /// (`ExecFaultPlan`: panics and stalls).
    Exec,
    /// A checkpoint unit file torn (truncated) between runs.
    TornCheckpoint,
    /// A `.tlb` binary cache torn (truncated) between loads.
    TornCache,
}

impl FaultPlane {
    /// All planes, in canonical order.
    pub const ALL: [FaultPlane; 5] = [
        FaultPlane::Corruption,
        FaultPlane::ReadFaults,
        FaultPlane::Exec,
        FaultPlane::TornCheckpoint,
        FaultPlane::TornCache,
    ];

    /// The plane's CLI name (`--planes corruption,read,…`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlane::Corruption => "corruption",
            FaultPlane::ReadFaults => "read",
            FaultPlane::Exec => "exec",
            FaultPlane::TornCheckpoint => "checkpoint",
            FaultPlane::TornCache => "cache",
        }
    }

    /// Parses a comma-separated plane list (`"corruption,exec"`), or
    /// `"all"` for every plane.
    pub fn parse_list(spec: &str) -> Result<Vec<FaultPlane>, String> {
        if spec.trim() == "all" {
            return Ok(FaultPlane::ALL.to_vec());
        }
        let mut planes = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let plane = FaultPlane::ALL
                .iter()
                .find(|p| p.name() == part)
                .ok_or_else(|| {
                    format!(
                        "unknown fault plane `{part}` (expected {})",
                        FaultPlane::ALL.map(|p| p.name()).join(", ")
                    )
                })?;
            if !planes.contains(plane) {
                planes.push(*plane);
            }
        }
        if planes.is_empty() {
            return Err("--planes requires at least one plane".to_owned());
        }
        Ok(planes)
    }
}

impl fmt::Display for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One composite fault configuration: every plane's knobs for a single
/// run of the full pipeline. A knob at its zero value disarms its
/// plane, so the same type describes anything from a pristine control
/// run to an all-planes storm — and the minimizer shrinks failing
/// configs by moving knobs toward zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Per-run seed: drives the corpus, every fault plan, and the
    /// tear-offset draws.
    pub seed: u64,
    /// Simulated machine traces in the run's corpus.
    pub traces: usize,
    /// Corruption plane: per-item rate for every `FaultKind` (0 = off).
    pub corruption_eps: f64,
    /// Read-fault plane: fraction of `read` calls that fail
    /// transiently (0 = off). Kept at or below 0.25 by the sampler so
    /// the default 3-retry policy almost always absorbs the faults.
    pub read_fault_rate: f64,
    /// Exec plane: fraction of supervised units that panic (0 = off).
    pub exec_panic_rate: f64,
    /// Exec plane: fraction of supervised units that stall.
    pub exec_slow_rate: f64,
    /// How long a stalled unit sleeps, in milliseconds.
    pub exec_slow_ms: u64,
    /// Torn-checkpoint plane: truncation offset of one checkpoint unit
    /// file, in ‰ of its length (0 = off).
    pub torn_checkpoint_per_mille: u32,
    /// Torn-cache plane: truncation offset of the `.tlb` cache, in ‰
    /// of its length (0 = off).
    pub torn_cache_per_mille: u32,
}

impl Default for ChaosConfig {
    /// All planes disarmed over a small corpus — the control
    /// configuration.
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            traces: 12,
            corruption_eps: 0.0,
            read_fault_rate: 0.0,
            exec_panic_rate: 0.0,
            exec_slow_rate: 0.0,
            exec_slow_ms: 2,
            torn_checkpoint_per_mille: 0,
            torn_cache_per_mille: 0,
        }
    }
}

impl ChaosConfig {
    /// Whether the corruption plane is armed.
    pub fn corruption_active(&self) -> bool {
        self.corruption_eps > 0.0
    }

    /// Whether the read-fault plane is armed.
    pub fn read_faults_active(&self) -> bool {
        self.read_fault_rate > 0.0
    }

    /// Whether the exec plane is armed.
    pub fn exec_active(&self) -> bool {
        self.exec_panic_rate > 0.0 || self.exec_slow_rate > 0.0
    }

    /// Whether the torn-checkpoint plane is armed.
    pub fn torn_checkpoint_active(&self) -> bool {
        self.torn_checkpoint_per_mille > 0
    }

    /// Whether the torn-cache plane is armed.
    pub fn torn_cache_active(&self) -> bool {
        self.torn_cache_per_mille > 0
    }

    /// The armed planes, in canonical order.
    pub fn active_planes(&self) -> Vec<FaultPlane> {
        FaultPlane::ALL
            .into_iter()
            .filter(|p| self.plane_active(*p))
            .collect()
    }

    /// Whether `plane` is armed in this configuration.
    pub fn plane_active(&self, plane: FaultPlane) -> bool {
        match plane {
            FaultPlane::Corruption => self.corruption_active(),
            FaultPlane::ReadFaults => self.read_faults_active(),
            FaultPlane::Exec => self.exec_active(),
            FaultPlane::TornCheckpoint => self.torn_checkpoint_active(),
            FaultPlane::TornCache => self.torn_cache_active(),
        }
    }

    /// The config with `plane` disarmed (knobs zeroed) — the
    /// minimizer's coarsest shrink step.
    pub fn without_plane(&self, plane: FaultPlane) -> ChaosConfig {
        let mut c = self.clone();
        match plane {
            FaultPlane::Corruption => c.corruption_eps = 0.0,
            FaultPlane::ReadFaults => c.read_fault_rate = 0.0,
            FaultPlane::Exec => {
                c.exec_panic_rate = 0.0;
                c.exec_slow_rate = 0.0;
            }
            FaultPlane::TornCheckpoint => c.torn_checkpoint_per_mille = 0,
            FaultPlane::TornCache => c.torn_cache_per_mille = 0,
        }
        c
    }

    /// The exec-fault plan this config arms, if any.
    pub fn exec_plan(&self) -> Option<ExecFaultPlan> {
        self.exec_active().then(|| {
            ExecFaultPlan::new(self.seed)
                .with_panic_rate(self.exec_panic_rate)
                .with_slow_rate(self.exec_slow_rate)
                .with_slow_for(std::time::Duration::from_millis(self.exec_slow_ms))
        })
    }

    /// The read-fault plan this config arms (disarmed when the plane
    /// is off).
    pub fn read_plan(&self) -> ReadFaultPlan {
        ReadFaultPlan::new(self.seed).with_rate(self.read_fault_rate)
    }

    /// Compact plane tag for campaign output, e.g. `[corruption+exec]`
    /// or `[none]`.
    pub fn plane_tag(&self) -> String {
        let planes = self.active_planes();
        if planes.is_empty() {
            return "[none]".to_owned();
        }
        let names: Vec<&str> = planes.iter().map(|p| p.name()).collect();
        format!("[{}]", names.join("+"))
    }
}

/// SplitMix64 — the same finalizer family the fault plans use; local
/// so campaign sampling is independent of any other crate's stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Samples the whole campaign up front: `runs` composite configs
/// derived purely from `(seed, run index)` over the allowed `planes`.
/// Each allowed plane arms independently with probability ½; rates are
/// drawn from plane-specific ranges chosen so a *correct* pipeline
/// absorbs the faults (e.g. read-fault rates stay under the retry
/// policy's effective coverage).
pub fn sample_campaign(
    seed: u64,
    runs: usize,
    traces: usize,
    planes: &[FaultPlane],
) -> Vec<ChaosConfig> {
    (0..runs as u64)
        .map(|i| {
            // Decorrelate runs: one mixing round over (seed, i).
            let mut rng = Rng::new(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
            let mut cfg = ChaosConfig {
                seed: rng.next_u64(),
                traces,
                ..ChaosConfig::default()
            };
            for plane in planes {
                if !rng.chance(0.5) {
                    // Burn the plane's draws so arming one plane never
                    // shifts another plane's knobs.
                    match plane {
                        FaultPlane::Exec => {
                            rng.unit();
                            rng.unit();
                            rng.unit();
                        }
                        _ => {
                            rng.unit();
                        }
                    }
                    continue;
                }
                match plane {
                    FaultPlane::Corruption => cfg.corruption_eps = 0.01 + rng.unit() * 0.04,
                    FaultPlane::ReadFaults => cfg.read_fault_rate = 0.05 + rng.unit() * 0.20,
                    FaultPlane::Exec => {
                        cfg.exec_panic_rate = 0.10 + rng.unit() * 0.40;
                        cfg.exec_slow_rate = if rng.chance(0.5) {
                            0.10 + rng.unit() * 0.20
                        } else {
                            rng.unit();
                            0.0
                        };
                    }
                    FaultPlane::TornCheckpoint => {
                        cfg.torn_checkpoint_per_mille = 50 + (rng.unit() * 900.0) as u32
                    }
                    FaultPlane::TornCache => {
                        cfg.torn_cache_per_mille = 50 + (rng.unit() * 900.0) as u32
                    }
                }
            }
            cfg
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_campaign(9, 25, 12, &FaultPlane::ALL);
        let b = sample_campaign(9, 25, 12, &FaultPlane::ALL);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        let c = sample_campaign(10, 25, 12, &FaultPlane::ALL);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn sampled_rates_stay_in_safe_ranges() {
        for cfg in sample_campaign(7, 200, 12, &FaultPlane::ALL) {
            assert!(cfg.corruption_eps <= 0.05);
            assert!(cfg.read_fault_rate <= 0.25);
            assert!(cfg.exec_panic_rate <= 0.5);
            assert!(cfg.torn_checkpoint_per_mille < 1000);
            assert!(cfg.torn_cache_per_mille < 1000);
        }
    }

    #[test]
    fn restricting_planes_restricts_activity() {
        let only = [FaultPlane::Exec];
        for cfg in sample_campaign(3, 50, 12, &only) {
            for plane in cfg.active_planes() {
                assert_eq!(plane, FaultPlane::Exec);
            }
        }
    }

    #[test]
    fn without_plane_disarms_exactly_that_plane() {
        let cfg = sample_campaign(1, 64, 12, &FaultPlane::ALL)
            .into_iter()
            .find(|c| c.active_planes().len() >= 3)
            .expect("some run arms three planes");
        for plane in cfg.active_planes() {
            let shrunk = cfg.without_plane(plane);
            assert!(!shrunk.plane_active(plane));
            assert_eq!(shrunk.active_planes().len(), cfg.active_planes().len() - 1);
        }
    }

    #[test]
    fn plane_list_parses() {
        assert_eq!(
            FaultPlane::parse_list("corruption, exec").unwrap(),
            vec![FaultPlane::Corruption, FaultPlane::Exec]
        );
        assert_eq!(FaultPlane::parse_list("all").unwrap().len(), 5);
        assert!(FaultPlane::parse_list("bogus").is_err());
        assert!(FaultPlane::parse_list("").is_err());
    }
}
