//! Execution-layer fault injection: adversarial *analyzer units*.
//!
//! [`FaultInjector`](crate::FaultInjector) corrupts data; this module
//! corrupts *execution*. An [`ExecFaultPlan`] decides, deterministically
//! in `(seed, stage, unit)`, whether a given supervised work unit should
//! panic mid-analysis or stall past its soft deadline — the two failure
//! modes the fail-operational supervisor in `tracelens::supervise`
//! exists to contain. The plan is pure data: probing it never mutates
//! state, so the same plan consulted on any run, any retry, or across a
//! checkpoint-resume boundary yields the same verdict for the same
//! unit.
//!
//! ```
//! use tracelens_faults::{ExecFault, ExecFaultPlan};
//!
//! let plan = ExecFaultPlan::new(7).with_panic_rate(0.5);
//! let a = plan.fault_for("causality", "scenario:AppLaunch");
//! assert_eq!(a, plan.fault_for("causality", "scenario:AppLaunch"));
//! assert!(matches!(a, None | Some(ExecFault::Panic)));
//! ```

use crate::spec::{parse_field, parse_rate, FaultSpec};
use std::time::Duration;

/// Why an `--exec-faults` spec failed to parse.
///
/// Historical name for the shared [`FaultSpecError`](crate::FaultSpecError):
/// all fault-plan parsers now report through the same type.
pub type ExecFaultParseError = crate::FaultSpecError;

/// What an execution fault does to the unit it fires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFault {
    /// The unit panics with a deterministic message naming stage and
    /// unit (so quarantine reports are reproducible byte-for-byte).
    Panic,
    /// The unit sleeps for the given duration before proceeding,
    /// provoking a soft-deadline quarantine when the supervisor's
    /// budget is smaller.
    Slow(Duration),
}

/// A deterministic schedule of execution faults.
///
/// `fault_for(stage, unit)` hashes `(seed, stage, unit)` into a uniform
/// value and compares it against the configured rates: panic faults
/// claim the first `panic_rate` of the unit interval, slow faults the
/// next `slow_rate`. Rates are per *unit*, not per event — a plan with
/// `panic_rate 0.3` poisons roughly 30% of supervised units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecFaultPlan {
    seed: u64,
    panic_rate: f64,
    slow_rate: f64,
    slow_for: Duration,
}

/// Default injected stall, chosen to overshoot the deadlines the tests
/// and CI gates configure by a wide margin.
const DEFAULT_SLOW: Duration = Duration::from_millis(600);

impl ExecFaultPlan {
    /// A plan with no faults armed; add rates with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> ExecFaultPlan {
        ExecFaultPlan {
            seed,
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_for: DEFAULT_SLOW,
        }
    }

    /// Fraction of units (in `[0, 1]`) that panic.
    pub fn with_panic_rate(mut self, rate: f64) -> ExecFaultPlan {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of units (in `[0, 1]`) that stall.
    pub fn with_slow_rate(mut self, rate: f64) -> ExecFaultPlan {
        self.slow_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// How long a stalled unit sleeps (default 600ms).
    pub fn with_slow_for(mut self, d: Duration) -> ExecFaultPlan {
        self.slow_for = d;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any fault can ever fire.
    pub fn is_armed(&self) -> bool {
        self.panic_rate > 0.0 || self.slow_rate > 0.0
    }

    /// The fault (if any) scheduled for `unit` at `stage` — pure in all
    /// three of `(self.seed, stage, unit)`.
    pub fn fault_for(&self, stage: &str, unit: &str) -> Option<ExecFault> {
        if !self.is_armed() {
            return None;
        }
        let u = unit_draw(self.seed, stage, unit);
        if u < self.panic_rate {
            Some(ExecFault::Panic)
        } else if u < self.panic_rate + self.slow_rate {
            Some(ExecFault::Slow(self.slow_for))
        } else {
            None
        }
    }

    /// Consults the plan and *arms* the fault: panics with a
    /// deterministic message or sleeps, then returns. Call this at the
    /// top of a supervised unit body; it is a no-op for unscheduled
    /// units.
    ///
    /// # Panics
    ///
    /// By design, when the plan schedules [`ExecFault::Panic`] for this
    /// unit — the supervisor is expected to catch it.
    pub fn arm(&self, stage: &str, unit: &str) {
        match self.fault_for(stage, unit) {
            Some(ExecFault::Panic) => {
                panic!("injected fault: {stage}/{unit}")
            }
            Some(ExecFault::Slow(d)) => std::thread::sleep(d),
            None => {}
        }
    }

    /// Parses a CLI-shaped spec: comma-separated `key=value` pairs from
    /// `seed`, `panic`, `slow` (rates in `[0, 1]`) and `slow-ms`.
    ///
    /// ```
    /// use tracelens_faults::ExecFaultPlan;
    /// let plan = ExecFaultPlan::parse("seed=7,panic=0.3,slow=0.2,slow-ms=800").unwrap();
    /// assert_eq!(plan.seed(), 7);
    /// assert!(plan.is_armed());
    /// ```
    pub fn parse(spec: &str) -> Result<ExecFaultPlan, ExecFaultParseError> {
        let mut plan = ExecFaultPlan::new(0);
        for (key, value) in FaultSpec::parse(spec, &["seed", "panic", "slow", "slow-ms"])?.entries()
        {
            match key {
                "seed" => plan.seed = parse_field(key, value)?,
                "panic" => plan = plan.with_panic_rate(parse_rate(key, value)?),
                "slow" => plan = plan.with_slow_rate(parse_rate(key, value)?),
                "slow-ms" => {
                    plan = plan.with_slow_for(Duration::from_millis(parse_field(key, value)?))
                }
                _ => unreachable!("FaultSpec vocabulary"),
            }
        }
        Ok(plan)
    }
}

/// Uniform draw in `[0, 1)` from `(seed, stage, unit)`: FNV-1a over the
/// strings feeds one round of SplitMix64 finalization — the same
/// mixing family the data-layer injector uses.
pub(crate) fn unit_draw(seed: u64, stage: &str, unit: &str) -> f64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
    for byte in stage
        .as_bytes()
        .iter()
        .chain(b"\x1f")
        .chain(unit.as_bytes())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_faults() {
        let plan = ExecFaultPlan::new(1);
        assert!(!plan.is_armed());
        for i in 0..100 {
            assert_eq!(plan.fault_for("scenario", &format!("unit:{i}")), None);
        }
        plan.arm("scenario", "unit:0"); // no-op, must not panic
    }

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let a = ExecFaultPlan::new(9)
            .with_panic_rate(0.4)
            .with_slow_rate(0.3);
        let b = ExecFaultPlan::new(10)
            .with_panic_rate(0.4)
            .with_slow_rate(0.3);
        let units: Vec<String> = (0..200).map(|i| format!("scenario:S{i}")).collect();
        let va: Vec<_> = units.iter().map(|u| a.fault_for("study", u)).collect();
        let va2: Vec<_> = units.iter().map(|u| a.fault_for("study", u)).collect();
        let vb: Vec<_> = units.iter().map(|u| b.fault_for("study", u)).collect();
        assert_eq!(va, va2, "same plan, same verdicts");
        assert_ne!(va, vb, "different seeds diverge");
    }

    #[test]
    fn rates_partition_the_unit_interval() {
        let plan = ExecFaultPlan::new(3)
            .with_panic_rate(0.25)
            .with_slow_rate(0.25);
        let n = 4000;
        let mut panics = 0usize;
        let mut slows = 0usize;
        for i in 0..n {
            match plan.fault_for("impact", &format!("stream:{i}")) {
                Some(ExecFault::Panic) => panics += 1,
                Some(ExecFault::Slow(_)) => slows += 1,
                None => {}
            }
        }
        let p = panics as f64 / n as f64;
        let s = slows as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.05, "panic rate {p}");
        assert!((s - 0.25).abs() < 0.05, "slow rate {s}");
    }

    #[test]
    fn stage_scopes_the_draw() {
        let plan = ExecFaultPlan::new(11).with_panic_rate(0.5);
        let at = |stage: &str| -> Vec<Option<ExecFault>> {
            (0..64)
                .map(|i| plan.fault_for(stage, &format!("u{i}")))
                .collect()
        };
        assert_ne!(at("impact"), at("causality"));
    }

    #[test]
    fn arm_panics_with_a_deterministic_message() {
        let plan = ExecFaultPlan::new(0).with_panic_rate(1.0);
        let err = std::panic::catch_unwind(|| plan.arm("study", "scenario:X")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault: study/scenario:X");
    }

    #[test]
    fn parse_round_trips_the_cli_spec() {
        let plan = ExecFaultPlan::parse("seed=42,panic=0.3,slow=0.1,slow-ms=250").unwrap();
        assert_eq!(
            plan,
            ExecFaultPlan::new(42)
                .with_panic_rate(0.3)
                .with_slow_rate(0.1)
                .with_slow_for(Duration::from_millis(250))
        );
        assert_eq!(ExecFaultPlan::parse("").unwrap(), ExecFaultPlan::new(0));
        assert!(ExecFaultPlan::parse("panic").is_err());
        assert!(ExecFaultPlan::parse("panic=2.0").is_err());
        assert!(ExecFaultPlan::parse("bogus=1").is_err());
        assert!(ExecFaultPlan::parse("seed=x").is_err());
        let msg = ExecFaultPlan::parse("bogus=1").unwrap_err().to_string();
        assert!(msg.contains("unknown key"), "{msg}");
    }
}
