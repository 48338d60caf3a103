//! Execution-layer fault injection: adversarial *analyzer units*.
//!
//! [`FaultInjector`](crate::FaultInjector) corrupts data; this module
//! corrupts *execution*. An [`ExecFaultPlan`] decides, deterministically
//! in `(seed, stage, unit)`, whether a given supervised work unit should
//! panic mid-analysis — the failure the fail-operational supervisor in
//! `tracelens::supervise` exists to contain. The plan is pure data:
//! probing it never mutates state, so the same plan consulted on any
//! run, or twice in one run, yields the same verdict for the same
//! unit.
//!
//! ```
//! use tracelens_faults::ExecFaultPlan;
//!
//! let plan = ExecFaultPlan::new(7).with_panic_rate(0.5);
//! let a = plan.panics("causality", "scenario:AppLaunch");
//! assert_eq!(a, plan.panics("causality", "scenario:AppLaunch"));
//! assert!(!ExecFaultPlan::new(7).panics("causality", "scenario:AppLaunch"));
//! ```

use std::fmt;

/// Why an `--exec-faults` spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecFaultParseError(String);

impl fmt::Display for ExecFaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault-plan spec: {}", self.0)
    }
}

impl std::error::Error for ExecFaultParseError {}

/// A deterministic schedule of execution faults.
///
/// `panics(stage, unit)` hashes `(seed, stage, unit)` into a uniform
/// value in `[0, 1)`; the unit panics when the value falls in the first
/// `panic_rate` of that interval. The rate is per *unit*, not per event
/// — a plan with `panic_rate 0.3` poisons roughly 30% of supervised
/// units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecFaultPlan {
    seed: u64,
    panic_rate: f64,
}

impl ExecFaultPlan {
    /// A plan with no faults armed; add a rate with
    /// [`Self::with_panic_rate`].
    pub fn new(seed: u64) -> ExecFaultPlan {
        ExecFaultPlan {
            seed,
            panic_rate: 0.0,
        }
    }

    /// Fraction of units (in `[0, 1]`) that panic.
    pub fn with_panic_rate(mut self, rate: f64) -> ExecFaultPlan {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any fault can ever fire.
    pub fn is_armed(&self) -> bool {
        self.panic_rate > 0.0
    }

    /// Whether `unit` at `stage` panics — pure in all three of
    /// `(self.seed, stage, unit)`.
    pub fn panics(&self, stage: &str, unit: &str) -> bool {
        self.is_armed() && unit_draw(self.seed, stage, unit) < self.panic_rate
    }

    /// Consults the plan and *arms* the fault: panics with a
    /// deterministic message, or returns. Call this at the top of a
    /// supervised unit body; it is a no-op for unscheduled units.
    ///
    /// # Panics
    ///
    /// By design, when the plan [`panics`](Self::panics) for this unit
    /// — the supervisor is expected to catch it.
    pub fn arm(&self, stage: &str, unit: &str) {
        if self.panics(stage, unit) {
            panic!("injected fault: {stage}/{unit}")
        }
    }

    /// Parses a CLI-shaped spec: comma-separated `key=value` pairs from
    /// `seed` and `panic` (a rate in `[0, 1]`). Whitespace around pairs
    /// is tolerated, a repeated key takes its last value, and the empty
    /// spec is a disarmed plan. Empty segments (`"seed=1,"`) are
    /// rejected rather than skipped, so a typo'd comma never arms half a
    /// plan.
    ///
    /// ```
    /// use tracelens_faults::ExecFaultPlan;
    /// let plan = ExecFaultPlan::parse("seed=7,panic=0.3").unwrap();
    /// assert_eq!(plan.seed(), 7);
    /// assert!(plan.is_armed());
    /// assert!(ExecFaultPlan::parse("seed=7,").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<ExecFaultPlan, ExecFaultParseError> {
        let err = |msg: String| Err(ExecFaultParseError(msg));
        let mut plan = ExecFaultPlan::new(0);
        if spec.trim().is_empty() {
            return Ok(plan);
        }
        for part in spec.split(',').map(str::trim) {
            if part.is_empty() {
                return err("empty segment (trailing comma?)".to_owned());
            }
            let Some((key, value)) = part.split_once('=') else {
                return err(format!("`{part}` is not a key=value pair"));
            };
            let (key, value) = (key.trim(), value.trim());
            let bad_value =
                || ExecFaultParseError(format!("`{value}` is not a valid value for `{key}`"));
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad_value())?,
                "panic" => {
                    let rate: f64 = value.parse().map_err(|_| bad_value())?;
                    if !(0.0..=1.0).contains(&rate) {
                        return err(format!("`{key}` must be in [0, 1], got {value}"));
                    }
                    plan.panic_rate = rate;
                }
                _ => return err(format!("unknown key `{key}` (expected seed, panic)")),
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
            assert!(!plan.panics("scenario", &format!("unit:{i}")));
        }
        plan.arm("scenario", "unit:0"); // no-op, must not panic
    }

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let a = ExecFaultPlan::new(9).with_panic_rate(0.4);
        let b = ExecFaultPlan::new(10).with_panic_rate(0.4);
        let units: Vec<String> = (0..200).map(|i| format!("scenario:S{i}")).collect();
        let va: Vec<_> = units.iter().map(|u| a.panics("study", u)).collect();
        let va2: Vec<_> = units.iter().map(|u| a.panics("study", u)).collect();
        let vb: Vec<_> = units.iter().map(|u| b.panics("study", u)).collect();
        assert_eq!(va, va2, "same plan, same verdicts");
        assert_ne!(va, vb, "different seeds diverge");
    }

    #[test]
    fn rates_partition_the_unit_interval() {
        // The rate claims the first `panic_rate` of the unit interval: a
        // lower rate poisons a subset of the units a higher one does.
        let quarter = ExecFaultPlan::new(3).with_panic_rate(0.25);
        let half = ExecFaultPlan::new(3).with_panic_rate(0.5);
        let n = 4000;
        let (mut q, mut h) = (0usize, 0usize);
        for i in 0..n {
            let unit = format!("stream:{i}");
            let (in_q, in_h) = (
                quarter.panics("impact", &unit),
                half.panics("impact", &unit),
            );
            assert!(!in_q || in_h, "{unit}");
            q += usize::from(in_q);
            h += usize::from(in_h);
        }
        let (q, h) = (q as f64 / n as f64, h as f64 / n as f64);
        assert!((q - 0.25).abs() < 0.05, "panic rate {q}");
        assert!((h - 0.5).abs() < 0.05, "panic rate {h}");
    }

    #[test]
    fn stage_scopes_the_draw() {
        let plan = ExecFaultPlan::new(11).with_panic_rate(0.5);
        let at = |stage: &str| -> Vec<bool> {
            (0..64)
                .map(|i| plan.panics(stage, &format!("u{i}")))
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
        let plan = ExecFaultPlan::parse("seed=42,panic=0.3").unwrap();
        assert_eq!(plan, ExecFaultPlan::new(42).with_panic_rate(0.3));
        assert_eq!(
            ExecFaultPlan::parse("panic=0.1,seed=5,panic=0.2").unwrap(),
            ExecFaultPlan::new(5).with_panic_rate(0.2),
            "a repeated key takes its last value"
        );
        assert!(ExecFaultPlan::parse("panic").is_err());
        assert!(ExecFaultPlan::parse("panic=2.0").is_err());
        assert!(ExecFaultPlan::parse("bogus=1").is_err());
        assert!(ExecFaultPlan::parse("seed=x").is_err());
        for removed in ["slow=0.1", "slow-ms=250"] {
            let msg = ExecFaultPlan::parse(removed).unwrap_err().to_string();
            assert!(msg.contains("unknown key"), "{msg}");
        }
    }

    #[test]
    fn empty_spec_is_a_disarmed_plan() {
        for spec in ["", "  "] {
            let plan = ExecFaultPlan::parse(spec).unwrap();
            assert_eq!(plan, ExecFaultPlan::new(0));
            assert!(!plan.is_armed());
        }
    }

    #[test]
    fn whitespace_around_pairs_is_tolerated() {
        let plan = ExecFaultPlan::parse(" seed = 3 , panic=0.5 ").unwrap();
        assert_eq!(plan, ExecFaultPlan::new(3).with_panic_rate(0.5));
    }

    #[test]
    fn trailing_comma_is_rejected() {
        let err = ExecFaultPlan::parse("seed=1,").unwrap_err();
        assert!(err.to_string().contains("trailing comma"), "{err}");
        assert!(ExecFaultPlan::parse("seed=1,,panic=0.1").is_err());
        assert!(ExecFaultPlan::parse(",").is_err());
    }

    #[test]
    fn unknown_key_names_the_vocabulary() {
        let msg = ExecFaultPlan::parse("bogus=1").unwrap_err().to_string();
        assert!(msg.contains("unknown key `bogus`"), "{msg}");
        assert!(msg.contains("seed, panic"), "{msg}");
    }

    #[test]
    fn bare_key_is_not_a_pair() {
        let err = ExecFaultPlan::parse("seed").unwrap_err();
        assert!(err.to_string().contains("not a key=value pair"), "{err}");
    }

    #[test]
    fn out_of_range_rate_is_rejected() {
        assert!(ExecFaultPlan::parse("panic=0.0").is_ok());
        assert!(ExecFaultPlan::parse("panic=1.0").is_ok());
        assert!(ExecFaultPlan::parse("panic=1.01").is_err());
        assert!(ExecFaultPlan::parse("panic=-0.1").is_err());
        assert!(ExecFaultPlan::parse("panic=NaN").is_err());
        let msg = ExecFaultPlan::parse("panic=2.0").unwrap_err().to_string();
        assert!(msg.contains("must be in [0, 1]"), "{msg}");
    }

    #[test]
    fn bad_numbers_name_their_key() {
        let err = ExecFaultPlan::parse("seed=x").unwrap_err();
        assert!(err.to_string().contains("`seed`"), "{err}");
        let err = ExecFaultPlan::parse("panic=lots").unwrap_err();
        assert!(err.to_string().contains("`panic`"), "{err}");
    }
}
