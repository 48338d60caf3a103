//! Shared parsing for CLI-shaped fault-plan specs.
//!
//! A fault plane configurable from the command line (`--exec-faults`)
//! speaks a little language: comma-separated `key=value` pairs.
//! [`FaultSpec`] is the one parser for that language — it tokenizes the
//! pairs, rejects malformed input (bare keys, empty segments from
//! trailing commas, keys outside the plane's vocabulary), and leaves
//! typed interpretation of the values to the plan parser via
//! [`parse_field`] and [`parse_rate`].
//!
//! ```
//! use tracelens_faults::FaultSpec;
//!
//! let spec = FaultSpec::parse("seed=7, rate=0.5", &["seed", "rate"]).unwrap();
//! let pairs: Vec<_> = spec.entries().collect();
//! assert_eq!(pairs, [("seed", "7"), ("rate", "0.5")]);
//! assert!(FaultSpec::parse("seed=7,", &["seed"]).is_err());
//! ```

use std::fmt;

/// Why a fault-plan spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl FaultSpecError {
    fn not_a_pair(part: &str) -> FaultSpecError {
        FaultSpecError(format!("`{}` is not a key=value pair", part.trim()))
    }

    fn unknown_key(key: &str, expected: &[&str]) -> FaultSpecError {
        FaultSpecError(format!(
            "unknown key `{key}` (expected {})",
            expected.join(", ")
        ))
    }

    fn empty_segment() -> FaultSpecError {
        FaultSpecError("empty segment (trailing comma?)".to_string())
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault-plan spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// A tokenized `key=value[,key=value…]` fault-plan spec.
///
/// Parsing validates *shape* and *vocabulary*; the values stay strings
/// so each plan parser can interpret them with the types it needs.
/// Keys may repeat — later entries win when plans fold the entries in
/// order, matching the historical behavior of the per-plan parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    entries: Vec<(String, String)>,
}

impl FaultSpec {
    /// Parses `spec` against the plane's vocabulary `keys`.
    ///
    /// The empty (or all-whitespace) spec is valid and has no entries —
    /// it configures a disarmed plan. Empty segments (`"seed=1,"`,
    /// `"a=1,,b=2"`) are rejected rather than silently skipped, so a
    /// typo'd comma never arms half a plan.
    pub fn parse(spec: &str, keys: &[&str]) -> Result<FaultSpec, FaultSpecError> {
        let mut entries = Vec::new();
        if spec.trim().is_empty() {
            return Ok(FaultSpec { entries });
        }
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(FaultSpecError::empty_segment());
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError::not_a_pair(part))?;
            let (key, value) = (key.trim(), value.trim());
            if !keys.contains(&key) {
                return Err(FaultSpecError::unknown_key(key, keys));
            }
            entries.push((key.to_string(), value.to_string()));
        }
        Ok(FaultSpec { entries })
    }

    /// The parsed `(key, value)` pairs, in spec order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Parses `value` as `T`, wrapping failure in a key-specific error.
pub fn parse_field<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, FaultSpecError> {
    value
        .parse()
        .map_err(|_| FaultSpecError(format!("`{value}` is not a valid value for `{key}`")))
}

/// Parses `value` as a probability, rejecting anything outside `[0, 1]`.
pub fn parse_rate(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    let rate: f64 = parse_field(key, value)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(FaultSpecError(format!(
            "`{key}` must be in [0, 1], got {value}"
        )));
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["seed", "rate", "factor"];

    #[test]
    fn empty_spec_has_no_entries() {
        assert_eq!(FaultSpec::parse("", KEYS).unwrap().entries().count(), 0);
        assert_eq!(FaultSpec::parse("  ", KEYS).unwrap().entries().count(), 0);
    }

    #[test]
    fn whitespace_around_pairs_is_tolerated() {
        let spec = FaultSpec::parse(" seed = 3 , rate=0.5 ", KEYS).unwrap();
        let pairs: Vec<_> = spec.entries().collect();
        assert_eq!(pairs, [("seed", "3"), ("rate", "0.5")]);
    }

    #[test]
    fn trailing_comma_is_rejected() {
        let err = FaultSpec::parse("seed=1,", KEYS).unwrap_err();
        assert!(err.to_string().contains("trailing comma"), "{err}");
        assert!(FaultSpec::parse("seed=1,,rate=0.1", KEYS).is_err());
        assert!(FaultSpec::parse(",", KEYS).is_err());
    }

    #[test]
    fn unknown_key_names_the_vocabulary() {
        let err = FaultSpec::parse("bogus=1", KEYS).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown key `bogus`"), "{msg}");
        assert!(msg.contains("seed, rate, factor"), "{msg}");
    }

    #[test]
    fn bare_key_is_not_a_pair() {
        let err = FaultSpec::parse("seed", KEYS).unwrap_err();
        assert!(err.to_string().contains("not a key=value pair"), "{err}");
    }

    #[test]
    fn out_of_range_rate_is_rejected() {
        assert!(parse_rate("rate", "0.0").is_ok());
        assert!(parse_rate("rate", "1.0").is_ok());
        assert!(parse_rate("rate", "1.01").is_err());
        assert!(parse_rate("rate", "-0.1").is_err());
        assert!(parse_rate("rate", "NaN").is_err());
        let msg = parse_rate("rate", "2.0").unwrap_err().to_string();
        assert!(msg.contains("must be in [0, 1]"), "{msg}");
    }

    #[test]
    fn typed_field_errors_name_the_key() {
        let err = parse_field::<u64>("seed", "x").unwrap_err();
        assert!(err.to_string().contains("`seed`"), "{err}");
    }
}
