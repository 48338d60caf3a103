//! Cross-cutting invariant oracles.
//!
//! Each oracle states a property the pipeline must preserve *under
//! any composition of fault planes* — fault tolerance is allowed to
//! degrade coverage, never to violate these. Oracles are pure
//! functions over the [`RunArtifacts`] a chaos run leaves behind:
//! `applies` says whether the run exercised the property at all,
//! `check` passes or explains the violation.

use crate::engine::RunArtifacts;

/// One invariant the pipeline must uphold under composed faults.
pub struct Oracle {
    /// Stable oracle name, used in campaign output and repro files.
    pub name: &'static str,
    /// Whether this run produced the evidence the oracle judges.
    pub applies: fn(&RunArtifacts) -> bool,
    /// Passes, or explains the violation.
    pub check: fn(&RunArtifacts) -> Result<(), String>,
}

/// A failed oracle check for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the violating run within the campaign.
    pub run: usize,
    /// Name of the violated [`Oracle`].
    pub oracle: &'static str,
    /// The oracle's explanation.
    pub detail: String,
}

/// Every oracle, in the order they are checked.
pub const ORACLES: &[Oracle] = &[
    Oracle {
        name: "no_escaped_panic",
        applies: |_| true,
        check: |a| match &a.panic {
            None => Ok(()),
            Some(msg) => Err(format!("panic escaped the pipeline: {msg}")),
        },
    },
    Oracle {
        name: "coverage_conserved",
        applies: |a| a.coverage.is_some(),
        check: |a| {
            let c = a.coverage.as_ref().expect("applies checked");
            if c.analyzed_traces + c.quarantined_traces != c.total_traces {
                return Err(format!(
                    "trace accounting leaks: {} analyzed + {} quarantined != {} total",
                    c.analyzed_traces, c.quarantined_traces, c.total_traces
                ));
            }
            if c.analyzed_instances + c.quarantined_instances != c.total_instances {
                return Err(format!(
                    "instance accounting leaks: {} analyzed + {} quarantined != {} total",
                    c.analyzed_instances, c.quarantined_instances, c.total_instances
                ));
            }
            if c.failed_units != c.exec_quarantined {
                return Err(format!(
                    "failed-unit accounting leaks: coverage says {} but execution \
                     quarantined {}",
                    c.failed_units, c.exec_quarantined
                ));
            }
            Ok(())
        },
    },
    Oracle {
        name: "ingest_identical",
        applies: |a| a.ingest.is_some(),
        check: |a| a.ingest.clone().expect("applies checked"),
    },
    Oracle {
        name: "no_cache_laundering",
        applies: |a| a.cache.is_some(),
        check: |a| a.cache.clone().expect("applies checked"),
    },
    Oracle {
        name: "supervised_plain_identical",
        applies: |a| a.baseline.is_some(),
        check: |a| a.baseline.clone().expect("applies checked"),
    },
    Oracle {
        name: "report_well_formed",
        applies: |a| a.markdown.is_some(),
        check: |a| {
            let md = a.markdown.as_ref().expect("applies checked");
            if !md.starts_with("# tracelens performance report") {
                return Err("report lost its title header".to_owned());
            }
            for block in md.split("\n\n") {
                let widths: Vec<usize> = block
                    .lines()
                    .filter(|l| l.starts_with('|'))
                    .map(|l| l.matches('|').count())
                    .collect();
                if widths.windows(2).any(|w| w[0] != w[1]) {
                    return Err(format!(
                        "ragged table rows in block starting {:?}",
                        block.lines().next().unwrap_or("")
                    ));
                }
            }
            Ok(())
        },
    },
];

/// Checks every applicable oracle against `artifacts`, returning all
/// violations (tagged with campaign run index `run`).
pub fn check_all(run: usize, artifacts: &RunArtifacts) -> Vec<Violation> {
    ORACLES
        .iter()
        .filter(|o| (o.applies)(artifacts))
        .filter_map(|o| {
            (o.check)(artifacts).err().map(|detail| Violation {
                run,
                oracle: o.name,
                detail,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CoverageNumbers;

    fn clean_artifacts() -> RunArtifacts {
        RunArtifacts {
            config: crate::ChaosConfig::default(),
            panic: None,
            markdown: Some(
                "# tracelens performance report\n\n| a | b |\n|---|---|\n| 1 | 2 |\n".to_owned(),
            ),
            coverage: Some(CoverageNumbers {
                total_traces: 10,
                analyzed_traces: 8,
                quarantined_traces: 2,
                total_instances: 40,
                analyzed_instances: 30,
                quarantined_instances: 10,
                failed_units: 3,
                exec_quarantined: 3,
            }),
            degraded: Vec::new(),
            ingest: Some(Ok(())),
            cache: Some(Ok(())),
            baseline: Some(Ok(())),
        }
    }

    #[test]
    fn clean_run_passes_every_oracle() {
        assert!(check_all(0, &clean_artifacts()).is_empty());
    }

    #[test]
    fn escaped_panic_is_flagged() {
        let mut a = clean_artifacts();
        a.panic = Some("boom".to_owned());
        let v = check_all(3, &a);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "no_escaped_panic");
        assert_eq!(v[0].run, 3);
    }

    #[test]
    fn leaked_instance_is_flagged() {
        let mut a = clean_artifacts();
        a.coverage.as_mut().unwrap().analyzed_instances += 1;
        let v = check_all(0, &a);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "coverage_conserved");
        assert!(v[0].detail.contains("instance accounting"));
    }

    #[test]
    fn ragged_table_is_flagged() {
        let mut a = clean_artifacts();
        a.markdown = Some(
            "# tracelens performance report\n\n| a | b |\n|---|---|\n| 1 | 2 | 3 |\n".to_owned(),
        );
        let v = check_all(0, &a);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "report_well_formed");
    }

    #[test]
    fn inapplicable_oracles_are_skipped() {
        let a = RunArtifacts {
            config: crate::ChaosConfig::default(),
            panic: None,
            markdown: None,
            coverage: None,
            degraded: vec!["ingest failed after retries".to_owned()],
            ingest: None,
            cache: None,
            baseline: None,
        };
        assert!(check_all(0, &a).is_empty());
    }
}
