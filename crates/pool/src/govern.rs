//! Resource governance: memory budgets, admission control, and graceful
//! degradation for supervised batches.
//!
//! A fleet-scale study cannot assume every unit of analysis fits in
//! memory — one multi-gigabyte pathological trace, or a batch admitted
//! too eagerly, can OOM the whole run. This module makes the batch run
//! under an explicit byte budget:
//!
//! 1. Every unit's live-heap cost is **estimated before it runs**
//!    (callers derive estimates from `tracelens-model`'s `HeapSize`
//!    accounting — plain arithmetic, no allocator hooks).
//! 2. A sequential **admission plan** walks the units in input order
//!    against a modeled live-bytes ledger. A unit is *admitted* while
//!    the in-flight window fits the budget; once it would not, the
//!    controller models draining the window (backpressure) and the unit
//!    is *queued* behind it. A unit whose own estimate exceeds the
//!    whole budget can never run whole: it is either *degraded* (run
//!    on a bounded slice of its input, with an explicit [`Degradation`]
//!    record) or *shed* as a typed
//!    [`FailureReason::OverBudget`] quarantine — the batch never
//!    aborts.
//! 3. The decisions are applied by [`Pool::governed_supervised_map`]
//!    and accounted in a [`GovernReport`]: admitted + queued +
//!    degraded + shed always equals the unit count.
//!
//! Determinism: the plan depends only on the unit order, the estimates,
//! and the policy — never on thread scheduling — so the shed and
//! degraded unit sets are identical at every job count, and an
//! unlimited budget reduces the whole layer to a no-op that is
//! byte-identical to an ungoverned run.

use crate::supervise::{ExecutionReport, FailureReason, SupervisePolicy, UnitFailure, UnitMeta};
use crate::Pool;
use std::fmt;

/// How the admission controller treats a unit whose estimated cost
/// alone exceeds the whole budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverBudgetAction {
    /// Quarantine the unit as [`FailureReason::OverBudget`] without
    /// running it (the default: never risk the budget).
    #[default]
    Shed,
    /// Run the unit on a budget-bounded slice of its input, recording
    /// an explicit [`Degradation`].
    Degrade,
}

/// The memory-governance policy of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernPolicy {
    /// Modeled live-bytes budget; `None` disables governance entirely
    /// (every unit is admitted, nothing is queued, degraded, or shed).
    pub budget_bytes: Option<u64>,
    /// What to do with units that cannot fit the budget even alone.
    pub action: OverBudgetAction,
}

impl GovernPolicy {
    /// No budget: governance is a no-op.
    pub fn unlimited() -> GovernPolicy {
        GovernPolicy::default()
    }

    /// A policy with a budget of `mb` mebibytes (`0` = unlimited).
    pub fn with_budget_mb(mb: u64) -> GovernPolicy {
        GovernPolicy {
            budget_bytes: (mb > 0).then_some(mb << 20),
            action: OverBudgetAction::default(),
        }
    }

    /// Sets the over-budget action.
    pub fn on_over_budget(mut self, action: OverBudgetAction) -> GovernPolicy {
        self.action = action;
        self
    }

    /// Whether a finite budget is in force.
    pub fn is_governed(&self) -> bool {
        self.budget_bytes.is_some()
    }
}

/// An explicit record of how an over-budget unit was degraded so it
/// could run inside the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// The unit's estimated live bytes had it run whole.
    pub estimated_bytes: u64,
    /// The budget it had to fit.
    pub budget_bytes: u64,
    /// Fraction of the unit's input it is allowed to retain, in
    /// thousandths (integer arithmetic keeps the plan `Eq` and
    /// deterministic). Always in `1..=1000`.
    pub retain_per_mille: u32,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded to {}.{}% of input (estimated {} KiB vs {} KiB budget)",
            self.retain_per_mille / 10,
            self.retain_per_mille % 10,
            self.estimated_bytes >> 10,
            self.budget_bytes >> 10
        )
    }
}

/// The admission controller's verdict for one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Runs whole within the current in-flight window.
    Admitted,
    /// Runs whole, but only after the in-flight window drains
    /// (backpressure).
    Queued,
    /// Runs on a bounded input slice.
    Degraded(Degradation),
    /// Never runs; quarantined as [`FailureReason::OverBudget`].
    Shed,
}

/// One unit's admission decision, kept in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitDecision {
    /// Position of the unit in its batch.
    pub index: usize,
    /// Unit label from [`UnitMeta`].
    pub unit: String,
    /// Estimated live bytes of the whole unit.
    pub estimated_bytes: u64,
    /// The verdict.
    pub admission: Admission,
}

/// What the admission controller decided for a batch.
///
/// Invariant: `admitted + queued + degraded + shed == units` — every
/// unit is accounted for exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GovernReport {
    /// The budget in force (`None` = governance disabled).
    pub budget_bytes: Option<u64>,
    /// Units considered.
    pub units: usize,
    /// Units admitted into the current window.
    pub admitted: usize,
    /// Units delayed behind a window drain.
    pub queued: usize,
    /// Units run on a degraded input slice.
    pub degraded: usize,
    /// Units quarantined without running.
    pub shed: usize,
    /// Peak of the modeled live-bytes ledger.
    pub peak_estimated_bytes: u64,
    /// Per-unit decisions, in input order.
    pub decisions: Vec<UnitDecision>,
}

impl GovernReport {
    /// Whether a finite budget was in force.
    pub fn is_governed(&self) -> bool {
        self.budget_bytes.is_some()
    }

    /// Units the controller did not admit whole without delay.
    pub fn constrained(&self) -> usize {
        self.queued + self.degraded + self.shed
    }

    /// Merges another batch's report into this one (decision indices
    /// stay per-batch, like [`ExecutionReport::absorb`]).
    pub fn absorb(&mut self, other: GovernReport) {
        self.budget_bytes = self.budget_bytes.or(other.budget_bytes);
        self.units += other.units;
        self.admitted += other.admitted;
        self.queued += other.queued;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.peak_estimated_bytes = self.peak_estimated_bytes.max(other.peak_estimated_bytes);
        self.decisions.extend(other.decisions);
    }
}

impl fmt::Display for GovernReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget_bytes {
            None => write!(f, "governance off: {} units admitted", self.admitted),
            Some(budget) => write!(
                f,
                "governed: {} units under a {} KiB budget — {} admitted, \
                 {} queued, {} degraded, {} shed (peak estimate {} KiB)",
                self.units,
                budget >> 10,
                self.admitted,
                self.queued,
                self.degraded,
                self.shed,
                self.peak_estimated_bytes >> 10
            ),
        }
    }
}

/// Computes the admission plan for a batch of `(label, estimated
/// bytes)` units under `policy`.
///
/// Pure and sequential: the verdicts depend only on the input order,
/// the estimates, and the policy, so a parallel executor applying them
/// reaches the same shed/degraded/queued sets at every job count.
pub fn plan_admission(estimates: &[(String, u64)], policy: &GovernPolicy) -> GovernReport {
    let mut report = GovernReport {
        budget_bytes: policy.budget_bytes,
        units: estimates.len(),
        decisions: Vec::with_capacity(estimates.len()),
        ..GovernReport::default()
    };
    let mut live: u64 = 0;
    for (index, (unit, est)) in estimates.iter().enumerate() {
        let est = *est;
        let admission = match policy.budget_bytes {
            None => {
                live = live.saturating_add(est);
                Admission::Admitted
            }
            Some(budget) => {
                if live.saturating_add(est) <= budget {
                    live = live.saturating_add(est);
                    Admission::Admitted
                } else {
                    // Backpressure: model the in-flight window draining
                    // before this unit is reconsidered.
                    live = 0;
                    if est <= budget {
                        live = est;
                        Admission::Queued
                    } else {
                        match policy.action {
                            OverBudgetAction::Degrade => {
                                live = budget;
                                Admission::Degraded(Degradation {
                                    estimated_bytes: est,
                                    budget_bytes: budget,
                                    retain_per_mille: retain_per_mille(est, budget),
                                })
                            }
                            OverBudgetAction::Shed => Admission::Shed,
                        }
                    }
                }
            }
        };
        match admission {
            Admission::Admitted => report.admitted += 1,
            Admission::Queued => report.queued += 1,
            Admission::Degraded(_) => report.degraded += 1,
            Admission::Shed => report.shed += 1,
        }
        report.peak_estimated_bytes = report.peak_estimated_bytes.max(live);
        report.decisions.push(UnitDecision {
            index,
            unit: unit.clone(),
            estimated_bytes: est,
            admission,
        });
    }
    debug_assert_eq!(
        report.admitted + report.queued + report.degraded + report.shed,
        report.units
    );
    report
}

/// `budget / est` as a per-mille fraction, clamped into `1..=1000`.
fn retain_per_mille(est: u64, budget: u64) -> u32 {
    if est == 0 {
        return 1000;
    }
    let pm = (budget.saturating_mul(1000) / est).min(1000);
    pm.max(1) as u32
}

impl Pool {
    /// [`Pool::supervised_map`](crate::Pool::supervised_map) under a
    /// memory budget.
    ///
    /// `cost(index, item)` estimates the live bytes the unit holds
    /// while running; [`plan_admission`] turns the estimates into
    /// per-unit verdicts before anything executes. Admitted and queued
    /// units run whole (`f` receives `None`); degraded units run with
    /// their [`Degradation`] record (`f` is responsible for bounding
    /// its input accordingly); shed units never run — their slot is
    /// `None` and a [`FailureReason::OverBudget`] failure joins the
    /// [`ExecutionReport`].
    ///
    /// With an unlimited policy this is exactly `supervised_map`: same
    /// results, same report, plus an all-admitted [`GovernReport`].
    #[allow(clippy::too_many_arguments)]
    pub fn governed_supervised_map<T, R, F, M, C>(
        &self,
        items: &[T],
        stage: &'static str,
        policy: &SupervisePolicy,
        govern: &GovernPolicy,
        cost: C,
        meta: M,
        f: F,
    ) -> (Vec<Option<R>>, ExecutionReport, GovernReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, Option<&Degradation>) -> R + Sync,
        M: Fn(usize, &T) -> UnitMeta,
        C: Fn(usize, &T) -> u64,
    {
        let estimates: Vec<(String, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, item)| (meta(i, item).unit, cost(i, item)))
            .collect();
        let plan = plan_admission(&estimates, govern);
        let telemetry = self.telemetry();
        if telemetry.enabled() && govern.is_governed() {
            telemetry.gauge(
                "govern.estimated_live_bytes",
                plan.peak_estimated_bytes.min(i64::MAX as u64) as i64,
            );
            telemetry.count("govern.admitted", plan.admitted as u64);
            telemetry.count("govern.queued", plan.queued as u64);
            telemetry.count("govern.degraded", plan.degraded as u64);
            telemetry.count("govern.shed", plan.shed as u64);
        }
        let decisions = &plan.decisions;
        let (raw, mut report) = self.supervised_map(items, stage, policy, &meta, |i, item| {
            match &decisions[i].admission {
                Admission::Shed => None,
                Admission::Degraded(d) => Some(f(i, item, Some(d))),
                Admission::Admitted | Admission::Queued => Some(f(i, item, None)),
            }
        });
        // Unwrap the shed-skip layer: a shed unit "completed" a trivial
        // closure above; re-account it as a typed quarantine.
        let mut results = Vec::with_capacity(items.len());
        for (index, slot) in raw.into_iter().enumerate() {
            match slot {
                Some(Some(r)) => results.push(Some(r)),
                Some(None) => {
                    let m = meta(index, &items[index]);
                    report.completed -= 1;
                    report.failures.push(UnitFailure {
                        index,
                        stage,
                        unit: m.unit,
                        scenario: m.scenario,
                        stream: m.stream,
                        instances: m.instances,
                        reason: FailureReason::OverBudget {
                            estimated_bytes: decisions[index].estimated_bytes,
                            budget_bytes: govern.budget_bytes.unwrap_or(0),
                        },
                        attempts: 0,
                    });
                    results.push(None);
                }
                None => results.push(None),
            }
        }
        // Quarantines arrive from two sources (the supervisor and the
        // shed pass); keep the report's batch-order invariant.
        report.failures.sort_by_key(|u| u.index);
        (results, report, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::test_gate::batch_gate;

    fn units(costs: &[u64]) -> Vec<(String, u64)> {
        costs
            .iter()
            .enumerate()
            .map(|(i, &c)| (format!("unit:{i}"), c))
            .collect()
    }

    #[test]
    fn unlimited_policy_admits_everything() {
        let plan = plan_admission(&units(&[100, 200, u64::MAX]), &GovernPolicy::unlimited());
        assert_eq!(plan.admitted, 3);
        assert_eq!(plan.constrained(), 0);
        assert!(!plan.is_governed());
    }

    #[test]
    fn window_overflow_queues_fitting_units() {
        let policy = GovernPolicy {
            budget_bytes: Some(250),
            action: OverBudgetAction::Shed,
        };
        let plan = plan_admission(&units(&[100, 100, 100, 100]), &policy);
        // 100+100 admitted; the third would overflow → window drains,
        // unit queued; the fourth fits behind it again.
        assert_eq!(plan.admitted, 3);
        assert_eq!(plan.queued, 1);
        assert_eq!(plan.shed, 0);
        assert_eq!(plan.peak_estimated_bytes, 200);
        assert_eq!(plan.decisions[2].admission, Admission::Queued);
    }

    #[test]
    fn oversized_units_shed_or_degrade_by_policy() {
        let shed = plan_admission(
            &units(&[500]),
            &GovernPolicy {
                budget_bytes: Some(100),
                action: OverBudgetAction::Shed,
            },
        );
        assert_eq!(shed.shed, 1);
        let degrade = plan_admission(
            &units(&[500]),
            &GovernPolicy {
                budget_bytes: Some(100),
                action: OverBudgetAction::Degrade,
            },
        );
        assert_eq!(degrade.degraded, 1);
        match degrade.decisions[0].admission {
            Admission::Degraded(d) => {
                assert_eq!(d.retain_per_mille, 200);
                assert_eq!(d.estimated_bytes, 500);
                assert_eq!(d.budget_bytes, 100);
            }
            ref other => panic!("expected degradation, got {other:?}"),
        }
    }

    #[test]
    fn every_unit_is_accounted_for() {
        for budget in [1, 50, 150, 1000, u64::MAX] {
            let policy = GovernPolicy {
                budget_bytes: Some(budget),
                action: OverBudgetAction::Degrade,
            };
            let plan = plan_admission(&units(&[0, 10, 200, 35, 7, 999, 1]), &policy);
            assert_eq!(
                plan.admitted + plan.queued + plan.degraded + plan.shed,
                plan.units,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn retain_per_mille_is_clamped() {
        assert_eq!(retain_per_mille(0, 100), 1000);
        assert_eq!(retain_per_mille(100_000_000, 1), 1);
        assert_eq!(retain_per_mille(2000, 1000), 500);
    }

    #[test]
    fn governed_map_with_unlimited_budget_matches_supervised() {
        let _gate = batch_gate();
        let pool = Pool::new(1);
        let items: Vec<u64> = (0..10).collect();
        let policy = SupervisePolicy::default();
        let (plain, plain_report) = pool.supervised_map(
            &items,
            "t",
            &policy,
            |i, _| UnitMeta::labeled(format!("u{i}")),
            |_, &x| x * 2,
        );
        let (governed, gov_report, plan) = pool.governed_supervised_map(
            &items,
            "t",
            &policy,
            &GovernPolicy::unlimited(),
            |_, &x| x,
            |i, _| UnitMeta::labeled(format!("u{i}")),
            |_, &x, d| {
                assert!(d.is_none());
                x * 2
            },
        );
        assert_eq!(plain, governed);
        assert_eq!(plain_report, gov_report);
        assert_eq!(plan.admitted, 10);
    }

    #[test]
    fn governed_map_sheds_oversized_units_without_running_them() {
        let _gate = batch_gate();
        let pool = Pool::new(2);
        let items: Vec<u64> = vec![10, 10_000, 10];
        let policy = SupervisePolicy::default();
        let govern = GovernPolicy {
            budget_bytes: Some(100),
            action: OverBudgetAction::Shed,
        };
        let (results, report, plan) = pool.governed_supervised_map(
            &items,
            "t",
            &policy,
            &govern,
            |_, &x| x,
            |i, _| UnitMeta::labeled(format!("u{i}")).carrying(1),
            |_, &x, _| {
                assert!(x <= 100, "oversized unit must not run");
                x
            },
        );
        assert_eq!(results, vec![Some(10), None, Some(10)]);
        assert_eq!(plan.shed, 1);
        assert_eq!(report.completed, 2);
        assert_eq!(report.quarantined(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.instances, 1);
        assert!(matches!(
            failure.reason,
            FailureReason::OverBudget {
                estimated_bytes: 10_000,
                budget_bytes: 100
            }
        ));
        assert_eq!(failure.attempts, 0);
    }

    #[test]
    fn governed_map_passes_degradation_to_the_unit() {
        let _gate = batch_gate();
        let pool = Pool::new(1);
        let items: Vec<u64> = vec![400];
        let govern = GovernPolicy {
            budget_bytes: Some(100),
            action: OverBudgetAction::Degrade,
        };
        let (results, report, plan) = pool.governed_supervised_map(
            &items,
            "t",
            &SupervisePolicy::default(),
            &govern,
            |_, &x| x,
            |i, _| UnitMeta::labeled(format!("u{i}")),
            |_, _, d| d.expect("degraded unit gets its record").retain_per_mille,
        );
        assert_eq!(results, vec![Some(250)]);
        assert_eq!(plan.degraded, 1);
        assert!(report.failures.is_empty());
    }
}
