//! Fail-operational execution: supervised work units, run one at a time.
//!
//! A fleet-scale study must not die because one pathological trace
//! poisons one analyzer unit out of thousands. A [`Supervisor`] extends
//! the ingestion layer's repair-vs-quarantine philosophy to execution:
//! every unit runs once under `catch_unwind`, and a panic quarantines
//! **that unit only** and surfaces as a typed [`UnitFailure`] instead of
//! aborting the study. A unit is a pure function of the in-memory data
//! set, so rerunning a panicked unit would only repeat its panic; a
//! deterministic workload yields a byte-identical outcome on every run.
//!
//! Each batch's outcome is an [`ExecutionReport`]: the execution-layer
//! sibling of the ingestion layer's `SanitizeReport`, accounting for
//! every unit the batch could not complete so partial results are never
//! mistaken for full ones.
//!
//! While a supervisor is alive it also installs a scoped
//! [panic hook](std::panic::set_hook) that replaces the default
//! multi-line backtrace dump of each quarantined unit with one
//! structured stderr line; panics outside supervised units are
//! delegated to the previously installed hook, which is restored when
//! the last live supervisor drops.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, PanicHookInfo};
use std::sync::Mutex;
use tracelens_obs::Telemetry;

/// Caller-supplied description of one work unit, used to label its
/// [`UnitFailure`] if it is quarantined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitMeta {
    /// Human-readable unit label, e.g. `scenario:BrowserTabCreate` or
    /// `stream:17`.
    pub unit: String,
    /// The scenario this unit analyzes, if scenario-scoped.
    pub scenario: Option<String>,
    /// The trace-stream id this unit analyzes, if stream-scoped.
    pub stream: Option<u32>,
    /// Scenario instances whose analysis this unit carries; lost if the
    /// unit is quarantined.
    pub instances: usize,
}

impl UnitMeta {
    /// A labelled unit with no further attribution.
    pub fn labeled(unit: impl Into<String>) -> UnitMeta {
        UnitMeta {
            unit: unit.into(),
            ..UnitMeta::default()
        }
    }

    /// Attaches the scenario name.
    pub fn for_scenario(mut self, scenario: impl Into<String>) -> UnitMeta {
        self.scenario = Some(scenario.into());
        self
    }

    /// Attaches the trace-stream id.
    pub fn for_stream(mut self, stream: u32) -> UnitMeta {
        self.stream = Some(stream);
        self
    }

    /// Records how many scenario instances ride on this unit.
    pub fn carrying(mut self, instances: usize) -> UnitMeta {
        self.instances = instances;
        self
    }
}

/// One quarantined unit: what failed, where, and the panic that failed
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// Position of the unit in its batch.
    pub index: usize,
    /// Pipeline stage of the batch (e.g. `impact`, `scenario`).
    pub stage: &'static str,
    /// Unit label from [`UnitMeta`].
    pub unit: String,
    /// Scenario attribution, if any.
    pub scenario: Option<String>,
    /// Trace-stream attribution, if any.
    pub stream: Option<u32>,
    /// Scenario instances lost with this unit.
    pub instances: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads
    /// verbatim, a placeholder otherwise).
    pub panic: String,
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] panic: {}", self.unit, self.stage, self.panic)
    }
}

/// What a supervised batch (or a whole supervised study) completed and
/// what it had to give up — the execution-layer `SanitizeReport`.
///
/// Contains no wall-clock measurements, so two runs of the same
/// deterministic workload produce equal reports regardless of timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Work units supervised.
    pub units: usize,
    /// Units that produced a result.
    pub completed: usize,
    /// The quarantined units, in batch order.
    pub failures: Vec<UnitFailure>,
}

impl ExecutionReport {
    /// Quarantined unit count.
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }

    /// `true` when every unit completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of units that produced a result, in `[0, 1]` (`1.0`
    /// for an empty batch).
    pub fn completion_rate(&self) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            self.completed as f64 / self.units as f64
        }
    }

    /// Scenario instances lost with quarantined units.
    pub fn lost_instances(&self) -> usize {
        self.failures.iter().map(|f| f.instances).sum()
    }

    /// Merges another report (e.g. a later pipeline stage) into this
    /// one; failures keep their per-batch indices.
    pub fn absorb(&mut self, other: ExecutionReport) {
        self.units += other.units;
        self.completed += other.completed;
        self.failures.extend(other.failures);
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervised: {}/{} units completed, {} quarantined",
            self.completed,
            self.units,
            self.quarantined()
        )?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

/// Runs work units one at a time, each once, with panic isolation.
///
/// Creating a supervisor installs the structured panic hook; dropping
/// it restores the previous one. Each [`Supervisor::run`] appends one
/// unit to a batch's [`ExecutionReport`] and reports `supervisor.*`
/// counters through the telemetry handle.
pub struct Supervisor {
    telemetry: Telemetry,
    _isolation: PanicIsolation,
}

impl Supervisor {
    /// A supervisor reporting through `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Supervisor {
        Supervisor {
            telemetry: telemetry.clone(),
            _isolation: PanicIsolation::install(),
        }
    }

    /// Runs `f` once as the next unit of `batch` (its index is the count
    /// of units already in `batch`), under a `supervise` span.
    ///
    /// Returns `Some` with the result, or `None` after recording a
    /// [`UnitFailure`] labelled by `meta` and stage `stage` if `f`
    /// panicked.
    pub fn run<R>(
        &self,
        batch: &mut ExecutionReport,
        stage: &'static str,
        meta: impl FnOnce() -> UnitMeta,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        let _span = self.telemetry.span(tracelens_obs::stage::SUPERVISE);
        let result = {
            let _unit = SupervisedUnitScope::enter();
            catch_unwind(AssertUnwindSafe(f))
        };
        let t = &self.telemetry;
        if t.enabled() {
            t.count("supervisor.units", 1);
            t.count("supervisor.completed", result.is_ok() as u64);
            t.count("supervisor.quarantined", result.is_err() as u64);
        }
        let index = batch.units;
        batch.units += 1;
        match result {
            Ok(r) => {
                batch.completed += 1;
                Some(r)
            }
            Err(payload) => {
                let m = meta();
                batch.failures.push(UnitFailure {
                    index,
                    stage,
                    unit: m.unit,
                    scenario: m.scenario,
                    stream: m.stream,
                    instances: m.instances,
                    panic: payload_text(payload.as_ref()),
                });
                None
            }
        }
    }
}

/// Renders a panic payload as text (`&str` / `String` verbatim).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

thread_local! {
    /// Whether the current thread is inside a supervised unit —
    /// the panic hook consults this to decide between the structured
    /// one-liner and delegation to the previous hook.
    static IN_SUPERVISED_UNIT: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for "this thread is executing a supervised unit".
struct SupervisedUnitScope;

impl SupervisedUnitScope {
    fn enter() -> SupervisedUnitScope {
        IN_SUPERVISED_UNIT.with(|c| c.set(true));
        SupervisedUnitScope
    }
}

impl Drop for SupervisedUnitScope {
    fn drop(&mut self) {
        IN_SUPERVISED_UNIT.with(|c| c.set(false));
    }
}

type PanicHook = Box<dyn Fn(&PanicHookInfo<'_>) + Send + Sync>;

/// Process-wide isolation state: how many supervisors are alive and the
/// hook that was installed before the structured one. `previous` is
/// `Some` exactly while the structured hook is installed.
struct IsolationState {
    depth: usize,
    previous: Option<PanicHook>,
}

static ISOLATION: Mutex<IsolationState> = Mutex::new(IsolationState {
    depth: 0,
    previous: None,
});

fn isolation_state() -> std::sync::MutexGuard<'static, IsolationState> {
    // A panicking supervised unit cannot poison this lock (the hook
    // only reads), but stay robust anyway.
    ISOLATION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scoped panic-hook replacement: one structured stderr line per
/// supervised-unit panic instead of the default multi-line backtrace;
/// panics elsewhere delegate to the previously installed hook, which is
/// restored when the last guard drops. Guards are counted process-wide
/// because studies on other threads (tests, say) may overlap.
struct PanicIsolation;

impl PanicIsolation {
    fn install() -> PanicIsolation {
        let mut state = isolation_state();
        state.depth += 1;
        // A guard dropped while unwinding leaves the structured hook in
        // place (see `drop`); reuse it rather than wrap it.
        if state.previous.is_none() {
            state.previous = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|info| {
                if IN_SUPERVISED_UNIT.with(|c| c.get()) {
                    let location = info
                        .location()
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "<unknown>".to_owned());
                    eprintln!(
                        "tracelens: supervised unit panicked at {location}: {} \
                         (unit quarantined; backtrace suppressed)",
                        payload_text(info.payload())
                    );
                } else if let Some(previous) = &isolation_state().previous {
                    previous(info);
                }
            }));
        }
        PanicIsolation
    }
}

impl Drop for PanicIsolation {
    fn drop(&mut self) {
        let mut state = isolation_state();
        state.depth -= 1;
        // `set_hook` panics on a panicking thread, and a panic in a drop
        // during unwinding aborts the process. While unwinding, leave the
        // structured hook (which forwards non-unit panics to `previous`)
        // installed; the next drop that is not unwinding restores it.
        if state.depth == 0 && !std::thread::panicking() {
            if let Some(previous) = state.previous.take() {
                drop(state); // set_hook must not run under the lock
                std::panic::set_hook(previous);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, RwLock};

    /// The panic hook is process-global and the test harness runs tests
    /// concurrently: tests that create supervisors (every study run in
    /// this crate's tests) take this in read mode; the hook tests take
    /// it in write mode so they observe the hook with no other
    /// supervisor alive.
    static HOOK_GATE: RwLock<()> = RwLock::new(());

    pub(crate) fn batch_gate() -> std::sync::RwLockReadGuard<'static, ()> {
        HOOK_GATE.read().unwrap_or_else(|e| e.into_inner())
    }

    fn hook_gate() -> std::sync::RwLockWriteGuard<'static, ()> {
        HOOK_GATE.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces the current panic hook with one counting its calls.
    fn install_sentinel_hook() -> Arc<AtomicUsize> {
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        let _ = std::panic::take_hook(); // drop whatever the harness had
        std::panic::set_hook(Box::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        hits
    }

    /// Runs `f` over `items` as one batch, labelling unit `i` `unit:i`.
    fn run_batch<T, R>(
        items: &[T],
        mut f: impl FnMut(&T) -> R,
    ) -> (Vec<Option<R>>, ExecutionReport) {
        let supervisor = Supervisor::new(&Telemetry::noop());
        let mut report = ExecutionReport::default();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                supervisor.run(
                    &mut report,
                    "test",
                    || UnitMeta::labeled(format!("unit:{i}")),
                    || f(item),
                )
            })
            .collect();
        (results, report)
    }

    #[test]
    fn clean_batch_completes_everything() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..40).collect();
        let (results, report) = run_batch(&items, |&x| x * 2);
        let values: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * 2).collect();
        assert_eq!(values, expect);
        assert!(report.is_clean());
        assert_eq!(report.completed, 40);
        assert_eq!(report.completion_rate(), 1.0);
    }

    #[test]
    fn panicking_units_are_quarantined_not_fatal() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..32).collect();
        let (results, report) = run_batch(&items, |&x| {
            if x % 10 == 3 {
                panic!("poisoned unit {x}");
            }
            x
        });
        assert_eq!(results.iter().filter(|r| r.is_none()).count(), 3);
        assert_eq!(report.quarantined(), 3);
        assert_eq!(report.completed, 29);
        let f = &report.failures[0];
        assert_eq!(f.index, 3);
        assert_eq!(f.unit, "unit:3");
        assert_eq!(f.stage, "test");
        assert_eq!(f.panic, "poisoned unit 3");
        assert_eq!(f.to_string(), "unit:3 [test] panic: poisoned unit 3");
    }

    #[test]
    fn outcome_is_identical_across_runs() {
        let _gate = batch_gate();
        let items: Vec<u32> = (0..64).collect();
        let run = || {
            run_batch(&items, |&x| {
                if x % 7 == 5 {
                    panic!("always fails: {x}");
                }
                x + 1
            })
        };
        let (results, report) = run();
        assert_eq!(report.quarantined(), 9);
        assert_eq!(run(), (results, report));
    }

    #[test]
    fn a_unit_that_consumed_its_input_reports_its_own_panic() {
        let _gate = batch_gate();
        let supervisor = Supervisor::new(&Telemetry::noop());
        let mut report = ExecutionReport::default();
        // A one-shot input, like the fed aggregators a scenario unit
        // finishes: a second run of the unit would find it gone.
        let mut input = Some(vec![1u32, 2, 3]);
        let out = supervisor.run(
            &mut report,
            "test",
            || UnitMeta::labeled("unit:0"),
            || {
                let owned = input.take().expect("input consumed by an earlier attempt");
                panic!("bad input of {} items", owned.len())
            },
        );
        assert_eq!(out, None::<()>);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.failures[0].panic, "bad input of 3 items");
    }

    #[test]
    fn meta_attribution_reaches_the_failure() {
        let _gate = batch_gate();
        let supervisor = Supervisor::new(&Telemetry::noop());
        let mut report = ExecutionReport::default();
        for (i, s) in ["a", "b"].into_iter().enumerate() {
            supervisor.run(
                &mut report,
                "scenario",
                || {
                    UnitMeta::labeled(format!("scenario:{s}"))
                        .for_scenario(s)
                        .for_stream(i as u32)
                        .carrying(7)
                },
                || {
                    if s == "b" {
                        panic!("bad scenario");
                    }
                    1
                },
            );
        }
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.unit, "scenario:b");
        assert_eq!(f.scenario.as_deref(), Some("b"));
        assert_eq!(f.stream, Some(1));
        assert_eq!(f.instances, 7);
        assert_eq!(report.lost_instances(), 7);
    }

    #[test]
    fn panic_hook_is_restored_after_the_batch() {
        let _gate = hook_gate();
        // Install a sentinel hook, run a supervised batch with panics,
        // then panic outside supervision: the sentinel must fire.
        let hits = install_sentinel_hook();
        let (_, report) = run_batch(&[1u32, 2, 3], |&x| {
            if x == 2 {
                panic!("supervised panic");
            }
            x
        });
        assert_eq!(report.quarantined(), 1);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "supervised panics must not reach the previous hook"
        );
        let unsupervised = std::panic::catch_unwind(|| panic!("outside"));
        assert!(unsupervised.is_err());
        assert_eq!(
            hits.load(Ordering::Relaxed),
            1,
            "the previous hook must be restored after the batch"
        );
        let _ = std::panic::take_hook();
    }

    #[test]
    fn a_panic_unwinding_through_a_live_supervisor_unwinds() {
        let _gate = hook_gate();
        let hits = install_sentinel_hook();
        // A panic outside any unit (as in the study's folds) drops the
        // supervisor while unwinding; it must reach the caller, not
        // abort the process.
        let unwound = std::panic::catch_unwind(|| {
            let _supervisor = Supervisor::new(&Telemetry::noop());
            panic!("outside any unit");
        });
        assert!(unwound.is_err());
        assert_eq!(hits.load(Ordering::Relaxed), 1, "the sentinel saw it");
        // The next clean drop restores the sentinel itself: it now sees
        // even a panic flagged as inside a unit, which the structured
        // hook would have kept from it.
        drop(Supervisor::new(&Telemetry::noop()));
        let flagged = std::panic::catch_unwind(|| {
            let _unit = SupervisedUnitScope::enter();
            panic!("flagged");
        });
        assert!(flagged.is_err());
        assert_eq!(hits.load(Ordering::Relaxed), 2, "the sentinel is back");
        let _ = std::panic::take_hook();
    }

    #[test]
    fn execution_report_absorb_and_display() {
        let mut a = ExecutionReport {
            units: 3,
            completed: 2,
            failures: vec![UnitFailure {
                index: 2,
                stage: "impact",
                unit: "stream:9".to_owned(),
                scenario: None,
                stream: Some(9),
                instances: 4,
                panic: "boom".to_owned(),
            }],
        };
        let b = ExecutionReport {
            units: 2,
            completed: 2,
            ..ExecutionReport::default()
        };
        a.absorb(b);
        assert_eq!(a.units, 5);
        assert_eq!(a.completed, 4);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.lost_instances(), 4);
        assert!((a.completion_rate() - 0.8).abs() < 1e-12);
        let text = a.to_string();
        assert!(text.contains("4/5 units completed"), "{text}");
        assert!(text.contains("stream:9 [impact] panic: boom"), "{text}");
        assert!(ExecutionReport::default().is_clean());
        assert_eq!(ExecutionReport::default().completion_rate(), 1.0);
    }

    #[test]
    fn empty_batch_is_clean() {
        let _gate = batch_gate();
        let (results, report) = run_batch(&[] as &[u8], |&x| x);
        assert!(results.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.units, 0);
    }
}
