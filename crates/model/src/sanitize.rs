//! Corruption-tolerant ingestion: repair-or-quarantine for data sets.
//!
//! Real-world traces arrive truncated, clock-skewed, and with dropped or
//! duplicated events; [`Dataset::validate`] only *reports* the damage.
//! [`Dataset::sanitize`] goes further and produces a data set every
//! analysis can safely consume, by applying two rules:
//!
//! * **repair** what has an unambiguous fix — re-sort skewed streams,
//!   drop events referencing unknown stacks, strip stray unwait
//!   targeting, clamp negative instance spans, renumber sparse trace
//!   ids;
//! * **quarantine** what does not — instances referencing missing
//!   traces or undefined scenarios, and duplicate trace streams — so
//!   the rest of the data set stays analyzable.
//!
//! The returned [`SanitizeReport`] quantifies both, in the same
//! violation taxonomy as [`Dataset::validate`], and exposes the
//! *coverage* fractions the study layer reports (how much of the input
//! survived into the analysis). Two guarantees the test suite enforces:
//!
//! 1. the sanitized data set always passes [`Dataset::validate`];
//! 2. sanitizing an already-valid data set is an exact no-op (the
//!    output serializes byte-identically to the input).

use crate::dataset::Dataset;
use crate::event::EventKind;
use crate::ids::TraceId;
use crate::scenario::{Scenario, ScenarioInstance};
use crate::stack::StackTable;
use crate::stream::{sort_by_time, TraceStream};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Violation-kind label for a duplicated trace id (sanitize-only:
/// `validate` reports the same situation as `stream_id_mismatch`).
pub const DUPLICATE_TRACE_ID: &str = "duplicate_trace_id";

/// What [`Dataset::sanitize`] found and did.
///
/// `violations` counts every problem discovered, keyed by the
/// [`crate::Violation::kind`] taxonomy (plus [`DUPLICATE_TRACE_ID`]);
/// the remaining fields split the handling into repairs and
/// quarantines. The `input_*` fields snapshot the pre-sanitize sizes so
/// coverage is computable from the report alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Problems found, counted per violation kind.
    pub violations: BTreeMap<&'static str, usize>,
    /// Streams whose events had to be re-sorted by timestamp.
    pub resorted_streams: usize,
    /// Streams renumbered to restore dense, position-matching ids.
    pub remapped_traces: usize,
    /// Events dropped: unknown stack ids, or unwaits with missing /
    /// self-targeting woken-thread ids.
    pub dropped_events: usize,
    /// Non-unwait events whose stray woken-thread id was stripped.
    pub stripped_targets: usize,
    /// Instances whose negative span was clamped to empty (`t1 = t0`).
    pub clamped_instances: usize,
    /// Whole trace streams quarantined (duplicate trace ids).
    pub quarantined_traces: usize,
    /// Instances quarantined (missing trace or undefined scenario).
    pub quarantined_instances: usize,
    /// Events lost: dropped individually or gone with a quarantined
    /// stream.
    pub lost_events: usize,
    /// Trace-stream count of the input.
    pub input_traces: usize,
    /// Instance count of the input.
    pub input_instances: usize,
    /// Event count of the input.
    pub input_events: usize,
    /// Transient I/O errors absorbed by retrying reads while ingesting
    /// the input (zero when the data set came from memory). Retries are
    /// about the *transport*, not the data, so they do not affect
    /// [`SanitizeReport::is_clean`].
    pub io_retries: usize,
    /// Binary-cache (`.tlb`) loads abandoned in favor of the text parse
    /// (missing, stale, or corrupt cache). Like [`Self::io_retries`]
    /// this is about the transport — the data set that results is the
    /// same — so it does not affect [`SanitizeReport::is_clean`].
    pub cache_fallbacks: usize,
}

impl SanitizeReport {
    /// Total number of repair actions taken (re-sorts, renumberings,
    /// drops, strips, clamps) — the `sanitize.repaired` counter.
    pub fn repaired(&self) -> usize {
        self.resorted_streams
            + self.remapped_traces
            + self.dropped_events
            + self.stripped_targets
            + self.clamped_instances
    }

    /// Whether the input was already fully valid (nothing repaired or
    /// quarantined; sanitize was a no-op).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.repaired() == 0 && self.quarantined() == 0
    }

    /// Total quarantined items (traces + instances).
    pub fn quarantined(&self) -> usize {
        self.quarantined_traces + self.quarantined_instances
    }

    /// Fraction of input instances that survived into the sanitized
    /// data set; 1.0 for an empty input.
    pub fn instance_coverage(&self) -> f64 {
        coverage(self.input_instances, self.quarantined_instances)
    }

    /// Fraction of input trace streams that survived; 1.0 for an empty
    /// input.
    pub fn trace_coverage(&self) -> f64 {
        coverage(self.input_traces, self.quarantined_traces)
    }

    /// Fraction of input events that survived (events of quarantined
    /// streams count as lost); 1.0 for an empty input.
    pub fn event_coverage(&self) -> f64 {
        coverage(self.input_events, self.lost_events)
    }
}

/// `kept / total` with the empty input counting as full coverage.
fn coverage(total: usize, lost: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        (total - lost.min(total)) as f64 / total as f64
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "sanitize: clean ({} traces / {} instances / {} events)",
                self.input_traces, self.input_instances, self.input_events
            )?;
            if self.io_retries > 0 {
                write!(f, " after {} transient i/o retr(ies)", self.io_retries)?;
            }
            if self.cache_fallbacks > 0 {
                write!(
                    f,
                    " after {} binary-cache fallback(s)",
                    self.cache_fallbacks
                )?;
            }
            return Ok(());
        }
        writeln!(
            f,
            "sanitize: {} repaired, {} trace(s) / {} instance(s) quarantined \
             (coverage: {:.1}% traces, {:.1}% instances, {:.1}% events)",
            self.repaired(),
            self.quarantined_traces,
            self.quarantined_instances,
            self.trace_coverage() * 100.0,
            self.instance_coverage() * 100.0,
            self.event_coverage() * 100.0,
        )?;
        for (kind, n) in &self.violations {
            writeln!(f, "  {kind}: {n}")?;
        }
        if self.io_retries > 0 {
            writeln!(f, "  transient i/o retries: {}", self.io_retries)?;
        }
        if self.cache_fallbacks > 0 {
            writeln!(f, "  binary-cache fallbacks: {}", self.cache_fallbacks)?;
        }
        Ok(())
    }
}

impl Dataset {
    /// Repairs what is repairable, quarantines what is not, and returns
    /// the cleaned data set together with a full accounting.
    ///
    /// The output is guaranteed to pass [`Dataset::validate`]; a valid
    /// input comes back unchanged (and serializes byte-identically).
    /// Repair drops, strips, clamps or renumbers what has one unambiguous
    /// fix; quarantine removes instances with a missing trace or an
    /// undefined scenario, and streams with a duplicate trace id.
    ///
    /// The data set is taken by value and repaired in place: streams,
    /// stacks and scenarios move into the output, and each surviving
    /// stream's event vector is filtered where it lies, so the raw and
    /// the clean events are never held at once. A caller that needs the
    /// input afterwards sanitizes a clone.
    pub fn sanitize(self) -> (Dataset, SanitizeReport) {
        let mut report = SanitizeReport {
            input_traces: self.streams.len(),
            input_instances: self.instances.len(),
            input_events: self.total_events(),
            ..SanitizeReport::default()
        };
        let Dataset {
            streams,
            mut instances,
            stacks,
            scenarios,
        } = self;

        // --- Streams: restore dense position-matching ids. -----------
        // Keep the first stream per raw id (later duplicates are
        // quarantined and dropped here) and renumber the survivors
        // densely in raw-id order; instances are remapped through
        // `id_map` below.
        let mut by_raw_id: BTreeMap<u32, TraceStream> = BTreeMap::new();
        for (position, stream) in streams.into_iter().enumerate() {
            if stream.id().0 as usize != position {
                *report.violations.entry("stream_id_mismatch").or_insert(0) += 1;
            }
            match by_raw_id.entry(stream.id().0) {
                Entry::Vacant(slot) => {
                    slot.insert(stream);
                }
                Entry::Occupied(_) => {
                    *report.violations.entry(DUPLICATE_TRACE_ID).or_insert(0) += 1;
                    report.quarantined_traces += 1;
                    report.lost_events += stream.len();
                }
            }
        }

        let mut id_map: BTreeMap<u32, TraceId> = BTreeMap::new();
        let mut streams = Vec::with_capacity(by_raw_id.len());
        for (dense, (raw, stream)) in by_raw_id.into_iter().enumerate() {
            let new_id = TraceId(dense as u32);
            if raw as usize != dense {
                report.remapped_traces += 1;
            }
            id_map.insert(raw, new_id);
            streams.push(sanitize_stream(stream, new_id, &mut report, &stacks));
        }

        // --- Instances: remap, clamp, or quarantine. ------------------
        sanitize_instances(
            &mut instances,
            &scenarios,
            |trace| id_map.get(&trace.0).copied(),
            &mut report,
        );

        let clean = Dataset {
            streams,
            instances,
            stacks,
            scenarios,
        };
        debug_assert!(clean.validate().is_ok(), "sanitize output must validate");
        (clean, report)
    }
}

/// Sanitize's instance rules, the one implementation shared by
/// [`Dataset::sanitize`] and a study that meets the streams one at a
/// time and so learns their number only at the end. `trace_of` maps an
/// instance's trace id to the id its stream now has, or to `None` when
/// there is no such stream. Each instance is, in order of precedence:
///
/// * quarantined as `instance_without_stream` when its stream is
///   missing, whatever its scenario;
/// * quarantined as `instance_unknown_scenario` when `scenarios` does
///   not define its scenario;
/// * otherwise kept, moved to its stream's id, and clamped to an empty
///   span (`instance_negative_span`) if it ends before it starts.
///
/// Kept instances stay in order. Counts go to `report`.
pub fn sanitize_instances(
    instances: &mut Vec<ScenarioInstance>,
    scenarios: &[Scenario],
    trace_of: impl Fn(TraceId) -> Option<TraceId>,
    report: &mut SanitizeReport,
) {
    instances.retain_mut(|instance| {
        let kind = match trace_of(instance.trace) {
            None => "instance_without_stream",
            Some(_) if !scenarios.iter().any(|s| s.name == instance.scenario) => {
                "instance_unknown_scenario"
            }
            Some(trace) => {
                instance.trace = trace;
                if instance.t1 < instance.t0 {
                    *report
                        .violations
                        .entry("instance_negative_span")
                        .or_insert(0) += 1;
                    report.clamped_instances += 1;
                    instance.t1 = instance.t0;
                }
                return true;
            }
        };
        *report.violations.entry(kind).or_insert(0) += 1;
        report.quarantined_instances += 1;
        false
    });
}

/// Repairs one stream in place: drops events with dangling stacks or
/// malformed unwait targeting, strips stray targets, and re-sorts if
/// needed.
fn sanitize_stream(
    stream: TraceStream,
    new_id: TraceId,
    report: &mut SanitizeReport,
    stacks: &StackTable,
) -> TraceStream {
    let mut events = stream.into_events();
    events.retain_mut(|e| {
        let dangling_stack =
            stacks.frames(e.stack).is_empty() && stacks.len() <= e.stack.0 as usize;
        if dangling_stack {
            *report.violations.entry("unknown_stack").or_insert(0) += 1;
            report.dropped_events += 1;
            report.lost_events += 1;
            return false;
        }
        match e.kind {
            EventKind::Unwait => {
                if e.wtid.is_none() || e.wtid == Some(e.tid) {
                    *report.violations.entry("malformed_unwait").or_insert(0) += 1;
                    report.dropped_events += 1;
                    report.lost_events += 1;
                    return false;
                }
            }
            _ => {
                if e.wtid.is_some() {
                    *report.violations.entry("malformed_unwait").or_insert(0) += 1;
                    report.stripped_targets += 1;
                    e.wtid = None;
                }
            }
        }
        true
    });
    // The sort `TraceStreamBuilder::finish` seals with: stable, so
    // simultaneous events keep their relative order, and a single pass
    // over a stream already in order.
    if sort_by_time(&mut events) {
        *report.violations.entry("unsorted_events").or_insert(0) += 1;
        report.resorted_streams += 1;
    }
    TraceStream::from_unchecked_parts(new_id, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::ThreadId;
    use crate::scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
    use crate::stack::StackId;
    use crate::stream::TraceStreamBuilder;
    use crate::time::TimeNs;

    fn valid() -> Dataset {
        let mut ds = Dataset::new();
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("S"),
            Thresholds::new(TimeNs(10), TimeNs(20)),
        ));
        let st = ds.stacks.intern_symbols(&["app!Main", "fv.sys!Query"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(5), st);
        b.push_wait(ThreadId(1), TimeNs(5), TimeNs::ZERO, st);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(9), st);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(9),
        });
        ds
    }

    fn bytes(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        ds.write_text(&mut out).unwrap();
        out
    }

    #[test]
    fn clean_input_is_byte_identical_noop() {
        let ds = valid();
        let (clean, report) = ds.clone().sanitize();
        assert!(report.is_clean(), "report: {report:?}");
        assert_eq!(report.repaired(), 0);
        assert_eq!(bytes(&ds), bytes(&clean));
        assert_eq!(report.instance_coverage(), 1.0);
        assert_eq!(report.event_coverage(), 1.0);
    }

    #[test]
    fn unsorted_stream_is_resorted() {
        let mut ds = valid();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events.swap(0, 2);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        assert!(ds.validate().is_err());
        let (clean, report) = ds.clone().sanitize();
        assert_eq!(report.resorted_streams, 1);
        assert_eq!(report.violations["unsorted_events"], 1);
        assert!(clean.validate().is_ok());
        assert_eq!(clean.total_events(), ds.total_events());
    }

    #[test]
    fn dangling_stack_events_are_dropped() {
        let mut ds = valid();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events[1].stack = StackId(999);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        let (clean, report) = ds.sanitize();
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.violations["unknown_stack"], 1);
        assert_eq!(clean.total_events(), 2);
        assert!(clean.validate().is_ok());
        assert!(report.event_coverage() < 1.0);
    }

    #[test]
    fn malformed_unwaits_are_dropped_and_targets_stripped() {
        let mut ds = valid();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events[0].wtid = Some(ThreadId(7)); // running event with target
        events[2].wtid = None; // unwait without target
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        let (clean, report) = ds.sanitize();
        assert_eq!(report.stripped_targets, 1);
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.violations["malformed_unwait"], 2);
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn self_unwait_is_dropped() {
        let mut ds = valid();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events[2].wtid = Some(events[2].tid);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        let (clean, report) = ds.sanitize();
        assert_eq!(report.dropped_events, 1);
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn dangling_instance_is_quarantined() {
        let mut ds = valid();
        ds.instances.push(ScenarioInstance {
            trace: TraceId(42),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(5),
        });
        let (clean, report) = ds.sanitize();
        assert_eq!(report.quarantined_instances, 1);
        assert_eq!(report.violations["instance_without_stream"], 1);
        assert_eq!(clean.instances.len(), 1);
        assert!(report.instance_coverage() < 1.0);
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn unknown_scenario_instance_is_quarantined() {
        let mut ds = valid();
        ds.instances[0].scenario = ScenarioName::new("Nope");
        let (clean, report) = ds.sanitize();
        assert_eq!(report.quarantined_instances, 1);
        assert!(clean.instances.is_empty());
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn a_missing_stream_outranks_an_unknown_scenario() {
        let mut ds = valid();
        ds.instances[0].trace = TraceId(42);
        ds.instances[0].scenario = ScenarioName::new("Nope");
        let (_, report) = ds.sanitize();
        assert_eq!(report.violations["instance_without_stream"], 1);
        assert!(!report.violations.contains_key("instance_unknown_scenario"));
    }

    #[test]
    fn negative_span_is_clamped() {
        let mut ds = valid();
        ds.instances[0].t0 = TimeNs(9);
        ds.instances[0].t1 = TimeNs(3);
        let (clean, report) = ds.sanitize();
        assert_eq!(report.clamped_instances, 1);
        assert_eq!(clean.instances[0].t0, TimeNs(9));
        assert_eq!(clean.instances[0].t1, TimeNs(9));
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn sparse_trace_ids_are_renumbered_and_remapped() {
        let mut ds = valid();
        // Rebuild the single stream under raw id 5; its instance follows.
        let events = ds.streams[0].events().to_vec();
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(5), events);
        ds.instances[0].trace = TraceId(5);
        assert!(ds.validate().is_err());
        let (clean, report) = ds.sanitize();
        assert_eq!(report.remapped_traces, 1);
        assert_eq!(clean.streams[0].id(), TraceId(0));
        assert_eq!(clean.instances[0].trace, TraceId(0));
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn duplicate_trace_id_quarantines_the_later_stream() {
        let mut ds = valid();
        let mut b = TraceStreamBuilder::new(0); // same id as streams[0]
        let st = ds.stacks.intern_symbols(&["dup!X"]);
        b.push_running(ThreadId(3), TimeNs(0), TimeNs(1), st);
        ds.streams.push(b.finish().unwrap());
        let (clean, report) = ds.sanitize();
        assert_eq!(report.quarantined_traces, 1);
        assert_eq!(report.violations[DUPLICATE_TRACE_ID], 1);
        assert_eq!(clean.streams.len(), 1);
        // The first occurrence survives.
        assert_eq!(clean.streams[0].len(), 3);
        assert!(report.trace_coverage() < 1.0);
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn sanitize_is_idempotent() {
        let mut ds = valid();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events.swap(0, 2);
        events[1].stack = StackId(999);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        ds.instances[0].trace = TraceId(9);
        let (clean, first) = ds.sanitize();
        assert!(!first.is_clean());
        let (again, second) = clean.clone().sanitize();
        assert!(second.is_clean(), "second pass: {second:?}");
        assert_eq!(bytes(&clean), bytes(&again));
    }

    #[test]
    fn io_retries_show_without_dirtying_the_report() {
        let ds = valid();
        let (_, mut report) = ds.sanitize();
        report.io_retries = 3;
        assert!(report.is_clean(), "retries are transport, not data");
        assert!(report.to_string().contains("3 transient i/o retr(ies)"));
    }

    #[test]
    fn cache_fallbacks_show_without_dirtying_the_report() {
        let ds = valid();
        let (_, mut report) = ds.sanitize();
        report.cache_fallbacks = 1;
        assert!(report.is_clean(), "fallbacks are transport, not data");
        assert!(report.to_string().contains("1 binary-cache fallback(s)"));
    }

    #[test]
    fn report_display_lists_kind_counts() {
        let mut ds = valid();
        ds.instances[0].trace = TraceId(9);
        let (_, report) = ds.sanitize();
        let text = report.to_string();
        assert!(text.contains("instance_without_stream: 1"), "{text}");
        assert!(text.contains("quarantined"));
    }
}
