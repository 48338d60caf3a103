//! Data-set integrity validation.
//!
//! Analyses assume structural invariants that hold for simulator output
//! and freshly parsed files but may not for hand-assembled data sets.
//! [`Dataset::validate`] checks them all and reports every violation;
//! [`Validator`] runs the same checks over streams that arrive one at a
//! time, and counts a stream the text parser sealed without walking
//! its events again ([`Validator::sealed`]).

use crate::dataset::Dataset;
use crate::event::EventKind;
use crate::ids::TraceId;
use crate::stream::TraceStream;
use std::error::Error;
use std::fmt;

/// One integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `streams[i].id() != i` — streams must be dense and in order so
    /// `TraceId` can index them.
    StreamIdMismatch {
        /// Position in `streams`.
        index: usize,
        /// The id found there.
        found: TraceId,
    },
    /// An instance references a trace id with no stream.
    InstanceWithoutStream {
        /// Index into `instances`.
        index: usize,
        /// The dangling trace id.
        trace: TraceId,
    },
    /// An instance ends before it starts.
    InstanceNegativeSpan {
        /// Index into `instances`.
        index: usize,
    },
    /// An instance's scenario has no definition (no thresholds).
    InstanceUnknownScenario {
        /// Index into `instances`.
        index: usize,
        /// The undefined scenario name.
        scenario: String,
    },
    /// An event references a stack id not present in the stack table.
    UnknownStack {
        /// The trace holding the event.
        trace: TraceId,
        /// The event's index in the stream.
        event: usize,
    },
    /// Events of a stream are not sorted by timestamp.
    UnsortedEvents {
        /// The offending trace.
        trace: TraceId,
    },
    /// A non-unwait event carries a woken-thread id, or an unwait lacks
    /// one (normally impossible through the builder).
    MalformedUnwait {
        /// The trace holding the event.
        trace: TraceId,
        /// The event's index in the stream.
        event: usize,
    },
}

impl Violation {
    /// Short snake-case label of the violation kind, used for per-kind
    /// counting in [`ValidationError::counts_by_kind`] and in
    /// [`crate::SanitizeReport`].
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::StreamIdMismatch { .. } => "stream_id_mismatch",
            Violation::InstanceWithoutStream { .. } => "instance_without_stream",
            Violation::InstanceNegativeSpan { .. } => "instance_negative_span",
            Violation::InstanceUnknownScenario { .. } => "instance_unknown_scenario",
            Violation::UnknownStack { .. } => "unknown_stack",
            Violation::UnsortedEvents { .. } => "unsorted_events",
            Violation::MalformedUnwait { .. } => "malformed_unwait",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StreamIdMismatch { index, found } => {
                write!(f, "stream at position {index} has id {found}")
            }
            Violation::InstanceWithoutStream { index, trace } => {
                write!(f, "instance {index} references missing {trace}")
            }
            Violation::InstanceNegativeSpan { index } => {
                write!(f, "instance {index} ends before it starts")
            }
            Violation::InstanceUnknownScenario { index, scenario } => {
                write!(f, "instance {index} has undefined scenario {scenario:?}")
            }
            Violation::UnknownStack { trace, event } => {
                write!(f, "event {event} of {trace} references an unknown stack")
            }
            Violation::UnsortedEvents { trace } => {
                write!(f, "{trace} has out-of-order events")
            }
            Violation::MalformedUnwait { trace, event } => {
                write!(f, "event {event} of {trace} has malformed unwait targeting")
            }
        }
    }
}

/// Error wrapper carrying all violations found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Every violation, in discovery order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "data set failed validation ({} problems):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl Error for ValidationError {}

impl ValidationError {
    /// Violation totals grouped by [`Violation::kind`], sorted by kind
    /// label — the summary the CLI `validate` command prints.
    pub fn counts_by_kind(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.kind()).or_insert(0) += 1;
        }
        counts
    }
}

impl Dataset {
    /// Checks all structural invariants, returning every violation: a
    /// [`Validator`] fed this data set's streams.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] listing each problem found; `Ok` if
    /// the data set is internally consistent.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let mut validator = Validator::new(self);
        for stream in &self.streams {
            validator.stream(stream);
        }
        validator.finish()
    }
}

/// The checks of [`Dataset::validate`], one stream at a time, for a
/// reader that holds the tables but not every stream at once (a `.tlb`
/// read stream by stream). Violations come in the order `validate`
/// reports them: each stream's as it is checked, then the instances'.
#[derive(Debug)]
pub struct Validator<'a> {
    /// The stack table, scenarios and instances; its streams are not
    /// read.
    tables: &'a Dataset,
    /// Streams checked so far.
    streams: usize,
    violations: Vec<Violation>,
}

impl<'a> Validator<'a> {
    /// A validator against the stack table, scenarios and instances of
    /// `tables`, with no stream checked yet.
    pub fn new(tables: &'a Dataset) -> Validator<'a> {
        Validator {
            tables,
            streams: 0,
            violations: Vec::new(),
        }
    }

    /// Checks the next stream of the data set: the first call checks
    /// the stream at position 0, the next the one at position 1, and so
    /// on. Returns whether the stream passed. A stream that passes, with
    /// every stream before it, is one [`Dataset::sanitize`] leaves as it
    /// is: its id is its position, its events are in time order, every
    /// stack is known and every unwait is well targeted.
    pub fn stream(&mut self, stream: &TraceStream) -> bool {
        let found = self.violations.len();
        self.count(stream);
        let stacks = &self.tables.stacks;
        let violations = &mut self.violations;
        let mut last = None;
        for (ei, e) in stream.events().iter().enumerate() {
            if let Some(prev) = last {
                if e.t < prev {
                    violations.push(Violation::UnsortedEvents { trace: stream.id() });
                    break;
                }
            }
            last = Some(e.t);
            if stacks.frames(e.stack).is_empty() && stacks.len() <= e.stack.0 as usize {
                violations.push(Violation::UnknownStack {
                    trace: stream.id(),
                    event: ei,
                });
            }
            let bad_unwait = match e.kind {
                EventKind::Unwait => e.wtid.is_none() || e.wtid == Some(e.tid),
                _ => e.wtid.is_some(),
            };
            if bad_unwait {
                violations.push(Violation::MalformedUnwait {
                    trace: stream.id(),
                    event: ei,
                });
            }
        }
        violations.len() == found
    }

    /// [`Validator::stream`] for a stream a
    /// [`TextReader`](crate::textio::TextReader) sealed, checked against
    /// the tables that reader returned: counts the stream and checks its
    /// id, without walking its events, because parsing has checked what
    /// the walk would. The reader resolves each stack through the stacks
    /// declared before the first `!trace`, all of them in the tables;
    /// [`TraceStreamBuilder::finish`](crate::TraceStreamBuilder::finish)
    /// sorts the events by time and rejects a badly targeted unwait; and
    /// the reader yields trace ids 0, 1, 2, … in order. Debug builds
    /// still walk the events and panic on a violation.
    pub fn sealed(&mut self, stream: &TraceStream) -> bool {
        if cfg!(debug_assertions) {
            assert!(
                self.stream(stream),
                "a sealed text stream failed validation: {:?}",
                self.violations
            );
            return true;
        }
        let found = self.violations.len();
        self.count(stream);
        self.violations.len() == found
    }

    /// Counts `stream` as the next one and checks that its id is its
    /// position.
    fn count(&mut self, stream: &TraceStream) {
        let index = self.streams;
        self.streams += 1;
        if stream.id().0 as usize != index {
            self.violations.push(Violation::StreamIdMismatch {
                index,
                found: stream.id(),
            });
        }
    }

    /// Checks the instances against the streams checked so far, which
    /// must be all of them, and returns every violation found.
    ///
    /// # Errors
    ///
    /// A [`ValidationError`] listing each problem, as
    /// [`Dataset::validate`].
    pub fn finish(mut self) -> Result<(), ValidationError> {
        for (index, i) in self.tables.instances.iter().enumerate() {
            if i.trace.0 as usize >= self.streams {
                self.violations.push(Violation::InstanceWithoutStream {
                    index,
                    trace: i.trace,
                });
            }
            if i.t1 < i.t0 {
                self.violations
                    .push(Violation::InstanceNegativeSpan { index });
            }
            if self.tables.scenario(&i.scenario).is_none() {
                self.violations.push(Violation::InstanceUnknownScenario {
                    index,
                    scenario: i.scenario.as_str().to_owned(),
                });
            }
        }
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(ValidationError {
                violations: self.violations,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;
    use crate::scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
    use crate::stream::TraceStreamBuilder;
    use crate::time::TimeNs;

    fn valid() -> Dataset {
        let mut ds = Dataset::new();
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("S"),
            Thresholds::new(TimeNs(10), TimeNs(20)),
        ));
        let st = ds.stacks.intern_symbols(&["a!b"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(5), st);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(5),
        });
        ds
    }

    #[test]
    fn valid_dataset_passes() {
        assert!(valid().validate().is_ok());
    }

    #[test]
    fn dangling_instance_is_reported() {
        let mut ds = valid();
        ds.instances[0].trace = TraceId(7);
        let err = ds.validate().unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::InstanceWithoutStream { .. })));
        assert!(err.to_string().contains("trace#7"));
    }

    #[test]
    fn negative_span_is_reported() {
        let mut ds = valid();
        ds.instances[0].t0 = TimeNs(9);
        ds.instances[0].t1 = TimeNs(3);
        let err = ds.validate().unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::InstanceNegativeSpan { .. })));
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let mut ds = valid();
        ds.scenarios.clear();
        let err = ds.validate().unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::InstanceUnknownScenario { .. })));
    }

    #[test]
    fn stream_id_mismatch_is_reported() {
        let mut ds = valid();
        let mut b = TraceStreamBuilder::new(5); // should be 1
        let st = ds.stacks.intern_symbols(&["a!b"]);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(1), st);
        ds.streams.push(b.finish().unwrap());
        let err = ds.validate().unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StreamIdMismatch { index: 1, .. })));
    }

    #[test]
    fn sealed_streams_are_counted_for_the_instance_checks() {
        let mut ds = valid();
        ds.instances.push(ScenarioInstance {
            trace: TraceId(1),
            ..ds.instances[0].clone()
        });
        let mut validator = Validator::new(&ds);
        assert!(validator.sealed(&ds.streams[0]));
        let err = validator.finish().unwrap_err();
        assert_eq!(
            err.violations,
            [Violation::InstanceWithoutStream {
                index: 1,
                trace: TraceId(1)
            }]
        );
        assert_eq!(Err(err), ds.validate());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a sealed text stream failed validation")]
    fn debug_builds_walk_sealed_streams() {
        let ds = valid();
        let events = [TimeNs(5), TimeNs(1)].map(|t| crate::Event {
            t,
            ..ds.streams[0].events()[0]
        });
        let unsorted = TraceStream::from_unchecked_parts(TraceId(0), events.to_vec());
        Validator::new(&ds).sealed(&unsorted);
    }

    #[test]
    fn multiple_violations_accumulate() {
        let mut ds = valid();
        ds.instances[0].trace = TraceId(7);
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("Unknown"),
            tid: ThreadId(1),
            t0: TimeNs(5),
            t1: TimeNs(1),
        });
        let err = ds.validate().unwrap_err();
        assert!(err.violations.len() >= 3);
    }
}
