//! Trace streams: validated, time-ordered event sequences.

use crate::event::{Event, EventKind};
use crate::ids::{EventId, ProcessId, ThreadId, TraceId};
use crate::stack::StackId;
use crate::time::TimeNs;
use std::error::Error;
use std::fmt;

/// A validated trace stream `TS = e0 e1 … e(L−1)` (paper §2.1).
///
/// Events are ordered by timestamp (ties broken by insertion order) and
/// indexed by [`EventId`], which together with the stream's [`TraceId`]
/// identifies an event globally across a data set.
#[derive(Debug, Clone)]
pub struct TraceStream {
    id: TraceId,
    events: Vec<Event>,
}

impl TraceStream {
    /// The stream identifier.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// All events, in timestamp order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event with the given in-stream id.
    pub fn event(&self, id: EventId) -> Option<&Event> {
        self.events.get(id.0 as usize)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the first event, or zero for an empty stream.
    pub fn start(&self) -> TimeNs {
        self.events.first().map(|e| e.t).unwrap_or(TimeNs::ZERO)
    }

    /// Latest end timestamp over all events, or zero for an empty stream.
    pub fn end(&self) -> TimeNs {
        self.events
            .iter()
            .map(Event::end)
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Iterates `(EventId, &Event)` pairs whose start time lies in
    /// `[from, to)`.
    ///
    /// Uses binary search on the sorted timestamps, so the cost is
    /// `O(log n + k)` for `k` results.
    pub fn events_starting_in(
        &self,
        from: TimeNs,
        to: TimeNs,
    ) -> impl Iterator<Item = (EventId, &Event)> {
        let lo = self.events.partition_point(|e| e.t < from);
        self.events[lo..]
            .iter()
            .take_while(move |e| e.t < to)
            .enumerate()
            .map(move |(i, e)| (EventId((lo + i) as u32), e))
    }

    /// Iterates `(EventId, &Event)` for a single thread.
    pub fn events_of_thread(&self, tid: ThreadId) -> impl Iterator<Item = (EventId, &Event)> {
        self.events
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.tid == tid)
            .map(|(i, e)| (EventId(i as u32), e))
    }

    /// A copy of this stream truncated at `at`: only events starting
    /// before `at` are kept (their costs may still extend past it, as in
    /// a real tracing session cut mid-flight). Wait events whose unwait
    /// falls beyond the cut become unpaired — consumers must tolerate
    /// them.
    pub fn truncated(&self, at: TimeNs) -> TraceStream {
        TraceStream {
            id: self.id,
            events: self.events.iter().filter(|e| e.t < at).copied().collect(),
        }
    }

    /// Assembles a stream from raw parts **without any validation or
    /// sorting**. This is the ingestion escape hatch used by the
    /// sanitizer and by fault injection (`tracelens-faults`): it can
    /// represent corrupted streams — unsorted timestamps, malformed
    /// unwait targeting — that [`TraceStreamBuilder::finish`] would
    /// reject. Analyses receiving such a stream are only guaranteed to
    /// behave if it has passed [`crate::Dataset::sanitize`] or
    /// [`crate::Dataset::validate`] first.
    pub fn from_unchecked_parts(id: TraceId, events: Vec<Event>) -> TraceStream {
        TraceStream { id, events }
    }

    /// Finds the earliest unwait event at or after `from` whose `wtid`
    /// equals `woken` — the pairing rule used by Wait-Graph construction.
    pub fn find_unwait_for(&self, woken: ThreadId, from: TimeNs) -> Option<(EventId, &Event)> {
        let lo = self.events.partition_point(|e| e.t < from);
        self.events[lo..]
            .iter()
            .enumerate()
            .find(|(_, e)| e.kind == EventKind::Unwait && e.wtid == Some(woken))
            .map(|(i, e)| (EventId((lo + i) as u32), e))
    }
}

/// Validation failures produced by [`TraceStreamBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An unwait event is missing its woken-thread id.
    UnwaitWithoutTarget {
        /// Index of the offending event in insertion order.
        index: usize,
    },
    /// A non-unwait event carries a woken-thread id.
    UnexpectedTarget {
        /// Index of the offending event in insertion order.
        index: usize,
    },
    /// An unwait event claims to wake its own thread.
    SelfUnwait {
        /// Index of the offending event in insertion order.
        index: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnwaitWithoutTarget { index } => {
                write!(f, "unwait event at index {index} has no woken-thread id")
            }
            StreamError::UnexpectedTarget { index } => {
                write!(
                    f,
                    "non-unwait event at index {index} carries a woken-thread id"
                )
            }
            StreamError::SelfUnwait { index } => {
                write!(f, "unwait event at index {index} wakes its own thread")
            }
        }
    }
}

impl Error for StreamError {}

/// Incremental builder for a [`TraceStream`].
///
/// Events may be pushed in any order; `finish` sorts them by timestamp
/// (stable, so simultaneous events keep insertion order) and validates
/// unwait targeting.
///
/// ```
/// use tracelens_model::{ProcessId, StackId, ThreadId, TimeNs, TraceStreamBuilder};
/// let mut b = TraceStreamBuilder::new(7);
/// b.push_running(ThreadId(1), TimeNs(2_000), TimeNs(1_000), StackId(0));
/// b.push_running(ThreadId(1), TimeNs(1_000), TimeNs(1_000), StackId(0));
/// let ts = b.finish()?;
/// assert!(ts.events()[0].t < ts.events()[1].t);
/// # Ok::<(), tracelens_model::StreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceStreamBuilder {
    id: TraceId,
    events: Vec<Event>,
    default_pid: ProcessId,
}

impl TraceStreamBuilder {
    /// Starts a builder for trace `id`.
    pub fn new(id: u32) -> Self {
        TraceStreamBuilder {
            id: TraceId(id),
            events: Vec::new(),
            default_pid: ProcessId(0),
        }
    }

    /// Sets the process id stamped on subsequently pushed events.
    pub fn set_process(&mut self, pid: ProcessId) -> &mut Self {
        self.default_pid = pid;
        self
    }

    /// Pushes a raw event.
    pub fn push(&mut self, event: Event) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Pushes a running (CPU sample) event.
    pub fn push_running(
        &mut self,
        tid: ThreadId,
        t: TimeNs,
        cost: TimeNs,
        stack: StackId,
    ) -> &mut Self {
        self.push(Event {
            kind: EventKind::Running,
            tid,
            pid: self.default_pid,
            t,
            cost,
            stack,
            wtid: None,
        })
    }

    /// Pushes a wait event. `cost` may be zero; Wait-Graph construction
    /// restores it from the paired unwait.
    pub fn push_wait(
        &mut self,
        tid: ThreadId,
        t: TimeNs,
        cost: TimeNs,
        stack: StackId,
    ) -> &mut Self {
        self.push(Event {
            kind: EventKind::Wait,
            tid,
            pid: self.default_pid,
            t,
            cost,
            stack,
            wtid: None,
        })
    }

    /// Pushes an unwait event: thread `tid` wakes thread `woken` at `t`.
    pub fn push_unwait(
        &mut self,
        tid: ThreadId,
        woken: ThreadId,
        t: TimeNs,
        stack: StackId,
    ) -> &mut Self {
        self.push(Event {
            kind: EventKind::Unwait,
            tid,
            pid: self.default_pid,
            t,
            cost: TimeNs::ZERO,
            stack,
            wtid: Some(woken),
        })
    }

    /// Pushes a hardware-service event.
    pub fn push_hardware(
        &mut self,
        tid: ThreadId,
        t: TimeNs,
        cost: TimeNs,
        stack: StackId,
    ) -> &mut Self {
        self.push(Event {
            kind: EventKind::HardwareService,
            tid,
            pid: self.default_pid,
            t,
            cost,
            stack,
            wtid: None,
        })
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates and seals the stream.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] if an unwait event lacks a target thread,
    /// targets its own thread, or a non-unwait event carries a target.
    pub fn finish(mut self) -> Result<TraceStream, StreamError> {
        for (index, e) in self.events.iter().enumerate() {
            match e.kind {
                EventKind::Unwait => match e.wtid {
                    None => return Err(StreamError::UnwaitWithoutTarget { index }),
                    Some(w) if w == e.tid => return Err(StreamError::SelfUnwait { index }),
                    Some(_) => {}
                },
                _ => {
                    if e.wtid.is_some() {
                        return Err(StreamError::UnexpectedTarget { index });
                    }
                }
            }
        }
        self.events.sort_by_key(|e| e.t);
        Ok(TraceStream {
            id: self.id,
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_by_time() {
        let mut b = TraceStreamBuilder::new(1);
        b.push_running(ThreadId(1), TimeNs(30), TimeNs(5), StackId(0));
        b.push_running(ThreadId(2), TimeNs(10), TimeNs(5), StackId(0));
        b.push_running(ThreadId(3), TimeNs(20), TimeNs(5), StackId(0));
        let ts = b.finish().unwrap();
        let times: Vec<u64> = ts.events().iter().map(|e| e.t.0).collect();
        assert_eq!(times, [10, 20, 30]);
        assert_eq!(ts.id(), TraceId(1));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn empty_stream() {
        let ts = TraceStreamBuilder::new(0).finish().unwrap();
        assert!(ts.is_empty());
        assert_eq!(ts.start(), TimeNs::ZERO);
        assert_eq!(ts.end(), TimeNs::ZERO);
    }

    #[test]
    fn start_end_span_events() {
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(5), TimeNs(10), StackId(0));
        b.push_running(ThreadId(1), TimeNs(8), TimeNs(1), StackId(0));
        let ts = b.finish().unwrap();
        assert_eq!(ts.start(), TimeNs(5));
        assert_eq!(ts.end(), TimeNs(15));
    }

    #[test]
    fn validation_rejects_bad_unwaits() {
        let mut b = TraceStreamBuilder::new(0);
        b.push(Event {
            kind: EventKind::Unwait,
            tid: ThreadId(1),
            pid: ProcessId(0),
            t: TimeNs(1),
            cost: TimeNs::ZERO,
            stack: StackId(0),
            wtid: None,
        });
        assert_eq!(
            b.finish().unwrap_err(),
            StreamError::UnwaitWithoutTarget { index: 0 }
        );

        let mut b = TraceStreamBuilder::new(0);
        b.push_unwait(ThreadId(1), ThreadId(1), TimeNs(1), StackId(0));
        assert_eq!(
            b.finish().unwrap_err(),
            StreamError::SelfUnwait { index: 0 }
        );

        let mut b = TraceStreamBuilder::new(0);
        b.push(Event {
            kind: EventKind::Running,
            tid: ThreadId(1),
            pid: ProcessId(0),
            t: TimeNs(1),
            cost: TimeNs(1),
            stack: StackId(0),
            wtid: Some(ThreadId(2)),
        });
        assert_eq!(
            b.finish().unwrap_err(),
            StreamError::UnexpectedTarget { index: 0 }
        );
    }

    #[test]
    fn range_query_half_open() {
        let mut b = TraceStreamBuilder::new(0);
        for t in [10u64, 20, 30, 40] {
            b.push_running(ThreadId(1), TimeNs(t), TimeNs(1), StackId(0));
        }
        let ts = b.finish().unwrap();
        let hits: Vec<u64> = ts
            .events_starting_in(TimeNs(20), TimeNs(40))
            .map(|(_, e)| e.t.0)
            .collect();
        assert_eq!(hits, [20, 30]);
    }

    #[test]
    fn range_query_ids_are_stream_indices() {
        let mut b = TraceStreamBuilder::new(0);
        for t in [10u64, 20, 30] {
            b.push_running(ThreadId(1), TimeNs(t), TimeNs(1), StackId(0));
        }
        let ts = b.finish().unwrap();
        let ids: Vec<u32> = ts
            .events_starting_in(TimeNs(20), TimeNs(31))
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(ids, [1, 2]);
        assert_eq!(ts.event(EventId(2)).unwrap().t, TimeNs(30));
    }

    #[test]
    fn thread_filter() {
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(1), TimeNs(1), StackId(0));
        b.push_running(ThreadId(2), TimeNs(2), TimeNs(1), StackId(0));
        b.push_running(ThreadId(1), TimeNs(3), TimeNs(1), StackId(0));
        let ts = b.finish().unwrap();
        assert_eq!(ts.events_of_thread(ThreadId(1)).count(), 2);
        assert_eq!(ts.events_of_thread(ThreadId(9)).count(), 0);
    }

    #[test]
    fn unwait_pairing_lookup() {
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(3), TimeNs(15), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(20), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), StackId(0));
        let ts = b.finish().unwrap();
        let (_, e) = ts.find_unwait_for(ThreadId(1), TimeNs(10)).unwrap();
        assert_eq!(e.t, TimeNs(20));
        // Searching after the first match finds the later one.
        let (_, e2) = ts.find_unwait_for(ThreadId(1), TimeNs(21)).unwrap();
        assert_eq!(e2.t, TimeNs(30));
        assert!(ts.find_unwait_for(ThreadId(9), TimeNs(0)).is_none());
    }
}
