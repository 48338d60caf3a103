//! `StreamIndex` keeps its lists as flat per-thread arrays and pairs
//! each wait once, when it is built. It must answer exactly as the
//! straightforward index it replaced: per-thread `HashMap` lists, a
//! binary search per pairing and per query, and the contiguous
//! step-back over events spanning the window start. That index is kept
//! here as the reference, and the two are compared on sorted, unsorted
//! and fault-injected streams, whose per-thread intervals overlap.

mod common;

use common::{build_stream, raw_event, RawEvent};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use tracelens_faults::{FaultInjector, FaultKind};
use tracelens_model::{
    Event, EventId, EventKind, ProcessId, StackId, StackTable, ThreadId, TimeNs, TraceId,
    TraceStream,
};
use tracelens_sim::DatasetBuilder;
use tracelens_waitgraph::StreamIndex;

/// The index as it was before its lists became flat arrays.
struct Reference {
    by_thread: HashMap<ThreadId, Vec<EventId>>,
    unwaits_for: HashMap<ThreadId, Vec<EventId>>,
    effective_end: Vec<TimeNs>,
    orphan_waits: usize,
    stray_unwaits: usize,
}

impl Reference {
    fn new(stream: &TraceStream) -> Self {
        let mut by_thread: HashMap<ThreadId, Vec<EventId>> = HashMap::new();
        let mut unwaits_for: HashMap<ThreadId, Vec<EventId>> = HashMap::new();
        for (i, e) in stream.events().iter().enumerate() {
            let id = EventId(i as u32);
            by_thread.entry(e.tid).or_default().push(id);
            if e.kind == EventKind::Unwait {
                if let Some(w) = e.wtid {
                    unwaits_for.entry(w).or_default().push(id);
                }
            }
        }
        let mut index = Reference {
            by_thread,
            unwaits_for,
            effective_end: Vec::new(),
            orphan_waits: 0,
            stray_unwaits: 0,
        };
        let mut paired = HashSet::new();
        let mut total_unwaits = 0;
        for e in stream.events() {
            if e.kind == EventKind::Unwait {
                total_unwaits += 1;
            }
            let end = if e.kind == EventKind::Wait {
                match index.pair_unwait(stream, e.tid, e.t) {
                    Some(u) => {
                        paired.insert(u);
                        stream.event(u).map(|u| u.t).unwrap_or(e.end())
                    }
                    None => {
                        index.orphan_waits += 1;
                        e.end()
                    }
                }
            } else {
                e.end()
            };
            index.effective_end.push(end);
        }
        index.stray_unwaits = total_unwaits - paired.len();
        index
    }

    fn pair_unwait(&self, stream: &TraceStream, tid: ThreadId, from: TimeNs) -> Option<EventId> {
        let list = self.unwaits_for.get(&tid)?;
        let lo = list.partition_point(|&id| stream.event(id).map(|e| e.t < from).unwrap_or(false));
        list.get(lo).copied()
    }

    fn effective_end(&self, id: EventId) -> TimeNs {
        self.effective_end
            .get(id.0 as usize)
            .copied()
            .unwrap_or(TimeNs::ZERO)
    }

    fn thread_events_overlapping(
        &self,
        stream: &TraceStream,
        tid: ThreadId,
        from: TimeNs,
        to: TimeNs,
    ) -> Vec<EventId> {
        let Some(list) = self.by_thread.get(&tid) else {
            return Vec::new();
        };
        let mut lo =
            list.partition_point(|&id| stream.event(id).map(|e| e.t < from).unwrap_or(false));
        while lo > 0 && self.effective_end(list[lo - 1]) > from {
            lo -= 1;
        }
        list[lo..]
            .iter()
            .copied()
            .take_while(|&id| stream.event(id).map(|e| e.t < to).unwrap_or(false))
            .collect()
    }
}

/// Every thread that emits or is woken by an event of `stream`, plus
/// one that does neither.
fn threads(stream: &TraceStream) -> BTreeSet<ThreadId> {
    let mut tids: BTreeSet<ThreadId> = stream
        .events()
        .iter()
        .flat_map(|e| [Some(e.tid), e.wtid])
        .flatten()
        .collect();
    let absent = tids.iter().map(|t| t.0 + 1).max().unwrap_or(0);
    tids.insert(ThreadId(absent));
    tids
}

/// Checks `StreamIndex` against the reference on `stream`: every
/// counter, effective end and stored pair; every thread's events over
/// `windows`; and the query of every paired wait's interval, which is
/// the one Wait-Graph construction makes.
fn check(stream: &TraceStream, windows: &[(TimeNs, TimeNs)]) -> Result<(), TestCaseError> {
    let index = StreamIndex::new(stream);
    let reference = Reference::new(stream);
    prop_assert_eq!(index.orphan_waits(), reference.orphan_waits);
    prop_assert_eq!(index.stray_unwaits(), reference.stray_unwaits);
    let count = stream.len() as u32;
    for id in (0..=count).map(EventId) {
        prop_assert_eq!(index.effective_end(id), reference.effective_end(id));
    }
    for (id, e) in (0..count).map(EventId).zip(stream.events()) {
        let expected = match e.kind {
            EventKind::Wait => reference.pair_unwait(stream, e.tid, e.t),
            _ => None,
        };
        prop_assert_eq!(index.paired_unwait(id), expected, "pair of {:?}", id);
        if let Some(u) = expected {
            let u = stream.event(u).expect("paired event exists");
            prop_assert_eq!(
                index.thread_events_overlapping(stream, u.tid, e.t, u.t),
                reference.thread_events_overlapping(stream, u.tid, e.t, u.t),
                "children of {:?}",
                id
            );
        }
    }
    for tid in threads(stream) {
        for &(from, to) in windows {
            prop_assert_eq!(
                index.thread_events_overlapping(stream, tid, from, to),
                reference.thread_events_overlapping(stream, tid, from, to),
                "{:?} over [{:?}, {:?})",
                tid,
                from,
                to
            );
            prop_assert_eq!(
                index.pair_unwait(stream, tid, from),
                reference.pair_unwait(stream, tid, from)
            );
        }
    }
    Ok(())
}

/// `events` with their timestamps divided by `coarse`: a small divisor
/// leaves them mostly distinct, a large one makes many equal.
fn coarsen(events: &[RawEvent], coarse: u16) -> Vec<RawEvent> {
    events
        .iter()
        .map(|e| match *e {
            RawEvent::Running { tid, t, cost } => RawEvent::Running {
                tid,
                t: t / coarse,
                cost,
            },
            RawEvent::Wait { tid, t } => RawEvent::Wait { tid, t: t / coarse },
            RawEvent::Unwait { tid, woken, t } => RawEvent::Unwait {
                tid,
                woken,
                t: t / coarse,
            },
            RawEvent::Hardware { tid, t, cost } => RawEvent::Hardware {
                tid,
                t: t / coarse,
                cost,
            },
        })
        .collect()
}

/// `events` in the order given, unsorted and unvalidated.
fn unchecked(events: &[RawEvent]) -> TraceStream {
    let event = |kind, tid: u8, t: u16, cost: u8, wtid: Option<u8>| Event {
        kind,
        tid: ThreadId(u32::from(tid)),
        pid: ProcessId(0),
        t: TimeNs(u64::from(t)),
        cost: TimeNs(u64::from(cost)),
        stack: StackId(0),
        wtid: wtid.map(|w| ThreadId(u32::from(w))),
    };
    let parts = events
        .iter()
        .map(|e| match *e {
            RawEvent::Running { tid, t, cost } => event(EventKind::Running, tid, t, cost, None),
            RawEvent::Wait { tid, t } => event(EventKind::Wait, tid, t, 0, None),
            RawEvent::Unwait { tid, woken, t } => event(EventKind::Unwait, tid, t, 0, Some(woken)),
            RawEvent::Hardware { tid, t, cost } => {
                event(EventKind::HardwareService, tid, t, cost, None)
            }
        })
        .collect();
    TraceStream::from_unchecked_parts(TraceId(0), parts)
}

fn windows(raw: &[(u64, u64)], coarse: u16) -> Vec<(TimeNs, TimeNs)> {
    let coarse = u64::from(coarse);
    raw.iter()
        .map(|&(from, len)| (TimeNs(from / coarse), TimeNs((from + len) / coarse)))
        .collect()
}

/// Windows given in thousandths of the stream's span.
fn scaled(stream: &TraceStream, raw: &[(u64, u64)]) -> Vec<(TimeNs, TimeNs)> {
    let (start, span) = (
        stream.start().0,
        stream.end().0.saturating_sub(stream.start().0),
    );
    raw.iter()
        .map(|&(from, len)| {
            let from = start + span / 1000 * from;
            (TimeNs(from), TimeNs(from + span / 1000 * len + 1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agrees_with_the_reference_on_sorted_and_unsorted_streams(
        events in prop::collection::vec(raw_event(), 0..80),
        raw_windows in prop::collection::vec((0u64..1100, 0u64..400), 1..6),
        coarse in prop_oneof![Just(1u16), Just(25u16)],
    ) {
        let events = coarsen(&events, coarse);
        let windows = windows(&raw_windows, coarse);
        check(&unchecked(&events), &windows)?;
        check(&build_stream(&events, &mut StackTable::new()), &windows)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn agrees_with_the_reference_on_fault_injected_streams(
        seed in 0u64..10_000,
        per_mille in (1u32..300, 1u32..300, 1u32..300),
        raw_windows in prop::collection::vec((0u64..1000, 0u64..200), 1..4),
    ) {
        let rate = |n: u32| f64::from(n) / 1000.0;
        let clean = DatasetBuilder::new(seed).traces(2).build();
        let (corrupt, _) = FaultInjector::new(seed)
            .with(FaultKind::DuplicateEvents, rate(per_mille.0))
            .with(FaultKind::ClockSkew, rate(per_mille.1))
            .with(FaultKind::DropUnwaits, rate(per_mille.2))
            .inject(&clean);
        let (sanitized, _) = corrupt.clone().sanitize();
        for stream in corrupt.streams.iter().chain(&sanitized.streams) {
            check(stream, &scaled(stream, &raw_windows))?;
        }
    }
}
