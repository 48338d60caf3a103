//! Per-stream indices that make Wait-Graph construction near-linear.
//!
//! A stream is shared by every scenario instance recorded in it, so the
//! index is built once per stream and reused across instance graphs.

use std::collections::{HashMap, HashSet};
use tracelens_model::{EventId, EventKind, ThreadId, TimeNs, TraceStream};

/// Precomputed lookup structures over one [`TraceStream`]:
///
/// * per-thread event lists (sorted by time) for wait-interval queries,
/// * per-woken-thread unwait lists for wait/unwait pairing,
/// * per-event *effective ends*: for wait events the timestamp of the
///   paired unwait (their raw cost is zero until restored), for other
///   events `t + cost`.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// tid → events of that thread, in time order.
    by_thread: HashMap<ThreadId, Vec<EventId>>,
    /// woken tid → unwait events targeting it, in time order.
    unwaits_for: HashMap<ThreadId, Vec<EventId>>,
    /// event id → effective end timestamp.
    effective_end: Vec<TimeNs>,
    /// Wait events with no pairable unwait (truncated or lossy traces).
    orphan_waits: usize,
    /// Unwait events never selected as any wait's pair (their wait was
    /// dropped, or they predate every wait of the woken thread).
    stray_unwaits: usize,
}

impl StreamIndex {
    /// Builds the index for `stream`.
    pub fn new(stream: &TraceStream) -> Self {
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
        let mut index = StreamIndex {
            by_thread,
            unwaits_for,
            effective_end: Vec::with_capacity(stream.len()),
            orphan_waits: 0,
            stray_unwaits: 0,
        };
        let mut paired: HashSet<EventId> = HashSet::new();
        let mut total_unwaits = 0usize;
        for (i, e) in stream.events().iter().enumerate() {
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
            debug_assert_eq!(index.effective_end.len(), i);
            index.effective_end.push(end);
        }
        index.stray_unwaits = total_unwaits - paired.len();
        index
    }

    /// Wait events of this stream whose unwait is missing — the lossy
    /// reality Wait-Graph construction turns into
    /// [`crate::NodeKind::UnpairedWait`] leaves. Zero on pristine
    /// simulator output.
    pub fn orphan_waits(&self) -> usize {
        self.orphan_waits
    }

    /// Unwait events never selected as any wait's pair. They are
    /// counted here and otherwise ignored by graph construction (an
    /// unwait never becomes a node). Zero on pristine simulator output.
    pub fn stray_unwaits(&self) -> usize {
        self.stray_unwaits
    }

    /// [`StreamIndex::new`] with telemetry: reports index counters and a
    /// per-stream indexing-time histogram. With a disabled handle this
    /// is exactly `new`.
    pub fn new_traced(stream: &TraceStream, telemetry: &tracelens_obs::Telemetry) -> Self {
        if !telemetry.enabled() {
            return StreamIndex::new(stream);
        }
        let start = std::time::Instant::now();
        let index = StreamIndex::new(stream);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry.count("waitgraph.indices", 1);
        telemetry.count("waitgraph.indexed_events", stream.len() as u64);
        telemetry.record("waitgraph.index_ns", elapsed);
        if index.orphan_waits > 0 {
            telemetry.count("waitgraph.orphan_waits", index.orphan_waits as u64);
        }
        if index.stray_unwaits > 0 {
            telemetry.count("waitgraph.stray_unwaits", index.stray_unwaits as u64);
        }
        index
    }

    /// The earliest unwait event waking `tid` at or after `from`.
    pub fn pair_unwait(
        &self,
        stream: &TraceStream,
        tid: ThreadId,
        from: TimeNs,
    ) -> Option<EventId> {
        let list = self.unwaits_for.get(&tid)?;
        let lo = list.partition_point(|&id| stream.event(id).map(|e| e.t < from).unwrap_or(false));
        list.get(lo).copied()
    }

    /// The effective end of an event: for wait events the paired unwait
    /// timestamp, otherwise `t + cost`. Zero for unknown ids.
    pub fn effective_end(&self, id: EventId) -> TimeNs {
        self.effective_end
            .get(id.0 as usize)
            .copied()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Events of `tid` whose effective interval overlaps the half-open
    /// interval `[from, to)`, in time order.
    ///
    /// Relies on per-thread event intervals being non-overlapping (a
    /// suspended thread emits nothing, sampled running events are
    /// sequential), so the events spanning `from` form a contiguous run
    /// directly before the first event starting at or after `from`.
    pub fn thread_events_overlapping(
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
        // Step back over events that start before `from` but spill into
        // the interval (e.g. a wait that is still pending at `from`).
        while lo > 0 && self.effective_end(list[lo - 1]) > from {
            lo -= 1;
        }
        list[lo..]
            .iter()
            .copied()
            .take_while(|&id| stream.event(id).map(|e| e.t < to).unwrap_or(false))
            .collect()
    }

    /// Events of `tid` in time order (empty for unknown threads).
    pub fn thread_events(&self, tid: ThreadId) -> &[EventId] {
        self.by_thread.get(&tid).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::{StackId, TraceStreamBuilder};

    fn stream() -> TraceStream {
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_running(ThreadId(2), TimeNs(5), TimeNs(10), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(15), StackId(0));
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(25), StackId(0));
        b.finish().unwrap()
    }

    #[test]
    fn pairing_finds_earliest_at_or_after() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        let u = idx.pair_unwait(&s, ThreadId(1), TimeNs(10)).unwrap();
        assert_eq!(s.event(u).unwrap().t, TimeNs(15));
        let u2 = idx.pair_unwait(&s, ThreadId(1), TimeNs(16)).unwrap();
        assert_eq!(s.event(u2).unwrap().t, TimeNs(25));
        assert!(idx.pair_unwait(&s, ThreadId(1), TimeNs(26)).is_none());
        assert!(idx.pair_unwait(&s, ThreadId(9), TimeNs(0)).is_none());
    }

    #[test]
    fn effective_end_of_wait_is_paired_unwait_time() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        // Event 1 (after sorting) is the wait at t=10 → paired at 15.
        let wait_id = s
            .events()
            .iter()
            .position(|e| e.kind == EventKind::Wait)
            .unwrap();
        assert_eq!(idx.effective_end(EventId(wait_id as u32)), TimeNs(15));
        // Unknown ids are zero.
        assert_eq!(idx.effective_end(EventId(999)), TimeNs::ZERO);
    }

    #[test]
    fn overlap_includes_spanning_event() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        // Thread 2's running event [5, 15) spans from=10.
        let hits = idx.thread_events_overlapping(&s, ThreadId(2), TimeNs(10), TimeNs(15));
        let times: Vec<u64> = hits.iter().map(|&id| s.event(id).unwrap().t.0).collect();
        assert!(times.contains(&5), "spanning event included: {times:?}");
    }

    #[test]
    fn overlap_includes_pending_wait_started_earlier() {
        // Thread 2 waits at t=5 (zero raw cost), paired at t=50: it is
        // still pending at from=20 and must be included.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(2), TimeNs(5), TimeNs::ZERO, StackId(0));
        b.push_unwait(ThreadId(3), ThreadId(2), TimeNs(50), StackId(0));
        let s = b.finish().unwrap();
        let idx = StreamIndex::new(&s);
        let hits = idx.thread_events_overlapping(&s, ThreadId(2), TimeNs(20), TimeNs(60));
        assert_eq!(hits.len(), 1);
        assert_eq!(s.event(hits[0]).unwrap().t, TimeNs(5));
    }

    #[test]
    fn overlap_excludes_disjoint() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        let hits = idx.thread_events_overlapping(&s, ThreadId(2), TimeNs(40), TimeNs(50));
        assert!(hits.is_empty());
        let none = idx.thread_events_overlapping(&s, ThreadId(7), TimeNs(0), TimeNs(50));
        assert!(none.is_empty());
    }

    #[test]
    fn orphan_and_stray_counters() {
        // Fixture: one wait paired with the unwait at t=15; the second
        // unwait at t=25 wakes nobody → stray.
        let s = stream();
        let idx = StreamIndex::new(&s);
        assert_eq!(idx.orphan_waits(), 0);
        assert_eq!(idx.stray_unwaits(), 1);

        // A wait with no unwait anywhere is an orphan.
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        b.push_running(ThreadId(2), TimeNs(0), TimeNs(5), StackId(0));
        let lossy = b.finish().unwrap();
        let idx = StreamIndex::new(&lossy);
        assert_eq!(idx.orphan_waits(), 1);
        assert_eq!(idx.stray_unwaits(), 0);

        // An unwait strictly before every wait of the woken thread is
        // stray, and leaves the wait orphaned.
        let mut b = TraceStreamBuilder::new(0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(5), StackId(0));
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, StackId(0));
        let skewed = b.finish().unwrap();
        let idx = StreamIndex::new(&skewed);
        assert_eq!(idx.orphan_waits(), 1);
        assert_eq!(idx.stray_unwaits(), 1);
    }

    #[test]
    fn thread_events_sorted() {
        let s = stream();
        let idx = StreamIndex::new(&s);
        let evs = idx.thread_events(ThreadId(2));
        let times: Vec<u64> = evs.iter().map(|&id| s.event(id).unwrap().t.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
