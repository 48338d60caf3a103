//! Per-stream indices that make Wait-Graph construction near-linear.
//!
//! A stream is shared by every scenario instance recorded in it, so the
//! index is built once per stream and reused across instance graphs.

use std::collections::HashMap;
use tracelens_model::{EventId, EventKind, IdHashing, ThreadId, TimeNs, TraceStream};

/// Precomputed lookup structures over one [`TraceStream`]:
///
/// * per-thread event lists (in event order, which is time order in a
///   sorted stream) for wait-interval queries,
/// * per-woken-thread unwait lists for wait/unwait pairing,
/// * the wait events and each one's paired unwait, found once when the
///   index is built,
/// * per-event *effective ends*: for wait events the timestamp of the
///   paired unwait (their raw cost is zero until restored), for other
///   events `t + cost`.
///
/// Both kinds of list are CSR arrays: one flat array of event ids per
/// kind, grouped by thread, with start offsets per thread. A thread's
/// group is found through the dense slot the thread got in first-seen
/// event order, so no layout depends on the hasher's seed. Waits are a
/// few percent of a stream's events, so what pairing keeps is sized by
/// them: their ids in order, and beside them their pairs.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// tid → slot.
    slots: HashMap<ThreadId, u32, IdHashing>,
    /// Slot → events of that thread.
    by_thread: Csr,
    /// Woken slot → unwait events targeting that thread.
    unwaits_for: Csr,
    /// The wait events, in id order.
    waits: Vec<EventId>,
    /// `pairs[k]`: the unwait paired with `waits[k]`.
    pairs: Vec<Option<EventId>>,
    /// Event id → effective end timestamp.
    effective_end: Vec<TimeNs>,
    /// Wait events with no pairable unwait (truncated or lossy traces).
    orphan_waits: usize,
    /// Unwait events never selected as any wait's pair (their wait was
    /// dropped, or they predate every wait of the woken thread).
    stray_unwaits: usize,
}

/// Lists of event ids grouped by thread slot, in one flat array.
#[derive(Debug, Clone)]
struct Csr {
    /// Slot `s`'s list is `ids[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    ids: Vec<EventId>,
}

impl Csr {
    /// Lays out lists of `counts[s]` events for each slot `s` (`counts`
    /// has one entry more than there are slots), filled from `items`,
    /// `(slot, event)` pairs in event order; each list keeps event order.
    fn scatter(
        mut counts: Vec<u32>,
        items: impl DoubleEndedIterator<Item = (u32, EventId)>,
    ) -> Csr {
        // Running totals: `counts[s]` becomes the end of slot `s`'s list
        // and the last entry the total.
        let mut total = 0;
        for offset in &mut counts {
            total += *offset;
            *offset = total;
        }
        // Filling from the back moves each end down to its list's start.
        let mut ids = vec![EventId(0); total as usize];
        for (slot, id) in items.rev() {
            let at = &mut counts[slot as usize];
            *at -= 1;
            ids[*at as usize] = id;
        }
        Csr {
            starts: counts,
            ids,
        }
    }

    /// Slot `slot`'s list.
    fn list(&self, slot: usize) -> &[EventId] {
        &self.ids[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }
}

/// The position in `list` of the first event starting at or after
/// `from`, by binary search.
fn first_from(stream: &TraceStream, list: &[EventId], from: TimeNs) -> usize {
    list.partition_point(|&id| stream.event(id).is_some_and(|e| e.t < from))
}

/// The dense slot of `tid`: the next free one if `tid` is new.
fn slot_of(slots: &mut HashMap<ThreadId, u32, IdHashing>, tid: ThreadId) -> u32 {
    let next = u32::try_from(slots.len()).expect("thread slots fit in u32");
    *slots.entry(tid).or_insert(next)
}

/// Adds one to `counts[slot]`, growing `counts` to reach it.
fn tally(counts: &mut Vec<u32>, slot: u32) {
    let slot = slot as usize;
    if counts.len() <= slot {
        counts.resize(slot + 1, 0);
    }
    counts[slot] += 1;
}

impl StreamIndex {
    /// Builds the index for `stream`.
    ///
    /// # Panics
    ///
    /// Panics if the stream has more events than [`EventId`] can number.
    pub fn new(stream: &TraceStream) -> Self {
        let events = stream.events();
        let count = u32::try_from(events.len()).expect("event ids fit in u32");
        let mut slots: HashMap<ThreadId, u32, IdHashing> = HashMap::default();
        // One pass: each event's slot, the events and woken unwaits per
        // slot, the effective ends before pairing, and the waits.
        let mut slot_of_event = Vec::with_capacity(events.len());
        let (mut emitted, mut woken) = (Vec::new(), Vec::new());
        let mut effective_end = Vec::with_capacity(events.len());
        let mut waits = Vec::new();
        let mut by_woken = Vec::new();
        let mut unwaits = 0;
        for (id, e) in (0..count).map(EventId).zip(events) {
            let slot = slot_of(&mut slots, e.tid);
            slot_of_event.push(slot);
            tally(&mut emitted, slot);
            effective_end.push(e.end());
            match e.kind {
                EventKind::Wait => waits.push(id),
                EventKind::Unwait => {
                    unwaits += 1;
                    if let Some(w) = e.wtid {
                        let slot = slot_of(&mut slots, w);
                        tally(&mut woken, slot);
                        by_woken.push((slot, id));
                    }
                }
                EventKind::Running | EventKind::HardwareService => {}
            }
        }
        for counts in [&mut emitted, &mut woken] {
            counts.resize(slots.len() + 1, 0);
        }
        let unwaits_for = Csr::scatter(woken, by_woken.into_iter());
        let pairs: Vec<Option<EventId>> = waits
            .iter()
            .map(|&w| {
                let list = unwaits_for.list(slot_of_event[w.0 as usize] as usize);
                let pair = list.get(first_from(stream, list, events[w.0 as usize].t));
                if let Some(&u) = pair {
                    effective_end[w.0 as usize] = events[u.0 as usize].t;
                }
                pair.copied()
            })
            .collect();
        let by_thread = Csr::scatter(
            emitted,
            slot_of_event
                .iter()
                .enumerate()
                .map(|(id, &slot)| (slot, EventId(id as u32))),
        );
        let orphan_waits = pairs.iter().filter(|p| p.is_none()).count();
        // Two waits of one thread may pair with the same unwait.
        let mut paired: Vec<EventId> = pairs.iter().flatten().copied().collect();
        paired.sort_unstable();
        paired.dedup();
        StreamIndex {
            slots,
            by_thread,
            unwaits_for,
            waits,
            pairs,
            effective_end,
            orphan_waits,
            stray_unwaits: unwaits - paired.len(),
        }
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

    /// The dense slot of `tid`, if it emits or is woken by any event.
    fn slot(&self, tid: ThreadId) -> Option<usize> {
        self.slots.get(&tid).map(|&slot| slot as usize)
    }

    /// The earliest unwait event waking `tid` at or after `from`.
    pub fn pair_unwait(
        &self,
        stream: &TraceStream,
        tid: ThreadId,
        from: TimeNs,
    ) -> Option<EventId> {
        let list = self.unwaits_for.list(self.slot(tid)?);
        list.get(first_from(stream, list, from)).copied()
    }

    /// The unwait paired with wait event `wait`: what
    /// [`StreamIndex::pair_unwait`] gives for the wait's thread and
    /// start, looked up when the index was built. `None` for an orphan
    /// wait, an event that is not a wait, or an unknown id.
    pub fn paired_unwait(&self, wait: EventId) -> Option<EventId> {
        self.wait(wait).1
    }

    /// For event `wait`: its ordinal among the stream's waits (in id
    /// order, below [`StreamIndex::wait_count`]; `None` if it is not a
    /// wait of this stream) and its paired unwait, as
    /// [`StreamIndex::paired_unwait`] gives it.
    pub(crate) fn wait(&self, wait: EventId) -> (Option<usize>, Option<EventId>) {
        match self.waits.binary_search(&wait) {
            Ok(k) => (Some(k), self.pairs[k]),
            Err(_) => (None, None),
        }
    }

    /// How many wait events the stream holds.
    pub(crate) fn wait_count(&self) -> usize {
        self.waits.len()
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
    ) -> &[EventId] {
        let Some(slot) = self.slot(tid) else {
            return &[];
        };
        let list = self.by_thread.list(slot);
        let mut lo = first_from(stream, list, from);
        // Step back over events that start before `from` but spill into
        // the interval (e.g. a wait that is still pending at `from`).
        while lo > 0 && self.effective_end(list[lo - 1]) > from {
            lo -= 1;
        }
        let len = list[lo..]
            .iter()
            .take_while(|&&id| stream.event(id).is_some_and(|e| e.t < to))
            .count();
        &list[lo..lo + len]
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
        // The stored pair is what pairing the wait afresh finds.
        let pair = idx.paired_unwait(EventId(wait_id as u32));
        assert_eq!(pair, idx.pair_unwait(&s, ThreadId(1), TimeNs(10)));
        assert_eq!(s.event(pair.unwrap()).unwrap().t, TimeNs(15));
        assert_eq!(idx.paired_unwait(EventId(0)), None, "not a wait");
        assert_eq!(idx.paired_unwait(EventId(999)), None);
        // The stream's one wait has ordinal 0 of 1.
        assert_eq!(idx.wait_count(), 1);
        assert_eq!(idx.wait(EventId(wait_id as u32)), (Some(0), pair));
        assert_eq!(idx.wait(EventId(0)), (None, None));
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
}
