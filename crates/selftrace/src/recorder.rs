//! The per-thread event recorder behind self-tracing.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tracelens_obs::{SpanId, Telemetry, TelemetrySink};

/// Virtual thread id of the thread that created the sink (the study's
/// spawning thread).
pub const MAIN_VTID: u32 = 1;

/// Virtual thread id of the synthetic "scheduler" thread the lowering
/// uses as the signaller for waits whose waker was not observed (lock
/// holders). It carries no running events, so such waits become leaf
/// wait nodes with their measured duration.
pub const SCHEDULER_VTID: u32 = 0;

/// First virtual thread id handed to threads that emit events without
/// ever being bound (not the creator, not a pool worker).
const EPHEMERAL_VTID_BASE: u32 = 1000;

/// Ingest-lock acquisitions slower than this are recorded as `obs.lock`
/// wait events; faster ones only feed the aggregate counter.
const LOCK_WAIT_EVENT_NS: u64 = 1_000;

thread_local! {
    /// (sink id, vtid) binding of this OS thread; sink ids disambiguate
    /// recordings so a thread bound by one session re-binds in the next.
    static BOUND: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// A raw recorded event. Timestamps are nanoseconds since the sink's
/// construction, stamped while holding the ingest lock, so the log is
/// time-ordered and per-thread sequences are strictly monotone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEvent {
    /// A span opened (`Telemetry::span` / `span_with_parent`).
    SpanEnter {
        /// Sink-unique span id.
        id: u64,
        /// Span name (a `stage::*` constant in pipeline code).
        name: &'static str,
        /// Parent span id, possibly on another thread.
        parent: Option<u64>,
        /// Virtual thread that opened the span.
        vtid: u32,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// The span closed.
    SpanExit {
        /// Id from the matching [`RawEvent::SpanEnter`].
        id: u64,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// A thread started blocking at a named wait point.
    WaitBegin {
        /// Sink-unique wait token.
        token: u64,
        /// Wait-point name (see [`tracelens_obs::waitpoint`]).
        name: &'static str,
        /// Virtual thread that blocked.
        vtid: u32,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// The wait ended (the guard dropped).
    WaitEnd {
        /// Token from the matching [`RawEvent::WaitBegin`].
        token: u64,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// A thread signalled (unwaited) another thread.
    Wake {
        /// Wait-point name being signalled.
        name: &'static str,
        /// Virtual thread that signalled.
        vtid: u32,
        /// Virtual thread being woken.
        target: u32,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// The recorder blocked on its own ingest lock for at least
    /// [`LOCK_WAIT_EVENT_NS`] — self-observation overhead surfaced as a
    /// completed wait interval `[t, t + cost]`.
    LockWait {
        /// Virtual thread that contended.
        vtid: u32,
        /// Nanoseconds since session start (lock-attempt time).
        t: u64,
        /// Blocked nanoseconds.
        cost: u64,
    },
    /// A counter was incremented.
    CounterAdd {
        /// Counter name.
        name: &'static str,
        /// Increment.
        delta: u64,
        /// Virtual thread that incremented.
        vtid: u32,
        /// Nanoseconds since session start.
        t: u64,
    },
    /// A gauge was set.
    GaugeSet {
        /// Gauge name.
        name: &'static str,
        /// New value.
        value: i64,
        /// Virtual thread that set it.
        vtid: u32,
        /// Nanoseconds since session start.
        t: u64,
    },
}

impl RawEvent {
    /// The event's timestamp (nanoseconds since session start).
    pub fn t(&self) -> u64 {
        match *self {
            RawEvent::SpanEnter { t, .. }
            | RawEvent::SpanExit { t, .. }
            | RawEvent::WaitBegin { t, .. }
            | RawEvent::WaitEnd { t, .. }
            | RawEvent::Wake { t, .. }
            | RawEvent::LockWait { t, .. }
            | RawEvent::CounterAdd { t, .. }
            | RawEvent::GaugeSet { t, .. } => t,
        }
    }
}

/// An event-recording [`TelemetrySink`]: the ETW of the pipeline.
///
/// Create one per traced run with [`SelfTraceSink::new`] (the creating
/// thread becomes virtual thread [`MAIN_VTID`]), pass
/// [`SelfTraceSink::telemetry`] to the instrumented code, then freeze
/// the log with [`SelfTraceSink::recording`].
#[derive(Debug)]
pub struct SelfTraceSink {
    /// Distinguishes this sink's thread bindings from other sessions'.
    id: u64,
    epoch: Instant,
    log: Mutex<Vec<RawEvent>>,
    next_span: AtomicU64,
    next_wait: AtomicU64,
    next_ephemeral: AtomicU32,
    lock_wait_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
}

impl SelfTraceSink {
    /// Creates a recorder; the calling thread is bound as the session's
    /// main thread (virtual tid [`MAIN_VTID`]).
    pub fn new() -> Arc<SelfTraceSink> {
        static NEXT_SINK: AtomicU64 = AtomicU64::new(1);
        let sink = Arc::new(SelfTraceSink {
            id: NEXT_SINK.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            log: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(0),
            next_wait: AtomicU64::new(0),
            next_ephemeral: AtomicU32::new(EPHEMERAL_VTID_BASE),
            lock_wait_ns: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
        });
        BOUND.set((sink.id, MAIN_VTID));
        sink
    }

    /// A [`Telemetry`] handle forwarding to this recorder.
    pub fn telemetry(self: &Arc<Self>) -> Telemetry {
        Telemetry::with_sink(Arc::clone(self) as Arc<dyn TelemetrySink>)
    }

    /// The virtual thread id of the calling thread, assigning an
    /// ephemeral one on first contact.
    fn vtid(&self) -> u32 {
        let (sink, vtid) = BOUND.get();
        if sink == self.id && vtid != 0 {
            return vtid;
        }
        let vtid = self.next_ephemeral.fetch_add(1, Ordering::Relaxed);
        BOUND.set((self.id, vtid));
        vtid
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends one event, stamping its timestamp *after* acquiring the
    /// ingest lock (per-thread timestamps stay monotone and lock-wait
    /// intervals never overlap the event they delayed). Lock contention
    /// is accounted, and surfaced as an `obs.lock` wait event when it
    /// exceeds [`LOCK_WAIT_EVENT_NS`]. Only a lock held by another
    /// thread counts as contention: an uncontended acquisition records
    /// no wait, however long the thread was descheduled around it.
    fn push(&self, vtid: u32, make: impl FnOnce(u64) -> RawEvent) {
        let (mut log, attempt) = match self.log.try_lock() {
            Ok(log) => (log, None),
            Err(_) => {
                let attempt = self.now_ns();
                (self.log.lock().expect("self-trace log lock"), Some(attempt))
            }
        };
        let acquired = self.now_ns();
        if let Some(attempt) = attempt {
            let waited = acquired.saturating_sub(attempt);
            if waited > 0 {
                self.lock_wait_ns.fetch_add(waited, Ordering::Relaxed);
            }
            if waited >= LOCK_WAIT_EVENT_NS {
                log.push(RawEvent::LockWait {
                    vtid,
                    t: attempt,
                    cost: waited,
                });
            }
        }
        log.push(make(acquired));
    }

    /// Freezes the log into an immutable recording. The sink can keep
    /// recording afterwards; the snapshot is unaffected.
    pub fn recording(&self) -> SelfTraceRecording {
        SelfTraceRecording {
            events: self.log.lock().expect("self-trace log lock").clone(),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
            duration_ns: self.now_ns(),
        }
    }
}

impl TelemetrySink for SelfTraceSink {
    fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::SpanEnter {
            id,
            name,
            parent: parent.map(|p| p.0),
            vtid,
            t,
        });
        SpanId(id)
    }

    fn span_exit(&self, id: SpanId, _elapsed_ns: u64) {
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::SpanExit { id: id.0, t });
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::CounterAdd {
            name,
            delta,
            vtid,
            t,
        });
    }

    fn gauge_set(&self, name: &'static str, value: i64) {
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::GaugeSet {
            name,
            value,
            vtid,
            t,
        });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        // Queue waits arrive pre-measured from the pool's claim loop;
        // aggregate them instead of logging one event per task.
        if name == "pool.task_wait_ns" {
            self.queue_wait_ns.fetch_add(value, Ordering::Relaxed);
        }
    }

    fn thread_bind(&self, role: &'static str, slot: u32) {
        let vtid = match role {
            "worker" => 2 + slot,
            _ => self.next_ephemeral.fetch_add(1, Ordering::Relaxed),
        };
        BOUND.set((self.id, vtid));
    }

    fn thread_token(&self) -> Option<u64> {
        Some(self.vtid() as u64)
    }

    fn wait_begin(&self, name: &'static str, _parent: Option<SpanId>) -> u64 {
        let token = self.next_wait.fetch_add(1, Ordering::Relaxed) + 1;
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::WaitBegin {
            token,
            name,
            vtid,
            t,
        });
        token
    }

    fn wait_end(&self, token: u64, _elapsed_ns: u64) {
        let vtid = self.vtid();
        self.push(vtid, |t| RawEvent::WaitEnd { token, t });
    }

    fn wake(&self, name: &'static str, target: u64) {
        let vtid = self.vtid();
        let target = u32::try_from(target).unwrap_or(u32::MAX);
        self.push(vtid, |t| RawEvent::Wake {
            name,
            vtid,
            target,
            t,
        });
    }

    fn wants_thread_context(&self) -> bool {
        true
    }
}

/// A frozen self-trace: the event log plus session aggregates.
#[derive(Debug, Clone, Default)]
pub struct SelfTraceRecording {
    /// Recorded events, in timestamp order.
    pub events: Vec<RawEvent>,
    /// Total nanoseconds threads spent blocked on the recorder's own
    /// ingest lock (including contention below the event threshold).
    pub lock_wait_ns: u64,
    /// Total queue-wait nanoseconds reported by the pool's claim loop
    /// (`pool.task_wait_ns` observations).
    pub queue_wait_ns: u64,
    /// Session length: nanoseconds from sink creation to the snapshot.
    pub duration_ns: u64,
}

impl SelfTraceRecording {
    /// Total blocked nanoseconds across completed waits named `name`.
    pub fn wait_total_ns(&self, name: &str) -> u64 {
        let mut begun: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut total = 0u64;
        for e in &self.events {
            match *e {
                RawEvent::WaitBegin {
                    token, name: n, t, ..
                } if n == name => {
                    begun.insert(token, t);
                }
                RawEvent::WaitEnd { token, t } => {
                    if let Some(t0) = begun.remove(&token) {
                        total += t.saturating_sub(t0);
                    }
                }
                RawEvent::LockWait { cost, .. } if name == tracelens_obs::waitpoint::OBS_LOCK => {
                    total += cost;
                }
                _ => {}
            }
        }
        total
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_span_wait_wake_sequence() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        {
            let _study = t.span("study");
            let _wait = t.wait("pool.join");
            t.wake("pool.join", t.thread_token().unwrap());
        }
        let rec = sink.recording();
        let kinds: Vec<&str> = rec
            .events
            .iter()
            .map(|e| match e {
                RawEvent::SpanEnter { .. } => "enter",
                RawEvent::SpanExit { .. } => "exit",
                RawEvent::WaitBegin { .. } => "wait",
                RawEvent::WaitEnd { .. } => "unblock",
                RawEvent::Wake { .. } => "wake",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["enter", "wait", "wake", "unblock", "exit"]);
        // The creating thread is MAIN_VTID everywhere.
        for e in &rec.events {
            if let RawEvent::SpanEnter { vtid, .. } | RawEvent::WaitBegin { vtid, .. } = e {
                assert_eq!(*vtid, MAIN_VTID);
            }
        }
    }

    #[test]
    fn timestamps_are_monotone_in_log_order() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        for _ in 0..100 {
            let _s = t.span("sim");
            t.count("x", 1);
        }
        let rec = sink.recording();
        let times: Vec<u64> = rec.events.iter().map(RawEvent::t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(rec.duration_ns >= *times.last().unwrap());
    }

    #[test]
    fn worker_binding_yields_stable_vtids() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        std::thread::scope(|s| {
            for w in 0..3u32 {
                let t = t.clone();
                s.spawn(move || {
                    t.bind_thread("worker", w);
                    assert_eq!(t.thread_token(), Some((2 + w) as u64));
                    t.count("touch", 1);
                });
            }
        });
        let rec = sink.recording();
        let mut vtids: Vec<u32> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                RawEvent::CounterAdd { vtid, .. } => Some(vtid),
                _ => None,
            })
            .collect();
        vtids.sort_unstable();
        assert_eq!(vtids, [2, 3, 4]);
    }

    #[test]
    fn unbound_threads_get_ephemeral_vtids() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        std::thread::scope(|s| {
            s.spawn(|| t.count("stray", 1));
        });
        let rec = sink.recording();
        match rec.events[0] {
            RawEvent::CounterAdd { vtid, .. } => assert!(vtid >= 1000),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wait_totals_sum_matched_pairs() {
        let sink = SelfTraceSink::new();
        let t = sink.telemetry();
        {
            let _w = t.wait("pool.join");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rec = sink.recording();
        assert!(rec.wait_total_ns("pool.join") >= 1_000_000);
        assert_eq!(rec.wait_total_ns("nonexistent"), 0);
    }
}
