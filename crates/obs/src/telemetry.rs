//! The [`Telemetry`] handle and the sink behind it.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Identifier of one span instance within a sink, unique per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Where telemetry events go.
///
/// Implementations must be cheap and non-blocking: sinks are called
/// from the middle of the analysis pipeline's hot loops.
pub trait TelemetrySink: Send + Sync {
    /// Called when a span opens; returns the id used at exit.
    fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId;

    /// Called when the span guard drops, with the measured wall time.
    fn span_exit(&self, id: SpanId, elapsed_ns: u64);

    /// Adds to a named counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Records one histogram observation.
    fn histogram_record(&self, name: &'static str, value: u64);
}

/// A sink that drops everything.
///
/// Exists so APIs taking `Arc<dyn TelemetrySink>` have an explicit
/// do-nothing value; [`Telemetry::noop`] is cheaper still (no sink at
/// all) and is what instrumented code paths should default to.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn span_enter(&self, _name: &'static str, _parent: Option<SpanId>) -> SpanId {
        SpanId(0)
    }
    fn span_exit(&self, _id: SpanId, _elapsed_ns: u64) {}
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
}

thread_local! {
    /// Stack of open spans on this thread; the top is the parent of
    /// the next span. Only touched when a sink is attached.
    static SPAN_STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable handle the pipeline threads through its layers.
///
/// The disabled handle ([`Telemetry::noop`], also `Default`) holds no
/// sink: every operation is a branch on an `Option` and returns
/// immediately — no allocation, no atomics, no thread-local access. An
/// enabled handle forwards to its [`TelemetrySink`].
///
/// Spans nest lexically per thread: the innermost open span on the
/// current thread becomes the parent of the next one.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle — the default for every instrumented API.
    pub fn noop() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle that forwards to `sink`.
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// Whether events are being recorded. Callers can use this to skip
    /// preparing expensive event payloads.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a named span; it closes (and reports its wall time) when
    /// the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(sink) = &self.sink else {
            return SpanGuard { open: None };
        };
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let id = sink.span_enter(name, parent);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            open: Some(OpenSpan {
                sink: Arc::clone(sink),
                id,
                start: Instant::now(),
                opened_on: std::thread::current().id(),
            }),
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(name, delta);
        }
    }

    /// Records `value` into the histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.histogram_record(name, value);
        }
    }
}

struct OpenSpan {
    sink: Arc<dyn TelemetrySink>,
    id: SpanId,
    start: Instant,
    opened_on: std::thread::ThreadId,
}

/// Closes its span on drop.
///
/// Hold it in a named binding (`let _span = t.span(...)`) — binding to
/// `_` drops immediately and records a zero-length span.
#[must_use = "a span closes when its guard drops; bind it to a named variable"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            // A guard dropped on a foreign thread pops nothing from the
            // opener's span stack, so the opener's elapsed time would be
            // double-accounted under whatever span is open there.
            debug_assert_eq!(
                open.opened_on,
                std::thread::current().id(),
                "SpanGuard must drop on the thread that opened it"
            );
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards normally drop in LIFO order; if user code holds
                // one across a sibling's lifetime, remove by id instead
                // of corrupting the stack.
                if stack.last() == Some(&open.id) {
                    stack.pop();
                } else if let Some(i) = stack.iter().rposition(|&id| id == open.id) {
                    stack.remove(i);
                }
            });
            let elapsed = open.start.elapsed().as_nanos();
            open.sink
                .span_exit(open.id, u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records the raw call sequence for assertions.
    #[derive(Default)]
    struct LogSink {
        next: std::sync::atomic::AtomicU64,
        events: Mutex<Vec<String>>,
    }

    impl TelemetrySink for LogSink {
        fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
            let id = SpanId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            self.events.lock().unwrap().push(format!(
                "enter {name} id={} parent={:?}",
                id.0,
                parent.map(|p| p.0)
            ));
            id
        }
        fn span_exit(&self, id: SpanId, _elapsed_ns: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("exit id={}", id.0));
        }
        fn counter_add(&self, name: &'static str, delta: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("count {name} +{delta}"));
        }
        fn histogram_record(&self, name: &'static str, value: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("hist {name} {value}"));
        }
    }

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let t = Telemetry::noop();
        assert!(!t.enabled());
        let _span = t.span("outer");
        t.count("x", 1);
        t.record("z", 3);
        // Nothing to observe — the point is that none of this panics or
        // touches the span stack.
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn spans_nest_and_unwind() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        assert!(t.enabled());
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                t.count("events", 5);
            }
            let _sibling = t.span("sibling");
        }
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "enter outer id=0 parent=None",
                "enter inner id=1 parent=Some(0)",
                "count events +5",
                "exit id=1",
                "enter sibling id=2 parent=Some(0)",
                "exit id=2",
                "exit id=0",
            ]
        );
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // drops before its child `b`
        let c = t.span("c"); // parent should be b, the remaining open span
        drop(c);
        drop(b);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "enter a id=0 parent=None",
                "enter b id=1 parent=Some(0)",
                "exit id=0",
                "enter c id=2 parent=Some(1)",
                "exit id=2",
                "exit id=1",
            ]
        );
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn noop_sink_type_accepts_everything() {
        let t = Telemetry::with_sink(Arc::new(NoopSink));
        let _span = t.span("s");
        t.count("c", 1);
        t.record("h", 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn cross_thread_span_drop_is_caught_in_debug() {
        let sink = Arc::new(LogSink::default());
        let t = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        let guard = t.span("misplaced");
        let result = std::thread::scope(|s| s.spawn(move || drop(guard)).join());
        assert!(result.is_err(), "foreign-thread drop must assert in debug");
        // The opener's stack still holds the span id; clear it so other
        // tests on this thread are unaffected.
        SPAN_STACK.with(|s| s.borrow_mut().clear());
    }
}
