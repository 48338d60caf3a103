//! # tracelens-pool
//!
//! A zero-dependency parallel execution layer for the analysis pipeline:
//! std-only (`std::thread` + atomics), deterministic, and aware of the
//! `--jobs N` / `TRACELENS_JOBS` knob every tracelens binary honors.
//!
//! The core primitive is [`Pool::map`]: apply a function to every item
//! of a slice on `jobs` worker threads and return the results **in input
//! order**, so a parallel run is byte-identical to a sequential one as
//! long as the function itself is deterministic. Work distribution is
//! chunked self-scheduling (workers claim the next unclaimed index from
//! a shared atomic counter), which load-balances skewed item costs the
//! same way a work-stealing deque would for this fan-out/fan-in shape —
//! without unsafe code or per-item channels.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are merged in input order; nothing about
//!    thread scheduling can leak into the output.
//! 2. **Sequential fidelity.** A pool with `jobs == 1` never spawns a
//!    thread: [`Pool::map`] degenerates to a plain iterator loop, so the
//!    `--jobs 1` path *is* the sequential implementation, not a
//!    single-threaded simulation of the parallel one.
//! 3. **Zero dependencies.** Scoped threads (`std::thread::scope`) let
//!    workers borrow the items and the closure directly; no channels,
//!    no `'static` bounds, no allocation per item beyond the result.
//!
//! Telemetry: a pool built [`Pool::with_telemetry`] reports
//! `pool.tasks` / `pool.batches` / `pool.steals` / `pool.parks`
//! counters, a `pool.queue_depth` gauge and histogram (remaining items
//! observed at each claim), a `pool.task_wait_ns` queue-wait histogram
//! (ready-to-claim gaps per worker), and a `pool.worker_busy_ns`
//! per-worker busy-time histogram, so stage timings can be split per
//! worker in the run report. When the sink is an event recorder (the
//! `selftrace` crate), each parallel batch additionally traces one
//! `pool.join` barrier wait on the spawning thread, woken by the last
//! worker to finish — the ETW-shaped wait/unwait edge the wait-graph
//! meta-analysis pairs up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod supervise;

pub use supervise::{ExecutionReport, FailureReason, SupervisePolicy, UnitFailure, UnitMeta};

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use tracelens_obs::{waitpoint, Telemetry};

/// Environment variable overriding the default worker count, honored by
/// [`Pool::auto`] (and therefore by every pipeline entry point that
/// defaults its pool). `--jobs N` flags take precedence over it.
pub const JOBS_ENV: &str = "TRACELENS_JOBS";

/// A parallel-map executor with a fixed worker count.
///
/// Cheap to clone and to construct; worker threads are scoped to each
/// [`Pool::map`] call, so an idle pool holds no OS resources.
///
/// ```
/// use tracelens_pool::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
    telemetry: Telemetry,
}

impl Default for Pool {
    /// [`Pool::auto`]: the `TRACELENS_JOBS` / `available_parallelism`
    /// default.
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool with exactly `jobs` workers; `0` means "auto" (the
    /// [`JOBS_ENV`] variable if set and valid, otherwise
    /// [`std::thread::available_parallelism`]).
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        Pool {
            jobs,
            telemetry: Telemetry::noop(),
        }
    }

    /// The environment/hardware default: `TRACELENS_JOBS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn auto() -> Pool {
        Pool::new(0)
    }

    /// Attaches a telemetry handle; every subsequent [`Pool::map`] batch
    /// then reports pool counters and per-worker busy-time histograms
    /// through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Pool {
        self.telemetry = telemetry;
        self
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The telemetry handle this pool reports through (a noop handle
    /// unless one was attached with [`Pool::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether this pool will actually spawn threads for multi-item
    /// batches.
    pub fn is_parallel(&self) -> bool {
        self.jobs > 1
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// `f` receives `(index, &item)`; it must be deterministic for the
    /// parallel and sequential paths to agree. Panics inside `f` are
    /// propagated to the caller after all workers have stopped.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.jobs <= 1 || items.len() <= 1 {
            if self.telemetry.enabled() {
                self.telemetry.count("pool.batches", 1);
                self.telemetry.count("pool.tasks", items.len() as u64);
            }
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.jobs.min(items.len());
        if self.telemetry.enabled() {
            self.telemetry.count("pool.batches", 1);
            self.telemetry.count("pool.tasks", items.len() as u64);
            self.telemetry.gauge("pool.workers", workers as i64);
        }
        let next = AtomicUsize::new(0);
        // Self-tracing: the spawning thread blocks in exactly one
        // barrier wait per batch; the worker whose countdown decrement
        // reaches zero — the last to finish — emits the single matching
        // wake. One pairable wait/unwait edge, no strays.
        let spawner = self.telemetry.thread_token();
        let remaining = AtomicUsize::new(workers);
        let context = self.telemetry.propagation_context();
        let join_wait = self.telemetry.wait(waitpoint::POOL_JOIN);
        // Each worker collects (index, result) pairs; merging by index
        // afterwards keeps the output independent of scheduling.
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|s| {
            let (next, remaining, f, telemetry) = (&next, &remaining, &f, &self.telemetry);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // The fair-share chunk of worker `w` under static
                    // partitioning; claims outside it are steals.
                    let fair = (w * items.len() / workers, (w + 1) * items.len() / workers);
                    s.spawn(move || {
                        telemetry.bind_thread("worker", w as u32);
                        let _cx =
                            context.map(|cx| telemetry.span_with_parent(cx.name, Some(cx.id)));
                        let started = std::time::Instant::now();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            let mut ready = std::time::Instant::now();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    if telemetry.enabled() {
                                        telemetry.count("pool.parks", 1);
                                    }
                                    break;
                                }
                                if telemetry.enabled() {
                                    // Time between being ready for work
                                    // and claiming it: queue wait.
                                    let waited = ready.elapsed().as_nanos();
                                    telemetry.record(
                                        "pool.task_wait_ns",
                                        u64::try_from(waited).unwrap_or(u64::MAX),
                                    );
                                    let depth = (items.len() - i) as u64;
                                    telemetry.record("pool.queue_depth", depth);
                                    telemetry.gauge("pool.queue_depth", depth as i64);
                                    if i < fair.0 || i >= fair.1 {
                                        telemetry.count("pool.steals", 1);
                                    }
                                }
                                local.push((i, f(i, &items[i])));
                                ready = std::time::Instant::now();
                            }
                        }));
                        if telemetry.enabled() {
                            let busy = started.elapsed().as_nanos();
                            telemetry.record(
                                "pool.worker_busy_ns",
                                u64::try_from(busy).unwrap_or(u64::MAX),
                            );
                        }
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            if let Some(token) = spawner {
                                telemetry.wake(waitpoint::POOL_JOIN, token);
                            }
                        }
                        out.map(|()| local)
                    })
                })
                .collect();
            for h in handles {
                match h.join().expect("pool worker thread never aborts") {
                    Ok(local) => parts.push(local),
                    Err(p) => panic = Some(p),
                }
            }
        });
        // The barrier wait ends here: merging results below is running
        // time on the spawning thread, not blocked time.
        drop(join_wait);
        if let Some(p) = panic {
            resume_unwind(p);
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for part in parts {
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index was claimed exactly once"))
            .collect()
    }
}

/// The auto worker count: [`JOBS_ENV`] if parseable and positive,
/// otherwise available parallelism, otherwise 1.
fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_sequential_under_skew() {
        // Wildly uneven task costs must not affect result order.
        let items: Vec<u64> = (0..64).collect();
        let work = |_: usize, &x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let seq = Pool::new(1).map(&items, work);
        let par = Pool::new(8).map(&items, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = Pool::new(3).map(&items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert!(pool.map(&[] as &[u8], |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(Pool::new(0).jobs() >= 1);
        assert!(Pool::auto().jobs() >= 1);
        assert_eq!(Pool::new(1).jobs(), 1);
        assert!(!Pool::new(1).is_parallel());
        assert!(Pool::new(2).is_parallel());
    }

    #[test]
    fn map_propagates_worker_panics() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |_, &x| {
                if x == 17 {
                    panic!("boom on 17");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn telemetry_counts_batches_and_tasks() {
        use tracelens_obs::CollectingSink;
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(2).with_telemetry(t);
        let _ = pool.map(&[1, 2, 3, 4], |_, &x: &i32| x);
        let report = sink.report();
        let json = report.to_json();
        assert!(json.contains("pool.tasks"), "{json}");
        assert!(json.contains("pool.worker_busy_ns"), "{json}");
    }

    #[test]
    fn telemetry_reports_contention_metrics() {
        use tracelens_obs::CollectingSink;
        let (t, sink) = CollectingSink::telemetry();
        let pool = Pool::new(3).with_telemetry(t);
        let items: Vec<u64> = (0..50).collect();
        let _ = pool.map(&items, |_, &x| x * 2);
        let report = sink.report();
        // Queue-wait time: one observation per claimed task.
        let waits = &report.metrics.histograms["pool.task_wait_ns"];
        assert_eq!(waits.n(), 50);
        // Every worker parks exactly once, when the queue drains.
        assert_eq!(report.metrics.counters["pool.parks"], 3);
        // The queue-depth gauge saw the final claims.
        assert!(report.metrics.gauges.contains_key("pool.queue_depth"));
        // Self-scheduling off a shared counter: claims outside the
        // static fair-share chunk are counted as steals (possibly zero
        // on an unloaded machine, but the counter must exist).
        let _ = report.metrics.counters.get("pool.steals");
    }

    /// Minimal recorder for the wait/wake protocol of `Pool::map`.
    #[derive(Default)]
    struct WaitLog {
        events: std::sync::Mutex<Vec<String>>,
    }

    impl tracelens_obs::TelemetrySink for WaitLog {
        fn span_enter(
            &self,
            _name: &'static str,
            _parent: Option<tracelens_obs::SpanId>,
        ) -> tracelens_obs::SpanId {
            tracelens_obs::SpanId(0)
        }
        fn span_exit(&self, _id: tracelens_obs::SpanId, _elapsed_ns: u64) {}
        fn counter_add(&self, _name: &'static str, _delta: u64) {}
        fn gauge_set(&self, _name: &'static str, _value: i64) {}
        fn histogram_record(&self, _name: &'static str, _value: u64) {}
        fn thread_token(&self) -> Option<u64> {
            Some(1)
        }
        fn wait_begin(&self, name: &'static str, _parent: Option<tracelens_obs::SpanId>) -> u64 {
            self.events.lock().unwrap().push(format!("wait {name}"));
            9
        }
        fn wait_end(&self, token: u64, _elapsed_ns: u64) {
            self.events.lock().unwrap().push(format!("end {token}"));
        }
        fn wake(&self, name: &'static str, target: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("wake {name} -> {target}"));
        }
    }

    #[test]
    fn parallel_batch_traces_one_join_wait_and_one_wake() {
        let sink = std::sync::Arc::new(WaitLog::default());
        let t = Telemetry::with_sink(
            std::sync::Arc::clone(&sink) as std::sync::Arc<dyn tracelens_obs::TelemetrySink>
        );
        let pool = Pool::new(4).with_telemetry(t);
        let items: Vec<u64> = (0..32).collect();
        let _ = pool.map(&items, |_, &x| x + 1);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec!["wait pool.join", "wake pool.join -> 1", "end 9"],
            "exactly one barrier wait, woken once by the last worker"
        );
    }

    #[test]
    fn sequential_batch_traces_no_waits() {
        let sink = std::sync::Arc::new(WaitLog::default());
        let t = Telemetry::with_sink(
            std::sync::Arc::clone(&sink) as std::sync::Arc<dyn tracelens_obs::TelemetrySink>
        );
        let pool = Pool::new(1).with_telemetry(t);
        let _ = pool.map(&[1u8, 2, 3], |_, &x| x);
        assert!(sink.events.lock().unwrap().is_empty());
    }
}
