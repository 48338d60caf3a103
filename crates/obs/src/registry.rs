//! A thread-safe store of named metrics.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Holds every counter and histogram created during a run.
///
/// Metric names are `&'static str`, which keeps the hot path free of
/// allocation: recording against an existing metric takes a read lock
/// and a relaxed atomic op; only the *first* touch of a name takes the
/// write lock to insert it. Maps are ordered so snapshots and reports
/// are deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// A point-in-time copy of a registry's contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram `(bounds, counts, sum)` by name; `counts` has one more
    /// entry than `bounds` (the overflow bucket).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Frozen histogram contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated `q`-quantile of the frozen distribution; same rules as
    /// [`Histogram::percentile`](crate::Histogram::percentile).
    pub fn percentile(&self, q: f64) -> u64 {
        crate::histogram::percentile_from_buckets(&self.bounds, &self.counts, q)
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, creating it at zero.
    pub fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("registry lock");
        Arc::clone(map.entry(name).or_default())
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// The histogram registered under `name`, creating it with the
    /// default time buckets.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("registry lock");
        Arc::clone(
            map.entry(name)
                .or_insert_with(|| Arc::new(Histogram::time())),
        )
    }

    /// Records `value` into the histogram `name`.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Registers a histogram with custom bounds; a no-op if `name`
    /// already exists (the existing bounds win).
    pub fn histogram_with_bounds(&self, name: &'static str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.write().expect("registry lock");
        Arc::clone(
            map.entry(name)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Copies out every metric. Values observed concurrently with
    /// updates are each individually consistent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&k, h)| {
                (
                    k.to_owned(),
                    HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        counts: h.counts(),
                        sum: h.sum(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deterministically() {
        let r = Registry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        r.counter_add("b.second", 3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a.first", "b.second"], "sorted by name");
        assert_eq!(snap.counters["b.second"], 5);
        assert_eq!(r.snapshot(), snap, "snapshots are reproducible");
    }

    #[test]
    fn histograms_record_through_registry() {
        let r = Registry::new();
        r.histogram_with_bounds("lat", &[10, 20]);
        r.histogram_record("lat", 15);
        r.histogram_record("lat", 9999);
        let snap = r.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.bounds, vec![10, 20]);
        assert_eq!(h.counts, vec![0, 1, 1]);
        assert_eq!(h.n(), 2);
        // Snapshot percentiles mirror the live histogram's.
        assert_eq!(h.percentile(0.5), r.histogram("lat").percentile(0.5));
    }

    #[test]
    fn concurrent_counter_adds_are_exact() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.counter_add("hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counters["hits"], 80_000);
    }
}
