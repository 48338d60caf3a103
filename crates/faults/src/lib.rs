//! # tracelens-faults — deterministic fault injection for data sets
//!
//! The paper's study ran over ~19,500 traces collected on real user
//! machines, where tracing sessions get cut mid-flight, buffers drop
//! events, and clocks drift. This crate reproduces that reality on
//! demand: a [`FaultInjector`] corrupts a well-formed [`Dataset`] with
//! parameterized, *seeded* faults, so robustness tests and the
//! `exp_robustness` experiment can measure exactly how the analyses
//! degrade — and assert that sanitization recovers what it claims to.
//!
//! Every fault is deterministic in `(seed, fault kind, rate, input)`:
//! the same injector applied to the same data set always produces the
//! same corruption and the same [`FaultLog`].
//!
//! ```
//! use tracelens_faults::{FaultInjector, FaultKind};
//! use tracelens_sim::DatasetBuilder;
//!
//! let clean = DatasetBuilder::new(7).traces(5).build();
//! let (corrupt, log) = FaultInjector::new(99)
//!     .with(FaultKind::DropUnwaits, 0.05)
//!     .with(FaultKind::DanglingInstanceRefs, 0.05)
//!     .inject(&clean);
//! assert!(log.total() > 0);
//! assert!(corrupt.validate().is_err() || log.injected(FaultKind::DanglingInstanceRefs) == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod readfault;

pub use exec::{ExecFaultParseError, ExecFaultPlan};
pub use readfault::{FlakyReader, ReadFaultPlan};

use std::collections::BTreeMap;
use tracelens_model::{
    Dataset, Event, EventKind, StackId, ThreadId, TimeNs, TraceId, TraceStream, SAMPLE_INTERVAL,
};

/// The kinds of corruption observed in real-world trace collection,
/// each applied independently at a per-item rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Delete unwait events (rate per unwait event): their paired waits
    /// become orphans that Wait-Graph construction must treat as
    /// unpaired leaves.
    DropUnwaits,
    /// Cut a stream at a random interior timestamp (rate per stream),
    /// dropping every later event — a tracing session stopped
    /// mid-flight. Unlike [`Dataset::truncated`], recorded scenario
    /// instances are *not* clipped, so they may now extend past their
    /// stream's data.
    TruncateStreams,
    /// Duplicate events in place (rate per event) — buffer replays.
    DuplicateEvents,
    /// Jitter event timestamps by up to one sample interval in either
    /// direction (rate per event), leaving streams unsorted — clock
    /// skew between CPUs.
    ClockSkew,
    /// Rewrite event stack references to ids beyond the stack table
    /// (rate per event) — symbol resolution gone wrong.
    DanglingStacks,
    /// Insert wait events on fabricated threads that nothing ever
    /// wakes (rate per event position) — lost unwait counterparts from
    /// before the trace window.
    OrphanWaits,
    /// Point scenario instances at trace ids with no stream (rate per
    /// instance) — cross-file index corruption.
    DanglingInstanceRefs,
}

/// All fault kinds, in application order.
pub const ALL_FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::DropUnwaits,
    FaultKind::TruncateStreams,
    FaultKind::DuplicateEvents,
    FaultKind::ClockSkew,
    FaultKind::DanglingStacks,
    FaultKind::OrphanWaits,
    FaultKind::DanglingInstanceRefs,
];

impl FaultKind {
    /// Short snake-case label, used as the [`FaultLog`] key.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropUnwaits => "drop_unwaits",
            FaultKind::TruncateStreams => "truncate_streams",
            FaultKind::DuplicateEvents => "duplicate_events",
            FaultKind::ClockSkew => "clock_skew",
            FaultKind::DanglingStacks => "dangling_stacks",
            FaultKind::OrphanWaits => "orphan_waits",
            FaultKind::DanglingInstanceRefs => "dangling_instance_refs",
        }
    }

    fn index(self) -> u64 {
        ALL_FAULT_KINDS.iter().position(|&k| k == self).unwrap() as u64
    }
}

/// What an injection pass actually did: per-kind counts of injected
/// faults (events dropped / duplicated / skewed / inserted, streams
/// truncated, instances redirected).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Injected-fault counts keyed by [`FaultKind::label`].
    pub injected: BTreeMap<&'static str, usize>,
}

impl FaultLog {
    /// Count injected for one fault kind (0 if the kind never fired).
    pub fn injected(&self, kind: FaultKind) -> usize {
        self.injected.get(kind.label()).copied().unwrap_or(0)
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> usize {
        self.injected.values().sum()
    }

    fn add(&mut self, kind: FaultKind, n: usize) {
        if n > 0 {
            *self.injected.entry(kind.label()).or_insert(0) += n;
        }
    }
}

/// A seeded, composable corruptor of data sets.
///
/// Faults are applied in [`ALL_FAULT_KINDS`] order regardless of the
/// order of [`FaultInjector::with`] calls, each over the output of the
/// previous one, with an RNG stream derived from
/// `(seed, kind, stream/instance position)` — so adding one fault kind
/// never perturbs the randomness of another.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    rates: BTreeMap<FaultKind, f64>,
}

impl FaultInjector {
    /// Creates an injector with no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            rates: BTreeMap::new(),
        }
    }

    /// Adds (or overrides) one fault kind at the given per-item rate in
    /// `[0, 1]`. A rate of 0 disables the kind.
    pub fn with(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates.insert(kind, rate.clamp(0.0, 1.0));
        self
    }

    /// Convenience: every fault kind at the same rate ε.
    pub fn with_all(self, rate: f64) -> Self {
        ALL_FAULT_KINDS
            .into_iter()
            .fold(self, |inj, kind| inj.with(kind, rate))
    }

    /// Applies the configured faults to a copy of `clean`, returning
    /// the corrupted data set and the per-kind injection counts.
    ///
    /// Each output stream is built once: a copy of the clean stream's
    /// events, to which every configured stream-scoped kind is applied
    /// in turn. Each kind reads only its own stream and RNG, and the
    /// instance-scoped kind only the stream count, so this is the same
    /// as applying each kind over all streams before the next.
    pub fn inject(&self, clean: &Dataset) -> (Dataset, FaultLog) {
        let mut log = FaultLog::default();
        let configured = |kind: FaultKind| {
            let rate = self.rates.get(&kind).copied().unwrap_or(0.0);
            (rate > 0.0).then_some((kind, rate))
        };
        let stream_kinds: Vec<(FaultKind, f64)> = ALL_FAULT_KINDS
            .into_iter()
            .filter(|&kind| kind != FaultKind::DanglingInstanceRefs)
            .filter_map(configured)
            .collect();
        let stack_count = clean.stacks.len() as u32;
        let mut scratch = Vec::new();
        let streams = clean
            .streams
            .iter()
            .map(|stream| {
                let mut events = stream.events().to_vec();
                for &(kind, rate) in &stream_kinds {
                    let mut rng = Rng::for_item(self.seed, kind, stream.id().0);
                    let n = corrupt_events(
                        &mut events,
                        kind,
                        rate,
                        stack_count,
                        &mut rng,
                        &mut scratch,
                    );
                    log.add(kind, n);
                }
                TraceStream::from_unchecked_parts(stream.id(), events)
            })
            .collect();
        let mut ds = Dataset {
            streams,
            instances: clean.instances.clone(),
            stacks: clean.stacks.clone(),
            scenarios: clean.scenarios.clone(),
        };
        if let Some((kind, rate)) = configured(FaultKind::DanglingInstanceRefs) {
            let bogus_base = ds.streams.len() as u32;
            let mut rng = Rng::for_item(self.seed, kind, 0);
            let mut n = 0;
            for (offset, instance) in ds.instances.iter_mut().enumerate() {
                if rng.chance(rate) {
                    instance.trace = TraceId(bogus_base + 1 + offset as u32);
                    n += 1;
                }
            }
            log.add(kind, n);
        }
        (ds, log)
    }
}

/// Applies one stream-scoped fault kind to a stream's `events` in place,
/// returning how many faults it injected. The kinds that insert events
/// rebuild `events` from `scratch`, which keeps its buffer for the next.
fn corrupt_events(
    events: &mut Vec<Event>,
    kind: FaultKind,
    rate: f64,
    stack_count: u32,
    rng: &mut Rng,
    scratch: &mut Vec<Event>,
) -> usize {
    let mut n = 0;
    match kind {
        FaultKind::DropUnwaits => events.retain(|e| {
            let drop = e.kind == EventKind::Unwait && rng.chance(rate);
            n += drop as usize;
            !drop
        }),
        FaultKind::TruncateStreams => {
            let (start, end) = (stream_start(events), stream_end(events));
            if !events.is_empty() && end > start && rng.chance(rate) {
                n = 1;
                let cut = TimeNs(rng.in_range(start.0 + 1, end.0));
                events.retain(|e| e.t < cut);
            }
        }
        FaultKind::DuplicateEvents => {
            for &e in take_into(events, scratch) {
                events.push(e);
                if rng.chance(rate) {
                    events.push(e);
                    n += 1;
                }
            }
        }
        FaultKind::ClockSkew => {
            for e in events.iter_mut() {
                if rng.chance(rate) {
                    let skew = rng.in_range(1, SAMPLE_INTERVAL.0);
                    e.t = if rng.chance(0.5) {
                        TimeNs(e.t.0.saturating_sub(skew))
                    } else {
                        TimeNs(e.t.0.saturating_add(skew))
                    };
                    n += 1;
                }
            }
        }
        FaultKind::DanglingStacks => {
            for e in events.iter_mut() {
                if rng.chance(rate) {
                    e.stack = StackId(stack_count + 1 + rng.in_range(0, 1 << 16) as u32);
                    n += 1;
                }
            }
        }
        FaultKind::OrphanWaits => {
            let ghost_base = events.iter().map(|e| e.tid.0).max().unwrap_or(0) + 1_000;
            for &e in take_into(events, scratch) {
                if rng.chance(rate) {
                    events.push(Event {
                        kind: EventKind::Wait,
                        tid: ThreadId(ghost_base + n as u32),
                        pid: e.pid,
                        t: e.t,
                        cost: TimeNs::ZERO,
                        stack: e.stack,
                        wtid: None,
                    });
                    n += 1;
                }
                events.push(e);
            }
        }
        FaultKind::DanglingInstanceRefs => unreachable!("instance-scoped"),
    }
    n
}

/// Moves `events` into `scratch` and returns them, leaving `events`
/// empty with room for as many.
fn take_into<'a>(events: &mut Vec<Event>, scratch: &'a mut Vec<Event>) -> &'a [Event] {
    std::mem::swap(events, scratch);
    events.clear();
    events.reserve(scratch.len());
    scratch
}

fn stream_start(events: &[Event]) -> TimeNs {
    events.first().map(|e| e.t).unwrap_or(TimeNs::ZERO)
}

fn stream_end(events: &[Event]) -> TimeNs {
    events.iter().map(Event::end).max().unwrap_or(TimeNs::ZERO)
}

/// SplitMix64: tiny, seedable, and good enough for Bernoulli trials.
/// Hand-rolled so the crate stays dependency-free and injection stays
/// bit-stable across toolchains.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// Derives an independent stream for `(seed, kind, item)` so faults
    /// compose without perturbing each other's randomness.
    fn for_item(seed: u64, kind: FaultKind, item: u32) -> Rng {
        let mut mix = Rng(seed ^ (kind.index().wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let a = mix.next_u64();
        Rng(a ^ (u64::from(item).wrapping_mul(0xBF58_476D_1CE4_E5B9)))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform integer in `[lo, hi]` (inclusive); `lo` when degenerate.
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::DatasetBuilder;

    fn clean() -> Dataset {
        DatasetBuilder::new(3).traces(6).build()
    }

    #[test]
    fn injection_is_deterministic() {
        let ds = clean();
        let inj = FaultInjector::new(42).with_all(0.05);
        let (a, log_a) = inj.inject(&ds);
        let (b, log_b) = inj.inject(&ds);
        assert_eq!(log_a, log_b);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.write_text(&mut ba).unwrap();
        b.write_text(&mut bb).unwrap();
        assert_eq!(ba, bb);
    }

    #[test]
    fn zero_rate_is_identity() {
        let ds = clean();
        let (out, log) = FaultInjector::new(1).with_all(0.0).inject(&ds);
        assert_eq!(log.total(), 0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ds.write_text(&mut a).unwrap();
        out.write_text(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drop_unwaits_removes_only_unwaits() {
        let ds = clean();
        let (out, log) = FaultInjector::new(7)
            .with(FaultKind::DropUnwaits, 0.5)
            .inject(&ds);
        let count = |d: &Dataset, k: EventKind| {
            d.streams
                .iter()
                .flat_map(|s| s.events())
                .filter(|e| e.kind == k)
                .count()
        };
        let dropped = count(&ds, EventKind::Unwait) - count(&out, EventKind::Unwait);
        assert_eq!(dropped, log.injected(FaultKind::DropUnwaits));
        assert!(dropped > 0);
        assert_eq!(
            count(&ds, EventKind::Running),
            count(&out, EventKind::Running)
        );
    }

    #[test]
    fn truncation_drops_a_suffix() {
        let ds = clean();
        let (out, log) = FaultInjector::new(5)
            .with(FaultKind::TruncateStreams, 1.0)
            .inject(&ds);
        assert_eq!(log.injected(FaultKind::TruncateStreams), ds.streams.len());
        assert!(out.total_events() < ds.total_events());
        for (a, b) in ds.streams.iter().zip(&out.streams) {
            // The kept prefix is unchanged.
            assert_eq!(&a.events()[..b.len()], b.events());
        }
    }

    #[test]
    fn duplicates_inflate_event_count() {
        let ds = clean();
        let (out, log) = FaultInjector::new(9)
            .with(FaultKind::DuplicateEvents, 0.2)
            .inject(&ds);
        let n = log.injected(FaultKind::DuplicateEvents);
        assert!(n > 0);
        assert_eq!(out.total_events(), ds.total_events() + n);
        // Duplication keeps streams sorted: it inserts at equal t.
        for s in &out.streams {
            assert!(s.events().windows(2).all(|w| w[0].t <= w[1].t));
        }
    }

    #[test]
    fn clock_skew_unsorts_streams() {
        let ds = clean();
        let (out, log) = FaultInjector::new(11)
            .with(FaultKind::ClockSkew, 0.3)
            .inject(&ds);
        assert!(log.injected(FaultKind::ClockSkew) > 0);
        let unsorted = out
            .streams
            .iter()
            .any(|s| s.events().windows(2).any(|w| w[1].t < w[0].t));
        assert!(unsorted, "expected at least one unsorted stream");
        assert_eq!(out.total_events(), ds.total_events());
    }

    #[test]
    fn dangling_stacks_are_out_of_range() {
        let ds = clean();
        let (out, log) = FaultInjector::new(13)
            .with(FaultKind::DanglingStacks, 0.1)
            .inject(&ds);
        let n = out
            .streams
            .iter()
            .flat_map(|s| s.events())
            .filter(|e| e.stack.0 as usize >= out.stacks.len())
            .count();
        assert_eq!(n, log.injected(FaultKind::DanglingStacks));
        assert!(n > 0);
    }

    #[test]
    fn orphan_waits_use_ghost_threads() {
        let ds = clean();
        let (out, log) = FaultInjector::new(17)
            .with(FaultKind::OrphanWaits, 0.1)
            .inject(&ds);
        let n = log.injected(FaultKind::OrphanWaits);
        assert!(n > 0);
        assert_eq!(out.total_events(), ds.total_events() + n);
        // Ghost waits are never woken: no unwait targets their thread.
        for s in &out.streams {
            let ghosts: Vec<ThreadId> = s
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::Wait && e.tid.0 >= 1_000)
                .map(|e| e.tid)
                .collect();
            for g in ghosts {
                assert!(!s.events().iter().any(|e| e.wtid == Some(g)));
            }
        }
    }

    #[test]
    fn dangling_instance_refs_point_nowhere() {
        let ds = clean();
        let (out, log) = FaultInjector::new(19)
            .with(FaultKind::DanglingInstanceRefs, 0.3)
            .inject(&ds);
        let n = out
            .instances
            .iter()
            .filter(|i| i.trace.0 as usize >= out.streams.len())
            .count();
        assert_eq!(n, log.injected(FaultKind::DanglingInstanceRefs));
        assert!(n > 0);
    }

    #[test]
    fn sanitize_recovers_every_kind() {
        let ds = clean();
        for kind in ALL_FAULT_KINDS {
            let (corrupt, _) = FaultInjector::new(23).with(kind, 0.2).inject(&ds);
            let (repaired, _) = corrupt.sanitize();
            assert!(
                repaired.validate().is_ok(),
                "{}: sanitize output must validate",
                kind.label()
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<&str> =
            ALL_FAULT_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ALL_FAULT_KINDS.len());
    }
}
