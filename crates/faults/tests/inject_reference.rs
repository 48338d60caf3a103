//! `FaultInjector::inject` builds each output stream once, applying every
//! configured stream-scoped kind to one copy of its events. This test
//! keeps the injector it replaced, which cloned the data set and then
//! copied every stream again for each kind, as a reference, and checks
//! that both give the same data set and the same `FaultLog` over random
//! seeds, rates (0 and 1 among them) and subsets of the kinds, and on
//! thread ids near `u32::MAX`, where the two builds part ways.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tracelens_faults::{FaultInjector, FaultKind, FaultLog, ALL_FAULT_KINDS};
use tracelens_model::{
    Dataset, Event, EventKind, StackId, ThreadId, TimeNs, TraceId, TraceStream, SAMPLE_INTERVAL,
};
use tracelens_sim::{DatasetBuilder, ScenarioMix};

/// The injector as it was before it built each stream once.
struct Reference {
    seed: u64,
    rates: BTreeMap<FaultKind, f64>,
}

fn add(log: &mut FaultLog, kind: FaultKind, n: usize) {
    if n > 0 {
        *log.injected.entry(kind.label()).or_insert(0) += n;
    }
}

impl Reference {
    fn inject(&self, clean: &Dataset) -> (Dataset, FaultLog) {
        let mut ds = clean.clone();
        let mut log = FaultLog::default();
        for kind in ALL_FAULT_KINDS {
            let rate = self.rates.get(&kind).copied().unwrap_or(0.0);
            if rate <= 0.0 {
                continue;
            }
            self.apply(&mut ds, kind, rate, &mut log);
        }
        (ds, log)
    }

    fn apply(&self, ds: &mut Dataset, kind: FaultKind, rate: f64, log: &mut FaultLog) {
        match kind {
            FaultKind::DanglingInstanceRefs => {
                let bogus_base = ds.streams.len() as u32;
                let mut rng = Rng::for_item(self.seed, kind, 0);
                let mut n = 0;
                for (offset, instance) in ds.instances.iter_mut().enumerate() {
                    if rng.chance(rate) {
                        instance.trace = TraceId(bogus_base + 1 + offset as u32);
                        n += 1;
                    }
                }
                add(log, kind, n);
            }
            _ => {
                let streams = std::mem::take(&mut ds.streams);
                let stack_count = ds.stacks.len() as u32;
                ds.streams = streams
                    .into_iter()
                    .map(|stream| {
                        let mut rng = Rng::for_item(self.seed, kind, stream.id().0);
                        let (stream, n) = corrupt_stream(stream, kind, rate, stack_count, &mut rng);
                        add(log, kind, n);
                        stream
                    })
                    .collect();
            }
        }
    }
}

fn corrupt_stream(
    stream: TraceStream,
    kind: FaultKind,
    rate: f64,
    stack_count: u32,
    rng: &mut Rng,
) -> (TraceStream, usize) {
    let id = stream.id();
    let events = stream.events().to_vec();
    let mut n = 0;
    let out: Vec<Event> = match kind {
        FaultKind::DropUnwaits => events
            .into_iter()
            .filter(|e| {
                let drop = e.kind == EventKind::Unwait && rng.chance(rate);
                n += drop as usize;
                !drop
            })
            .collect(),
        FaultKind::TruncateStreams => {
            let (start, end) = (stream_start(&events), stream_end(&events));
            if !events.is_empty() && end > start && rng.chance(rate) {
                n = 1;
                let cut = TimeNs(rng.in_range(start.0 + 1, end.0));
                events.into_iter().filter(|e| e.t < cut).collect()
            } else {
                events
            }
        }
        FaultKind::DuplicateEvents => {
            let mut out = Vec::with_capacity(events.len());
            for e in events {
                out.push(e);
                if rng.chance(rate) {
                    out.push(e);
                    n += 1;
                }
            }
            out
        }
        FaultKind::ClockSkew => events
            .into_iter()
            .map(|mut e| {
                if rng.chance(rate) {
                    let skew = rng.in_range(1, SAMPLE_INTERVAL.0);
                    e.t = if rng.chance(0.5) {
                        TimeNs(e.t.0.saturating_sub(skew))
                    } else {
                        TimeNs(e.t.0.saturating_add(skew))
                    };
                    n += 1;
                }
                e
            })
            .collect(),
        FaultKind::DanglingStacks => events
            .into_iter()
            .map(|mut e| {
                if rng.chance(rate) {
                    e.stack = StackId(stack_count + 1 + rng.in_range(0, 1 << 16) as u32);
                    n += 1;
                }
                e
            })
            .collect(),
        FaultKind::OrphanWaits => {
            let ghost_base = events.iter().map(|e| e.tid.0).max().unwrap_or(0) + 1_000;
            let mut out = Vec::with_capacity(events.len());
            for e in events {
                if rng.chance(rate) {
                    out.push(Event {
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
                out.push(e);
            }
            out
        }
        FaultKind::DanglingInstanceRefs => unreachable!("instance-scoped"),
    };
    (TraceStream::from_unchecked_parts(id, out), n)
}

fn stream_start(events: &[Event]) -> TimeNs {
    events.first().map(|e| e.t).unwrap_or(TimeNs::ZERO)
}

fn stream_end(events: &[Event]) -> TimeNs {
    events.iter().map(Event::end).max().unwrap_or(TimeNs::ZERO)
}

/// The injector's SplitMix64, as it derives one stream per
/// `(seed, kind, item)`.
struct Rng(u64);

impl Rng {
    fn for_item(seed: u64, kind: FaultKind, item: u32) -> Rng {
        let index = ALL_FAULT_KINDS.iter().position(|&k| k == kind).unwrap() as u64;
        let mut mix = Rng(seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
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

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The injector and the reference configured alike, with one
/// `(mode, per_mille)` per fault kind: mode 0 leaves the kind out, 1
/// configures it at rate 0, 2 at rate 1 and 3 at `per_mille / 1000`.
fn configure(seed: u64, kinds: &[(u8, u32)]) -> (FaultInjector, Reference) {
    let mut injector = FaultInjector::new(seed);
    let mut reference = Reference {
        seed,
        rates: BTreeMap::new(),
    };
    for (&kind, &(mode, per_mille)) in ALL_FAULT_KINDS.iter().zip(kinds) {
        let rate = match mode {
            0 => continue,
            1 => 0.0,
            2 => 1.0,
            _ => f64::from(per_mille) / 1000.0,
        };
        injector = injector.with(kind, rate);
        reference.rates.insert(kind, rate);
    }
    (injector, reference)
}

/// Checks the injector against the reference on `clean`, configured as
/// [`configure`] reads `kinds`.
fn check(clean: &Dataset, seed: u64, kinds: &[(u8, u32)]) -> Result<(), TestCaseError> {
    let (injector, reference) = configure(seed, kinds);
    same(injector.inject(clean), reference.inject(clean))
}

/// Checks that two injection results are the same data set and log.
fn same(
    (got, got_log): (Dataset, FaultLog),
    (want, want_log): (Dataset, FaultLog),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got_log, want_log);
    prop_assert_eq!(got.streams.len(), want.streams.len());
    for (a, b) in got.streams.iter().zip(&want.streams) {
        prop_assert_eq!(a.id(), b.id());
        prop_assert_eq!(a.events(), b.events(), "events of {:?}", a.id());
    }
    prop_assert_eq!(got.instances, want.instances);
    prop_assert_eq!(got.scenarios, want.scenarios);
    prop_assert_eq!(got.stacks.len(), want.stacks.len());
    Ok(())
}

fn kind_settings() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..4, 1u32..1000), ALL_FAULT_KINDS.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builds_each_stream_once_with_the_reference_result(
        seed in 0u64..100_000,
        selected in 0u8..2,
        kinds in kind_settings(),
    ) {
        let mix = if selected == 1 { ScenarioMix::Selected } else { ScenarioMix::Full };
        let clean = DatasetBuilder::new(seed).traces(3).mix(mix).build();
        check(&clean, seed, &kinds)?;
    }
}

#[test]
fn every_kind_alone_and_all_together_match_the_reference() {
    let clean = DatasetBuilder::new(2014).traces(4).build();
    for mode in 1..4 {
        for k in 0..ALL_FAULT_KINDS.len() {
            let mut kinds = vec![(0, 0); ALL_FAULT_KINDS.len()];
            kinds[k] = (mode, 150);
            check(&clean, 9, &kinds).unwrap();
        }
        check(&clean, 9, &vec![(mode, 20); ALL_FAULT_KINDS.len()]).unwrap();
    }
}

/// `clean` with every thread id moved up by one amount, so that the
/// largest becomes `top`.
fn tids_up_to(clean: &Dataset, top: u32) -> Dataset {
    let max = clean
        .streams
        .iter()
        .flat_map(|s| s.events())
        .map(|e| e.tid.0)
        .max()
        .unwrap();
    let shift = top - max;
    let up = |tid: ThreadId| ThreadId(tid.0 + shift);
    let streams = clean
        .streams
        .iter()
        .map(|s| {
            let events = s
                .events()
                .iter()
                .map(|&e| Event {
                    tid: up(e.tid),
                    wtid: e.wtid.map(up),
                    ..e
                })
                .collect();
            TraceStream::from_unchecked_parts(s.id(), events)
        })
        .collect();
    let mut instances = clean.instances.clone();
    for instance in &mut instances {
        instance.tid = up(instance.tid);
    }
    Dataset {
        streams,
        instances,
        stacks: clean.stacks.clone(),
        scenarios: clean.scenarios.clone(),
    }
}

/// OrphanWaits numbers a stream's ghost threads up from its largest
/// thread id plus 1,000, in `u32`. With the largest id at
/// `u32::MAX - 1_001` the third ghost passes `u32::MAX`: a debug build
/// panics on the addition, and a release build, which is what the
/// benchmark injects with, wraps it. In either build the injector must
/// do what the reference does.
#[test]
fn ghost_threads_past_u32_max_match_the_reference() {
    let clean = tids_up_to(
        &DatasetBuilder::new(2014).traces(3).build(),
        u32::MAX - 1_001,
    );
    let lowest = |ds: &Dataset| {
        let events = ds.streams.iter().flat_map(|s| s.events());
        events.map(|e| e.tid.0).min().unwrap()
    };
    let orphans_only = ALL_FAULT_KINDS
        .iter()
        .map(|&kind| {
            if kind == FaultKind::OrphanWaits {
                (2, 0)
            } else {
                (0, 0)
            }
        })
        .collect();
    for kinds in [orphans_only, vec![(3, 300); ALL_FAULT_KINDS.len()]] {
        let (injector, reference) = configure(5, &kinds);
        let got = catch_unwind(AssertUnwindSafe(|| injector.inject(&clean)));
        let want = catch_unwind(AssertUnwindSafe(|| reference.inject(&clean)));
        if cfg!(debug_assertions) {
            assert!(
                got.is_err() && want.is_err(),
                "both overflow-check the ghost ids"
            );
            continue;
        }
        let (got, want) = (got.unwrap(), want.unwrap());
        assert!(
            lowest(&want.0) < lowest(&clean),
            "a ghost id wraps past u32::MAX"
        );
        same(got, want).unwrap();
    }
}
