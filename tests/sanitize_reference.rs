//! `Dataset::sanitize` repairs its input in place. This keeps the
//! copying implementation it replaced as a reference, and checks that
//! both give the same data set, byte for byte as text, and the same
//! report, field for field: on fault-injected corpora (every fault
//! kind, plus a duplicate trace id and a stray woken-thread id, which
//! no fault kind makes) and on hand-built ones with duplicate, sparse
//! and unsorted trace ids, stray and missing unwait targets and
//! dangling stacks.
//!
//! It also pins what a streamed `report --sanitize` of text relies on:
//! on any data set the text parser accepts, sanitize repairs and
//! quarantines no stream, and only two instance rules can fire.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tracelens::model::{
    Event, EventKind, ScenarioInstance, StackId, ThreadId, TraceId, DUPLICATE_TRACE_ID,
};
use tracelens::prelude::*;

/// The copying sanitize `Dataset::sanitize` replaced: it reads the
/// input and builds the clean data set from copies.
fn reference_sanitize(ds: &Dataset) -> (Dataset, SanitizeReport) {
    let mut report = SanitizeReport {
        input_traces: ds.streams.len(),
        input_instances: ds.instances.len(),
        input_events: ds.total_events(),
        ..SanitizeReport::default()
    };
    for (position, stream) in ds.streams.iter().enumerate() {
        if stream.id().0 as usize != position {
            *report.violations.entry("stream_id_mismatch").or_insert(0) += 1;
        }
    }
    let mut by_raw_id: BTreeMap<u32, &TraceStream> = BTreeMap::new();
    for stream in &ds.streams {
        if by_raw_id.insert(stream.id().0, stream).is_some() {
            *report.violations.entry(DUPLICATE_TRACE_ID).or_insert(0) += 1;
            report.quarantined_traces += 1;
            report.lost_events += stream.len();
        }
    }
    by_raw_id.clear();
    for stream in &ds.streams {
        by_raw_id.entry(stream.id().0).or_insert(stream);
    }

    let mut id_map: BTreeMap<u32, TraceId> = BTreeMap::new();
    let mut streams = Vec::with_capacity(by_raw_id.len());
    for (dense, (&raw, stream)) in by_raw_id.iter().enumerate() {
        let new_id = TraceId(dense as u32);
        if raw as usize != dense {
            report.remapped_traces += 1;
        }
        id_map.insert(raw, new_id);
        streams.push(reference_stream(stream, new_id, &mut report, ds));
    }

    let mut instances = Vec::with_capacity(ds.instances.len());
    for instance in &ds.instances {
        let Some(&trace) = id_map.get(&instance.trace.0) else {
            *report
                .violations
                .entry("instance_without_stream")
                .or_insert(0) += 1;
            report.quarantined_instances += 1;
            continue;
        };
        if ds.scenario(&instance.scenario).is_none() {
            *report
                .violations
                .entry("instance_unknown_scenario")
                .or_insert(0) += 1;
            report.quarantined_instances += 1;
            continue;
        }
        let mut instance = instance.clone();
        instance.trace = trace;
        if instance.t1 < instance.t0 {
            *report
                .violations
                .entry("instance_negative_span")
                .or_insert(0) += 1;
            report.clamped_instances += 1;
            instance.t1 = instance.t0;
        }
        instances.push(instance);
    }

    let clean = Dataset {
        streams,
        instances,
        stacks: ds.stacks.clone(),
        scenarios: ds.scenarios.clone(),
    };
    (clean, report)
}

fn reference_stream(
    stream: &TraceStream,
    new_id: TraceId,
    report: &mut SanitizeReport,
    ds: &Dataset,
) -> TraceStream {
    let mut events: Vec<Event> = Vec::with_capacity(stream.len());
    for e in stream.events() {
        let mut e = *e;
        let dangling_stack =
            ds.stacks.frames(e.stack).is_empty() && ds.stacks.len() <= e.stack.0 as usize;
        if dangling_stack {
            *report.violations.entry("unknown_stack").or_insert(0) += 1;
            report.dropped_events += 1;
            report.lost_events += 1;
            continue;
        }
        match e.kind {
            EventKind::Unwait => {
                if e.wtid.is_none() || e.wtid == Some(e.tid) {
                    *report.violations.entry("malformed_unwait").or_insert(0) += 1;
                    report.dropped_events += 1;
                    report.lost_events += 1;
                    continue;
                }
            }
            _ => {
                if e.wtid.is_some() {
                    *report.violations.entry("malformed_unwait").or_insert(0) += 1;
                    report.stripped_targets += 1;
                    e.wtid = None;
                }
            }
        }
        events.push(e);
    }
    if events.windows(2).any(|w| w[1].t < w[0].t) {
        *report.violations.entry("unsorted_events").or_insert(0) += 1;
        report.resorted_streams += 1;
        events.sort_by_key(|e| e.t);
    }
    TraceStream::from_unchecked_parts(new_id, events)
}

fn text(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

/// In-place and reference sanitize agree on `ds`.
fn agree(ds: &Dataset) -> Result<(), TestCaseError> {
    let (want, want_report) = reference_sanitize(ds);
    let (got, got_report) = ds.clone().sanitize();
    prop_assert_eq!(&got_report, &want_report);
    prop_assert!(text(&got) == text(&want), "sanitized data sets differ");
    Ok(())
}

/// The instance rules text can trigger: the parser refuses a negative
/// span, so only a missing stream and an undefined scenario remain.
const TEXT_INSTANCE_RULES: [&str; 2] = ["instance_without_stream", "instance_unknown_scenario"];

/// `ds` written as text and read back, when the parser accepts it, and
/// then sanitized: the parser sealed every stream sorted, with
/// well-targeted unwaits and declared stacks, under dense ids, so
/// sanitize re-sorts, renumbers, drops, strips, clamps and quarantines
/// nothing of a stream, and only the text instance rules fire.
fn parsed_text_needs_only_the_instance_rules(ds: &Dataset) -> Result<(), TestCaseError> {
    let Ok(parsed) = Dataset::read_text_bytes(&text(ds)) else {
        return Ok(());
    };
    let (clean, report) = parsed.clone().sanitize();
    let stream_repairs = [
        report.resorted_streams,
        report.remapped_traces,
        report.dropped_events,
        report.stripped_targets,
        report.clamped_instances,
        report.quarantined_traces,
        report.lost_events,
    ];
    prop_assert_eq!(stream_repairs, [0; 7], "{:?}", report);
    for kind in report.violations.keys() {
        prop_assert!(TEXT_INSTANCE_RULES.contains(kind), "{:?}", report);
    }
    let mut kept = parsed;
    kept.instances = clean.instances.clone();
    prop_assert!(
        text(&clean) == text(&kept),
        "sanitize changed more than the instances"
    );
    Ok(())
}

/// `ds` with two instances of an undefined scenario: one on its first
/// trace and one on a trace with no stream.
fn with_undefined_scenarios(mut ds: Dataset) -> Dataset {
    let missing = TraceId(ds.streams.len() as u32 + 2);
    for (k, trace) in [TraceId(0), missing].into_iter().enumerate() {
        if let Some(instance) = ds.instances.get(k) {
            let stray = ScenarioInstance {
                trace,
                scenario: ScenarioName::new("Undefined"),
                ..instance.clone()
            };
            ds.instances.push(stray);
        }
    }
    ds
}

/// How one event of a hand-built corpus is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// A woken-thread id on any event: stray on a non-unwait, a new
    /// target on an unwait.
    Target,
    /// No woken-thread id: an unwait without a target.
    NoTarget,
    /// The event's own thread as its target: a self-unwait.
    SelfTarget,
    /// A stack id past the stack table.
    DanglingStack,
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Target),
        Just(Damage::NoTarget),
        Just(Damage::SelfTarget),
        Just(Damage::DanglingStack),
    ]
}

/// A corpus assembled from the streams of `base`: each `(source, raw
/// id, reversed)` becomes a stream with that raw id and the source's
/// events, reversed if asked; instance `k` of `base` points at raw id
/// `refs[k % refs.len()]`; each `(stream, event, damage)` damages one
/// event.
fn hand_built(
    base: &Dataset,
    streams: &[(usize, u32, bool)],
    refs: &[u32],
    damages: &[(usize, usize, Damage)],
) -> Dataset {
    let mut ds = Dataset {
        streams: Vec::new(),
        instances: base.instances.clone(),
        stacks: base.stacks.clone(),
        scenarios: base.scenarios.clone(),
    };
    let mut built: Vec<(u32, Vec<Event>)> = streams
        .iter()
        .map(|&(source, raw, reversed)| {
            let mut events = base.streams[source % base.streams.len()].events().to_vec();
            if reversed {
                events.reverse();
            }
            (raw, events)
        })
        .collect();
    let count = built.len();
    for &(s, e, how) in damages {
        let (_, events) = &mut built[s % count];
        if events.is_empty() {
            continue;
        }
        let len = events.len();
        let event = &mut events[e % len];
        match how {
            Damage::Target => event.wtid = Some(ThreadId(event.tid.0 + 1)),
            Damage::NoTarget => event.wtid = None,
            Damage::SelfTarget => event.wtid = Some(event.tid),
            Damage::DanglingStack => event.stack = StackId(u32::MAX - 1),
        }
    }
    ds.streams = built
        .into_iter()
        .map(|(raw, events)| TraceStream::from_unchecked_parts(TraceId(raw), events))
        .collect();
    for (k, instance) in ds.instances.iter_mut().enumerate() {
        instance.trace = TraceId(refs[k % refs.len()]);
    }
    ds
}

/// `ds` with the two corruptions no fault kind makes: its last stream
/// takes the trace id of an earlier one (picked by `seed`), and one
/// non-unwait event of its first stream (picked by `seed`) gets a
/// woken-thread id.
fn with_duplicate_and_stray(mut ds: Dataset, seed: u64) -> Dataset {
    let pick = |n: usize| seed as usize % n;
    if ds.streams.len() >= 2 {
        let last = ds.streams.pop().expect("two streams");
        let id = ds.streams[pick(ds.streams.len())].id();
        ds.streams.push(TraceStream::from_unchecked_parts(
            id,
            last.events().to_vec(),
        ));
    }
    if let Some(first) = ds.streams.first_mut() {
        let mut events = first.events().to_vec();
        let targets: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind != EventKind::Unwait)
            .collect();
        if !targets.is_empty() {
            let e = &mut events[targets[pick(targets.len())]];
            e.wtid = Some(ThreadId(e.tid.0 + 1));
        }
        *first = TraceStream::from_unchecked_parts(first.id(), events);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fault kind on its own, and all of them together, at rates
    /// from 0 to 0.3, each with a duplicate trace id and a stray
    /// woken-thread id on top.
    #[test]
    fn in_place_sanitize_matches_the_reference_on_injected_faults(
        seed in 0u64..10_000,
        rate_milli in 0u32..=300,
    ) {
        let clean = DatasetBuilder::new(seed).traces(3).build();
        let rate = f64::from(rate_milli) / 1000.0;
        for kind in ALL_FAULT_KINDS {
            let (corrupt, _) = FaultInjector::new(seed).with(kind, rate).inject(&clean);
            agree(&with_duplicate_and_stray(corrupt, seed))?;
        }
        let (corrupt, _) = FaultInjector::new(seed).with_all(rate).inject(&clean);
        agree(&with_duplicate_and_stray(corrupt, seed))?;
    }

    /// Every fault kind on its own, and all of them together, at rates
    /// from 0 to 0.3, with instances of an undefined scenario on top,
    /// written as text and read back.
    #[test]
    fn parsed_text_leaves_sanitize_only_the_instance_rules(
        seed in 0u64..10_000,
        rate_milli in 0u32..=300,
    ) {
        let clean = DatasetBuilder::new(seed).traces(3).build();
        let rate = f64::from(rate_milli) / 1000.0;
        for kind in ALL_FAULT_KINDS {
            let (corrupt, _) = FaultInjector::new(seed).with(kind, rate).inject(&clean);
            parsed_text_needs_only_the_instance_rules(&with_undefined_scenarios(corrupt))?;
        }
        let (corrupt, _) = FaultInjector::new(seed).with_all(rate).inject(&clean);
        parsed_text_needs_only_the_instance_rules(&with_undefined_scenarios(corrupt))?;
    }

    /// Duplicate, sparse and unsorted trace ids, unsorted events,
    /// dangling instance references and damaged events.
    #[test]
    fn in_place_sanitize_matches_the_reference_on_hand_built_corpora(
        seed in 0u64..10_000,
        streams in prop::collection::vec((0usize..4, 0u32..8, any::<bool>()), 1..8),
        refs in prop::collection::vec(0u32..10, 1..6),
        damages in prop::collection::vec((0usize..8, 0usize..1000, damage()), 0..8),
    ) {
        let base = DatasetBuilder::new(seed).traces(4).build();
        agree(&hand_built(&base, &streams, &refs, &damages))?;
    }
}

#[test]
fn hand_built_corpora_reach_every_repair() {
    // The shapes the property above draws from do exercise what they
    // claim: a duplicate id whose streams differ, a sparse id, unsorted
    // events, and each kind of damaged event.
    let base = DatasetBuilder::new(5).traces(4).build();
    let ds = hand_built(
        &base,
        &[(0, 3, true), (1, 3, false), (2, 6, false)],
        &[3, 6, 9],
        &[
            (0, 1, Damage::Target),
            (1, 2, Damage::DanglingStack),
            (2, 3, Damage::SelfTarget),
            (2, 4, Damage::NoTarget),
        ],
    );
    let (clean, report) = reference_sanitize(&ds);
    assert_eq!(report.violations[DUPLICATE_TRACE_ID], 1);
    assert_eq!(report.remapped_traces, 2);
    assert_eq!(report.resorted_streams, 1);
    assert!(report.quarantined_instances > 0);
    assert_eq!(
        report.violations["instance_without_stream"],
        report.quarantined_instances
    );
    assert!(report.stripped_targets + report.dropped_events > 0);
    // The first stream with id 3 survives, whole: its one damage only
    // retargets or strips.
    assert_ne!(base.streams[0].len(), base.streams[1].len());
    assert_eq!(clean.streams[0].len(), base.streams[0].len());
    agree(&ds).unwrap();
}

#[test]
fn parsed_text_reaches_both_instance_rules() {
    // The inputs the text property draws from do fire both rules, and
    // carry unsorted streams for the parser to seal.
    let clean = DatasetBuilder::new(5).traces(3).build();
    let (corrupt, log) = FaultInjector::new(5)
        .with(FaultKind::DanglingInstanceRefs, 0.3)
        .with(FaultKind::ClockSkew, 0.3)
        .inject(&clean);
    assert!(log.injected(FaultKind::DanglingInstanceRefs) > 0);
    assert!(corrupt
        .streams
        .iter()
        .any(|s| s.events().windows(2).any(|w| w[1].t < w[0].t)));
    let parsed = Dataset::read_text_bytes(&text(&with_undefined_scenarios(corrupt)))
        .expect("text without dangling stacks parses");
    let (_, report) = parsed.sanitize();
    for kind in TEXT_INSTANCE_RULES {
        assert!(
            report.violations.get(kind).is_some_and(|&n| n > 0),
            "{report:?}"
        );
    }
}
