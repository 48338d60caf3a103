//! Sealing a stream: `TraceStreamBuilder::finish` must give the order a
//! stable `sort_by_key(|e| e.t)` of the pushed events gives, element for
//! element, and the error a check of every event after the last push
//! gives. Its checks run as events are pushed and its sort is an
//! insertion pass with a linear budget, so the inputs cover what each
//! part must get right: sorted streams, clock-skew jitter, reversed
//! streams, all-equal and heavily tied timestamps (ties must keep
//! insertion order), long streams whose inversions exhaust the budget,
//! and streams with several targeting errors (the first must win).

use proptest::prelude::*;
use tracelens_model::{
    Event, EventKind, ProcessId, StackId, StreamError, ThreadId, TimeNs, TraceStreamBuilder,
};

/// A small deterministic generator (SplitMix64), so one drawn seed
/// makes a whole stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The shapes of timestamp sequence a stream is drawn from.
const SHAPES: u8 = 7;

/// `len` timestamps of shape `shape`.
fn stamps(shape: u8, len: usize, mix: &mut Mix) -> Vec<u64> {
    let len64 = len as u64;
    (0..len64)
        .map(|i| match shape {
            // Sorted, with repeats.
            0 => i / 3 * 10,
            // Clock skew: a third of the events jitter by up to one
            // sample interval (1000) either way.
            1 => {
                let base = 1_000_000 + i * 1000;
                if mix.below(3) == 0 {
                    base + mix.below(2001) - 1000
                } else {
                    base
                }
            }
            // Reversed.
            2 => (len64 - i) * 10,
            // All equal.
            3 => 7,
            // Heavy ties.
            4 => mix.below(4),
            // Random order: about n²/4 inversions.
            5 => mix.below(len64.max(1) * 4),
            // Reversed runs of ten with ties between runs.
            _ => (i / 10) * 5 + (9 - i % 10),
        })
        .collect()
}

/// Well-targeted events at `stamps`, each told apart by its cost (its
/// insertion index), so a reordered tie shows.
fn events(stamps: &[u64], mix: &mut Mix) -> Vec<Event> {
    stamps
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let tid = ThreadId(1 + mix.below(4) as u32);
            let kind = [
                EventKind::Running,
                EventKind::Wait,
                EventKind::Unwait,
                EventKind::HardwareService,
            ][mix.below(4) as usize];
            let wtid = (kind == EventKind::Unwait).then_some(ThreadId(tid.0 + 10));
            Event {
                kind,
                tid,
                pid: ProcessId(1),
                t: TimeNs(t),
                cost: TimeNs(i as u64),
                stack: StackId(0),
                wtid,
            }
        })
        .collect()
}

fn seal(events: &[Event]) -> Result<Vec<Event>, StreamError> {
    let mut builder = TraceStreamBuilder::new(0);
    for &e in events {
        builder.push(e);
    }
    builder.finish().map(|s| s.events().to_vec())
}

/// The targeting check `finish` made over every event before it checked
/// while pushing: the first violation in insertion order.
fn reference_error(events: &[Event]) -> Option<StreamError> {
    events
        .iter()
        .enumerate()
        .find_map(|(index, e)| match e.kind {
            EventKind::Unwait => match e.wtid {
                None => Some(StreamError::UnwaitWithoutTarget { index }),
                Some(w) if w == e.tid => Some(StreamError::SelfUnwait { index }),
                Some(_) => None,
            },
            _ => e
                .wtid
                .is_some()
                .then_some(StreamError::UnexpectedTarget { index }),
        })
}

fn sealed_order_is_the_stable_sort(events: &[Event]) -> Result<(), TestCaseError> {
    let mut want = events.to_vec();
    want.sort_by_key(|e| e.t);
    let got = seal(events).map_err(|e| TestCaseError::fail(format!("rejected: {e}")))?;
    prop_assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g, w, "event {} of {}", k, events.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sealing_matches_the_stable_sort(
        shape in 0u8..SHAPES,
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let stamps = stamps(shape, len, &mut mix);
        sealed_order_is_the_stable_sort(&events(&stamps, &mut mix))?;
    }

    /// Long streams: the reversed and random shapes run far past the
    /// insertion budget and hand over to the merge sort part way.
    #[test]
    fn sealing_past_the_budget_matches_the_stable_sort(
        shape in 0u8..SHAPES,
        len in 1_000usize..4_000,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let stamps = stamps(shape, len, &mut mix);
        sealed_order_is_the_stable_sort(&events(&stamps, &mut mix))?;
    }

    /// Some events carry a bad target, some streams several.
    #[test]
    fn sealing_reports_the_first_targeting_error(
        shape in 0u8..SHAPES,
        len in 0usize..200,
        bad in 0u64..8,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let stamps = stamps(shape, len, &mut mix);
        let mut events = events(&stamps, &mut mix);
        for _ in 0..bad {
            if events.is_empty() {
                break;
            }
            let e = &mut events[mix.below(len as u64) as usize];
            e.wtid = match mix.below(3) {
                0 => None,
                1 => Some(e.tid),
                _ => Some(ThreadId(e.tid.0 + 20)),
            };
        }
        match reference_error(&events) {
            Some(want) => prop_assert_eq!(seal(&events).unwrap_err(), want),
            None => sealed_order_is_the_stable_sort(&events)?,
        }
    }
}

#[test]
fn ties_keep_insertion_order_and_the_budget_is_reached() {
    // Each late 1 moves left past the 2, and must stop behind the 1s
    // pushed before it.
    let mut mix = Mix(1);
    let tied = events(&[2, 1, 1, 0, 1], &mut mix);
    let costs: Vec<u64> = seal(&tied).unwrap().iter().map(|e| e.cost.0).collect();
    assert_eq!(costs, [3, 1, 2, 4, 0]);
    // The budget: a reversed stream of 1,000 events holds 499,500
    // inversions, far past 1,000 + 64 moves.
    let reversed = events(&stamps(2, 1_000, &mut mix), &mut mix);
    let sealed = seal(&reversed).unwrap();
    assert!(sealed.windows(2).all(|w| w[0].t <= w[1].t));
    assert_eq!(sealed.first().map(|e| e.t), Some(TimeNs(10)));
}
