//! `Study::run_file` counts each stream a `TextReader` sealed with
//! `Validator::sealed`, which checks the stream's id and does not walk
//! its events: the parser has already sorted them, rejected any badly
//! targeted unwait and resolved every stack through the declared ones.
//! This is that premise as a test. Every stream a reader yields from
//! `write_text` output passes the full walk, `Validator::stream`, on
//! clean corpora and on corpora carrying every fault the text format
//! can carry. The validation verdict the text route reports still equals
//! `Dataset::validate` of the collected data set when the instance
//! table dangles.

use std::path::PathBuf;
use tracelens::model::textio::TextReader;
use tracelens::model::{Event, EventKind, ThreadId, TraceId, TraceStream, Validator};
use tracelens::prelude::*;

fn text_of(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

/// The fault kinds whose output parses: a dangling stack id is an
/// "undeclared stack id" parse error instead.
fn text_fault_kinds() -> Vec<FaultKind> {
    ALL_FAULT_KINDS
        .into_iter()
        .filter(|&k| k != FaultKind::DanglingStacks)
        .collect()
}

/// A woken-thread id on every `every`-th non-unwait event. The writer
/// writes it as an eighth field and the parser drops it.
fn with_stray_targets(mut ds: Dataset, every: usize) -> Dataset {
    for stream in &mut ds.streams {
        let events: Vec<Event> = stream
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| match e.kind {
                EventKind::Unwait => *e,
                _ if i % every == 0 => Event {
                    wtid: Some(ThreadId(e.tid.0.wrapping_add(1))),
                    ..*e
                },
                _ => *e,
            })
            .collect();
        *stream = TraceStream::from_unchecked_parts(stream.id(), events);
    }
    ds
}

/// Draws every stream a `TextReader` yields from `text` and walks each
/// with `Validator::stream` against the tables the reader returned.
/// Returns how many streams passed; fails at the first that does not,
/// or at any error the reader yields.
fn walk_sealed_streams(text: &[u8]) -> Result<usize, String> {
    let (tables, reader) = TextReader::new(text).map_err(|e| e.to_string())?;
    let mut validator = Validator::new(&tables);
    let mut passed = 0;
    for stream in reader {
        let stream = stream.map_err(|e| e.to_string())?;
        if !validator.stream(&stream) {
            return Err(format!("{} failed the walk", stream.id()));
        }
        passed += 1;
    }
    Ok(passed)
}

#[test]
fn every_fault_kind_alone_and_together_seals_streams_the_walk_passes() {
    let clean = DatasetBuilder::new(77)
        .traces(10)
        .mix(ScenarioMix::Full)
        .build();
    let kinds = text_fault_kinds();
    let mut plans: Vec<(String, Vec<FaultKind>)> = kinds
        .iter()
        .map(|&k| (k.label().to_owned(), vec![k]))
        .collect();
    plans.push(("every kind".to_owned(), kinds));
    for (label, plan) in &plans {
        for rate in [0.02, 0.3] {
            let injector = plan
                .iter()
                .fold(FaultInjector::new(3), |inj, &k| inj.with(k, rate));
            let (ds, _) = injector.inject(&clean);
            let ds = with_stray_targets(ds, 7);
            let streams = ds.streams.len();
            assert_eq!(
                walk_sealed_streams(&text_of(&ds)),
                Ok(streams),
                "{label} at {rate}"
            );
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Clean and fault-injected corpora of either mix, with any
        /// subset of the text-borne fault kinds at any rate up to 0.3.
        #[test]
        fn sealed_text_streams_pass_the_full_walk(
            seed in 0u64..10_000,
            traces in 1usize..6,
            full in any::<bool>(),
            mask in 0u32..64,
            percent in 0u32..=30,
            stray in 0usize..4
        ) {
            let mix = if full { ScenarioMix::Full } else { ScenarioMix::Selected };
            let rate = f64::from(percent) / 100.0;
            let clean = DatasetBuilder::new(seed).traces(traces).mix(mix).build();
            let injector = text_fault_kinds()
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .fold(FaultInjector::new(seed), |inj, (_, k)| inj.with(k, rate));
            let (ds, _) = injector.inject(&clean);
            let ds = if stray > 0 { with_stray_targets(ds, 3 * stray) } else { ds };
            let streams = ds.streams.len();
            prop_assert_eq!(walk_sealed_streams(&text_of(&ds)), Ok(streams));
        }
    }
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-sealed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn the_text_route_validates_dangling_instances_like_the_collected_data_set() {
    let dir = scratch("dangling");
    let path = dir.join("corpus.tlt");
    let clean = DatasetBuilder::new(19)
        .traces(6)
        .mix(ScenarioMix::Selected)
        .build();
    for (step, rate) in [0.0, 0.2, 0.6].into_iter().enumerate() {
        let (mut ds, _) = FaultInjector::new(19 + step as u64)
            .with(FaultKind::DanglingInstanceRefs, rate)
            .with(FaultKind::ClockSkew, rate)
            .inject(&clean);
        // One instance past the last trace and one of an undefined
        // scenario, on top of what the injector dangled.
        let mut past = ds.instances[0].clone();
        past.trace = TraceId(ds.streams.len() as u32);
        ds.instances.push(past);
        let mut undefined = ds.instances[1].clone();
        undefined.scenario = ScenarioName::new("Undefined");
        ds.instances.push(undefined);
        let text = text_of(&ds);
        std::fs::write(&path, &text).expect("write corpus");
        let want = Dataset::read_text_bytes(&text)
            .expect("the corpus parses")
            .validate();
        assert!(want.is_err(), "rate {rate}: the instances dangle");
        for sanitize in [false, true] {
            let config = StudyConfig {
                sanitize,
                ..StudyConfig::default()
            };
            let run =
                Study::run_file(&path, false, &config, &Telemetry::noop()).expect("the study runs");
            assert!(
                run.dataset.streams.is_empty(),
                "rate {rate}: the text streamed"
            );
            assert_eq!(run.validation, want, "rate {rate}, sanitize {sanitize}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
