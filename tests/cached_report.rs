//! `Study::run_file` with its cache, the route `tracelens report
//! --cache` takes, streams a warm `.tlb` through the study one stream at
//! a time and
//! falls back to the text when the cache proves corrupt, whether before
//! the study starts or part way through it (the checksum is known only
//! after the last stream). Whatever the damage, the report equals the
//! text report, the damaged cache is kept for post-mortem, and the next
//! run is served by the cache packed in its place.

use std::path::{Path, PathBuf};
use tracelens::model::binio::HEADER_LEN;
use tracelens::model::{fingerprint_bytes, BinReadError, ScenarioInstance, ThreadId, TraceId};
use tracelens::prelude::*;
use tracelens::store::{cache_path_for, quarantined_cache_path};
use tracelens::{render_markdown, FileStudy, ReportOptions};

fn text_of(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-cached-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The report of `text` studied in memory, as an uncached
/// `tracelens report` renders it.
fn text_report(text: &[u8]) -> String {
    let ds = Dataset::read_text_bytes(text).expect("clean corpus");
    let names: Vec<ScenarioName> = ds.scenarios.iter().map(|s| s.name).collect();
    let (study, ds) =
        Study::run(ds, &StudyConfig::default(), &names, &Telemetry::noop()).expect("study");
    render_markdown(&study, &ds, &ReportOptions::default())
}

/// The cached study of `tlt` and its rendered report.
fn cached_report(tlt: &Path) -> (FileStudy, String) {
    let run = Study::run_file(tlt, true, &StudyConfig::default(), &Telemetry::noop())
        .expect("cached study");
    let md = render_markdown(&run.study, &run.dataset, &ReportOptions::default());
    (run, md)
}

/// Writes `text` to a fresh corpus file; the first cached study packs
/// its cache. Returns the corpus path, the text report and the cache.
fn corpus(dir: &Path, text: &[u8]) -> (PathBuf, String, Vec<u8>) {
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, text).expect("write text");
    let want = text_report(text);
    let (cold, md) = cached_report(&tlt);
    assert_eq!(md, want, "the cold run studies the text");
    assert_eq!(cold.ingest.cache_fallback, Some(CacheFallback::Missing));
    assert!(cold.ingest.cache_written);
    let image = std::fs::read(cache_path_for(&tlt)).expect("packed cache");
    (tlt, want, image)
}

/// A cache replaced by `damaged` is quarantined, the text's report
/// comes out, the cache is repacked as `fresh` and the next run streams
/// it into the same report.
fn falls_back(tlt: &Path, damaged: &[u8], fresh: &[u8], want: &str, what: &str) {
    let cache = cache_path_for(tlt);
    std::fs::write(&cache, damaged).expect("damage cache");
    let (run, md) = cached_report(tlt);
    assert!(
        md == want,
        "{what}: the report differs from the text report"
    );
    let ingest = &run.ingest;
    assert_eq!(ingest.source, IngestSource::Text, "{what}");
    assert_eq!(
        ingest.cache_fallback,
        Some(CacheFallback::Corrupt),
        "{what}"
    );
    assert!(ingest.cache_quarantined && ingest.cache_written, "{what}");
    assert!(
        std::fs::read(quarantined_cache_path(&cache)).expect("evidence") == damaged,
        "{what}: the damaged cache is kept as it was"
    );
    assert!(
        std::fs::read(&cache).expect("repacked cache") == fresh,
        "{what}: repacked in the current format"
    );
    let (run, md) = cached_report(tlt);
    assert_eq!(run.ingest.source, IngestSource::BinaryCache, "{what}");
    assert_eq!(run.ingest.cache_fallback, None, "{what}");
    assert!(md == want, "{what}: the repacked cache's report differs");
}

/// A data set small enough to tear at every byte: three streams (one
/// without instances) whose waits a driver wakes, and fast, slow and
/// margin instances of two scenarios.
fn tiny() -> Dataset {
    let mut ds = Dataset::new();
    for (name, fast, slow) in [("Open", 20, 40), ("Save", 5, 10)] {
        ds.scenarios.push(Scenario::new(
            ScenarioName::new(name),
            Thresholds::new(TimeNs(fast), TimeNs(slow)),
        ));
    }
    let wait = ds
        .stacks
        .intern_symbols(&["app!Main", "fs.sys!Read", "kernel!Wait"]);
    let work = ds.stacks.intern_symbols(&["worker!Run", "fs.sys!Work"]);
    let app = ds.stacks.intern_symbols(&["app!Main"]);
    for (trace, span) in [(0u32, 30u64), (1, 8), (2, 3)] {
        let mut b = TraceStreamBuilder::new(trace);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(2), app);
        b.push_wait(ThreadId(1), TimeNs(2), TimeNs::ZERO, wait);
        b.push_running(ThreadId(2), TimeNs(2), TimeNs(span), work);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(2 + span), work);
        b.push_running(ThreadId(1), TimeNs(2 + span), TimeNs(1), app);
        ds.streams.push(b.finish().expect("well-formed stream"));
    }
    for (trace, scenario, t1) in [
        (0, "Open", 50),
        (0, "Save", 4),
        (1, "Open", 12),
        (1, "Save", 30),
    ] {
        ds.instances.push(ScenarioInstance {
            trace: TraceId(trace),
            scenario: ScenarioName::new(scenario),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(t1),
        });
    }
    ds
}

#[test]
fn a_warm_cache_streams_into_the_text_report() {
    let dir = scratch("warm");
    let ds = DatasetBuilder::new(23)
        .traces(12)
        .mix(ScenarioMix::Selected)
        .build();
    let (tlt, want, image) = corpus(&dir, &text_of(&ds));
    let (run, md) = cached_report(&tlt);
    assert!(
        md == want,
        "the streamed report differs from the text report"
    );
    assert_eq!(run.ingest.source, IngestSource::BinaryCache);
    assert_eq!(run.ingest.cache_fallback, None);
    assert_eq!(run.ingest.bytes, image.len());
    assert_eq!(run.ingest.events, ds.total_events());
    assert!(run.validation.is_ok());
    // The streamed study hands back the tables, not the events.
    assert!(run.dataset.streams.is_empty());
    assert_eq!(run.dataset.instances, ds.instances);
    assert_eq!(run.study.coverage.total_traces, ds.streams.len());
    assert_eq!(std::fs::read(cache_path_for(&tlt)).unwrap(), image);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_cache_falls_back_at_every_offset() {
    let dir = scratch("torn");
    let (tlt, want, image) = corpus(&dir, &text_of(&tiny()));
    for cut in 0..image.len() {
        falls_back(&tlt, &image[..cut], &image, &want, &format!("cut at {cut}"));
    }
    // A realistic corpus, torn at 48 points spread over its streams.
    let _ = std::fs::remove_dir_all(&dir);
    let dir = scratch("torn-sim");
    let ds = DatasetBuilder::new(31)
        .traces(4)
        .mix(ScenarioMix::Selected)
        .build();
    let (tlt, want, image) = corpus(&dir, &text_of(&ds));
    for k in 0..48 {
        let cut = HEADER_LEN + (image.len() - HEADER_LEN) * k / 48;
        falls_back(&tlt, &image[..cut], &image, &want, &format!("cut at {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_in_any_section_falls_back() {
    let dir = scratch("flip");
    let ds = DatasetBuilder::new(37)
        .traces(3)
        .mix(ScenarioMix::Selected)
        .build();
    let (tlt, want, image) = corpus(&dir, &text_of(&ds));
    // Where each section lies, from images of parts of the data set: the
    // tables end with the stream count, and each stream is one block.
    let fp = fingerprint_bytes(&text_of(&ds));
    let part = |streams: Vec<TraceStream>, instances: Vec<ScenarioInstance>| {
        let ds = Dataset {
            streams,
            instances,
            ..ds.clone()
        };
        ds.to_binary(fp).len()
    };
    let tables_end = part(Vec::new(), ds.instances.clone());
    let instances_len = tables_end - part(Vec::new(), Vec::new());
    let first_block = part(vec![ds.streams[0].clone()], ds.instances.clone()) - tables_end;
    let last_block = part(vec![ds.streams[2].clone()], ds.instances.clone()) - tables_end;
    for (section, at) in [
        ("the symbol table", HEADER_LEN + 9),
        ("the instances", tables_end - 4 - instances_len / 2),
        ("the first stream block", tables_end + first_block / 2),
        ("the last stream block", image.len() - last_block / 3),
        ("the last byte", image.len() - 1),
    ] {
        let mut damaged = image.clone();
        damaged[at] ^= 0x01;
        assert_eq!(
            Dataset::read_binary(&damaged).unwrap_err(),
            BinReadError::ChecksumMismatch,
            "{section}"
        );
        falls_back(&tlt, &damaged, &image, &want, section);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_format_2_cache_is_repacked_once() {
    let dir = scratch("skew");
    let ds = DatasetBuilder::new(41)
        .traces(3)
        .mix(ScenarioMix::Selected)
        .build();
    let (tlt, want, image) = corpus(&dir, &text_of(&ds));
    assert_eq!(tracelens::model::BIN_FORMAT_VERSION, 3);
    let mut skewed = image.clone();
    skewed[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        Dataset::read_binary(&skewed).unwrap_err(),
        BinReadError::UnsupportedVersion(2)
    );
    falls_back(&tlt, &skewed, &image, &want, "format 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_streamed_cache_reports_the_violations_validate_finds() {
    let dir = scratch("violations");
    let mut ds = DatasetBuilder::new(43)
        .traces(4)
        .mix(ScenarioMix::Selected)
        .build();
    let defined = ds.scenarios[0].name;
    let undefined = ScenarioName::new("Undefined");
    for (trace, scenario) in [(9u32, defined), (0, undefined), (11, undefined)] {
        ds.instances.push(ScenarioInstance {
            trace: TraceId(trace),
            scenario,
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(1),
        });
    }
    let (tlt, want, _) = corpus(&dir, &text_of(&ds));
    let (run, md) = cached_report(&tlt);
    assert_eq!(run.ingest.source, IngestSource::BinaryCache);
    assert!(
        md == want,
        "the streamed report differs from the text report"
    );
    let expected = ds.validate().unwrap_err();
    assert_eq!(expected.violations.len(), 4);
    assert_eq!(
        run.validation.unwrap_err(),
        expected,
        "same violations, same order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
