//! One stream at a time from file to report. A counting global
//! allocator measures the peak of `Study::run_file` against the live
//! size D of the data set the file holds: on a warm cache (the route
//! `tracelens report --cache` takes) and on text in the layout
//! `write_text` writes (the route `tracelens report` takes), each plain
//! and sanitized. The study streams its input, so it holds the tables,
//! one stream and the study's own records and aggregates, and may peak
//! at 0.25·D + 1 MiB. Loading the data set whole, as the in-memory route
//! does, holds all of D, and each test checks that this route fails the
//! bound.
//!
//! Byte counts, not times, so the gate is deterministic. The tests take
//! one lock, so no other test allocates while one measures.

#[path = "common/counting.rs"]
mod counting;

use counting::{mark, LIVE, MIB, PEAK};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Mutex;
use tracelens::prelude::*;
use tracelens::store::ingest_path;

/// Held by each test while it measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn write_corpus(ds: &Dataset, path: &Path) {
    let mut out = BufWriter::new(std::fs::File::create(path).expect("create corpus"));
    ds.write_text(&mut out).expect("write corpus");
    out.flush().expect("flush corpus");
}

#[test]
fn a_warm_cached_study_holds_one_stream_at_a_time() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tracelens-one-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tlt = dir.join("corpus.tlt");
    write_corpus(
        &DatasetBuilder::new(2014)
            .traces(200)
            .mix(ScenarioMix::Selected)
            .build(),
        &tlt,
    );
    let noop = Telemetry::noop();
    let cold = Study::run_file(&tlt, true, &StudyConfig::default(), &noop).expect("cold study");
    assert!(cold.ingest.cache_written, "the cold study packs the cache");
    drop(cold);

    // D: the data set the cache holds, loaded whole.
    let before = LIVE.load(Relaxed);
    let (whole, report) = ingest_path(&tlt, true, &noop).expect("warm ingest");
    assert_eq!(report.source, IngestSource::BinaryCache);
    let d = LIVE.load(Relaxed) - before;
    drop(whole);
    assert!(
        d > 4 * MIB,
        "the corpus must dwarf the slack: D = {d} bytes"
    );

    let bound = d / 4 + MIB;

    for sanitize in [false, true] {
        let config = StudyConfig {
            sanitize,
            ..StudyConfig::default()
        };
        let base = mark();
        let warm = Study::run_file(&tlt, true, &config, &noop).expect("warm study");
        let peak = PEAK.load(Relaxed) - base;
        assert_eq!(warm.ingest.source, IngestSource::BinaryCache);
        assert!(
            warm.dataset.streams.is_empty(),
            "the study streamed the cache"
        );
        assert_eq!(warm.study.sanitize.is_some(), sanitize);
        assert!(
            peak <= bound,
            "a warm cached study (sanitize {sanitize}) peaked at {peak} bytes over a \
             {d}-byte data set"
        );
    }

    // The route a sanitizing study took before: the cache loaded whole,
    // then sanitized and studied.
    let base = mark();
    let (whole, _) = ingest_path(&tlt, true, &noop).expect("warm ingest");
    let validation = whole.validate();
    let names: Vec<ScenarioName> = whole.scenarios.iter().map(|s| s.name).collect();
    let config = StudyConfig {
        sanitize: true,
        ..StudyConfig::default()
    };
    let studied = Study::run(whole, &config, &names, &noop).expect("study");
    let peak = PEAK.load(Relaxed) - base;
    drop((validation, studied));
    assert!(
        peak > bound,
        "the whole load peaked at {peak} bytes, within the {bound}-byte bound"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_streamed_text_study_holds_one_stream_at_a_time() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tracelens-one-text-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tlt = dir.join("corpus.tlt");
    // Faults the text can carry, so the sanitized study quarantines.
    let (ds, _) = ALL_FAULT_KINDS
        .into_iter()
        .filter(|&k| k != FaultKind::DanglingStacks)
        .fold(FaultInjector::new(2014), |inj, k| inj.with(k, 0.02))
        .inject(&DatasetBuilder::new(2014).traces(200).build());
    write_corpus(&ds, &tlt);
    drop(ds);
    let noop = Telemetry::noop();

    // D: the data set the text holds, parsed whole.
    let before = LIVE.load(Relaxed);
    let (whole, _) = ingest_path(&tlt, false, &noop).expect("text ingest");
    let d = LIVE.load(Relaxed) - before;
    drop(whole);
    assert!(
        d > 4 * MIB,
        "the corpus must dwarf the slack: D = {d} bytes"
    );
    let bound = d / 4 + MIB;

    for sanitize in [false, true] {
        let config = StudyConfig {
            sanitize,
            ..StudyConfig::default()
        };
        let base = mark();
        let run = Study::run_file(&tlt, false, &config, &noop).expect("streamed study");
        let peak = PEAK.load(Relaxed) - base;
        assert!(
            run.dataset.streams.is_empty(),
            "the study streamed the text"
        );
        assert_eq!(run.study.sanitize.is_some(), sanitize);
        assert!(
            peak <= bound,
            "a streamed text study (sanitize {sanitize}) peaked at {peak} bytes over a \
             {d}-byte data set"
        );
    }

    // The route it replaced: the text parsed whole, then studied.
    let base = mark();
    let (whole, _) = ingest_path(&tlt, false, &noop).expect("text ingest");
    let validation = whole.validate();
    let names: Vec<ScenarioName> = whole.scenarios.iter().map(|s| s.name).collect();
    let studied = Study::run(whole, &StudyConfig::default(), &names, &noop).expect("study");
    let peak = PEAK.load(Relaxed) - base;
    drop((validation, studied));
    assert!(
        peak > bound,
        "the whole parse peaked at {peak} bytes, within the {bound}-byte bound"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
