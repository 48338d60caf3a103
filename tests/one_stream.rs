//! One stream at a time from a warm cache to the report. A counting
//! global allocator measures the peak of a warm `Study::run_cached` (the
//! route `tracelens report --cache` takes) against the live size D of
//! the data set the cache holds: the study streams the cache, so it
//! holds the tables, one stream and the study's own records and
//! aggregates, and may peak at 0.25·D + 1 MiB. Loading the data set
//! whole, as the materialized route does, holds all of D.
//!
//! Byte counts, not times, so the gate is deterministic. The binary has
//! one test, so no other test allocates while it measures.

#[path = "common/counting.rs"]
mod counting;

use counting::{mark, LIVE, MIB, PEAK};
use std::io::{BufWriter, Write};
use std::sync::atomic::Ordering::Relaxed;
use tracelens::prelude::*;
use tracelens::store::ingest_path;

#[test]
fn a_warm_cached_study_holds_one_stream_at_a_time() {
    let dir = std::env::temp_dir().join(format!("tracelens-one-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tlt = dir.join("corpus.tlt");
    {
        let ds = DatasetBuilder::new(2014)
            .traces(200)
            .mix(ScenarioMix::Selected)
            .build();
        let mut out = BufWriter::new(std::fs::File::create(&tlt).expect("create corpus"));
        ds.write_text(&mut out).expect("write corpus");
        out.flush().expect("flush corpus");
    }
    let noop = Telemetry::noop();
    let config = StudyConfig::default();
    let cold = Study::run_cached(&tlt, &config, &noop).expect("cold study");
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

    let base = mark();
    let warm = Study::run_cached(&tlt, &config, &noop).expect("warm study");
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(warm.ingest.source, IngestSource::BinaryCache);
    assert!(
        warm.dataset.streams.is_empty(),
        "the study streamed the cache"
    );
    assert!(
        peak <= d / 4 + MIB,
        "a warm cached study peaked at {peak} bytes over a {d}-byte data set"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
