//! One copy of the events from file to study. A counting global
//! allocator measures the peak a cached ingest and a sanitize reach,
//! against the live size D of the data set they produce or repair:
//!
//! * a warm `.tlb` load may peak at 1.15·D + 1 MiB (the data set and
//!   its read buffers; holding the image as well would add about 0.7·D);
//! * a by-value sanitize may add 0.15·D + 1 MiB (copying the events into
//!   a second data set would add about D).
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

/// `d` plus a fraction of it, in bytes.
fn with_share(d: usize, percent: usize) -> usize {
    d + d * percent / 100
}

#[test]
fn cached_ingest_and_sanitize_hold_one_copy_of_the_events() {
    let dir = std::env::temp_dir().join(format!("tracelens-one-copy-{}", std::process::id()));
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
    let (_, cold) = ingest_path(&tlt, true, &noop).expect("cold ingest");
    assert!(cold.cache_written, "the cold ingest packs the cache");

    // A warm cached ingest: the data set and its buffers, not the image.
    let base = mark();
    let (cached, report) = ingest_path(&tlt, true, &noop).expect("warm ingest");
    assert_eq!(report.source, IngestSource::BinaryCache);
    let d = LIVE.load(Relaxed) - base;
    let peak = PEAK.load(Relaxed) - base;
    assert!(
        d > 4 * MIB,
        "the corpus must dwarf the slack: D = {d} bytes"
    );
    assert!(
        peak <= with_share(d, 15) + MIB,
        "cached ingest peaked at {peak} bytes over a {d}-byte data set"
    );

    // A by-value sanitize of a fault-injected data set repairs it where
    // it lies.
    let (corrupt, _) = FaultInjector::new(2014).with_all(0.05).inject(&cached);
    drop(cached);
    let before = LIVE.load(Relaxed);
    let input = corrupt.clone();
    let d = LIVE.load(Relaxed) - before;
    drop(corrupt);
    let base = mark();
    let (clean, report) = input.sanitize();
    let peak = PEAK.load(Relaxed) - base;
    assert!(report.resorted_streams > 0 && report.dropped_events > 0 && report.quarantined() > 0);
    assert!(clean.validate().is_ok());
    assert!(
        peak <= d * 15 / 100 + MIB,
        "sanitize added {peak} bytes at its peak to a {d}-byte data set"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
