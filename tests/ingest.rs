//! The trace store must be a faithful, deterministic transport: text
//! streamed from a file or reader and the binary `.tlb` format both
//! have to reproduce the in-memory text parse byte-for-byte, and a
//! damaged cache must fall back to text without changing any result.

use std::io::BufReader;
use std::path::PathBuf;
use tracelens::model::binio::Fingerprinter;
use tracelens::model::textio::ReadError;
use tracelens::model::{fingerprint_bytes, BinReadError};
use tracelens::prelude::*;
use tracelens::store::{cache_path_for, ingest_path, ingest_reader};

fn text_of(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    ds.write_text(&mut out).expect("serialize");
    out
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracelens-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn streamed_ingest_is_byte_identical_to_the_in_memory_parse() {
    let dir = scratch("stream");
    let ds = DatasetBuilder::new(4242)
        .traces(24)
        .mix(ScenarioMix::Selected)
        .build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let in_memory = text_of(&Dataset::read_text_bytes(&text).expect("clean corpus"));
    let telemetry = Telemetry::noop();

    let (uncached, report) = ingest_path(&tlt, false, &telemetry).expect("uncached");
    assert_eq!(text_of(&uncached), in_memory);
    assert_eq!(
        (report.source, report.bytes),
        (IngestSource::Text, text.len())
    );
    let (cold, report) = ingest_path(&tlt, true, &telemetry).expect("cold cache");
    assert_eq!(text_of(&cold), in_memory);
    assert_eq!(report.cache_fallback, Some(CacheFallback::Missing));
    let (warm, report) = ingest_path(&tlt, true, &telemetry).expect("warm cache");
    assert_eq!(text_of(&warm), in_memory);
    assert_eq!(report.source, IngestSource::BinaryCache);
    let (read, _) = ingest_reader(&text[..], &telemetry).expect("reader");
    assert_eq!(text_of(&read), in_memory);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_ingest_reports_the_in_memory_error_verbatim() {
    let dir = scratch("error");
    let ds = DatasetBuilder::new(7).traces(6).build();
    let mut text = text_of(&ds);
    text.extend_from_slice(b"e\tz\t1\t1\t1\t1\t0\n");
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let in_memory = Dataset::read_text_bytes(&text).unwrap_err().to_string();
    let telemetry = Telemetry::noop();
    for cache in [false, true] {
        let err = ingest_path(&tlt, cache, &telemetry).unwrap_err();
        assert_eq!(err.to_string(), in_memory, "cache={cache}");
    }
    assert!(
        !cache_path_for(&tlt).exists(),
        "a failed parse must not pack a cache"
    );
    let err = ingest_reader(&text[..], &telemetry).unwrap_err();
    assert_eq!(err.to_string(), in_memory);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_cache_at_any_offset_falls_back_to_text() {
    let dir = scratch("torn");
    let ds = DatasetBuilder::new(99).traces(4).build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    let image = ds.to_binary(fingerprint_bytes(&text));

    // Every truncation must be rejected by the raw reader...
    for cut in (0..image.len()).step_by(13).chain([image.len() - 1]) {
        Dataset::read_binary(&image[..cut]).expect_err("torn image must not parse");
    }

    // ...and a representative set must fall back cleanly at the cache
    // layer, still yielding the exact data set and repacking the cache.
    let telemetry = Telemetry::noop();
    for cut in [0, 16, HEADER_GUESS, image.len() / 2, image.len() - 1] {
        std::fs::write(cache_path_for(&tlt), &image[..cut]).expect("write torn cache");
        let (parsed, report) = ingest_path(&tlt, true, &telemetry).expect("text fallback");
        assert_eq!(text_of(&parsed), text, "cut at {cut}");
        assert_eq!(
            report.cache_fallback,
            Some(CacheFallback::Corrupt),
            "cut at {cut}"
        );
        assert!(report.cache_written, "cut at {cut}: cache must be repacked");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-header offset: long enough to not look truncated at first
/// glance, short of a complete header.
const HEADER_GUESS: usize = 20;

#[test]
fn cache_fallbacks_surface_in_the_sanitize_report() {
    let report = SanitizeReport {
        cache_fallbacks: 1,
        ..SanitizeReport::default()
    };
    assert!(report.is_clean(), "a cache fallback is not data corruption");
    let shown = report.to_string();
    assert!(
        shown.contains("binary-cache fallback"),
        "fallbacks must be visible in the report: {shown}"
    );
}

#[test]
fn version_skewed_cache_is_stale_not_fatal() {
    let dir = scratch("skew");
    let ds = DatasetBuilder::new(11).traces(3).build();
    let text = text_of(&ds);
    let tlt = dir.join("corpus.tlt");
    std::fs::write(&tlt, &text).expect("write text");
    // What a cold `--cache` read of the text packs.
    let current = Dataset::read_text_bytes(&text)
        .expect("clean corpus")
        .to_binary(fingerprint_bytes(&text));
    // Formats 1 and 2, which older builds left behind, and a future
    // format.
    for version in [1u32, 2, 999] {
        let mut image = current.clone();
        image[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(cache_path_for(&tlt), &image).expect("write skewed cache");

        assert_eq!(
            Dataset::read_binary(&image).unwrap_err(),
            BinReadError::UnsupportedVersion(version)
        );
        let (parsed, report) = ingest_path(&tlt, true, &Telemetry::noop()).expect("text fallback");
        assert_eq!(text_of(&parsed), text, "format {version}");
        assert_eq!(report.cache_fallback, Some(CacheFallback::Corrupt));
        assert!(
            report.cache_written,
            "a format-{version} cache must be repacked"
        );
        assert!(
            std::fs::read(cache_path_for(&tlt)).expect("repacked cache") == current,
            "format {version}: repacked in the current format"
        );
        let (_, report) = ingest_path(&tlt, true, &Telemetry::noop()).expect("warm read");
        assert_eq!(report.source, IngestSource::BinaryCache, "format {version}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flaky_ingest_matches_the_in_memory_parse() {
    // A transport that fails transiently on a deterministic schedule
    // must yield the exact in-memory parse, with every retry absorbed
    // and accounted, never dropped bytes.
    let ds = DatasetBuilder::new(2026)
        .traces(24)
        .mix(ScenarioMix::Selected)
        .build();
    let text = text_of(&ds);
    let in_memory = text_of(&Dataset::read_text_bytes(&text).expect("clean corpus"));
    let plan = ReadFaultPlan::new(77).with_rate(0.2);
    let (parsed, report) = ingest_reader(FlakyReader::new(&text[..], plan), &Telemetry::noop())
        .expect("retries absorb the fault schedule");
    assert_eq!(text_of(&parsed), in_memory, "flaky ingest diverged");
    assert!(
        report.io_retries > 0,
        "the fault schedule must actually fire"
    );
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// The parse outcome in comparable form.
    fn outcome(result: Result<Dataset, ReadError>) -> Result<Vec<u8>, String> {
        result.map(|ds| text_of(&ds)).map_err(|e| e.to_string())
    }

    /// `read_text` over `text` at every buffer size from 1 to 64 bytes,
    /// and at 4096, must give what `read_text_bytes` gives.
    fn streams_like_in_memory(text: &[u8]) -> Result<(), TestCaseError> {
        let want = outcome(Dataset::read_text_bytes(text));
        for k in (1..=64).chain([4096]) {
            let got = outcome(Dataset::read_text(BufReader::with_capacity(k, text)));
            prop_assert_eq!(&got, &want, "buffer capacity {}", k);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn streamed_parse_matches_on_simulated_corpora(seed in 0u64..10_000, traces in 1usize..4) {
            let ds = DatasetBuilder::new(seed).traces(traces).build();
            streams_like_in_memory(&text_of(&ds))?;
        }

        #[test]
        fn streamed_parse_matches_on_damaged_bytes(
            seed in 0u64..4,
            cut in 0usize..1_000_000,
            flips in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 0..6)
        ) {
            let mut text = text_of(&DatasetBuilder::new(seed).traces(2).build());
            text.truncate(cut % (text.len() + 1));
            let len = text.len().max(1);
            for &(pos, byte) in &flips {
                if let Some(b) = text.get_mut(pos % len) {
                    *b = byte;
                }
            }
            streams_like_in_memory(&text)?;
        }

        /// Feeding the fingerprint in any chunking gives the one-shot
        /// value.
        #[test]
        fn incremental_fingerprint_matches_one_shot(
            bytes in proptest::collection::vec(0u8..=255u8, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..12)
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut f = Fingerprinter::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                f.update(&bytes[at..cut]);
                at = cut;
            }
            prop_assert_eq!(f.finish(), fingerprint_bytes(&bytes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Every fault kind, including dangling stack ids, which the
        /// parser rejects as undeclared.
        #[test]
        fn streamed_parse_matches_on_injected_faults(seed in 0u64..10_000) {
            let clean = DatasetBuilder::new(seed).traces(1).build();
            for kind in ALL_FAULT_KINDS {
                let (corrupt, _) = FaultInjector::new(seed).with(kind, 0.5).inject(&clean);
                streams_like_in_memory(&text_of(&corrupt))?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random simulated workloads survive text → binary → text with
        /// every byte intact, and the reloaded data set is equal at the
        /// Dataset level too.
        #[test]
        fn random_datasets_survive_the_binary_store(seed in 0u64..10_000, traces in 1usize..6) {
            let ds = DatasetBuilder::new(seed).traces(traces).build();
            let text = text_of(&ds);
            let image = ds.to_binary(fingerprint_bytes(&text));
            let (back, fp) = Dataset::read_binary(&image).expect("fresh image");
            prop_assert_eq!(fp, fingerprint_bytes(&text));
            prop_assert_eq!(text_of(&back), text);
            prop_assert_eq!(&back.instances, &ds.instances);
            prop_assert_eq!(back.scenarios.len(), ds.scenarios.len());
            prop_assert_eq!(back.total_events(), ds.total_events());
        }

        /// Fault-injected (still parseable) data sets round-trip the
        /// binary store unchanged: packing never launders corruption.
        #[test]
        fn corrupted_datasets_round_trip_without_laundering(seed in 0u64..10_000) {
            let clean = DatasetBuilder::new(seed).traces(4).build();
            let (corrupt, _) = FaultInjector::new(seed).with_all(0.05).inject(&clean);
            let text = text_of(&corrupt);
            let image = corrupt.to_binary(fingerprint_bytes(&text));
            let (back, _) = Dataset::read_binary(&image).expect("fresh image");
            prop_assert_eq!(text_of(&back), text);
        }
    }
}
