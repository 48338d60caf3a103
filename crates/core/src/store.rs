//! The trace store: getting a [`Dataset`] off disk.
//!
//! Two paths:
//!
//! 1. **Binary cache** — a `.tlb` columnar image next to the text file
//!    (see [`tracelens_model::binio`]). Loaded only when its recorded
//!    fingerprint matches the current text bytes; anything else (torn,
//!    corrupt, stale, version-skewed) falls back to the text parse and
//!    is counted, never fatal. The check streams the text through the
//!    incremental [`Fingerprinter`] without parsing or holding it.
//! 2. **Streamed text** — the file streams through a [`RetryingReader`]
//!    and a fixed-size buffer into [`Dataset::read_text`], so ingest
//!    memory is the data set, not the data set plus its text. A cache
//!    miss fingerprints the text in the same pass and packs the result.
//!
//! Every ingest is instrumented under the `ingest` telemetry stage
//! (span `ingest`, counters `ingest.bytes` / `ingest.events` /
//! `ingest.cache_hits` / `ingest.cache_fallbacks`), and the returned
//! [`IngestReport`] carries the transport counters (`io_retries`, cache
//! fallback) that `validate --sanitize` prints through `SanitizeReport`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek};
use std::path::{Path, PathBuf};
use tracelens_model::binio::{self, Fingerprinter, HEADER_LEN};
use tracelens_model::textio::{ReadError, RetryPolicy, RetryingReader};
use tracelens_model::Dataset;
use tracelens_obs::{stage, Telemetry};

/// Bytes per read from a text source: large enough that refills cost
/// little next to parsing, small enough to stay in cache.
const READ_BUF: usize = 64 * 1024;

/// Which path produced the data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestSource {
    /// Streamed text parse.
    Text,
    /// Loaded from a fingerprint-matching `.tlb` cache.
    BinaryCache,
}

impl fmt::Display for IngestSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IngestSource::Text => "text",
            IngestSource::BinaryCache => "binary cache",
        })
    }
}

/// Why a requested `.tlb` cache was not used. Transport-level: the
/// resulting data set is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFallback {
    /// No cache file next to the input yet.
    Missing,
    /// The cache's fingerprint does not match the current text (the
    /// input changed since it was packed).
    Stale,
    /// The cache failed to load: torn write, bit rot, bad magic, or a
    /// different format version.
    Corrupt,
}

impl fmt::Display for CacheFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheFallback::Missing => "missing",
            CacheFallback::Stale => "stale",
            CacheFallback::Corrupt => "corrupt",
        })
    }
}

/// How one data set was ingested: the path taken, the sizes moved, and
/// the transport incidents absorbed along the way.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Which path produced the data set.
    pub source: IngestSource,
    /// Bytes read from the source (text bytes, or `.tlb` bytes when the
    /// cache was used).
    pub bytes: usize,
    /// Events in the resulting data set.
    pub events: usize,
    /// Transient I/O errors absorbed by retried reads.
    pub io_retries: usize,
    /// Why the cache was skipped, when `--cache` asked for one.
    pub cache_fallback: Option<CacheFallback>,
    /// Whether a fresh `.tlb` cache was written after a text parse.
    pub cache_written: bool,
    /// Whether a corrupt `.tlb` cache was preserved as
    /// `<name>.tlb.quarantined` for post-mortem instead of being
    /// silently repacked over.
    pub cache_quarantined: bool,
}

impl IngestReport {
    fn new(source: IngestSource, bytes: usize, io_retries: usize, ds: &Dataset) -> IngestReport {
        IngestReport {
            source,
            bytes,
            events: ds.total_events(),
            io_retries,
            cache_fallback: None,
            cache_written: false,
            cache_quarantined: false,
        }
    }
}

/// A reader that counts the bytes it passes on and, when it holds a
/// [`Fingerprinter`], fingerprints them.
struct Tap<R> {
    inner: RetryingReader<R>,
    bytes: usize,
    fingerprint: Option<Fingerprinter>,
}

impl<R: Read> Tap<R> {
    /// Wraps `input` in the default retry policy.
    fn new(input: R, fingerprint: bool) -> Tap<R> {
        Tap {
            inner: RetryingReader::new(input, RetryPolicy::default()),
            bytes: 0,
            fingerprint: fingerprint.then(Fingerprinter::new),
        }
    }
}

impl<R: Read> Read for Tap<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        if let Some(f) = &mut self.fingerprint {
            f.update(&buf[..n]);
        }
        Ok(n)
    }
}

/// Streams `.tlt` text from `input` into the parser, fingerprinting it
/// in the same pass when `fingerprint` is set.
fn stream_text<R: Read>(
    input: R,
    fingerprint: bool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport, Option<u64>), ReadError> {
    let mut reader = BufReader::with_capacity(READ_BUF, Tap::new(input, fingerprint));
    let ds = Dataset::read_text(&mut reader)?;
    let tap = reader.into_inner();
    telemetry.count("ingest.bytes", tap.bytes as u64);
    telemetry.count("ingest.events", ds.total_events() as u64);
    let report = IngestReport::new(IngestSource::Text, tap.bytes, tap.inner.retries(), &ds);
    Ok((ds, report, tap.fingerprint.map(|f| f.finish())))
}

/// Streams text through the fingerprint without parsing it: the cache
/// staleness check. Returns the fingerprint and the retried reads.
fn fingerprint_text<R: Read>(input: R) -> io::Result<(u64, usize)> {
    let mut tap = Tap::new(input, true);
    io::copy(
        &mut BufReader::with_capacity(READ_BUF, &mut tap),
        &mut io::sink(),
    )?;
    let fingerprint = tap.fingerprint.expect("the tap was asked to fingerprint");
    Ok((fingerprint.finish(), tap.inner.retries()))
}

/// Reads a data set from an arbitrary reader (e.g. stdin), streaming it
/// through a [`RetryingReader`] into the parser. No cache is consulted —
/// streams have no adjacent path to cache against.
///
/// # Errors
///
/// I/O errors from the reader and parse errors, both as [`ReadError`].
pub fn ingest_reader<R: Read>(
    input: R,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport), ReadError> {
    let _span = telemetry.span(stage::INGEST);
    let (ds, report, _) = stream_text(input, false, telemetry)?;
    Ok((ds, report))
}

/// [`ingest_reader`] that also fingerprints the text, in the same pass,
/// with [`binio::fingerprint_bytes`]'s value — what packing the data
/// set into a `.tlb` image needs.
///
/// # Errors
///
/// Same as [`ingest_reader`].
pub fn ingest_fingerprinted<R: Read>(
    input: R,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport, u64), ReadError> {
    let _span = telemetry.span(stage::INGEST);
    let (ds, report, fingerprint) = stream_text(input, true, telemetry)?;
    let fingerprint = fingerprint.expect("the tap was asked to fingerprint");
    Ok((ds, report, fingerprint))
}

/// Reads a `.tlt` file, optionally through its `.tlb` binary cache.
///
/// With `cache` set, the sibling cache path ([`cache_path_for`]) is
/// consulted first: when its header records a fingerprint, the text is
/// streamed once to fingerprint it, and a match loads the cache
/// directly. A missing, stale, or corrupt cache is counted in the
/// report and the text is parsed instead — fingerprinted in the same
/// pass — after which a fresh cache is written (atomically: temp file +
/// rename, best-effort) so the next read hits.
///
/// # Errors
///
/// I/O errors opening/reading the text file and parse errors, both as
/// [`ReadError`]. Cache problems are never errors.
pub fn ingest_path(
    path: &Path,
    cache: bool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport), ReadError> {
    let _span = telemetry.span(stage::INGEST);
    let mut file = File::open(path).map_err(ReadError::Io)?;
    if !cache {
        let (ds, report, _) = stream_text(&file, false, telemetry)?;
        return Ok((ds, report));
    }

    let cache_path = cache_path_for(path);
    let mut check_retries = 0;
    let fallback = match recorded_fingerprint(&cache_path) {
        Err(fallback) => fallback,
        Ok(recorded) => {
            let (fingerprint, retries) = fingerprint_text(&file).map_err(ReadError::Io)?;
            check_retries = retries;
            if fingerprint != recorded {
                CacheFallback::Stale
            } else if let Some((ds, cache_bytes)) = load_cache(&cache_path, recorded) {
                telemetry.count("ingest.cache_hits", 1);
                telemetry.count("ingest.events", ds.total_events() as u64);
                let report =
                    IngestReport::new(IngestSource::BinaryCache, cache_bytes, check_retries, &ds);
                return Ok((ds, report));
            } else {
                CacheFallback::Corrupt
            }
        }
    };

    file.rewind().map_err(ReadError::Io)?;
    let (ds, mut report, fingerprint) = stream_text(&file, true, telemetry)?;
    let fingerprint = fingerprint.expect("the tap was asked to fingerprint");
    report.io_retries += check_retries;
    report.cache_fallback = Some(fallback);
    telemetry.count("ingest.cache_fallbacks", 1);
    if fallback == CacheFallback::Corrupt {
        report.cache_quarantined = quarantine_cache(&cache_path);
        if report.cache_quarantined {
            telemetry.count("ingest.cache_quarantined", 1);
        }
    }
    report.cache_written = write_cache(&cache_path, &ds, fingerprint);
    Ok((ds, report))
}

/// Where a corrupt cache is preserved: `corpus.tlb` →
/// `corpus.tlb.quarantined`.
pub fn quarantined_cache_path(cache_path: &Path) -> PathBuf {
    cache_path.with_extension("tlb.quarantined")
}

/// Moves a corrupt cache aside for post-mortem instead of repacking
/// over it (best-effort; replaces any earlier quarantined copy).
fn quarantine_cache(cache_path: &Path) -> bool {
    std::fs::rename(cache_path, quarantined_cache_path(cache_path)).is_ok()
}

/// The cache path for a text data set: the same path with a `.tlb`
/// extension (`corpus.tlt` → `corpus.tlb`).
pub fn cache_path_for(path: &Path) -> PathBuf {
    path.with_extension("tlb")
}

/// The source fingerprint a cache records, read from its header alone:
/// [`CacheFallback::Missing`] when there is no cache file,
/// [`CacheFallback::Corrupt`] when its header is short, foreign or of
/// another format version.
fn recorded_fingerprint(cache_path: &Path) -> Result<u64, CacheFallback> {
    let mut file = File::open(cache_path).map_err(|_| CacheFallback::Missing)?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|_| CacheFallback::Corrupt)?;
    binio::header_fingerprint(&header).ok_or(CacheFallback::Corrupt)
}

/// Loads the whole cache; `None` if it no longer reads back as an
/// image of the text with `fingerprint`. Returns the data set and the
/// cache's byte size.
fn load_cache(cache_path: &Path, fingerprint: u64) -> Option<(Dataset, usize)> {
    let bytes = std::fs::read(cache_path).ok()?;
    match Dataset::read_binary(&bytes) {
        Ok((ds, recorded)) if recorded == fingerprint => Some((ds, bytes.len())),
        _ => None,
    }
}

/// Writes the cache atomically (temp sibling + rename). Best-effort: a
/// read-only directory or full disk just means no cache next time.
fn write_cache(cache_path: &Path, ds: &Dataset, fingerprint: u64) -> bool {
    let tmp = cache_path.with_extension("tlb.tmp");
    let write = || -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        ds.write_binary(fingerprint, &mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, cache_path)
    };
    match write() {
        Ok(()) => true,
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_sim::DatasetBuilder;

    fn text_of(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        ds.write_text(&mut out).unwrap();
        out
    }

    fn corpus(traces: usize) -> Vec<u8> {
        text_of(&DatasetBuilder::new(77).traces(traces).build())
    }

    #[test]
    fn reader_ingest_matches_the_in_memory_parse() {
        let text = corpus(12);
        let (ds, report) = ingest_reader(&text[..], &Telemetry::noop()).unwrap();
        assert_eq!(
            text_of(&ds),
            text_of(&Dataset::read_text_bytes(&text).unwrap())
        );
        assert_eq!(report.source, IngestSource::Text);
        assert_eq!(report.bytes, text.len());
    }

    #[test]
    fn reader_ingest_reports_parse_errors_verbatim() {
        let mut text = corpus(4);
        text.extend_from_slice(b"e\tbogus\n");
        let in_memory = Dataset::read_text_bytes(&text).unwrap_err();
        let streamed = ingest_reader(&text[..], &Telemetry::noop()).unwrap_err();
        assert_eq!(streamed.to_string(), in_memory.to_string());
    }

    #[test]
    fn fingerprinted_ingest_matches_fingerprint_bytes() {
        let text = corpus(5);
        let (ds, report, fingerprint) =
            ingest_fingerprinted(&text[..], &Telemetry::noop()).unwrap();
        assert_eq!(fingerprint, binio::fingerprint_bytes(&text));
        assert_eq!(report.bytes, text.len());
        assert_eq!(text_of(&ds), text);
    }

    #[test]
    fn cache_roundtrip_hits_and_invalidates() {
        let dir = std::env::temp_dir().join(format!("tl-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tlt");
        std::fs::write(&path, corpus(6)).unwrap();
        let tm = Telemetry::noop();

        // Cold: no cache yet; one gets written.
        let (first, r1) = ingest_path(&path, true, &tm).unwrap();
        assert_eq!(r1.cache_fallback, Some(CacheFallback::Missing));
        assert!(r1.cache_written);
        assert!(cache_path_for(&path).exists());

        // Warm: fingerprint matches, cache is used, same bytes out.
        let (second, r2) = ingest_path(&path, true, &tm).unwrap();
        assert_eq!(r2.source, IngestSource::BinaryCache);
        assert_eq!(r2.cache_fallback, None);
        assert_eq!(text_of(&first), text_of(&second));

        // Input changes: stale cache is bypassed and rewritten.
        std::fs::write(&path, corpus(7)).unwrap();
        let (_, r3) = ingest_path(&path, true, &tm).unwrap();
        assert_eq!(r3.cache_fallback, Some(CacheFallback::Stale));
        assert!(r3.cache_written);

        // Corrupt cache: truncate it; fallback still yields the data,
        // and the corrupt file is preserved for post-mortem rather
        // than silently repacked over.
        let cache = cache_path_for(&path);
        let full = std::fs::read(&cache).unwrap();
        let torn = full[..full.len() / 2].to_vec();
        std::fs::write(&cache, &torn).unwrap();
        let (fourth, r4) = ingest_path(&path, true, &tm).unwrap();
        assert_eq!(r4.cache_fallback, Some(CacheFallback::Corrupt));
        assert!(r4.cache_quarantined);
        assert!(r4.cache_written);
        let preserved = quarantined_cache_path(&cache);
        assert_eq!(std::fs::read(&preserved).unwrap(), torn);
        let (fifth, _) = ingest_path(&path, false, &tm).unwrap();
        assert_eq!(text_of(&fourth), text_of(&fifth));

        // Second load after quarantine: clean cache hit, quarantined
        // copy untouched.
        let (sixth, r6) = ingest_path(&path, true, &tm).unwrap();
        assert_eq!(r6.source, IngestSource::BinaryCache);
        assert_eq!(r6.cache_fallback, None);
        assert!(!r6.cache_quarantined);
        assert_eq!(text_of(&fourth), text_of(&sixth));
        assert_eq!(std::fs::read(&preserved).unwrap(), torn);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_ingest_never_touches_a_cache() {
        let text = corpus(3);
        let (ds, report) = ingest_reader(&text[..], &Telemetry::noop()).unwrap();
        assert_eq!(report.source, IngestSource::Text);
        assert_eq!(report.cache_fallback, None);
        assert!(!report.cache_written);
        assert_eq!(report.events, ds.total_events());
    }
}
