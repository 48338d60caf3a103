//! The trace store: getting a [`Dataset`] off disk.
//!
//! Two paths:
//!
//! 1. **Binary cache** — a `.tlb` columnar image (format 3) next to the
//!    text file (see [`tracelens_model::binio`]). Used only when its
//!    recorded fingerprint matches the current text bytes; anything
//!    else (torn, corrupt, stale, version-skewed — a format-1 or
//!    format-2 cache included) falls back to the text parse and is
//!    counted, never fatal. The check streams the text through the
//!    incremental [`Fingerprinter`] without parsing or holding it. The
//!    cache is opened once: its header is checked, and on a match the
//!    payload streams from the same handle through a fixed-size buffer.
//!    [`ingest_path`] collects it with [`Dataset::read_binary_from`], so
//!    a hit holds the data set and one stream block, never the image;
//!    [`Study::run_file`](crate::Study::run_file) hands the streams to
//!    the study one at a time, so `report --cache` holds one stream at a
//!    time, and falls back to the text if the cache proves corrupt part
//!    way through.
//! 2. **Streamed text** — the file streams through a [`RetryingReader`]
//!    and a fixed-size buffer into the parser, so ingest memory is at
//!    most the data set, never its text. [`ingest_path`] collects it with
//!    [`Dataset::read_text`]. [`Study::run_file`](crate::Study::run_file)
//!    reads the same input with a
//!    [`TextReader`](tracelens_model::textio::TextReader): text whose
//!    instances come before its traces, the layout
//!    [`Dataset::write_text`] writes, reaches the study one trace at a
//!    time, so `report` holds one stream at a time; text in any other
//!    layout is collected, or parsed again whole. A cache miss
//!    fingerprints the text in the same pass and packs the result
//!    through [`write_cache`], which streams the image to disk.
//!
//! Every ingest is instrumented under the `ingest` telemetry stage
//! (span `ingest`, counters `ingest.bytes` / `ingest.events` /
//! `ingest.cache_hits` / `ingest.cache_fallbacks`), and the returned
//! [`IngestReport`] carries the transport counters (`io_retries`, cache
//! fallback) that `validate --sanitize` prints through `SanitizeReport`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use tracelens_model::binio::{self, Fingerprinter, HEADER_LEN};
use tracelens_model::textio::{ReadError, RetryPolicy, RetryingReader};
use tracelens_model::Dataset;
use tracelens_obs::{stage, Telemetry};

/// Bytes per read from a text or cache file, and per write to a cache:
/// large enough that refills cost little next to decoding, small enough
/// to stay in cache.
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
    /// Bytes read from the source: the text's length, or the cache
    /// file's length when the cache was used.
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
    fn new(source: IngestSource, bytes: usize, io_retries: usize, events: usize) -> IngestReport {
        IngestReport {
            source,
            bytes,
            events,
            io_retries,
            cache_fallback: None,
            cache_written: false,
            cache_quarantined: false,
        }
    }

    /// The report of a read served by a cache of `bytes` bytes that
    /// held `events` events, counted as a hit in `telemetry`.
    pub(crate) fn cache_hit(
        bytes: usize,
        events: usize,
        io_retries: usize,
        telemetry: &Telemetry,
    ) -> IngestReport {
        telemetry.count("ingest.cache_hits", 1);
        telemetry.count("ingest.events", events as u64);
        IngestReport::new(IngestSource::BinaryCache, bytes, io_retries, events)
    }
}

/// A reader that counts the bytes it passes on and, when it holds a
/// [`Fingerprinter`], fingerprints them.
pub(crate) struct Tap<R> {
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

    /// Reads retried so far.
    pub(crate) fn retries(&self) -> usize {
        self.inner.retries()
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

/// Text as the parser reads it: through a [`RetryingReader`] and a
/// counting tap, in a fixed-size buffer.
pub(crate) type TextInput<R> = BufReader<Tap<R>>;

/// `input` as a [`TextInput`], fingerprinted when `fingerprint` is set.
pub(crate) fn tapped<R: Read>(input: R, fingerprint: bool) -> TextInput<R> {
    BufReader::with_capacity(READ_BUF, Tap::new(input, fingerprint))
}

/// The report of a text read through `input` that yielded `events`
/// events, counted in `telemetry`, and the text's fingerprint if it was
/// taken.
pub(crate) fn text_read<R: Read>(
    input: TextInput<R>,
    events: usize,
    telemetry: &Telemetry,
) -> (IngestReport, Option<u64>) {
    let tap = input.into_inner();
    telemetry.count("ingest.bytes", tap.bytes as u64);
    telemetry.count("ingest.events", events as u64);
    let report = IngestReport::new(IngestSource::Text, tap.bytes, tap.retries(), events);
    (report, tap.fingerprint.map(|f| f.finish()))
}

/// Streams `.tlt` text from `input` into the parser, fingerprinting it
/// in the same pass when `fingerprint` is set.
fn stream_text<R: Read>(
    input: R,
    fingerprint: bool,
    telemetry: &Telemetry,
) -> Result<(Dataset, IngestReport, Option<u64>), ReadError> {
    let mut input = tapped(input, fingerprint);
    let ds = Dataset::read_text(&mut input)?;
    let (report, fingerprint) = text_read(input, ds.total_events(), telemetry);
    Ok((ds, report, fingerprint))
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
/// streamed once to fingerprint it, and a match loads the whole cache.
/// A missing, stale, or corrupt cache is counted in the report and the
/// text is parsed instead — fingerprinted in the same pass — after
/// which a fresh cache is written (atomically: temp file + rename,
/// best-effort) so the next read hits. [`Study::run_file`] takes the
/// same steps but streams a usable cache, and text in the layout
/// [`Dataset::write_text`] writes, through the study instead of loading
/// it.
///
/// [`Study::run_file`]: crate::Study::run_file
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
    if !cache {
        let file = File::open(path).map_err(ReadError::Io)?;
        let (ds, report, _) = stream_text(&file, false, telemetry)?;
        return Ok((ds, report));
    }
    let (text, cache) = open_cached(path)?;
    let fallback = match cache {
        Ok(cache) => match cache.load(text.retries, telemetry) {
            Some(hit) => return Ok(hit),
            None => CacheFallback::Corrupt,
        },
        Err(fallback) => fallback,
    };
    text.parse(fallback, telemetry)
}

/// A text file opened for a cached read: what parsing it after a cache
/// miss needs.
pub(crate) struct CachedText {
    file: File,
    cache_path: PathBuf,
    /// Reads retried while fingerprinting the text.
    pub(crate) retries: usize,
}

/// Opens the text at `path` and its cache ([`cache_path_for`]). When the
/// cache's header records a fingerprint, the text is streamed once to
/// fingerprint it; the cache comes back open when the two match, and
/// otherwise the reason it cannot be used.
///
/// # Errors
///
/// I/O errors opening or reading the text.
pub(crate) fn open_cached(
    path: &Path,
) -> Result<(CachedText, Result<OpenCache, CacheFallback>), ReadError> {
    let file = File::open(path).map_err(ReadError::Io)?;
    let cache_path = cache_path_for(path);
    let mut retries = 0;
    let cache = match open_cache(&cache_path) {
        Err(fallback) => Err(fallback),
        Ok(cache) => {
            let (fingerprint, check_retries) = fingerprint_text(&file).map_err(ReadError::Io)?;
            retries = check_retries;
            if fingerprint == cache.fingerprint {
                Ok(cache)
            } else {
                Err(CacheFallback::Stale)
            }
        }
    };
    let text = CachedText {
        file,
        cache_path,
        retries,
    };
    Ok((text, cache))
}

impl CachedText {
    /// Parses the text because the cache could not be used, for
    /// `fallback`: the text is fingerprinted in the same pass, a corrupt
    /// cache is quarantined, and a fresh cache is written (atomically:
    /// temp file + rename, best-effort) so the next read hits.
    ///
    /// # Errors
    ///
    /// I/O errors reading the text and parse errors.
    pub(crate) fn parse(
        mut self,
        fallback: CacheFallback,
        telemetry: &Telemetry,
    ) -> Result<(Dataset, IngestReport), ReadError> {
        self.file.rewind().map_err(ReadError::Io)?;
        let (ds, mut report, fingerprint) = stream_text(&self.file, true, telemetry)?;
        let fingerprint = fingerprint.expect("the tap was asked to fingerprint");
        report.io_retries += self.retries;
        report.cache_fallback = Some(fallback);
        telemetry.count("ingest.cache_fallbacks", 1);
        if fallback == CacheFallback::Corrupt {
            report.cache_quarantined = quarantine_cache(&self.cache_path);
            if report.cache_quarantined {
                telemetry.count("ingest.cache_quarantined", 1);
            }
        }
        report.cache_written = write_cache(&self.cache_path, &ds, fingerprint).is_ok();
        Ok((ds, report))
    }
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

/// A cache file opened once, its header read and set aside.
pub(crate) struct OpenCache {
    file: File,
    header: [u8; HEADER_LEN],
    /// The source fingerprint the header records.
    fingerprint: u64,
}

/// The whole of a cache file, header first, as [`OpenCache::input`]
/// reads it.
pub(crate) type CacheInput<'a> = BufReader<io::Chain<io::Cursor<[u8; HEADER_LEN]>, &'a File>>;

/// Opens the cache and reads the source fingerprint from its header
/// alone: [`CacheFallback::Missing`] when there is no cache file,
/// [`CacheFallback::Corrupt`] when its header is short, foreign or of
/// another format version.
fn open_cache(cache_path: &Path) -> Result<OpenCache, CacheFallback> {
    let mut file = File::open(cache_path).map_err(|_| CacheFallback::Missing)?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|_| CacheFallback::Corrupt)?;
    let fingerprint = binio::header_fingerprint(&header).ok_or(CacheFallback::Corrupt)?;
    Ok(OpenCache {
        file,
        header,
        fingerprint,
    })
}

impl OpenCache {
    /// The whole cache, header first, streaming through a fixed-size
    /// buffer on the handle [`open_cache`] opened, and the cache file's
    /// length. Each call reads the cache from its start.
    pub(crate) fn input(&self) -> io::Result<(CacheInput<'_>, usize)> {
        let mut file = &self.file;
        file.seek(io::SeekFrom::Start(HEADER_LEN as u64))?;
        let len = file.metadata()?.len();
        let input = io::Cursor::new(self.header).chain(file);
        Ok((BufReader::with_capacity(READ_BUF, input), len as usize))
    }

    /// Loads the whole data set, as [`ingest_path`] does on a hit; `None`
    /// if the cache does not read back as an intact image.
    pub(crate) fn load(
        &self,
        io_retries: usize,
        telemetry: &Telemetry,
    ) -> Option<(Dataset, IngestReport)> {
        let (input, bytes) = self.input().ok()?;
        let (ds, _) = Dataset::read_binary_from(input).ok()?;
        let report = IngestReport::cache_hit(bytes, ds.total_events(), io_retries, telemetry);
        Some((ds, report))
    }
}

/// Writes `ds` as a `.tlb` image of the text with `fingerprint` to
/// `cache_path`, atomically: the image streams through a fixed-size
/// buffer into a temp sibling, which is synced and then renamed over
/// `cache_path`, so a reader sees the old file or the whole new one.
/// The `--cache` layer treats a failure as "no cache next time"; `pack`
/// reports it.
///
/// # Errors
///
/// I/O errors creating, writing, syncing or renaming the file; the temp
/// sibling is removed.
pub fn write_cache(cache_path: &Path, ds: &Dataset, fingerprint: u64) -> io::Result<()> {
    let tmp = cache_path.with_extension("tlb.tmp");
    let write = || -> io::Result<()> {
        let mut out = BufWriter::with_capacity(READ_BUF, File::create(&tmp)?);
        ds.write_binary(fingerprint, &mut out)?;
        // Dropping a `BufWriter` discards the error of its last write,
        // so flush explicitly before syncing.
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, cache_path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
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
