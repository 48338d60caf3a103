//! `.tlb` (*tracelens binary*) — the columnar on-disk trace store.
//!
//! A packed data set holds the same information as the `.tlt` text
//! format, laid out for load speed instead of readability: the symbol
//! and stack tables are written once, and each stream's events form one
//! block of struct-of-arrays columns (one contiguous array per field).
//! Loading is one sequential pass: each stream block is read into a
//! reused buffer and decoded column by column into the stream's event
//! vector, instead of a per-line parse. The paper's corpus is
//! re-analyzed far more often than it is collected, so the pack cost is
//! paid once and every later run starts at column-read speed.
//!
//! ## Layout (format 3)
//!
//! ```text
//! header (32 bytes)
//!   magic      "TLB!"          4 bytes
//!   version    u32             bumped on any layout change
//!   fingerprint u64            fingerprint_bytes of the *source text*
//!   payload_len u64
//!   checksum   u64             fingerprint_bytes of the payload bytes
//! payload (all integers little-endian)
//!   symbols    count, then per symbol: len + UTF-8 bytes
//!   stacks     count, frame-count column, flat frame-symbol column
//!   names      scenario-name table (count, then len + bytes each)
//!   scenarios  name-index, t_fast, t_slow columns
//!   instances  count, then trace, tid, t0, t1, name-index columns
//!   streams    count, then one block per stream:
//!                id u32, event count u64, the event columns
//!                kind u8 / tid u32 / pid u32 / t u64 / cost u64 /
//!                stack u32, a wtid presence bitmap, the wtid count
//!                u32, the packed wtid values
//! ```
//!
//! Both fingerprints are [`fingerprint_bytes`]: FNV-1a's multiply
//! folded over 8-byte words in four interleaved lanes, not byte-wise
//! FNV-1a.
//!
//! Both directions stream. [`Dataset::write_binary`] writes to any
//! [`Write`], one stream block at a time; a first pass that writes
//! nothing computes the header's payload length and checksum.
//! [`BinReader`] reads from any [`Read`] and checksums the payload as it
//! arrives: it hands back every table first, the instances included,
//! and then one decoded stream at a time, so a consumer that analyzes a
//! stream and drops it holds one stream, never the events of the whole
//! image. [`Dataset::read_binary_from`] is that reader, collected.
//! Format 2, which put the instances after the streams, is read as a
//! version skew: the cache layer repacks it once.
//!
//! The fingerprint identifies *which text* a cache was packed from; the
//! checksum proves the payload arrived intact. A reader rejects any
//! torn, bit-flipped, or version-skewed file with a typed
//! [`BinReadError`] — callers (the `--cache` layer) then fall back to
//! the text parse. The checksum is known only at the end of the
//! payload, so a streamed consumer must not act on what it read until
//! the reader is exhausted without an error. Every count is bounded by
//! the payload bytes not yet read before anything is allocated for it.
//! Reading is loss-free even for data sets that would fail validation
//! (unsorted streams, dangling stack ids survive a round trip
//! unchanged), so packing never launders corruption.

use crate::dataset::Dataset;
use crate::event::{Event, EventKind};
use crate::ids::{ProcessId, ThreadId, TraceId};
use crate::scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
use crate::stack::StackId;
use crate::stream::TraceStream;
use crate::time::TimeNs;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// File magic of the binary store.
pub const MAGIC: [u8; 4] = *b"TLB!";

/// Current binary format version; bumped on any layout change, so a
/// reader never mis-parses a cache written by a different build.
pub const BIN_FORMAT_VERSION: u32 = 3;

/// Header length in bytes (magic + version + fingerprint + payload
/// length + checksum).
pub const HEADER_LEN: usize = 32;

/// FNV-1a's xor-and-multiply step folded over 8-byte little-endian
/// words in four interleaved lanes (the lanes combined at the end, the
/// final partial word zero-padded, the input length mixed in last) —
/// used both as the source-content fingerprint and as the payload
/// checksum. It is not byte-wise FNV-1a: word folding keeps the
/// multiply chain an eighth as long, and the lanes let four chains run
/// at once, which matters because every cached ingest fingerprints the
/// full source text and every binary load checksums the full payload.
///
/// The one-shot form of [`Fingerprinter`].
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut f = Fingerprinter::new();
    f.update(bytes);
    f.finish()
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// [`fingerprint_bytes`] over a stream: feeding the same bytes in any
/// chunking gives the same value, so a file can be fingerprinted as it
/// is read instead of after it is held whole.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    /// Four independent lanes over interleaved words: FNV's multiply is
    /// a serial dependency chain, so striping lets the CPU overlap four
    /// multiplies instead of waiting on one.
    lanes: [u64; 4],
    /// The start of a 32-byte block whose end has not arrived yet.
    pending: [u8; 32],
    pending_len: usize,
    len: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fingerprint of no bytes yet.
    pub fn new() -> Fingerprinter {
        Fingerprinter {
            lanes: [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3],
            pending: [0; 32],
            pending_len: 0,
            len: 0,
        }
    }

    /// Appends `bytes` to the fingerprinted stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            fold_block(&mut lanes, &self.pending);
            self.pending_len = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            fold_block(&mut lanes, block);
        }
        self.lanes = lanes;
        let rem = blocks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// The fingerprint of every byte fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lane in self.lanes {
            h ^= lane;
            h = h.wrapping_mul(FNV_PRIME);
        }
        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for w in &mut words {
            h ^= u64::from_le_bytes(w.try_into().expect("exact chunk"));
            h = h.wrapping_mul(FNV_PRIME);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            h ^= u64::from_le_bytes(last);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Length distinguishes inputs that differ only in trailing zeroes.
        h ^= self.len;
        h.wrapping_mul(FNV_PRIME)
    }
}

/// Folds one 32-byte block into the four lanes.
#[inline]
fn fold_block(lanes: &mut [u64; 4], block: &[u8]) {
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane ^= u64::from_le_bytes(block[j * 8..j * 8 + 8].try_into().expect("exact chunk"));
        *lane = lane.wrapping_mul(FNV_PRIME);
    }
}

/// Reads just the source fingerprint out of a `.tlb` header, without
/// touching the payload — the cheap staleness check the cache layer
/// runs before committing to a full load. `None` if the bytes are not
/// a complete header of the supported version.
pub fn header_fingerprint(mut bytes: &[u8]) -> Option<u64> {
    Header::read(&mut bytes).ok().map(|h| h.fingerprint)
}

/// Errors produced while reading the binary store. Every variant means
/// "this cache is unusable; re-ingest from text" — none are fatal to
/// the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinReadError {
    /// Not a `.tlb` file (wrong or incomplete magic).
    BadMagic,
    /// Written by a different format version.
    UnsupportedVersion(u32),
    /// Shorter than the header claims — a torn write.
    Truncated,
    /// Payload checksum mismatch — bit rot or a torn rewrite.
    ChecksumMismatch,
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// The source failed with an I/O error other than a premature end.
    Io(io::ErrorKind),
}

impl fmt::Display for BinReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinReadError::BadMagic => write!(f, "not a tracelens binary store"),
            BinReadError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary format version {v}")
            }
            BinReadError::Truncated => write!(f, "binary store is truncated"),
            BinReadError::ChecksumMismatch => write!(f, "binary store checksum mismatch"),
            BinReadError::Malformed(what) => write!(f, "malformed binary store: {what}"),
            BinReadError::Io(kind) => write!(f, "binary store unreadable: {kind}"),
        }
    }
}

impl Error for BinReadError {}

fn kind_byte(kind: EventKind) -> u8 {
    match kind {
        EventKind::Running => 0,
        EventKind::Wait => 1,
        EventKind::Unwait => 2,
        EventKind::HardwareService => 3,
    }
}

/// Event kinds by their byte in the kind column.
const KINDS: [EventKind; 4] = [
    EventKind::Running,
    EventKind::Wait,
    EventKind::Unwait,
    EventKind::HardwareService,
];

/// Encoded bytes of one event's fixed columns: kind, tid, pid, t, cost
/// and stack. The wtid bitmap and values come on top.
const EVENT_BYTES: u64 = 1 + 4 + 4 + 8 + 8 + 4;

/// Smallest stream block: id, event count and wtid count.
const MIN_BLOCK_BYTES: u64 = 4 + 8 + 4;

/// Most bytes the read buffer grows by ahead of the bytes received.
const GROW_STEP: u64 = 1 << 20;

/// Encoded bytes of one instance: trace, tid, t0, t1 and name index.
const INSTANCE_BYTES: u64 = 4 + 4 + 8 + 8 + 4;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one stream's block: id, event count, the six event columns,
/// the wtid bitmap, the wtid count and the packed wtids.
fn put_block(buf: &mut Vec<u8>, stream: &TraceStream) {
    let events = stream.events();
    put_u32(buf, stream.id().0);
    put_u64(buf, events.len() as u64);
    buf.extend(events.iter().map(|e| kind_byte(e.kind)));
    for e in events {
        put_u32(buf, e.tid.0);
    }
    for e in events {
        put_u32(buf, e.pid.0);
    }
    for e in events {
        put_u64(buf, e.t.as_nanos());
    }
    for e in events {
        put_u64(buf, e.cost.as_nanos());
    }
    for e in events {
        put_u32(buf, e.stack.0);
    }
    let bitmap = buf.len();
    buf.resize(bitmap + events.len().div_ceil(8), 0);
    let mut wtids = 0u32;
    for (i, e) in events.iter().enumerate() {
        if e.wtid.is_some() {
            buf[bitmap + i / 8] |= 1 << (i % 8);
            wtids += 1;
        }
    }
    put_u32(buf, wtids);
    for w in events.iter().filter_map(|e| e.wtid) {
        put_u32(buf, w.0);
    }
}

/// A sink that keeps only the length and checksum of what is written:
/// the writer's first pass, which fills in the header.
struct Summary {
    len: u64,
    checksum: Fingerprinter,
}

impl Write for Summary {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.len += bytes.len() as u64;
        self.checksum.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What the header says about the payload that follows it.
struct Header {
    fingerprint: u64,
    payload_len: u64,
    checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[0..4].copy_from_slice(&MAGIC);
        bytes[4..8].copy_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.fingerprint.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.payload_len.to_le_bytes());
        bytes[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        bytes
    }

    /// Reads and checks the header: [`BinReadError::BadMagic`] for a
    /// foreign or under-four-byte file, [`BinReadError::Truncated`] for
    /// a short header, [`BinReadError::UnsupportedVersion`] for another
    /// format.
    fn read(input: &mut impl Read) -> Result<Header, BinReadError> {
        let mut bytes = [0u8; HEADER_LEN];
        let mut got = 0;
        while got < HEADER_LEN {
            match input.read(&mut bytes[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(BinReadError::Io(e.kind())),
            }
        }
        if got < 4 || bytes[0..4] != MAGIC {
            return Err(BinReadError::BadMagic);
        }
        if got < HEADER_LEN {
            return Err(BinReadError::Truncated);
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != BIN_FORMAT_VERSION {
            return Err(BinReadError::UnsupportedVersion(version));
        }
        Ok(Header {
            fingerprint: word(8),
            payload_len: word(16),
            checksum: word(24),
        })
    }
}

/// The payload as it arrives: every read is bounded by the bytes the
/// header says are left, lands in one reused buffer, and is checksummed
/// on the way in, so a crafted or colliding payload produces an error,
/// never a panic or a huge allocation.
struct Payload<R> {
    input: R,
    /// Payload bytes not yet read.
    left: u64,
    checksum: Fingerprinter,
    /// Holds the current read in `buf[..filled]`; it only grows, so a
    /// refill writes over bytes that are already initialised.
    buf: Vec<u8>,
    filled: usize,
}

impl<R: Read> Payload<R> {
    /// Reads the next `n` payload bytes in place of the buffer's
    /// contents.
    fn take(&mut self, n: u64) -> Result<&[u8], BinReadError> {
        self.filled = 0;
        self.append(n)?;
        Ok(&self.buf[..self.filled])
    }

    /// Reads the next `n` payload bytes onto the end of the buffer.
    ///
    /// The buffer grows by at most [`GROW_STEP`] ahead of the bytes that
    /// have arrived: `n` is bounded only by the header's payload length,
    /// which the checksum vouches for only at the end, so a header that
    /// claims more than the file holds must end in `Truncated`, not in
    /// an allocation of the claimed size.
    fn append(&mut self, n: u64) -> Result<(), BinReadError> {
        if n > self.left {
            return Err(BinReadError::Malformed("section overruns payload"));
        }
        let mut want = n;
        while want > 0 {
            let step = want.min(GROW_STEP) as usize;
            let end = self.filled + step;
            if self.buf.len() < end {
                self.buf.resize(end, 0);
            }
            let bytes = &mut self.buf[self.filled..end];
            self.input.read_exact(bytes).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => BinReadError::Truncated,
                kind => BinReadError::Io(kind),
            })?;
            self.checksum.update(bytes);
            self.filled = end;
            want -= step as u64;
        }
        self.left -= n;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, BinReadError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, BinReadError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&str, BinReadError> {
        let len = self.u32()?;
        std::str::from_utf8(self.take(len.into())?)
            .map_err(|_| BinReadError::Malformed("invalid utf-8 in string table"))
    }

    /// Reads an element count and checks it against the bytes actually
    /// left, so a corrupt count cannot drive a huge allocation.
    fn count(&mut self, min_elem_bytes: u64) -> Result<usize, BinReadError> {
        let count = self.u32()?;
        if u64::from(count).saturating_mul(min_elem_bytes) > self.left {
            return Err(BinReadError::Malformed("count overruns payload"));
        }
        Ok(count as usize)
    }

    /// Reads and checksums whatever the payload has left.
    fn drain(&mut self) -> Result<(), BinReadError> {
        while self.left > 0 {
            self.take(self.left.min(64 * 1024))?;
        }
        Ok(())
    }

    /// Whether the input ends where the payload does.
    fn at_end(&mut self) -> Result<bool, BinReadError> {
        let mut byte = [0u8; 1];
        loop {
            match self.input.read(&mut byte) {
                Ok(n) => return Ok(n == 0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(BinReadError::Io(e.kind())),
            }
        }
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

impl Dataset {
    /// Serializes the data set into a complete `.tlb` image: what
    /// [`Dataset::write_binary`] writes, collected in memory.
    ///
    /// `fingerprint` identifies the source this image was packed from —
    /// conventionally [`fingerprint_bytes`] of the text serialization —
    /// and is what [`header_fingerprint`] reports for cache-staleness
    /// checks.
    pub fn to_binary(&self, fingerprint: u64) -> Vec<u8> {
        let events = self.total_events() as u64;
        let mut image =
            Vec::with_capacity((HEADER_LEN as u64 + 64 + events * EVENT_BYTES) as usize);
        self.write_binary(fingerprint, &mut image)
            .expect("writing to memory cannot fail");
        image
    }

    /// Writes the data set as a `.tlb` binary store in two passes over
    /// the data set: the first writes nothing and computes the payload
    /// length and checksum for the header; the second writes the header
    /// and then the payload, one section or stream block at a time.
    /// Memory is one stream block, whatever the size of the image.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_binary<W: Write>(&self, fingerprint: u64, mut out: W) -> io::Result<()> {
        let mut summary = Summary {
            len: 0,
            checksum: Fingerprinter::new(),
        };
        self.write_payload(&mut summary)?;
        let header = Header {
            fingerprint,
            payload_len: summary.len,
            checksum: summary.checksum.finish(),
        };
        out.write_all(&header.encode())?;
        self.write_payload(&mut out)
    }

    /// Writes the payload: the tables and the instances, then one block
    /// per stream.
    fn write_payload(&self, out: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::new();

        // Symbols, in id order.
        put_u32(&mut buf, self.stacks.symbols().len() as u32);
        for (_, text) in self.stacks.symbols().iter() {
            put_str(&mut buf, text);
        }

        // Stacks: frame-count column, then the flat frame column.
        put_u32(&mut buf, self.stacks.len() as u32);
        let stacks = || (0..self.stacks.len()).map(|id| self.stacks.frames(StackId(id as u32)));
        for frames in stacks() {
            put_u32(&mut buf, frames.len() as u32);
        }
        put_u64(&mut buf, stacks().map(|f| f.len() as u64).sum());
        for sym in stacks().flatten() {
            put_u32(&mut buf, sym.0);
        }

        // Scenario-name table, first-appearance order over scenarios
        // then instances.
        let mut names: Vec<&str> = Vec::new();
        let mut name_idx: HashMap<&str, u32> = HashMap::new();
        for name in self
            .scenarios
            .iter()
            .map(|s| s.name.as_str())
            .chain(self.instances.iter().map(|i| i.scenario.as_str()))
        {
            name_idx.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() as u32 - 1
            });
        }
        put_u32(&mut buf, names.len() as u32);
        for name in &names {
            put_str(&mut buf, name);
        }

        // Scenarios: name-index, t_fast, t_slow columns.
        put_u32(&mut buf, self.scenarios.len() as u32);
        for s in &self.scenarios {
            put_u32(&mut buf, name_idx[s.name.as_str()]);
        }
        for s in &self.scenarios {
            put_u64(&mut buf, s.thresholds.fast().as_nanos());
        }
        for s in &self.scenarios {
            put_u64(&mut buf, s.thresholds.slow().as_nanos());
        }

        // Instances: trace, tid, t0, t1, name-index columns.
        put_u32(&mut buf, self.instances.len() as u32);
        for i in &self.instances {
            put_u32(&mut buf, i.trace.0);
        }
        for i in &self.instances {
            put_u32(&mut buf, i.tid.0);
        }
        for i in &self.instances {
            put_u64(&mut buf, i.t0.as_nanos());
        }
        for i in &self.instances {
            put_u64(&mut buf, i.t1.as_nanos());
        }
        for i in &self.instances {
            put_u32(&mut buf, name_idx[i.scenario.as_str()]);
        }

        // Streams, one block each.
        put_u32(&mut buf, self.streams.len() as u32);
        out.write_all(&buf)?;
        for stream in &self.streams {
            buf.clear();
            put_block(&mut buf, stream);
            out.write_all(&buf)?;
        }
        Ok(())
    }

    /// Reads a data set from a complete `.tlb` image in memory (see
    /// [`Dataset::read_binary_from`]).
    ///
    /// # Errors
    ///
    /// As [`Dataset::read_binary_from`].
    pub fn read_binary(bytes: &[u8]) -> Result<(Dataset, u64), BinReadError> {
        Dataset::read_binary_from(bytes)
    }

    /// Reads a data set from a `.tlb` stream, returning it together with
    /// the source fingerprint recorded in the header: a [`BinReader`]
    /// with its streams collected.
    ///
    /// One sequential pass: each stream block is read into one reused
    /// buffer and decoded into an event vector of exact capacity, and
    /// the payload is checksummed as its bytes arrive. The
    /// reconstruction is exact: symbol ids, stack ids, stream order and
    /// event order all match the data set that was written, so
    /// `read_binary(to_binary(ds)).0` serializes byte-identically to
    /// `ds` via [`Dataset::write_text`].
    ///
    /// # Errors
    ///
    /// A [`BinReadError`] for any torn, corrupted, or version-skewed
    /// image; the caller is expected to fall back to text ingestion. A
    /// torn image is [`BinReadError::BadMagic`] or
    /// [`BinReadError::Truncated`]. A payload that fails its checksum is
    /// [`BinReadError::ChecksumMismatch`], even where a flipped byte
    /// derailed the structure first: the rest of the payload is then
    /// read so that the checksum decides. Bytes after the payload are
    /// [`BinReadError::Malformed`].
    pub fn read_binary_from<R: Read>(input: R) -> Result<(Dataset, u64), BinReadError> {
        let (mut ds, mut streams) = BinReader::new(input)?;
        for stream in &mut streams {
            ds.streams.push(stream?);
        }
        Ok((ds, streams.fingerprint()))
    }
}

/// A `.tlb` image read in one sequential pass, one stream at a time.
///
/// [`BinReader::new`] reads the header and every table — symbols,
/// stacks, scenarios and instances — and hands the tables back as a
/// data set without streams. The reader then yields one decoded stream
/// per item, in file order. After the last stream it checks that the
/// payload ends there, that its checksum matches the header's and that
/// no byte follows it, and yields the error if one of these fails. So a
/// consumer that drew every item without an error has read an intact
/// image; until then, what it read may be corrupt. After an error the
/// reader yields nothing more.
pub struct BinReader<R> {
    payload: Payload<R>,
    header: Header,
    /// Stream blocks not yet read.
    streams_left: usize,
    /// Set once the payload has been verified or an error returned.
    done: bool,
}

impl<R: Read> BinReader<R> {
    /// Reads the header and the tables, returning the tables as a data
    /// set with no streams, and the reader positioned at the first
    /// stream block.
    ///
    /// # Errors
    ///
    /// As [`Dataset::read_binary_from`], for the header and the tables.
    pub fn new(mut input: R) -> Result<(Dataset, BinReader<R>), BinReadError> {
        let header = Header::read(&mut input)?;
        let mut reader = BinReader {
            payload: Payload {
                input,
                left: header.payload_len,
                checksum: Fingerprinter::new(),
                buf: Vec::new(),
                filled: 0,
            },
            header,
            streams_left: 0,
            done: false,
        };
        match decode_tables(&mut reader.payload) {
            Ok((tables, streams)) => {
                reader.streams_left = streams;
                Ok((tables, reader))
            }
            Err(e) => Err(reader.fail(e)),
        }
    }

    /// The source fingerprint the header records.
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// Stops the read at error `e`. A flipped byte can derail the
    /// structure before the checksum sees it, so after a structural
    /// error the rest of the payload is read and the checksum decides.
    fn fail(&mut self, e: BinReadError) -> BinReadError {
        self.done = true;
        if matches!(e, BinReadError::Truncated | BinReadError::Io(_)) {
            return e;
        }
        match self.payload.drain() {
            Err(e) => e,
            Ok(()) if self.payload.checksum.finish() != self.header.checksum => {
                BinReadError::ChecksumMismatch
            }
            Ok(()) => e,
        }
    }

    /// Checks the payload after its last stream block: it ends there,
    /// its checksum matches, and the input ends with it.
    fn verify(&mut self) -> Result<(), BinReadError> {
        if self.payload.left != 0 {
            return Err(self.fail(BinReadError::Malformed("trailing bytes in payload")));
        }
        self.done = true;
        if self.payload.checksum.finish() != self.header.checksum {
            return Err(BinReadError::ChecksumMismatch);
        }
        if !self.payload.at_end()? {
            return Err(BinReadError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

impl<R: Read> Iterator for BinReader<R> {
    type Item = Result<TraceStream, BinReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.streams_left == 0 {
            return self.verify().err().map(Err);
        }
        self.streams_left -= 1;
        Some(decode_block(&mut self.payload).map_err(|e| self.fail(e)))
    }
}

/// Decodes the tables, section by section, up to and including the
/// stream count, which it returns with them.
fn decode_tables<R: Read>(p: &mut Payload<R>) -> Result<(Dataset, usize), BinReadError> {
    let mut ds = Dataset::new();

    // Symbols.
    let sym_count = p.count(4)?;
    for i in 0..sym_count {
        let sym = ds.stacks.intern_frame(p.str()?);
        if sym.0 as usize != i {
            return Err(BinReadError::Malformed("duplicate symbol in table"));
        }
    }

    // Stacks.
    let stack_count = p.count(4)?;
    let frame_counts: Vec<u32> = p
        .take(4 * stack_count as u64)?
        .chunks_exact(4)
        .map(le_u32)
        .collect();
    let total_frames = p.u64()?;
    if total_frames != frame_counts.iter().map(|&c| u64::from(c)).sum::<u64>() {
        return Err(BinReadError::Malformed("frame total mismatch"));
    }
    let frame_bytes = total_frames
        .checked_mul(4)
        .ok_or(BinReadError::Malformed("count overruns payload"))?;
    let mut syms = p.take(frame_bytes)?.chunks_exact(4).map(le_u32);
    let mut frames = Vec::new();
    for (i, &count) in frame_counts.iter().enumerate() {
        frames.clear();
        for sym in syms.by_ref().take(count as usize) {
            if sym as usize >= sym_count {
                return Err(BinReadError::Malformed("frame references unknown symbol"));
            }
            frames.push(crate::intern::Symbol(sym));
        }
        let id = ds.stacks.intern(&frames);
        if id.0 as usize != i {
            return Err(BinReadError::Malformed("duplicate stack in table"));
        }
    }

    // Scenario-name table.
    // Tables and streams grow as their entries arrive: a count is only
    // bounded by the header's payload length, which may be a lie.
    let name_count = p.count(4)?;
    let mut names = Vec::new();
    for _ in 0..name_count {
        names.push(ScenarioName::new(p.str()?));
    }
    let name_at = |idx: u32| -> Result<ScenarioName, BinReadError> {
        names
            .get(idx as usize)
            .copied()
            .ok_or(BinReadError::Malformed("scenario name index out of range"))
    };

    // Scenarios.
    let scen_count = p.count(4 + 8 + 8)? as u64;
    let columns = p.take(20 * scen_count)?;
    let (idx, bounds) = columns.split_at(4 * scen_count as usize);
    let (fasts, slows) = bounds.split_at(8 * scen_count as usize);
    for ((idx, fast), slow) in idx
        .chunks_exact(4)
        .zip(fasts.chunks_exact(8))
        .zip(slows.chunks_exact(8))
    {
        let (fast, slow) = (le_u64(fast), le_u64(slow));
        if fast >= slow {
            return Err(BinReadError::Malformed("scenario thresholds inverted"));
        }
        ds.scenarios.push(Scenario::new(
            name_at(le_u32(idx))?,
            Thresholds::new(TimeNs(fast), TimeNs(slow)),
        ));
    }

    // Instances.
    let inst_count = p.count(INSTANCE_BYTES)? as u64;
    let columns = p.take(INSTANCE_BYTES * inst_count)?;
    let n = inst_count as usize;
    let (traces, rest) = columns.split_at(4 * n);
    let (tids, rest) = rest.split_at(4 * n);
    let (t0s, rest) = rest.split_at(8 * n);
    let (t1s, name_idx) = rest.split_at(8 * n);
    ds.instances.reserve_exact(n);
    for ((((trace, tid), t0), t1), name) in traces
        .chunks_exact(4)
        .zip(tids.chunks_exact(4))
        .zip(t0s.chunks_exact(8))
        .zip(t1s.chunks_exact(8))
        .zip(name_idx.chunks_exact(4))
    {
        ds.instances.push(ScenarioInstance {
            trace: TraceId(le_u32(trace)),
            scenario: name_at(le_u32(name))?,
            tid: ThreadId(le_u32(tid)),
            t0: TimeNs(le_u64(t0)),
            t1: TimeNs(le_u64(t1)),
        });
    }

    let stream_count = p.count(MIN_BLOCK_BYTES)?;
    Ok((ds, stream_count))
}

/// Decodes one stream block into a stream whose event vector has
/// exactly the block's event count as capacity.
fn decode_block<R: Read>(p: &mut Payload<R>) -> Result<TraceStream, BinReadError> {
    let id = p.u32()?;
    let len = p.u64()?;
    // Bound the event count by the bytes left before allocating for it:
    // the columns, the bitmap and the wtid count must all fit.
    let fixed = len
        .checked_mul(EVENT_BYTES)
        .and_then(|b| b.checked_add(len.div_ceil(8) + 4))
        .filter(|&b| b <= p.left)
        .ok_or(BinReadError::Malformed("event count overruns payload"))?;
    let len = usize::try_from(len).map_err(|_| BinReadError::Malformed("length overflow"))?;
    let bitmap_len = len.div_ceil(8);

    // Validate the kind column and the wtid bitmap up front so the
    // assembly loop below is infallible: no error branches on the
    // per-event hot path.
    let block = p.take(fixed)?;
    let (columns, count) = block.split_at(block.len() - 4);
    let wtid_count = le_u32(count) as usize;
    if columns[..len].iter().any(|&b| b > 3) {
        return Err(BinReadError::Malformed("bad event kind"));
    }
    let bitmap = &columns[columns.len() - bitmap_len..];
    let set_bits: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    if set_bits != wtid_count {
        return Err(BinReadError::Malformed("wtid bitmap/column mismatch"));
    }
    if !len.is_multiple_of(8) && bitmap.last().is_some_and(|&last| last >> (len % 8) != 0) {
        return Err(BinReadError::Malformed("wtid bitmap tail bits set"));
    }
    p.append(4 * wtid_count as u64)?;

    // Assemble events straight off the byte columns, in lockstep.
    let block = &p.buf[..p.filled];
    let (kinds, rest) = block.split_at(len);
    let (tids, rest) = rest.split_at(4 * len);
    let (pids, rest) = rest.split_at(4 * len);
    let (ts, rest) = rest.split_at(8 * len);
    let (costs, rest) = rest.split_at(8 * len);
    let (stacks, rest) = rest.split_at(4 * len);
    let (bitmap, rest) = rest.split_at(bitmap_len);
    let mut wtids = rest[4..].chunks_exact(4).map(le_u32);
    let mut events = Vec::with_capacity(len);
    events.extend(
        kinds
            .iter()
            .zip(tids.chunks_exact(4))
            .zip(pids.chunks_exact(4))
            .zip(ts.chunks_exact(8))
            .zip(costs.chunks_exact(8))
            .zip(stacks.chunks_exact(4))
            .enumerate()
            .map(|(i, (((((&kind, tid), pid), t), cost), stack))| Event {
                kind: KINDS[(kind & 3) as usize],
                tid: ThreadId(le_u32(tid)),
                pid: ProcessId(le_u32(pid)),
                t: TimeNs(le_u64(t)),
                cost: TimeNs(le_u64(cost)),
                stack: StackId(le_u32(stack)),
                wtid: (bitmap[i / 8] & (1 << (i % 8)) != 0)
                    .then(|| ThreadId(wtids.next().expect("one wtid per set bit"))),
            }),
    );
    // Order is preserved verbatim (no re-sort), so even streams that
    // would fail validation round-trip unchanged.
    Ok(TraceStream::from_unchecked_parts(TraceId(id), events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceStreamBuilder;
    use std::io::BufReader;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("S"),
            Thresholds::new(TimeNs(100), TimeNs(200)),
        ));
        let a = ds.stacks.intern_symbols(&["app!Main", "fs.sys!Read"]);
        let b = ds.stacks.intern_symbols(&["app!Main"]);
        let mut tb = TraceStreamBuilder::new(0);
        tb.push_running(ThreadId(1), TimeNs(0), TimeNs(10), a);
        tb.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, b);
        tb.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), a);
        tb.push_hardware(ThreadId(3), TimeNs(12), TimeNs(15), b);
        ds.streams.push(tb.finish().unwrap());
        let mut tb = TraceStreamBuilder::new(1);
        tb.push_running(ThreadId(5), TimeNs(3), TimeNs(7), b);
        ds.streams.push(tb.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(40),
        });
        ds.instances.push(ScenarioInstance {
            trace: TraceId(1),
            scenario: ScenarioName::new("Orphan"),
            tid: ThreadId(5),
            t0: TimeNs(3),
            t1: TimeNs(9),
        });
        ds
    }

    fn text(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        ds.write_text(&mut out).unwrap();
        out
    }

    /// A reader that hands out at most `k` bytes per call.
    struct Dribble<'a> {
        bytes: &'a [u8],
        k: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.k.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A read outcome in comparable form: the data set as text.
    type Outcome = Result<(Vec<u8>, u64), BinReadError>;

    fn outcome(result: Result<(Dataset, u64), BinReadError>) -> Outcome {
        result.map(|(ds, fp)| (text(&ds), fp))
    }

    /// `image` written to a file of its own and read back through a
    /// buffered file handle, the way the `--cache` layer reads.
    fn read_through_file(image: &[u8]) -> Outcome {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "tracelens-binio-{}-{}.tlb",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, image).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let got = outcome(Dataset::read_binary_from(BufReader::with_capacity(
            64 * 1024,
            file,
        )));
        std::fs::remove_file(&path).unwrap();
        got
    }

    /// Reads `image` from memory, through readers that return at most
    /// 1 to 7 bytes per call, and through a file; every reader must
    /// agree on the data set or the error. Returns the in-memory read.
    fn read_every_way(image: &[u8]) -> Result<(Dataset, u64), BinReadError> {
        let read = Dataset::read_binary(image);
        let want = outcome(read.clone());
        for k in 1..=7 {
            let got = outcome(Dataset::read_binary_from(Dribble { bytes: image, k }));
            assert_eq!(got, want, "{k} bytes per read");
        }
        assert_eq!(read_through_file(image), want, "through a file");
        read
    }

    #[test]
    fn binary_round_trip_is_text_byte_identical() {
        let ds = sample();
        let src = text(&ds);
        let image = ds.to_binary(fingerprint_bytes(&src));
        let (back, fp) = Dataset::read_binary(&image).unwrap();
        assert_eq!(fp, fingerprint_bytes(&src));
        assert_eq!(text(&back), src);
        assert_eq!(back.instances, ds.instances);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = Dataset::new();
        let image = ds.to_binary(7);
        let (back, fp) = Dataset::read_binary(&image).unwrap();
        assert_eq!(fp, 7);
        assert_eq!(text(&back), text(&ds));
    }

    #[test]
    fn corrupt_dataset_round_trips_without_laundering() {
        // Unsorted events and a dangling stack id must survive a pack /
        // load cycle verbatim — the cache must never hide corruption.
        let mut ds = sample();
        let mut events: Vec<Event> = ds.streams[0].events().to_vec();
        events.swap(0, 3);
        events[1].stack = StackId(999);
        ds.streams[0] = TraceStream::from_unchecked_parts(TraceId(0), events);
        let image = ds.to_binary(1);
        let (back, _) = read_every_way(&image).unwrap();
        assert_eq!(back.streams[0].events(), ds.streams[0].events());
        assert_eq!(back.streams[0].events()[1].stack, StackId(999));
    }

    #[test]
    fn the_reader_yields_the_tables_then_one_stream_at_a_time() {
        let ds = sample();
        let image = ds.to_binary(9);
        let (tables, mut reader) = BinReader::new(&image[..]).unwrap();
        assert!(tables.streams.is_empty());
        assert_eq!(tables.instances, ds.instances);
        assert_eq!(reader.fingerprint(), 9);
        for want in &ds.streams {
            let got = reader.next().unwrap().unwrap();
            assert_eq!(got.id(), want.id());
            assert_eq!(got.events(), want.events());
        }
        assert!(reader.next().is_none(), "an intact image ends cleanly");
        assert!(reader.next().is_none());
    }

    #[test]
    fn a_flip_in_the_last_stream_shows_after_the_last_stream() {
        // The checksum covers the whole payload, so a flipped timestamp
        // decodes into a plausible stream and only the end of the read
        // reports it.
        let ds = sample();
        let mut image = ds.to_binary(9);
        let last = image.len() - 4 * 2 - 1 - 8 * 2;
        image[last] ^= 0x01;
        let (_, reader) = BinReader::new(&image[..]).unwrap();
        let items: Vec<_> = reader.collect();
        assert_eq!(items.len(), ds.streams.len() + 1);
        assert!(items[..ds.streams.len()].iter().all(Result::is_ok));
        assert_eq!(
            items.last().unwrap().as_ref().unwrap_err(),
            &BinReadError::ChecksumMismatch
        );
    }

    #[test]
    fn header_fingerprint_is_cheap_and_exact() {
        let ds = sample();
        let image = ds.to_binary(0xDEAD_BEEF);
        assert_eq!(header_fingerprint(&image), Some(0xDEAD_BEEF));
        assert_eq!(header_fingerprint(&image[..HEADER_LEN - 1]), None);
        assert_eq!(header_fingerprint(b"not a tlb"), None);
    }

    #[test]
    fn torn_image_fails_at_every_offset() {
        let image = sample().to_binary(42);
        for cut in 0..image.len() {
            let e = read_every_way(&image[..cut]).unwrap_err();
            assert!(
                matches!(e, BinReadError::BadMagic | BinReadError::Truncated),
                "cut at {cut}: {e:?}"
            );
        }
        assert!(read_every_way(&image).is_ok());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let image = sample().to_binary(42);
        // Flip one byte in every payload region (step keeps it fast).
        for pos in (HEADER_LEN..image.len()).step_by(7) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert_eq!(
                read_every_way(&bad).unwrap_err(),
                BinReadError::ChecksumMismatch,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut image = sample().to_binary(42);
        image.push(0);
        assert!(matches!(
            read_every_way(&image).unwrap_err(),
            BinReadError::Malformed(_)
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut image = sample().to_binary(42);
        image[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            read_every_way(&image).unwrap_err(),
            BinReadError::UnsupportedVersion(99)
        );
        assert_eq!(header_fingerprint(&image), None);
    }

    /// A checksummed image of no symbols, stacks, scenarios or
    /// instances whose stream count reads `streams`, followed by one
    /// stream block whose event count reads `len` and no events.
    fn image_claiming(streams: u32, len: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u32(&mut payload, 0); // symbols
        put_u32(&mut payload, 0); // stacks
        put_u64(&mut payload, 0); // frames
        put_u32(&mut payload, 0); // scenario names
        put_u32(&mut payload, 0); // scenarios
        put_u32(&mut payload, 0); // instances
        put_u32(&mut payload, streams);
        put_u32(&mut payload, 0); // stream id
        put_u64(&mut payload, len);
        put_u32(&mut payload, 0); // wtids
        let header = Header {
            fingerprint: 5,
            payload_len: payload.len() as u64,
            checksum: fingerprint_bytes(&payload),
        };
        [&header.encode()[..], &payload].concat()
    }

    #[test]
    fn stream_length_beyond_the_payload_is_malformed() {
        assert!(read_every_way(&image_claiming(1, 0)).is_ok());
        // Allocating for any of these lengths would abort the process;
        // the largest also overflows the column arithmetic.
        for len in [1, 1 << 40, u64::MAX / 29, u64::MAX] {
            assert_eq!(
                read_every_way(&image_claiming(1, len)).unwrap_err(),
                BinReadError::Malformed("event count overruns payload"),
                "stream length {len}"
            );
        }
    }

    #[test]
    fn a_header_claiming_more_than_the_file_holds_is_truncated() {
        // Counts are bounded by the header's payload length, which the
        // checksum vouches for only at the end. A header that lies about
        // it must still end in `Truncated`, without allocating for the
        // streams or the events it lets through.
        for (streams, len) in [(u32::MAX, 0), (1, 1 << 40), (1, u64::MAX / 64)] {
            let mut image = image_claiming(streams, len);
            image[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(
                read_every_way(&image).unwrap_err(),
                BinReadError::Truncated,
                "{streams} streams, the first of {len} events"
            );
        }
    }
}
