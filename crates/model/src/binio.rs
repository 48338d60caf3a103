//! `.tlb` (*tracelens binary*) — the columnar on-disk trace store.
//!
//! A packed data set holds the same information as the `.tlt` text
//! format, laid out for load speed instead of readability: the symbol
//! and stack tables are written once, events live in struct-of-arrays
//! columns (one contiguous array per field), and loading is a bounded
//! sequence of column reads instead of a per-line parse. The paper's
//! corpus is re-analyzed far more often than it is collected, so the
//! pack cost is paid once and every later run starts at column-read
//! speed.
//!
//! ## Layout
//!
//! ```text
//! header (32 bytes)
//!   magic      "TLB!"          4 bytes
//!   version    u32             bumped on any layout change
//!   fingerprint u64            FNV-1a of the *source text* bytes
//!   payload_len u64
//!   checksum   u64             FNV-1a of the payload bytes
//! payload (all integers little-endian)
//!   symbols    count, then per symbol: len + UTF-8 bytes
//!   stacks     count, frame-count column, flat frame-symbol column
//!   names      scenario-name table (count, then len + bytes each)
//!   scenarios  name-index, t_fast, t_slow columns
//!   streams    ids + event-count columns, then the event columns:
//!              kind u8 / tid u32 / pid u32 / t u64 / cost u64 /
//!              stack u32, a wtid presence bitmap, packed wtid values
//!   instances  trace, tid, t0, t1, name-index columns
//! ```
//!
//! The fingerprint identifies *which text* a cache was packed from; the
//! checksum proves the payload arrived intact. A reader rejects any
//! torn, bit-flipped, or version-skewed file with a typed
//! [`BinReadError`] — callers (the `--cache` layer) then fall back to
//! the text parse. Reading is loss-free even for data sets that would
//! fail validation (unsorted streams, dangling stack ids survive a
//! round trip unchanged), so packing never launders corruption.

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
use std::io::{self, Write};

/// File magic of the binary store.
pub const MAGIC: [u8; 4] = *b"TLB!";

/// Current binary format version; bumped on any layout change, so a
/// reader never mis-parses a cache written by a different build.
pub const BIN_FORMAT_VERSION: u32 = 1;

/// Header length in bytes (magic + version + fingerprint + payload
/// length + checksum).
pub const HEADER_LEN: usize = 32;

/// FNV-1a 64 folded over 8-byte little-endian words (the final partial
/// word zero-padded, the input length mixed in last) — used both as the
/// source-content fingerprint and as the payload checksum. Word folding
/// keeps the multiply chain an eighth as long as byte-wise FNV, which
/// matters because every cached ingest fingerprints the full source
/// text and every binary load checksums the full payload.
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
pub fn header_fingerprint(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(bytes[4..8].try_into().ok()?) != BIN_FORMAT_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().ok()?))
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

/// Bounds-checked cursor over the payload; every read is checked so a
/// crafted or colliding payload produces an error, never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinReadError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(BinReadError::Malformed("length overflow"))?;
        if end > self.bytes.len() {
            return Err(BinReadError::Malformed("section overruns payload"));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, BinReadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, BinReadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, BinReadError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| BinReadError::Malformed("invalid utf-8 in string table"))
    }

    /// Validates an element count against the bytes actually left, so a
    /// corrupt count cannot drive a huge allocation.
    fn counted(&self, count: u32, min_elem_bytes: usize) -> Result<usize, BinReadError> {
        let count = count as usize;
        if count.saturating_mul(min_elem_bytes) > self.bytes.len() - self.pos {
            return Err(BinReadError::Malformed("count overruns payload"));
        }
        Ok(count)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl Dataset {
    /// Serializes the data set into a complete `.tlb` image.
    ///
    /// `fingerprint` identifies the source this image was packed from —
    /// conventionally [`fingerprint_bytes`] of the text serialization —
    /// and is what [`header_fingerprint`] reports for cache-staleness
    /// checks.
    pub fn to_binary(&self, fingerprint: u64) -> Vec<u8> {
        let total_events: u64 = self.streams.iter().map(|s| s.len() as u64).sum();
        let mut buf = Vec::with_capacity(HEADER_LEN + 64 + total_events as usize * 29);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, BIN_FORMAT_VERSION);
        put_u64(&mut buf, fingerprint);
        put_u64(&mut buf, 0); // payload_len, patched below
        put_u64(&mut buf, 0); // checksum, patched below

        // Symbols, in id order.
        put_u32(&mut buf, self.stacks.symbols().len() as u32);
        for (_, text) in self.stacks.symbols().iter() {
            put_str(&mut buf, text);
        }

        // Stacks: frame-count column, then the flat frame column.
        put_u32(&mut buf, self.stacks.len() as u32);
        let mut total_frames: u64 = 0;
        for id in 0..self.stacks.len() {
            let frames = self.stacks.frames(StackId(id as u32));
            total_frames += frames.len() as u64;
            put_u32(&mut buf, frames.len() as u32);
        }
        put_u64(&mut buf, total_frames);
        for id in 0..self.stacks.len() {
            for sym in self.stacks.frames(StackId(id as u32)) {
                put_u32(&mut buf, sym.0);
            }
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

        // Streams: id + length columns, then event columns over the
        // concatenation of all streams' events.
        put_u32(&mut buf, self.streams.len() as u32);
        for s in &self.streams {
            put_u32(&mut buf, s.id().0);
        }
        for s in &self.streams {
            put_u64(&mut buf, s.len() as u64);
        }
        put_u64(&mut buf, total_events);
        let all = || self.streams.iter().flat_map(|s| s.events().iter());
        for e in all() {
            buf.push(kind_byte(e.kind));
        }
        for e in all() {
            put_u32(&mut buf, e.tid.0);
        }
        for e in all() {
            put_u32(&mut buf, e.pid.0);
        }
        for e in all() {
            put_u64(&mut buf, e.t.as_nanos());
        }
        for e in all() {
            put_u64(&mut buf, e.cost.as_nanos());
        }
        for e in all() {
            put_u32(&mut buf, e.stack.0);
        }
        let mut bitmap = vec![0u8; (total_events as usize).div_ceil(8)];
        let mut wtids: Vec<u32> = Vec::new();
        for (i, e) in all().enumerate() {
            if let Some(w) = e.wtid {
                bitmap[i / 8] |= 1 << (i % 8);
                wtids.push(w.0);
            }
        }
        buf.extend_from_slice(&bitmap);
        put_u32(&mut buf, wtids.len() as u32);
        for w in &wtids {
            put_u32(&mut buf, *w);
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

        // Patch payload length and checksum into the header.
        let payload_len = (buf.len() - HEADER_LEN) as u64;
        let checksum = fingerprint_bytes(&buf[HEADER_LEN..]);
        buf[16..24].copy_from_slice(&payload_len.to_le_bytes());
        buf[24..32].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Writes the data set as a `.tlb` binary store (see [`Dataset::to_binary`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_binary<W: Write>(&self, fingerprint: u64, mut out: W) -> io::Result<()> {
        out.write_all(&self.to_binary(fingerprint))
    }

    /// Reads a data set from a `.tlb` image, returning it together with
    /// the source fingerprint recorded in the header.
    ///
    /// The reconstruction is exact: symbol ids, stack ids, stream order
    /// and event order all match the data set that was written, so
    /// `read_binary(to_binary(ds)).0` serializes byte-identically to
    /// `ds` via [`Dataset::write_text`].
    ///
    /// # Errors
    ///
    /// A [`BinReadError`] for any torn, corrupted, or version-skewed
    /// image; the caller is expected to fall back to text ingestion.
    pub fn read_binary(bytes: &[u8]) -> Result<(Dataset, u64), BinReadError> {
        if bytes.len() < 4 || bytes[0..4] != MAGIC {
            return Err(BinReadError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(BinReadError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != BIN_FORMAT_VERSION {
            return Err(BinReadError::UnsupportedVersion(version));
        }
        let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let body = &bytes[HEADER_LEN..];
        if (body.len() as u64) < payload_len {
            return Err(BinReadError::Truncated);
        }
        if (body.len() as u64) > payload_len {
            return Err(BinReadError::Malformed("trailing bytes after payload"));
        }
        if fingerprint_bytes(body) != checksum {
            return Err(BinReadError::ChecksumMismatch);
        }

        let mut r = Reader {
            bytes: body,
            pos: 0,
        };
        let mut ds = Dataset::new();

        // Symbols.
        let sym_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        for i in 0..sym_count {
            let text = r.str()?;
            let sym = ds.stacks.intern_frame(text);
            if sym.0 as usize != i {
                return Err(BinReadError::Malformed("duplicate symbol in table"));
            }
        }

        // Stacks.
        let stack_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let mut frame_counts = Vec::with_capacity(stack_count);
        for _ in 0..stack_count {
            frame_counts.push(r.u32()?);
        }
        let total_frames = r.u64()?;
        if total_frames != frame_counts.iter().map(|&c| c as u64).sum::<u64>() {
            return Err(BinReadError::Malformed("frame total mismatch"));
        }
        r.counted(
            u32::try_from(total_frames).map_err(|_| BinReadError::Malformed("frame overflow"))?,
            4,
        )?;
        let mut frames = Vec::new();
        for (i, &count) in frame_counts.iter().enumerate() {
            frames.clear();
            for _ in 0..count {
                let sym = r.u32()?;
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
        let name_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let mut names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            names.push(ScenarioName::new(r.str()?));
        }
        let name_at = |idx: u32| -> Result<ScenarioName, BinReadError> {
            names
                .get(idx as usize)
                .copied()
                .ok_or(BinReadError::Malformed("scenario name index out of range"))
        };

        // Scenarios.
        let scen_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let mut scen_names = Vec::with_capacity(scen_count);
        for _ in 0..scen_count {
            scen_names.push(name_at(r.u32()?)?);
        }
        let mut fasts = Vec::with_capacity(scen_count);
        for _ in 0..scen_count {
            fasts.push(r.u64()?);
        }
        for (name, fast) in scen_names.into_iter().zip(fasts) {
            let slow = r.u64()?;
            if fast >= slow {
                return Err(BinReadError::Malformed("scenario thresholds inverted"));
            }
            ds.scenarios.push(Scenario::new(
                name,
                Thresholds::new(TimeNs(fast), TimeNs(slow)),
            ));
        }

        // Streams and their event columns.
        let stream_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let mut ids = Vec::with_capacity(stream_count);
        for _ in 0..stream_count {
            ids.push(r.u32()?);
        }
        let mut lens = Vec::with_capacity(stream_count);
        for _ in 0..stream_count {
            lens.push(r.u64()?);
        }
        let total_events = r.u64()?;
        if total_events != lens.iter().sum::<u64>() {
            return Err(BinReadError::Malformed("event total mismatch"));
        }
        let total = usize::try_from(total_events)
            .ok()
            .filter(|&t| t <= r.remaining())
            .ok_or(BinReadError::Malformed("event count overruns payload"))?;
        let kinds = r.take(total)?;
        let tids = r.take(total.checked_mul(4).ok_or(BinReadError::Truncated)?)?;
        let pids = r.take(total * 4)?;
        let ts = r.take(total.checked_mul(8).ok_or(BinReadError::Truncated)?)?;
        let costs = r.take(total * 8)?;
        let stacks = r.take(total * 4)?;
        let bitmap = r.take(total.div_ceil(8))?;
        let wtid_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let wtids = r.take(wtid_count * 4)?;

        // Validate the kind column and the wtid bitmap up front so the
        // assembly loop below is infallible — no error branches on the
        // per-event hot path.
        if kinds.iter().any(|&b| b > 3) {
            return Err(BinReadError::Malformed("bad event kind"));
        }
        let set_bits: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
        if set_bits != wtid_count {
            return Err(BinReadError::Malformed("wtid bitmap/column mismatch"));
        }
        if total % 8 != 0 {
            if let Some(&last) = bitmap.last() {
                if last >> (total % 8) != 0 {
                    return Err(BinReadError::Malformed("wtid bitmap tail bits set"));
                }
            }
        }

        // Assemble events straight off the byte columns: lockstep chunk
        // iterators instead of per-element bounds-checked indexing, and
        // no intermediate decoded vectors.
        fn next_u32(it: &mut std::slice::ChunksExact<'_, u8>) -> u32 {
            u32::from_le_bytes(
                it.next()
                    .expect("sized column")
                    .try_into()
                    .expect("exact chunk"),
            )
        }
        fn next_u64(it: &mut std::slice::ChunksExact<'_, u8>) -> u64 {
            u64::from_le_bytes(
                it.next()
                    .expect("sized column")
                    .try_into()
                    .expect("exact chunk"),
            )
        }
        const KINDS: [EventKind; 4] = [
            EventKind::Running,
            EventKind::Wait,
            EventKind::Unwait,
            EventKind::HardwareService,
        ];
        let mut kind_it = kinds.iter();
        let mut tid_it = tids.chunks_exact(4);
        let mut pid_it = pids.chunks_exact(4);
        let mut t_it = ts.chunks_exact(8);
        let mut cost_it = costs.chunks_exact(8);
        let mut stack_it = stacks.chunks_exact(4);
        let mut wtid_it = wtids.chunks_exact(4);

        let mut i = 0usize; // global event index, for the wtid bitmap
        for (raw_id, len) in ids.into_iter().zip(lens) {
            let len = len as usize;
            let mut events = Vec::with_capacity(len);
            events.extend((0..len).map(|_| {
                let kind = KINDS[(*kind_it.next().expect("sized column") & 3) as usize];
                let wtid =
                    (bitmap[i / 8] & (1 << (i % 8)) != 0).then(|| ThreadId(next_u32(&mut wtid_it)));
                i += 1;
                Event {
                    kind,
                    tid: ThreadId(next_u32(&mut tid_it)),
                    pid: ProcessId(next_u32(&mut pid_it)),
                    t: TimeNs(next_u64(&mut t_it)),
                    cost: TimeNs(next_u64(&mut cost_it)),
                    stack: StackId(next_u32(&mut stack_it)),
                    wtid,
                }
            }));
            // Order is preserved verbatim (no re-sort), so even streams
            // that would fail validation round-trip unchanged.
            ds.streams
                .push(TraceStream::from_unchecked_parts(TraceId(raw_id), events));
        }

        // Instances.
        let inst_count = {
            let c = r.u32()?;
            r.counted(c, 4)?
        };
        let mut traces = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            traces.push(r.u32()?);
        }
        let mut tids_i = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            tids_i.push(r.u32()?);
        }
        let mut t0s = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            t0s.push(r.u64()?);
        }
        let mut t1s = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            t1s.push(r.u64()?);
        }
        for ((trace, tid), (t0, t1)) in traces.into_iter().zip(tids_i).zip(t0s.into_iter().zip(t1s))
        {
            let scenario = name_at(r.u32()?)?;
            ds.instances.push(ScenarioInstance {
                trace: TraceId(trace),
                scenario,
                tid: ThreadId(tid),
                t0: TimeNs(t0),
                t1: TimeNs(t1),
            });
        }

        if r.remaining() != 0 {
            return Err(BinReadError::Malformed("trailing bytes in payload"));
        }
        Ok((ds, fingerprint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceStreamBuilder;

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
        let (back, _) = Dataset::read_binary(&image).unwrap();
        assert_eq!(back.streams[0].events(), ds.streams[0].events());
        assert_eq!(back.streams[0].events()[1].stack, StackId(999));
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
            let e = Dataset::read_binary(&image[..cut]).unwrap_err();
            assert!(
                matches!(e, BinReadError::BadMagic | BinReadError::Truncated),
                "cut at {cut}: {e:?}"
            );
        }
        assert!(Dataset::read_binary(&image).is_ok());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let image = sample().to_binary(42);
        // Flip one byte in every payload region (step keeps it fast).
        for pos in (HEADER_LEN..image.len()).step_by(7) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert_eq!(
                Dataset::read_binary(&bad).unwrap_err(),
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
            Dataset::read_binary(&image).unwrap_err(),
            BinReadError::Malformed(_)
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut image = sample().to_binary(42);
        image[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Dataset::read_binary(&image).unwrap_err(),
            BinReadError::UnsupportedVersion(99)
        );
        assert_eq!(header_fingerprint(&image), None);
    }
}
