//! A line-based text format for data sets (`.tlt`, *tracelens trace*).
//!
//! The format lets users bring traces from any source (an ETW or DTrace
//! export, a custom tracer) and lets simulated data sets be persisted and
//! reloaded. It is deliberately simple: UTF-8 lines, tab-separated
//! fields, one record per line.
//!
//! ```text
//! !tracelens  1                                  format version
//! !scenario   <name> <t_fast_ns> <t_slow_ns>     scenario definition
//! !stack      <id>   <frame>[TAB<frame>...]      callstack (outermost first)
//! !instance   <trace> <tid> <t0_ns> <t1_ns> <scenario>
//! !trace      <id>                               starts a trace stream
//! e  <kind> <tid> <pid> <t_ns> <cost_ns> <stack> [<wtid>]
//! ```
//!
//! Event kinds are `r` (running), `w` (wait), `u` (unwait, requires
//! `wtid`), `h` (hardware service). Stack ids must be declared before
//! use; stacks and scenarios are data-set-global. Blank lines and lines
//! starting with `#` are ignored.
//!
//! ## Record order
//!
//! Records may come in any order, as long as each stack is declared
//! before an event uses it. [`Dataset::write_text`] writes them in the
//! order above: the header, the scenarios, the stacks and the instances
//! (the tables), then one `!trace` section per stream, with ids 0, 1,
//! 2, … in order. That layout *streams*: a [`TextReader`] hands back the
//! tables and then one sealed stream per section, so a consumer that
//! analyzes each stream and drops it never holds the events of the whole
//! file. Text written before the instances moved ahead of the traces
//! keeps them last; it is still valid text, and a reader collects it
//! whole, as it does any other layout.
//!
//! ## Writing
//!
//! [`Dataset::write_text`] gathers its lines into one buffer and passes
//! its writer a chunk each time the buffer holds 64 KiB or more, then
//! the rest; it flushes the writer before it returns, so a writer that
//! fails only at its last flush fails the call. An event line is
//! formatted into a small array on the stack, each number two digits at
//! a time from a table of the pairs `00` to `99`, and joins the buffer
//! in one copy; no field goes through `core::fmt`. The bytes are those
//! of `write!` with `{}` for every field, which
//! `tests/textio_writer.rs` keeps as its reference.
//!
//! ## Parsing
//!
//! [`TextReader`] is the one parser, and [`Dataset::read_text`] is it
//! collected. It scans the reader's buffer in place; only a line split
//! across two buffer refills is copied, into a small carry. An event
//! line in the form [`Dataset::write_text`] produces is not cut at its
//! `\n` first: it is parsed where it lies, in one left-to-right pass that
//! reads each integer as it walks the fields and stops after the last
//! one, and it is taken when a `\n` follows there (for a line in the
//! carry, when nothing follows). Every other line is cut at its `\n`,
//! found eight bytes at a time, and goes to the general line handler,
//! as does any event line that pass does not fully accept; the handler
//! accepts it or names the error and its line. The pass's number
//! readers are inlined into it, and a stack id below 65,536 resolves
//! through a flat table indexed by the id the file declared; larger ids
//! go through a map, so no declared id sizes an allocation past that
//! bound. The stream builder checks each event as it is pushed, so
//! sealing a trace section reads its events again only to sort a stream
//! that arrived out of order ([`TraceStreamBuilder`] says what that
//! costs).
//! [`Dataset::read_text_bytes`] is the same parser over in-memory text.

use crate::dataset::Dataset;
use crate::event::{Event, EventKind};
use crate::idhash::IdHashing;
use crate::ids::{ProcessId, ThreadId};
use crate::intern::Symbol;
use crate::scenario::{Scenario, ScenarioInstance, ScenarioName, Thresholds};
use crate::stack::StackId;
use crate::stream::{TraceStream, TraceStreamBuilder};
use crate::time::TimeNs;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors produced while reading the text format.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error reading data set: {e}"),
            ReadError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for ReadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn err(line: usize, message: &str) -> ReadError {
    ReadError::Parse {
        line,
        message: message.to_owned(),
    }
}

impl Dataset {
    /// Writes the data set in the text format: the header, the
    /// scenarios, the stacks and the instances, then one section per
    /// trace, the layout a [`TextReader`] streams. The text is gathered
    /// into chunks of about 64 KiB before `out` sees it, and `out` is
    /// flushed before this returns, so an error of its last write is
    /// this call's error.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`. Returns
    /// [`io::ErrorKind::InvalidData`] if a frame or scenario name
    /// contains a tab or newline (unrepresentable); the lines before it
    /// have then been passed to `out`.
    pub fn write_text<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = TextWriter::new(out);
        w.bytes(b"!tracelens\t");
        w.number(u64::from(FORMAT_VERSION));
        w.end_line()?;
        for s in &self.scenarios {
            let name = s.name.as_str();
            w.check(name)?;
            w.bytes(b"!scenario\t");
            w.bytes(name.as_bytes());
            w.bytes(b"\t");
            w.number(s.thresholds.fast().as_nanos());
            w.bytes(b"\t");
            w.number(s.thresholds.slow().as_nanos());
            w.end_line()?;
        }
        for id in 0..self.stacks.len() {
            w.bytes(b"!stack\t");
            w.number(id as u64);
            for frame in self.stacks.resolve_frames(StackId(id as u32)) {
                w.check(frame)?;
                w.bytes(b"\t");
                w.bytes(frame.as_bytes());
            }
            w.end_line()?;
        }
        for i in &self.instances {
            w.check(i.scenario.as_str())?;
            w.bytes(b"!instance\t");
            for n in [
                u64::from(i.trace.0),
                u64::from(i.tid.0),
                i.t0.as_nanos(),
                i.t1.as_nanos(),
            ] {
                w.number(n);
                w.bytes(b"\t");
            }
            w.bytes(i.scenario.as_str().as_bytes());
            w.end_line()?;
        }
        for stream in &self.streams {
            w.bytes(b"!trace\t");
            w.number(u64::from(stream.id().0));
            w.end_line()?;
            for e in stream.events() {
                w.event(e)?;
            }
        }
        w.finish()
    }

    /// Reads a data set from the text format, streaming it from `input`:
    /// memory holds the data set being built, the reader's buffer and at
    /// most one line split across two refills, never the whole text. This
    /// is a [`TextReader`] collected, so it accepts records in any order.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::Parse`] with the offending line number for
    /// any malformed record, unknown stack id, or missing header, and
    /// [`ReadError::Io`] for a failed read (interrupted reads are
    /// retried).
    pub fn read_text<R: BufRead>(input: R) -> Result<Dataset, ReadError> {
        let (tables, reader) = TextReader::new(input)?;
        reader.collect_into(tables)
    }

    /// Reads a data set from in-memory text: [`Dataset::read_text`]
    /// over `bytes`, which it scans in place.
    ///
    /// # Errors
    ///
    /// Same as [`Dataset::read_text`].
    pub fn read_text_bytes(bytes: &[u8]) -> Result<Dataset, ReadError> {
        Dataset::read_text(bytes)
    }
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// Bytes [`Dataset::write_text`] gathers before it passes them on.
const WRITE_CHUNK: usize = 64 * 1024;

/// The longest event line: `e`, the kind, six numbers of at most twenty
/// digits, their tabs and the newline.
const MAX_EVENT_LINE: usize = 4 + 6 * 21;

/// The two ASCII digits of every value below 100, in order.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `v` in decimal at the front of `out` and returns the number
/// of digits, two at a time from the last: the text `{v}` formats,
/// without going through `core::fmt`.
#[inline]
fn put_decimal(out: &mut [u8], mut v: u64) -> usize {
    let len = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let mut end = len;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + v as u8;
    }
    len
}

/// Writes one event line, newline included, at the front of `line` and
/// returns its length.
#[inline]
fn put_event(line: &mut [u8; MAX_EVENT_LINE], e: &Event) -> usize {
    line[..4].copy_from_slice(match e.kind {
        EventKind::Running => b"e\tr\t",
        EventKind::Wait => b"e\tw\t",
        EventKind::Unwait => b"e\tu\t",
        EventKind::HardwareService => b"e\th\t",
    });
    let mut at = 4;
    for n in [
        u64::from(e.tid.0),
        u64::from(e.pid.0),
        e.t.as_nanos(),
        e.cost.as_nanos(),
        u64::from(e.stack.0),
    ] {
        at += put_decimal(&mut line[at..], n);
        line[at] = b'\t';
        at += 1;
    }
    if let Some(w) = e.wtid {
        at += put_decimal(&mut line[at..], u64::from(w.0)) + 1;
    }
    // The separator after the last number ends the line.
    line[at - 1] = b'\n';
    at
}

/// The text of one data set, gathered line by line into one buffer that
/// goes to `out` each time it holds [`WRITE_CHUNK`] bytes or more.
struct TextWriter<W> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> TextWriter<W> {
    fn new(out: W) -> TextWriter<W> {
        TextWriter {
            out,
            buf: Vec::with_capacity(WRITE_CHUNK + MAX_EVENT_LINE),
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn number(&mut self, v: u64) {
        let mut digits = [0; 20];
        let len = put_decimal(&mut digits, v);
        self.bytes(&digits[..len]);
    }

    /// Fails when `s`, a frame or scenario name, holds a tab or
    /// newline; what came before it then goes to `out`.
    fn check(&mut self, s: &str) -> io::Result<()> {
        if let Err(e) = check_text(s) {
            self.out.write_all(&self.buf)?;
            return Err(e);
        }
        Ok(())
    }

    fn end_line(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        self.drain_chunk()
    }

    fn event(&mut self, e: &Event) -> io::Result<()> {
        let mut line = [0; MAX_EVENT_LINE];
        let len = put_event(&mut line, e);
        self.bytes(&line[..len]);
        self.drain_chunk()
    }

    fn drain_chunk(&mut self) -> io::Result<()> {
        if self.buf.len() >= WRITE_CHUNK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Passes on the rest and flushes `out`.
    fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.out.flush()
    }
}

// ---------------------------------------------------------------------
// The byte scanner
// ---------------------------------------------------------------------

/// Maximum fields any fixed-arity record carries; extra fields beyond
/// this are counted (the exact-arity checks need the true count) but
/// never inspected. `!stack` lines have unbounded arity and are
/// dispatched separately.
const MAX_FIELDS: usize = 8;

/// Index of the first `\n` in `bytes`, testing eight bytes per step.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        // The lowest set high bit marks the first zero byte of `x`:
        // borrows only ever reach bytes above a zero byte.
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(offset + (zeros.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| offset + i)
}

/// Strips the trailing `\r` bytes a CRLF file leaves on a line.
fn trim_line(mut line: &[u8]) -> &[u8] {
    while let [rest @ .., b'\r'] = line {
        line = rest;
    }
    line
}

/// The first tab-separated field of a (trimmed, non-empty) line.
fn tag_of(line: &[u8]) -> &[u8] {
    match line.iter().position(|&b| b == b'\t') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Tab-splits `line` into `store`, returning the true field count
/// (fields past [`MAX_FIELDS`] are counted, not stored).
fn split_fields<'a>(line: &'a [u8], store: &mut [&'a [u8]; MAX_FIELDS]) -> usize {
    let mut n = 0;
    for field in line.split(|&b| b == b'\t') {
        if n < MAX_FIELDS {
            store[n] = field;
        }
        n += 1;
    }
    n
}

/// Parses a decimal `u64` straight from ASCII bytes.
fn parse_u64(field: &[u8]) -> Option<u64> {
    if field.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &b in field {
        let digit = u64::from(b.wrapping_sub(b'0'));
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(digit)?;
    }
    Some(value)
}

fn parse_u32(field: &[u8]) -> Option<u32> {
    parse_u64(field).and_then(|v| u32::try_from(v).ok())
}

/// Reads the run of decimal digits at the front of `bytes` and returns
/// its value and the bytes after it. `None` for no digit or for more
/// than `max_digits`, which keeps the unchecked arithmetic in range:
/// nineteen digits always fit a `u64`.
#[inline(always)]
fn leading_number(bytes: &[u8], max_digits: usize) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut n = 0;
    while let Some(&b) = bytes.get(n) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if n == max_digits {
            return None;
        }
        value = value * 10 + u64::from(digit);
        n += 1;
    }
    (n > 0).then(|| (value, &bytes[n..]))
}

/// A number of at most nineteen digits followed by a tab.
#[inline(always)]
fn u64_then_tab(bytes: &[u8]) -> Option<(u64, &[u8])> {
    match leading_number(bytes, 19)? {
        (value, [b'\t', rest @ ..]) => Some((value, rest)),
        _ => None,
    }
}

/// A `u32` (at most ten digits) at the front of `bytes`.
#[inline(always)]
fn leading_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (value, rest) = leading_number(bytes, 10)?;
    Some((u32::try_from(value).ok()?, rest))
}

/// A `u32` followed by a tab.
#[inline(always)]
fn u32_then_tab(bytes: &[u8]) -> Option<(u32, &[u8])> {
    match leading_u32(bytes)? {
        (value, [b'\t', rest @ ..]) => Some((value, rest)),
        _ => None,
    }
}

/// Validates a text field (frame, scenario name) as UTF-8.
fn utf8(field: &[u8], lineno: usize) -> Result<&str, ReadError> {
    std::str::from_utf8(field).map_err(|_| err(lineno, "invalid utf-8 in text field"))
}

/// Raw stack ids below this resolve through [`StackIds`]'s flat table.
const FLAT_STACK_IDS: u32 = 1 << 16;

/// Maps the stack ids a file declares to interned ids. Ids below
/// [`FLAT_STACK_IDS`], where [`Dataset::write_text`] numbers its stacks
/// from 0, index a flat table; the rest go through a map, so no id a
/// file declares sizes an allocation past the bound.
#[derive(Debug, Default)]
struct StackIds {
    /// The interned id of each declared raw id below the bound.
    flat: Vec<Option<StackId>>,
    /// Declared raw ids at or past the bound.
    sparse: HashMap<u32, StackId, IdHashing>,
}

impl StackIds {
    #[inline(always)]
    fn get(&self, raw: u32) -> Option<StackId> {
        match self.flat.get(raw as usize) {
            Some(&id) => id,
            None if raw < FLAT_STACK_IDS => None,
            None => self.sparse.get(&raw).copied(),
        }
    }

    fn insert(&mut self, raw: u32, id: StackId) {
        if raw < FLAT_STACK_IDS {
            let slot = raw as usize;
            if self.flat.len() <= slot {
                self.flat.resize(slot + 1, None);
            }
            self.flat[slot] = Some(id);
        } else {
            self.sparse.insert(raw, id);
        }
    }
}

/// Why a [`TextReader`] yielded no stream.
#[derive(Debug)]
pub enum TextStreamError {
    /// The text is malformed or could not be read: the error
    /// [`Dataset::read_text`] reports for it, at the same line.
    Read(ReadError),
    /// The record at this 1-based line does not fit the streamed
    /// layout: a `!stack`, `!scenario` or `!instance` after the first
    /// `!trace`, or a `!trace` whose id is not the next of 0, 1, 2, ….
    /// The text may well be valid; [`Dataset::read_text`] reads it
    /// whole.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TextStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextStreamError::Read(e) => e.fmt(f),
            TextStreamError::OutOfOrder { line } => {
                write!(f, "line {line} is out of the streamed record order")
            }
        }
    }
}

impl Error for TextStreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TextStreamError::Read(e) => Some(e),
            TextStreamError::OutOfOrder { .. } => None,
        }
    }
}

/// A `.tlt` text read in one pass, one trace at a time: the text
/// counterpart of [`BinReader`](crate::binio::BinReader).
///
/// [`TextReader::new`] reads the records before the first `!trace` —
/// header, scenarios, stacks and instances — and hands them back as a
/// data set without streams (the tables). The reader then yields one
/// sealed stream per `!trace` section, in file order, and checks the
/// header at the end of the text as [`Dataset::read_text`] does.
///
/// Text in the layout [`Dataset::write_text`] produces streams: every
/// record other than an event comes before the first `!trace`, and
/// trace ids run 0, 1, 2, …. Any other record order is valid text, but
/// the reader stops at the first record out of that order with
/// [`TextStreamError::OutOfOrder`]. An error it yields is final.
///
/// [`TextReader::collect_into`] instead accepts records in any order
/// and returns the whole data set: [`Dataset::read_text`] is the reader
/// collected, so there is one parser.
pub struct TextReader<R> {
    input: R,
    /// A line split across two buffer refills, kept until its end.
    carry: Vec<u8>,
    /// Lines read so far.
    lineno: usize,
    parser: LineParser,
    /// Set once an error was yielded or the text ended.
    done: bool,
}

impl<R: BufRead> TextReader<R> {
    /// Reads the records before the first `!trace` and returns them as
    /// a data set with no streams, and the reader positioned in the
    /// first trace section.
    ///
    /// # Errors
    ///
    /// As [`Dataset::read_text`], for the lines before the first
    /// `!trace`.
    pub fn new(input: R) -> Result<(Dataset, TextReader<R>), ReadError> {
        let mut reader = TextReader {
            input,
            carry: Vec::new(),
            lineno: 0,
            parser: LineParser::default(),
            done: false,
        };
        reader.read_lines()?;
        reader.parser.phase = Phase::Streaming;
        let tables = std::mem::take(&mut reader.parser.ds);
        Ok((tables, reader))
    }

    /// Reads the rest of the text into `tables`, which must be the
    /// tables [`TextReader::new`] returned, before any stream was drawn,
    /// and returns the whole data set. Records may come in any order.
    ///
    /// # Errors
    ///
    /// As [`Dataset::read_text`].
    pub fn collect_into(mut self, tables: Dataset) -> Result<Dataset, ReadError> {
        self.parser.ds = tables;
        self.parser.phase = Phase::Collecting;
        self.read_lines()?;
        self.parser.finish()
    }

    /// Feeds lines to the parser until one asks to pause (`true`) or
    /// the input ends (`false`). Bytes after the pausing line stay in
    /// the input for the next call.
    fn read_lines(&mut self) -> Result<bool, ReadError> {
        let parser = &mut self.parser;
        loop {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if buf.is_empty() {
                if self.carry.is_empty() {
                    return Ok(false);
                }
                // The last line has no newline.
                self.lineno += 1;
                let pause = parser.line(&self.carry, self.lineno)?;
                self.carry.clear();
                return Ok(pause);
            }
            let len = buf.len();
            let mut rest = buf;
            let mut pause = false;
            if !self.carry.is_empty() {
                let Some(end) = find_newline(rest) else {
                    self.carry.extend_from_slice(rest);
                    self.input.consume(len);
                    continue;
                };
                self.carry.extend_from_slice(&rest[..end]);
                self.lineno += 1;
                pause = parser.line(&self.carry, self.lineno)?;
                self.carry.clear();
                rest = &rest[end + 1..];
            }
            while !pause {
                // A canonical event line is parsed where it lies: the
                // fused pass stops at its last number, which a `\n` must
                // end. A line it declines is cut at its `\n` as any other.
                if let [b'e', b'\t', fields @ ..] = rest {
                    if let Some((event, [b'\n', after @ ..])) = parser.event(fields) {
                        parser.push(event);
                        self.lineno += 1;
                        rest = after;
                        continue;
                    }
                }
                let Some(end) = find_newline(rest) else {
                    break;
                };
                self.lineno += 1;
                pause = parser.general_line(&rest[..end], self.lineno)?;
                rest = &rest[end + 1..];
            }
            if !pause {
                self.carry.extend_from_slice(rest);
                rest = &[];
            }
            let consumed = len - rest.len();
            self.input.consume(consumed);
            if pause {
                return Ok(true);
            }
        }
    }

    /// The next item, before the fuse in [`Iterator::next`].
    fn advance(&mut self) -> Option<Result<TraceStream, TextStreamError>> {
        let out_of_order = |line| Some(Err(TextStreamError::OutOfOrder { line }));
        if let Some(line) = self.parser.out_of_order {
            return out_of_order(line);
        }
        match self.read_lines() {
            Err(e) => Some(Err(TextStreamError::Read(e))),
            Ok(true) => match self.parser.out_of_order {
                Some(line) => out_of_order(line),
                None => self.parser.sealed.take().map(Ok),
            },
            Ok(false) => self.parser.end().map_err(TextStreamError::Read).transpose(),
        }
    }
}

impl<R: BufRead> Iterator for TextReader<R> {
    type Item = Result<TraceStream, TextStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.advance();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

/// What the line parser is reading.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The records before the first `!trace`, which pauses the scan.
    #[default]
    Tables,
    /// Trace sections one at a time: each `!trace` seals the previous
    /// stream and pauses, and a record that belongs before the first
    /// `!trace` stops the read.
    Streaming,
    /// Everything, in any order, into one data set.
    Collecting,
}

/// The per-line state machine behind [`TextReader`].
#[derive(Debug, Default)]
struct LineParser {
    /// The tables, and while collecting the streams too; empty while
    /// streaming, when the consumer holds the tables.
    ds: Dataset,
    /// Maps declared stack ids to interned ids (they may differ if the
    /// file's ids are sparse).
    stack_ids: StackIds,
    current: Option<TraceStreamBuilder>,
    saw_header: bool,
    /// Reusable scratch for the frame symbols of a `!stack` line.
    frames: Vec<Symbol>,
    phase: Phase,
    /// The stream the last `!trace` sealed while streaming, until taken.
    sealed: Option<TraceStream>,
    /// `!trace` lines seen: the id the next one streams under.
    traces: u32,
    /// The first line out of the streamed order, once one is seen.
    out_of_order: Option<usize>,
}

impl LineParser {
    /// Handles one whole line, without its `\n`; `true` asks the scan
    /// to pause after it.
    fn line(&mut self, raw: &[u8], lineno: usize) -> Result<bool, ReadError> {
        if let [b'e', b'\t', fields @ ..] = raw {
            if let Some((event, [])) = self.event(fields) {
                self.push(event);
                return Ok(false);
            }
        }
        self.general_line(raw, lineno)
    }

    /// The fused pass over an `e` line in the canonical form: `fields`
    /// starts after `e\t` and holds exactly six fields for `r`/`w`/`h`
    /// and seven for `u`, each number short enough that it cannot
    /// overflow, then whatever follows the line. Returns the event and
    /// the bytes after its last number, which the caller checks end the
    /// line; `None` when the line is not canonical, or the event needs
    /// a trace section or a declared stack it does not have. Changes
    /// nothing: the caller pushes an event it accepts, and the general
    /// handler accepts a declined line or reports its error.
    #[inline(always)]
    fn event<'a>(&self, fields: &'a [u8]) -> Option<(Event, &'a [u8])> {
        if !self.saw_header || self.current.is_none() {
            return None;
        }
        let &[kind, b'\t', ref rest @ ..] = fields else {
            return None;
        };
        let (tid, rest) = u32_then_tab(rest)?;
        let (pid, rest) = u32_then_tab(rest)?;
        let (t, rest) = u64_then_tab(rest)?;
        let (cost, rest) = u64_then_tab(rest)?;
        let (raw_stack, rest) = leading_u32(rest)?;
        let cost = TimeNs(cost);
        let (kind, cost, wtid, rest) = match (kind, rest) {
            (b'r', _) => (EventKind::Running, cost, None, rest),
            (b'w', _) => (EventKind::Wait, cost, None, rest),
            (b'h', _) => (EventKind::HardwareService, cost, None, rest),
            (b'u', [b'\t', rest @ ..]) => {
                let (wtid, rest) = leading_u32(rest)?;
                // Instantaneous, as `push_unwait` records an unwait.
                (EventKind::Unwait, TimeNs::ZERO, Some(ThreadId(wtid)), rest)
            }
            _ => return None,
        };
        let event = Event {
            kind,
            tid: ThreadId(tid),
            pid: ProcessId(pid),
            t: TimeNs(t),
            cost,
            stack: self.stack_ids.get(raw_stack)?,
            wtid,
        };
        Some((event, rest))
    }

    /// Pushes an event [`LineParser::event`] returned.
    #[inline]
    fn push(&mut self, event: Event) {
        self.current
            .as_mut()
            .expect("the fused pass checked for a trace section")
            .push(event);
    }

    /// While streaming, a table record after the first `!trace` stops
    /// the read instead of being parsed: `true` when it did.
    fn out_of_order(&mut self, lineno: usize) -> bool {
        if self.phase != Phase::Streaming {
            return false;
        }
        self.out_of_order = Some(lineno);
        true
    }

    fn general_line(&mut self, raw: &[u8], lineno: usize) -> Result<bool, ReadError> {
        let line = trim_line(raw);
        if line.is_empty() || line[0] == b'#' {
            return Ok(false);
        }
        if tag_of(line) == b"!stack" {
            if self.out_of_order(lineno) {
                return Ok(true);
            }
            self.stack_line(line, lineno)?;
            return Ok(false);
        }
        let mut f: [&[u8]; MAX_FIELDS] = [b""; MAX_FIELDS];
        let n = split_fields(line, &mut f);
        match f[0] {
            b"!tracelens" => {
                let v = (n > 1)
                    .then(|| parse_u32(f[1]))
                    .flatten()
                    .ok_or_else(|| err(lineno, "missing format version"))?;
                if v != FORMAT_VERSION {
                    return Err(err(lineno, &format!("unsupported version {v}")));
                }
                self.saw_header = true;
            }
            b"!scenario" => {
                if self.out_of_order(lineno) {
                    return Ok(true);
                }
                if n != 4 {
                    return Err(err(lineno, "!scenario needs name, t_fast, t_slow"));
                }
                let fast = parse_u64(f[2]).ok_or_else(|| err(lineno, "bad t_fast"))?;
                let slow = parse_u64(f[3]).ok_or_else(|| err(lineno, "bad t_slow"))?;
                if fast >= slow {
                    return Err(err(lineno, "t_fast must be below t_slow"));
                }
                self.ds.scenarios.push(Scenario::new(
                    ScenarioName::new(utf8(f[1], lineno)?),
                    Thresholds::new(TimeNs(fast), TimeNs(slow)),
                ));
            }
            b"!trace" => {
                if let Some(b) = self.current.take() {
                    let stream = b
                        .finish()
                        .map_err(|e| err(lineno, &format!("previous trace invalid: {e}")))?;
                    match self.phase {
                        Phase::Collecting => self.ds.streams.push(stream),
                        _ => self.sealed = Some(stream),
                    }
                }
                let id = (n > 1)
                    .then(|| parse_u32(f[1]))
                    .flatten()
                    .ok_or_else(|| err(lineno, "bad trace id"))?;
                if id != self.traces {
                    self.out_of_order.get_or_insert(lineno);
                }
                self.traces = self.traces.saturating_add(1);
                self.current = Some(TraceStreamBuilder::new(id));
                return Ok(self.phase != Phase::Collecting);
            }
            b"e" => {
                if !self.saw_header {
                    return Err(err(lineno, "missing !tracelens header"));
                }
                let Some(builder) = self.current.as_mut() else {
                    return Err(err(lineno, "event outside a !trace section"));
                };
                parse_event(&f, n, lineno, &self.stack_ids, builder)?;
            }
            b"!instance" => {
                if self.out_of_order(lineno) {
                    return Ok(true);
                }
                self.ds.instances.push(parse_instance(&f, n, lineno)?);
            }
            other => {
                return Err(err(
                    lineno,
                    &format!("unknown record {:?}", String::from_utf8_lossy(other)),
                ))
            }
        }
        Ok(false)
    }

    /// `!stack` lines carry one field per frame, so they stream their
    /// fields instead of going through the fixed-arity store.
    fn stack_line(&mut self, line: &[u8], lineno: usize) -> Result<(), ReadError> {
        let mut fields = line.split(|&b| b == b'\t');
        fields.next(); // the "!stack" tag
        let Some(id_field) = fields.next() else {
            return Err(err(lineno, "!stack needs an id"));
        };
        let raw = parse_u32(id_field).ok_or_else(|| err(lineno, "bad stack id"))?;
        self.frames.clear();
        for frame in fields {
            let frame = utf8(frame, lineno)?;
            self.frames.push(self.ds.stacks.intern_frame(frame));
        }
        let interned = self.ds.stacks.intern(&self.frames);
        self.stack_ids.insert(raw, interned);
        Ok(())
    }

    /// End-of-input checks: the last trace must seal and a header must
    /// have been seen. Returns the last stream, if any.
    fn end(&mut self) -> Result<Option<TraceStream>, ReadError> {
        let last = match self.current.take() {
            Some(b) => Some(
                b.finish()
                    .map_err(|e| err(0, &format!("final trace invalid: {e}")))?,
            ),
            None => None,
        };
        if !self.saw_header {
            return Err(err(0, "missing !tracelens header"));
        }
        Ok(last)
    }

    /// The collected data set, after [`LineParser::end`]'s checks: its
    /// streams must sort into dense ids.
    fn finish(mut self) -> Result<Dataset, ReadError> {
        if let Some(last) = self.end()? {
            self.ds.streams.push(last);
        }
        let mut ds = self.ds;
        ds.streams.sort_by_key(|s| s.id().0);
        for (i, s) in ds.streams.iter().enumerate() {
            if s.id().0 as usize != i {
                return Err(err(0, "trace ids must be dense, starting at 0"));
            }
        }
        Ok(ds)
    }
}

/// Parses one `e` record into `builder` in the general handler.
fn parse_event(
    f: &[&[u8]; MAX_FIELDS],
    n: usize,
    lineno: usize,
    stack_ids: &StackIds,
    builder: &mut TraceStreamBuilder,
) -> Result<(), ReadError> {
    if n < 7 {
        return Err(err(lineno, "event needs kind,tid,pid,t,cost,stack"));
    }
    let tid = ThreadId(parse_u32(f[2]).ok_or_else(|| err(lineno, "bad tid"))?);
    let pid = ProcessId(parse_u32(f[3]).ok_or_else(|| err(lineno, "bad pid"))?);
    let t = TimeNs(parse_u64(f[4]).ok_or_else(|| err(lineno, "bad t"))?);
    let cost = TimeNs(parse_u64(f[5]).ok_or_else(|| err(lineno, "bad cost"))?);
    let raw_stack = parse_u32(f[6]).ok_or_else(|| err(lineno, "bad stack id"))?;
    let stack = stack_ids
        .get(raw_stack)
        .ok_or_else(|| err(lineno, "undeclared stack id"))?;
    builder.set_process(pid);
    match f[1] {
        b"r" => builder.push_running(tid, t, cost, stack),
        b"w" => builder.push_wait(tid, t, cost, stack),
        b"h" => builder.push_hardware(tid, t, cost, stack),
        b"u" => {
            let w = (n > 7)
                .then(|| parse_u32(f[7]))
                .flatten()
                .ok_or_else(|| err(lineno, "unwait needs wtid"))?;
            builder.push_unwait(tid, ThreadId(w), t, stack)
        }
        other => {
            return Err(err(
                lineno,
                &format!("unknown event kind {:?}", String::from_utf8_lossy(other)),
            ))
        }
    };
    Ok(())
}

fn parse_instance(
    f: &[&[u8]; MAX_FIELDS],
    n: usize,
    lineno: usize,
) -> Result<ScenarioInstance, ReadError> {
    if n != 6 {
        return Err(err(lineno, "!instance needs trace,tid,t0,t1,scenario"));
    }
    let trace = parse_u32(f[1]).ok_or_else(|| err(lineno, "bad trace id"))?;
    let tid = parse_u32(f[2]).ok_or_else(|| err(lineno, "bad tid"))?;
    let t0 = parse_u64(f[3]).ok_or_else(|| err(lineno, "bad t0"))?;
    let t1 = parse_u64(f[4]).ok_or_else(|| err(lineno, "bad t1"))?;
    if t0 > t1 {
        return Err(err(lineno, "instance t0 after t1"));
    }
    Ok(ScenarioInstance {
        trace: crate::ids::TraceId(trace),
        scenario: ScenarioName::new(utf8(f[5], lineno)?),
        tid: ThreadId(tid),
        t0: TimeNs(t0),
        t1: TimeNs(t1),
    })
}

/// Bounded-retry policy for transient ingestion I/O errors.
///
/// The backoff schedule is deterministic — attempt `k` (0-based) waits
/// `base_backoff * 2^k`, capped at `max_backoff` — so two runs over the
/// same flaky source retry identically; only the wall time varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per failing `read` call before the error propagates.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: std::time::Duration,
    /// Upper bound the exponential schedule saturates at.
    pub max_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    /// Three retries, 1 ms doubling to a 100 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (transient errors propagate).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The wait before retry number `attempt` (0-based):
    /// `base_backoff * 2^attempt`, saturating at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Whether an error kind counts as transient (worth retrying).
    pub fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        )
    }
}

/// A [`io::Read`] adapter retrying transient errors per [`RetryPolicy`].
///
/// A failed `read` consumes no bytes, so retrying the call resumes the
/// stream exactly where it left off; non-transient errors and exhausted
/// retries propagate unchanged.
#[derive(Debug)]
pub struct RetryingReader<R> {
    inner: R,
    policy: RetryPolicy,
    retries: usize,
}

impl<R> RetryingReader<R> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: R, policy: RetryPolicy) -> RetryingReader<R> {
        RetryingReader {
            inner,
            policy,
            retries: 0,
        }
    }

    /// Reads retried so far (each counts one transient error absorbed).
    pub fn retries(&self) -> usize {
        self.retries
    }
}

impl<R: io::Read> io::Read for RetryingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut attempt = 0u32;
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if RetryPolicy::is_transient(e.kind()) && attempt < self.policy.max_retries =>
                {
                    let pause = self.policy.backoff(attempt);
                    attempt += 1;
                    self.retries += 1;
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Rejects text that cannot be represented in the tab-separated format.
fn check_text(s: &str) -> io::Result<()> {
    if s.contains('\t') || s.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("text contains tab/newline: {s:?}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::time::Duration;

    fn tiny() -> Dataset {
        let mut ds = Dataset::new();
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("S"),
            Thresholds::new(TimeNs(100), TimeNs(200)),
        ));
        let st = ds.stacks.intern_symbols(&["app!Main", "fs.sys!Read"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_running(ThreadId(1), TimeNs(0), TimeNs(10), st);
        b.push_wait(ThreadId(1), TimeNs(10), TimeNs::ZERO, st);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(30), st);
        b.push_hardware(ThreadId(3), TimeNs(12), TimeNs(15), st);
        ds.streams.push(b.finish().unwrap());
        ds.instances.push(ScenarioInstance {
            trace: crate::ids::TraceId(0),
            scenario: ScenarioName::new("S"),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(40),
        });
        ds
    }

    fn round_trip(ds: &Dataset) -> Dataset {
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        Dataset::read_text(BufReader::new(buf.as_slice())).unwrap()
    }

    fn bytes_of(ds: &Dataset) -> Vec<u8> {
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trips_events_and_metadata() {
        let ds = tiny();
        let back = round_trip(&ds);
        assert_eq!(back.streams.len(), 1);
        assert_eq!(back.instances, ds.instances);
        assert_eq!(back.scenarios.len(), 1);
        assert_eq!(back.scenarios[0].name, ScenarioName::new("S"));
        let (a, b) = (&ds.streams[0], &back.streams[0]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.tid, y.tid);
            assert_eq!(x.pid, y.pid);
            assert_eq!(x.t, y.t);
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.wtid, y.wtid);
            assert_eq!(
                ds.stacks.resolve_frames(x.stack),
                back.stacks.resolve_frames(y.stack)
            );
        }
    }

    #[test]
    fn rejects_tab_in_frame() {
        let mut ds = Dataset::new();
        ds.stacks.intern_symbols(&["bad\tframe!X"]);
        let mut buf = Vec::new();
        let e = ds.write_text(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "!tracelens\t1\n!stack\tnotanumber\tframe\n";
        let e = Dataset::read_text(BufReader::new(text.as_bytes())).unwrap_err();
        match e {
            ReadError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("stack id"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_missing_header() {
        let text = "!trace\t0\ne\tr\t1\t1\t0\t5\t0\n";
        assert!(Dataset::read_text(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn rejects_event_outside_trace() {
        let text = "!tracelens\t1\n!stack\t0\ta!b\ne\tr\t1\t1\t0\t5\t0\n";
        let e = Dataset::read_text(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(e.to_string().contains("outside"));
    }

    #[test]
    fn rejects_undeclared_stack() {
        let text = "!tracelens\t1\n!trace\t0\ne\tr\t1\t1\t0\t5\t9\n";
        let e = Dataset::read_text(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(e.to_string().contains("undeclared"));
    }

    #[test]
    fn rejects_unwait_without_target() {
        let text = "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tu\t1\t1\t0\t0\t0\n";
        let e = Dataset::read_text(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(e.to_string().contains("wtid"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# hello\n\n!tracelens\t1\n# more\n!trace\t0\n";
        let ds = Dataset::read_text(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(ds.streams.len(), 1);
        assert!(ds.streams[0].is_empty());
    }

    #[test]
    fn read_text_bytes_matches_streaming_reader() {
        let text = bytes_of(&tiny());
        let a = Dataset::read_text(BufReader::new(text.as_slice())).unwrap();
        let b = Dataset::read_text_bytes(&text).unwrap();
        assert_eq!(bytes_of(&a), bytes_of(&b));
    }

    #[test]
    fn byte_scanner_rejects_non_numeric_fields() {
        for (line, what) in [
            ("e\tr\tx\t1\t0\t5\t0", "bad tid"),
            ("e\tr\t1\t1\t-3\t5\t0", "bad t"),
            ("e\tq\t1\t1\t0\t5\t0", "unknown event kind"),
            ("e\tr\t1\t1\t0\t5", "event needs"),
        ] {
            let text = format!("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n{line}\n");
            let e = Dataset::read_text_bytes(text.as_bytes()).unwrap_err();
            assert!(e.to_string().contains(what), "{line}: {e}");
        }
    }

    #[test]
    fn stack_ids_past_the_flat_table_resolve_through_the_map() {
        let big = FLAT_STACK_IDS;
        let head = format!(
            "!tracelens\t1\n!stack\t{big}\ta!b\n!stack\t4294967295\tc!d\n!stack\t3\te!f\n\
             !trace\t0\n"
        );
        let text = format!(
            "{head}e\tr\t1\t1\t0\t5\t4294967295\ne\tr\t1\t1\t1\t5\t{big}\n\
             e\tr\t1\t1\t2\t5\t3\n"
        );
        let (tables, mut reader) = TextReader::new(text.as_bytes()).unwrap();
        // Only the id below the bound has a slot in the flat table.
        assert_eq!(reader.parser.stack_ids.flat.len(), 4);
        let stream = reader.next().unwrap().unwrap();
        let frames: Vec<Vec<&str>> = stream
            .events()
            .iter()
            .map(|e| tables.stacks.resolve_frames(e.stack))
            .collect();
        assert_eq!(frames, [["c!d"], ["a!b"], ["e!f"]]);
        for raw in [2, big - 1, big + 1] {
            let text = format!("{head}e\tr\t1\t1\t0\t5\t{raw}\n");
            let e = Dataset::read_text_bytes(text.as_bytes()).unwrap_err();
            assert_eq!(
                e.to_string(),
                "parse error at line 6: undeclared stack id",
                "raw id {raw}"
            );
        }
    }

    #[test]
    fn numeric_overflow_is_a_parse_error() {
        let text = "!tracelens\t1\n!trace\t99999999999999999999\n";
        let e = Dataset::read_text_bytes(text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad trace id"), "{e}");
    }

    #[test]
    fn crlf_lines_parse() {
        let text = "!tracelens\t1\r\n!trace\t0\r\n";
        let ds = Dataset::read_text_bytes(text.as_bytes()).unwrap();
        assert_eq!(ds.streams.len(), 1);
    }

    /// Each refill of a `cap`-byte buffer hands the parser one shard of
    /// `text`; small capacities split lines across shards.
    fn read_in_shards(text: &str, cap: usize) -> Result<Dataset, ReadError> {
        Dataset::read_text(BufReader::with_capacity(cap, text.as_bytes()))
    }

    #[test]
    fn shard_plan_round_trips_byte_identically() {
        let mut ds = tiny();
        // A second stream, so shard boundaries also fall between traces.
        let st = ds.stacks.intern_symbols(&["net.sys!Recv"]);
        let mut b = TraceStreamBuilder::new(1);
        b.push_running(ThreadId(9), TimeNs(5), TimeNs(2), st);
        ds.streams.push(b.finish().unwrap());
        let text = String::from_utf8(bytes_of(&ds)).unwrap();

        for cap in 1..=text.len() {
            let merged = read_in_shards(&text, cap).unwrap();
            assert_eq!(merged.streams.len(), 2, "capacity {cap}");
            assert_eq!(bytes_of(&merged), text.as_bytes(), "capacity {cap}");
        }
    }

    #[test]
    fn interleaved_metadata_is_not_canonical() {
        // A !stack declared between two traces: legal, but not the order
        // `write_text` emits (every stack before the first trace). Every
        // shard size must parse it to that canonical form.
        let text = "!tracelens\t1\n!trace\t0\n!stack\t0\ta!b\n!trace\t1\n";
        let canonical = "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n!trace\t1\n";
        for cap in 1..=text.len() {
            let ds = read_in_shards(text, cap).unwrap();
            assert_eq!(ds.stacks.len(), 1, "capacity {cap}");
            assert_eq!(bytes_of(&ds), canonical.as_bytes(), "capacity {cap}");
        }
    }

    #[test]
    fn shard_errors_carry_serial_line_numbers() {
        // Line 4 holds a bad event; wherever the shard boundaries fall,
        // the error must match the one the whole-text parse reports.
        let text = "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tr\tbad\t1\t0\t5\t0\n";
        let serial = Dataset::read_text_bytes(text.as_bytes()).unwrap_err();
        for cap in 1..=text.len() {
            match (&serial, read_in_shards(text, cap).unwrap_err()) {
                (
                    ReadError::Parse { line, message },
                    ReadError::Parse {
                        line: l2,
                        message: m2,
                    },
                ) => {
                    assert_eq!((*line, message.as_str()), (l2, m2.as_str()), "cap {cap}");
                    assert_eq!(l2, 4);
                }
                other => panic!("expected matching parse errors, got {other:?}"),
            }
        }
    }

    #[test]
    fn preamble_instances_merge_before_shard_instances() {
        // An instance before the first trace must stay first, in file
        // order, however the shards cut the text.
        let text = "!tracelens\t1\n!scenario\tS\t1\t2\n\
                    !instance\t0\t1\t0\t0\tS\n!trace\t0\n!instance\t0\t2\t0\t0\tS\n";
        let serial = Dataset::read_text_bytes(text.as_bytes()).unwrap();
        for cap in 1..=text.len() {
            let merged = read_in_shards(text, cap).unwrap();
            assert_eq!(bytes_of(&merged), bytes_of(&serial), "capacity {cap}");
            assert_eq!(merged.instances[0].tid, ThreadId(1));
            assert_eq!(merged.instances[1].tid, ThreadId(2));
        }
    }

    #[test]
    fn find_newline_matches_a_byte_search() {
        // Bytes either side of `\n` and with the high bit set are the
        // ones a word-at-a-time zero-byte test could confuse.
        let fill = [b'\t', 0x0B, b'\r', 0x8A, 0xFF, 0x00, b'0'];
        for len in 0..40 {
            for &f in &fill {
                let mut bytes = vec![f; len];
                assert_eq!(find_newline(&bytes), None, "len {len} fill {f:#x}");
                for at in (0..len).rev() {
                    bytes[at] = b'\n';
                    assert_eq!(find_newline(&bytes), Some(at), "len {len} fill {f:#x}");
                }
            }
        }
    }

    /// Fails every other `read` call with a transient kind, losing no
    /// bytes — exercises [`RetryingReader`] without the faults crate.
    struct EveryOther<R> {
        inner: R,
        calls: u64,
    }

    impl<R: io::Read> io::Read for EveryOther<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "flaky"));
            }
            self.inner.read(buf)
        }
    }

    /// [`Dataset::read_text`] behind a [`RetryingReader`], as the store
    /// reads: the data set and the number of retried reads.
    fn read_retrying(
        input: impl io::Read,
        policy: RetryPolicy,
    ) -> Result<(Dataset, usize), ReadError> {
        let mut reader = BufReader::new(RetryingReader::new(input, policy));
        let ds = Dataset::read_text(&mut reader)?;
        Ok((ds, reader.into_inner().retries()))
    }

    #[test]
    fn retrying_reader_recovers_transient_faults() {
        let ds = tiny();
        let mut buf = Vec::new();
        ds.write_text(&mut buf).unwrap();
        let flaky = EveryOther {
            inner: buf.as_slice(),
            calls: 0,
        };
        let policy = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let (back, retries) = read_retrying(flaky, policy).unwrap();
        assert_eq!(back.instances, ds.instances);
        assert!(retries > 0, "every other read failed, so retries happened");
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        struct AlwaysFail;
        impl io::Read for AlwaysFail {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::TimedOut, "down"))
            }
        }
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let e = read_retrying(AlwaysFail, policy).unwrap_err();
        match e {
            ReadError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected io error, got {other}"),
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        };
        let schedule: Vec<u128> = (0..8).map(|a| policy.backoff(a).as_millis()).collect();
        assert_eq!(schedule, vec![1, 2, 4, 8, 16, 32, 64, 100]);
        // Saturates rather than overflowing at absurd attempt counts.
        assert_eq!(policy.backoff(200), Duration::from_millis(100));
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        struct Denied;
        impl io::Read for Denied {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
            }
        }
        let e = read_retrying(Denied, RetryPolicy::default()).unwrap_err();
        match e {
            ReadError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::PermissionDenied),
            other => panic!("expected io error, got {other}"),
        }
    }
}
