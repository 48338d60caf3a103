//! The `.tlt` parser contract, pinned as a table: for each input, the
//! exact `ReadError` text (message and line) or the `write_text` bytes
//! of the parsed data set. Every case must come out the same from the
//! in-memory entry point and from the streaming parse at any buffer
//! size, so a line split across buffer refills parses like any other.
//! A `TextReader` that yields the tables and then one stream at a time
//! must give the same outcome too, except on the cases whose records
//! are out of the streamed order, where it must stop at the pinned line.

use std::io::BufReader;
use tracelens::model::textio::{ReadError, TextReader, TextStreamError};
use tracelens::prelude::*;

/// Header, one stack and an open trace: an event line appended after
/// this is line 4.
const HEAD: &str = "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n";

/// Buffer capacities the streaming reader is driven with.
const CAPACITIES: [usize; 7] = [1, 2, 3, 5, 8, 13, 4096];

enum Expect {
    /// The parse fails with exactly this `Display`.
    Error(&'static str),
    /// The parse succeeds and `write_text` gives exactly these bytes.
    Text(&'static str),
}

use Expect::{Error, Text};

/// `HEAD` followed by one event line.
fn ev(line: &str) -> Vec<u8> {
    format!("{HEAD}{line}\n").into_bytes()
}

fn raw(text: &str) -> Vec<u8> {
    text.as_bytes().to_vec()
}

fn cases() -> Vec<(&'static str, Vec<u8>, Expect)> {
    let one = "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tr\t1\t2\t3\t4\t0\n";
    let arity = "parse error at line 4: event needs kind,tid,pid,t,cost,stack";
    vec![
        // A well-formed event of every kind.
        ("single running event", ev("e\tr\t1\t2\t3\t4\t0"), Text(one)),
        (
            "every kind",
            raw(&format!(
                "{HEAD}e\tr\t1\t2\t3\t4\t0\ne\tw\t1\t2\t7\t0\t0\n\
                 e\th\t5\t2\t8\t9\t0\ne\tu\t5\t2\t9\t0\t0\t1\n"
            )),
            Text(
                "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tr\t1\t2\t3\t4\t0\n\
                 e\tw\t1\t2\t7\t0\t0\ne\th\t5\t2\t8\t9\t0\ne\tu\t5\t2\t9\t0\t0\t1\n",
            ),
        ),
        (
            "unwait cost is dropped",
            ev("e\tu\t1\t2\t3\t4\t0\t5"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tu\t1\t2\t3\t0\t0\t5\n"),
        ),
        // Short arity.
        (
            "event with six fields",
            ev("e\tr\t1\t2\t3\t4"),
            Error(arity),
        ),
        ("bare e", ev("e"), Error(arity)),
        ("e with a kind only", ev("e\tr"), Error(arity)),
        (
            "instance with five fields",
            raw("!tracelens\t1\n!instance\t0\t1\t0\t5\n"),
            Error("parse error at line 2: !instance needs trace,tid,t0,t1,scenario"),
        ),
        (
            "scenario with three fields",
            raw("!tracelens\t1\n!scenario\tS\t1\n"),
            Error("parse error at line 2: !scenario needs name, t_fast, t_slow"),
        ),
        (
            "trace without an id",
            raw("!tracelens\t1\n!trace\n"),
            Error("parse error at line 2: bad trace id"),
        ),
        (
            "stack without an id",
            raw("!tracelens\t1\n!stack\n"),
            Error("parse error at line 2: !stack needs an id"),
        ),
        (
            "header without a version",
            raw("!tracelens\n"),
            Error("parse error at line 1: missing format version"),
        ),
        // Empty and non-numeric fields, one numeric column at a time.
        (
            "empty tid",
            ev("e\tr\t\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "non-numeric tid",
            ev("e\tr\tx\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "space before tid",
            ev("e\tr\t 1\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "empty pid",
            ev("e\tr\t1\t\t3\t4\t0"),
            Error("parse error at line 4: bad pid"),
        ),
        (
            "non-numeric pid",
            ev("e\tr\t1\t2a\t3\t4\t0"),
            Error("parse error at line 4: bad pid"),
        ),
        (
            "empty t",
            ev("e\tr\t1\t2\t\t4\t0"),
            Error("parse error at line 4: bad t"),
        ),
        (
            "negative t",
            ev("e\tr\t1\t2\t-3\t4\t0"),
            Error("parse error at line 4: bad t"),
        ),
        (
            "empty cost",
            ev("e\tr\t1\t2\t3\t\t0"),
            Error("parse error at line 4: bad cost"),
        ),
        (
            "signed cost",
            ev("e\tr\t1\t2\t3\t+4\t0"),
            Error("parse error at line 4: bad cost"),
        ),
        (
            "empty stack",
            ev("e\tr\t1\t2\t3\t4\t"),
            Error("parse error at line 4: bad stack id"),
        ),
        (
            "hex stack",
            ev("e\tr\t1\t2\t3\t4\t0x0"),
            Error("parse error at line 4: bad stack id"),
        ),
        (
            "empty wtid",
            ev("e\tu\t1\t2\t3\t0\t0\t"),
            Error("parse error at line 4: unwait needs wtid"),
        ),
        (
            "non-numeric wtid",
            ev("e\tu\t1\t2\t3\t0\t0\tz"),
            Error("parse error at line 4: unwait needs wtid"),
        ),
        (
            "first bad column wins",
            ev("e\tr\tx\ty\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "numbers are checked before the kind",
            ev("e\tq\tx\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "stack is resolved before the kind",
            ev("e\tq\t1\t2\t3\t4\t9"),
            Error("parse error at line 4: undeclared stack id"),
        ),
        // Integer range.
        (
            "20-digit t overflows",
            ev("e\tr\t1\t2\t99999999999999999999\t4\t0"),
            Error("parse error at line 4: bad t"),
        ),
        (
            "t one past u64::MAX",
            ev("e\tr\t1\t2\t18446744073709551616\t4\t0"),
            Error("parse error at line 4: bad t"),
        ),
        (
            "20-digit cost overflows",
            ev("e\tr\t1\t2\t3\t99999999999999999999\t0"),
            Error("parse error at line 4: bad cost"),
        ),
        (
            "t at u64::MAX",
            ev("e\tr\t1\t2\t18446744073709551615\t4\t0"),
            Text(
                "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n\
                 e\tr\t1\t2\t18446744073709551615\t4\t0\n",
            ),
        ),
        (
            "20-digit cost with leading zeros",
            ev("e\tr\t1\t2\t3\t00000000000000000004\t0"),
            Text(one),
        ),
        (
            "19-digit t",
            ev("e\tr\t1\t2\t9999999999999999999\t4\t0"),
            Text(
                "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n\
                 e\tr\t1\t2\t9999999999999999999\t4\t0\n",
            ),
        ),
        (
            "tid past u32::MAX",
            ev("e\tr\t4294967296\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "ten-digit tid past u32::MAX",
            ev("e\tr\t9999999999\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "tid at u32::MAX",
            ev("e\tr\t4294967295\t2\t3\t4\t0"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tr\t4294967295\t2\t3\t4\t0\n"),
        ),
        (
            "tid with leading zeros",
            ev("e\tr\t00000000001\t2\t3\t4\t0"),
            Text(one),
        ),
        (
            "pid past u32::MAX",
            ev("e\tr\t1\t4294967296\t3\t4\t0"),
            Error("parse error at line 4: bad pid"),
        ),
        (
            "stack past u32::MAX",
            ev("e\tr\t1\t2\t3\t4\t4294967296"),
            Error("parse error at line 4: bad stack id"),
        ),
        (
            "wtid past u32::MAX",
            ev("e\tu\t1\t2\t3\t0\t0\t4294967296"),
            Error("parse error at line 4: unwait needs wtid"),
        ),
        (
            "trace id overflows",
            raw("!tracelens\t1\n!trace\t99999999999999999999\n"),
            Error("parse error at line 2: bad trace id"),
        ),
        // Kinds.
        (
            "unknown kind",
            ev("e\tq\t1\t2\t3\t4\t0"),
            Error("parse error at line 4: unknown event kind \"q\""),
        ),
        (
            "upper-case kind",
            ev("e\tR\t1\t2\t3\t4\t0"),
            Error("parse error at line 4: unknown event kind \"R\""),
        ),
        (
            "two-byte kind",
            ev("e\trr\t1\t2\t3\t4\t0"),
            Error("parse error at line 4: unknown event kind \"rr\""),
        ),
        (
            "kind u with a suffix",
            ev("e\tux\t1\t2\t3\t0\t0\t1"),
            Error("parse error at line 4: unknown event kind \"ux\""),
        ),
        (
            "empty kind",
            ev("e\t\t1\t2\t3\t4\t0"),
            Error("parse error at line 4: unknown event kind \"\""),
        ),
        // Unwaits.
        (
            "unwait without a wtid",
            ev("e\tu\t1\t2\t3\t0\t0"),
            Error("parse error at line 4: unwait needs wtid"),
        ),
        (
            "self-unwait in the final trace",
            ev("e\tu\t1\t2\t3\t0\t0\t1"),
            Error(
                "parse error at line 0: final trace invalid: \
                 unwait event at index 0 wakes its own thread",
            ),
        ),
        (
            "self-unwait in an earlier trace",
            raw(&format!("{HEAD}e\tu\t1\t2\t3\t0\t0\t1\n\n!trace\t1\n")),
            Error(
                "parse error at line 6: previous trace invalid: \
                 unwait event at index 0 wakes its own thread",
            ),
        ),
        // Extra fields are accepted and dropped.
        (
            "running event with an extra word",
            ev("e\tr\t1\t2\t3\t4\t0\textra"),
            Text(one),
        ),
        (
            "wait event with an extra number",
            ev("e\tw\t1\t2\t3\t4\t0\t7"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tw\t1\t2\t3\t4\t0\n"),
        ),
        (
            "hardware event with two extra fields",
            ev("e\th\t1\t2\t3\t4\t0\tx\ty"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\th\t1\t2\t3\t4\t0\n"),
        ),
        (
            "unwait with an extra field",
            ev("e\tu\t1\t2\t3\t0\t0\t5\tjunk"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tu\t1\t2\t3\t0\t0\t5\n"),
        ),
        // Trailing tabs.
        (
            "running event with a trailing tab",
            ev("e\tr\t1\t2\t3\t4\t0\t"),
            Text(one),
        ),
        (
            "unwait with a trailing tab",
            ev("e\tu\t1\t2\t3\t0\t0\t5\t"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tu\t1\t2\t3\t0\t0\t5\n"),
        ),
        (
            "trace line with a trailing tab",
            raw("!tracelens\t1\n!trace\t0\t\n"),
            Text("!tracelens\t1\n!trace\t0\n"),
        ),
        (
            "stack line with a trailing tab has an empty frame",
            raw("!tracelens\t1\n!stack\t0\ta!b\t\n"),
            Text("!tracelens\t1\n!stack\t0\ta!b\t\n"),
        ),
        (
            "instance line with a trailing tab",
            raw("!tracelens\t1\n!trace\t0\n!instance\t0\t1\t0\t5\tS\t\n"),
            Error("parse error at line 3: !instance needs trace,tid,t0,t1,scenario"),
        ),
        (
            "scenario line with a trailing tab",
            raw("!tracelens\t1\n!scenario\tS\t1\t2\t\n"),
            Error("parse error at line 2: !scenario needs name, t_fast, t_slow"),
        ),
        // Line ends.
        (
            "CRLF line ends",
            raw("!tracelens\t1\r\n!stack\t0\ta!b\r\n!trace\t0\r\ne\tr\t1\t2\t3\t4\t0\r\n"),
            Text(one),
        ),
        (
            "CRLF after a wtid",
            raw(&format!("{HEAD}e\tu\t1\t2\t3\t0\t0\t5\r\n")),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\ne\tu\t1\t2\t3\t0\t0\t5\n"),
        ),
        (
            "several carriage returns",
            raw(&format!("{HEAD}e\tr\t1\t2\t3\t4\t0\r\r\n\r\n")),
            Text(one),
        ),
        (
            "carriage return inside a field",
            ev("e\tr\t1\r\t2\t3\t4\t0"),
            Error("parse error at line 4: bad tid"),
        ),
        (
            "missing final newline",
            raw(&format!("{HEAD}e\tr\t1\t2\t3\t4\t0")),
            Text(one),
        ),
        (
            "bad last line without a newline",
            raw(&format!("{HEAD}e\tr\t1")),
            Error(arity),
        ),
        (
            "missing final newline after CR",
            raw(&format!("{HEAD}e\tr\t1\t2\t3\t4\t0\r")),
            Text(one),
        ),
        // Comments and blank lines.
        (
            "comments and blank lines are skipped and counted",
            raw("# lead\n\n!tracelens\t1\n#\n!stack\t0\ta!b\n\n!trace\t0\n# mid\ne\tr\t1\n"),
            Error("parse error at line 9: event needs kind,tid,pid,t,cost,stack"),
        ),
        (
            "comments between events",
            raw(&format!("{HEAD}# c\ne\tr\t1\t2\t3\t4\t0\n#e\tr\tx\n")),
            Text(one),
        ),
        (
            "indented comment is a record",
            raw("!tracelens\t1\n # no\n"),
            Error("parse error at line 2: unknown record \" # no\""),
        ),
        (
            "hash inside a field",
            ev("e\tr\t1\t2\t3\t4\t0#c"),
            Error("parse error at line 4: bad stack id"),
        ),
        // Records and header.
        (
            "indented event is a record",
            ev(" e\tr\t1\t2\t3\t4\t0"),
            Error("parse error at line 4: unknown record \" e\""),
        ),
        (
            "tab-only line",
            raw("!tracelens\t1\n\t\n"),
            Error("parse error at line 2: unknown record \"\""),
        ),
        (
            "unknown record",
            raw("!tracelens\t1\nx\t1\n"),
            Error("parse error at line 2: unknown record \"x\""),
        ),
        (
            "unsupported version",
            raw("!tracelens\t2\n"),
            Error("parse error at line 1: unsupported version 2"),
        ),
        (
            "version with a leading zero and a repeated header",
            raw("!tracelens\t01\n!tracelens\t1\n"),
            Text("!tracelens\t1\n"),
        ),
        (
            "event before the header",
            raw("!stack\t0\ta!b\n!trace\t0\ne\tr\t1\t2\t3\t4\t0\n!tracelens\t1\n"),
            Error("parse error at line 3: missing !tracelens header"),
        ),
        (
            "metadata before the header",
            raw("!stack\t0\ta!b\n!trace\t0\n!tracelens\t1\ne\tr\t1\t2\t3\t4\t0\n"),
            Text(one),
        ),
        (
            "event outside a trace",
            raw("!tracelens\t1\n!stack\t0\ta!b\ne\tr\t1\t2\t3\t4\t0\n"),
            Error("parse error at line 3: event outside a !trace section"),
        ),
        (
            "no header at all",
            raw("!trace\t0\n"),
            Error("parse error at line 0: missing !tracelens header"),
        ),
        (
            "empty input",
            raw(""),
            Error("parse error at line 0: missing !tracelens header"),
        ),
        (
            "blank lines only",
            raw("\n\r\n\n"),
            Error("parse error at line 0: missing !tracelens header"),
        ),
        ("header only", raw("!tracelens\t1"), Text("!tracelens\t1\n")),
        // Traces.
        (
            "traces out of order are sorted",
            raw("!tracelens\t1\n!stack\t0\ta!b\n!trace\t1\ne\tr\t7\t2\t3\t4\t0\n!trace\t0\n"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n!trace\t1\ne\tr\t7\t2\t3\t4\t0\n"),
        ),
        (
            "events are sorted by time",
            raw(&format!("{HEAD}e\tr\t1\t2\t9\t1\t0\ne\tr\t2\t2\t3\t1\t0\n")),
            Text(
                "!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n\
                 e\tr\t2\t2\t3\t1\t0\ne\tr\t1\t2\t9\t1\t0\n",
            ),
        ),
        (
            "sparse trace ids",
            raw("!tracelens\t1\n!trace\t1\n"),
            Error("parse error at line 0: trace ids must be dense, starting at 0"),
        ),
        (
            "repeated trace id",
            raw("!tracelens\t1\n!trace\t0\n!trace\t0\n"),
            Error("parse error at line 0: trace ids must be dense, starting at 0"),
        ),
        // Stacks.
        (
            "undeclared stack id",
            ev("e\tr\t1\t2\t3\t4\t9"),
            Error("parse error at line 4: undeclared stack id"),
        ),
        (
            "stack declared after its use",
            raw(&format!("{HEAD}e\tr\t1\t2\t3\t4\t1\n!stack\t1\tc!d\n")),
            Error("parse error at line 4: undeclared stack id"),
        ),
        (
            "sparse stack ids",
            raw(
                "!tracelens\t1\n!stack\t4294967295\tbig!One\n!stack\t7\tc!d\n!trace\t0\n\
                 e\tr\t1\t2\t3\t4\t4294967295\ne\tr\t1\t2\t5\t4\t7\n",
            ),
            Text(
                "!tracelens\t1\n!stack\t0\tbig!One\n!stack\t1\tc!d\n!trace\t0\n\
                 e\tr\t1\t2\t3\t4\t0\ne\tr\t1\t2\t5\t4\t1\n",
            ),
        ),
        (
            "identical stacks intern once",
            raw("!tracelens\t1\n!stack\t0\ta!b\n!stack\t1\ta!b\n!trace\t0\ne\tr\t1\t2\t3\t4\t1\n"),
            Text(one),
        ),
        (
            "redeclared stack id takes the later frames",
            raw("!tracelens\t1\n!stack\t0\ta!b\n!stack\t0\tc!d\n!trace\t0\ne\tr\t1\t2\t3\t4\t0\n"),
            Text(
                "!tracelens\t1\n!stack\t0\ta!b\n!stack\t1\tc!d\n!trace\t0\n\
                 e\tr\t1\t2\t3\t4\t1\n",
            ),
        ),
        (
            "stack with no frames",
            raw("!tracelens\t1\n!stack\t0\n"),
            Text("!tracelens\t1\n!stack\t0\n"),
        ),
        (
            "bad stack id on a stack line",
            raw("!tracelens\t1\n!stack\tnotanumber\tframe\n"),
            Error("parse error at line 2: bad stack id"),
        ),
        (
            "invalid UTF-8 in a frame",
            b"!tracelens\t1\n!stack\t0\ta\xffb\n".to_vec(),
            Error("parse error at line 2: invalid utf-8 in text field"),
        ),
        // Interleaved metadata and instance order.
        (
            "stack between traces",
            raw("!tracelens\t1\n!trace\t0\n!stack\t0\ta!b\n!trace\t1\ne\tr\t1\t2\t3\t4\t0\n"),
            Text("!tracelens\t1\n!stack\t0\ta!b\n!trace\t0\n!trace\t1\ne\tr\t1\t2\t3\t4\t0\n"),
        ),
        (
            "scenario and header between traces",
            raw("!tracelens\t1\n!trace\t0\n!scenario\tS\t1\t2\n!tracelens\t1\n!trace\t1\n"),
            Text("!tracelens\t1\n!scenario\tS\t1\t2\n!trace\t0\n!trace\t1\n"),
        ),
        (
            "instances keep file order around traces",
            raw(
                "!tracelens\t1\n!scenario\tS\t1\t2\n!instance\t0\t1\t0\t0\tS\n\
                 !trace\t0\n!instance\t0\t2\t0\t0\tS\n!trace\t1\n!instance\t0\t3\t0\t0\tS\n",
            ),
            Text(
                "!tracelens\t1\n!scenario\tS\t1\t2\n!instance\t0\t1\t0\t0\tS\n\
                 !instance\t0\t2\t0\t0\tS\n!instance\t0\t3\t0\t0\tS\n!trace\t0\n!trace\t1\n",
            ),
        ),
        (
            "instance of an undeclared scenario",
            raw("!tracelens\t1\n!instance\t5\t1\t0\t9\tNope\n"),
            Text("!tracelens\t1\n!instance\t5\t1\t0\t9\tNope\n"),
        ),
        (
            "instance ends before it starts",
            raw("!tracelens\t1\n!instance\t0\t1\t9\t0\tS\n"),
            Error("parse error at line 2: instance t0 after t1"),
        ),
        (
            "scenario thresholds out of order",
            raw("!tracelens\t1\n!scenario\tS\t2\t2\n"),
            Error("parse error at line 2: t_fast must be below t_slow"),
        ),
        (
            "non-numeric scenario threshold",
            raw("!tracelens\t1\n!scenario\tS\tx\t2\n"),
            Error("parse error at line 2: bad t_fast"),
        ),
    ]
}

/// The cases a `TextReader` does not stream, and the line of the first
/// record out of the streamed order: a table record after the first
/// `!trace`, or a trace id that is not the next of 0, 1, 2, ….
const OUT_OF_ORDER: [(&str, usize); 7] = [
    ("instance line with a trailing tab", 3),
    ("traces out of order are sorted", 3),
    ("sparse trace ids", 2),
    ("repeated trace id", 3),
    ("stack between traces", 3),
    ("scenario and header between traces", 3),
    ("instances keep file order around traces", 5),
];

/// The parse outcome in comparable form: the error's `Display`, or the
/// data set's `write_text` bytes.
fn outcome(result: Result<Dataset, ReadError>) -> Result<String, String> {
    match result {
        Ok(ds) => {
            let mut out = Vec::new();
            ds.write_text(&mut out).expect("serialize");
            Ok(String::from_utf8(out).expect("utf-8 output"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `input` read by a `TextReader` over a `k`-byte buffer, its tables
/// and every stream it yields assembled into one data set: the outcome,
/// or the line of the record out of the streamed order it stopped at.
fn streamed(input: &[u8], k: usize) -> Result<Result<String, String>, usize> {
    let (mut ds, streams) = match TextReader::new(BufReader::with_capacity(k, input)) {
        Ok(read) => read,
        Err(e) => return Ok(outcome(Err(e))),
    };
    for stream in streams {
        match stream {
            Ok(stream) => ds.streams.push(stream),
            Err(TextStreamError::Read(e)) => return Ok(outcome(Err(e))),
            Err(TextStreamError::OutOfOrder { line }) => return Err(line),
        }
    }
    Ok(outcome(Ok(ds)))
}

#[test]
fn every_input_parses_as_pinned() {
    let cases = cases();
    for (name, _) in OUT_OF_ORDER {
        assert!(cases.iter().any(|c| c.0 == name), "no case named {name:?}");
    }
    let mut mismatches = Vec::new();
    for (name, input, expect) in cases {
        let want = match expect {
            Error(e) => Err(e.to_owned()),
            Text(t) => Ok(t.to_owned()),
        };
        let got = outcome(Dataset::read_text_bytes(&input));
        if got != want {
            mismatches.push(format!("{name}: got {got:?}, want {want:?}"));
        }
        let stops = OUT_OF_ORDER.iter().find(|(case, _)| *case == name);
        for k in CAPACITIES {
            let buffered = outcome(Dataset::read_text(BufReader::with_capacity(k, &input[..])));
            if buffered != got {
                mismatches.push(format!(
                    "{name}: buffer {k} gave {buffered:?}, in-memory {got:?}"
                ));
            }
            let by_stream = streamed(&input, k);
            let want = match stops {
                Some(&(_, line)) => Err(line),
                None => Ok(got.clone()),
            };
            if by_stream != want {
                mismatches.push(format!(
                    "{name}: the reader over buffer {k} gave {by_stream:?}, want {want:?}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
