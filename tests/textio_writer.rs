//! `Dataset::write_text` formats numbers with its own decimal writer and
//! hands its writer chunks of about 64 KiB. This test keeps the writer
//! it replaced, one `write!` per field into the writer, as a reference,
//! and checks that both write the same bytes: on simulated corpora of
//! both scenario mixes, on corpora with every fault kind injected alone
//! and all together, and on hand-built records that put the values
//! either side of every digit-count boundary in every numeric field.

use std::io::{self, Write};
use tracelens::model::{
    Event, EventKind, ProcessId, ScenarioInstance, StackId, ThreadId, TimeNs, TraceId, TraceStream,
};
use tracelens::prelude::*;

/// The `.tlt` writer as it was before it gathered its lines into one
/// buffer: one `write!` per record, straight into `out`.
fn reference_write_text<W: Write>(ds: &Dataset, mut out: W) -> io::Result<()> {
    writeln!(out, "!tracelens\t1")?;
    for s in &ds.scenarios {
        check_text(s.name.as_str())?;
        writeln!(
            out,
            "!scenario\t{}\t{}\t{}",
            s.name.as_str(),
            s.thresholds.fast().as_nanos(),
            s.thresholds.slow().as_nanos()
        )?;
    }
    for id in 0..ds.stacks.len() {
        let sid = StackId(id as u32);
        write!(out, "!stack\t{id}")?;
        for frame in ds.stacks.resolve_frames(sid) {
            check_text(frame)?;
            write!(out, "\t{frame}")?;
        }
        writeln!(out)?;
    }
    for i in &ds.instances {
        check_text(i.scenario.as_str())?;
        writeln!(
            out,
            "!instance\t{}\t{}\t{}\t{}\t{}",
            i.trace.0,
            i.tid.0,
            i.t0.as_nanos(),
            i.t1.as_nanos(),
            i.scenario.as_str()
        )?;
    }
    for stream in &ds.streams {
        writeln!(out, "!trace\t{}", stream.id().0)?;
        for e in stream.events() {
            let kind = match e.kind {
                EventKind::Running => 'r',
                EventKind::Wait => 'w',
                EventKind::Unwait => 'u',
                EventKind::HardwareService => 'h',
            };
            write!(
                out,
                "e\t{kind}\t{}\t{}\t{}\t{}\t{}",
                e.tid.0,
                e.pid.0,
                e.t.as_nanos(),
                e.cost.as_nanos(),
                e.stack.0
            )?;
            match e.wtid {
                Some(w) => writeln!(out, "\t{}", w.0)?,
                None => writeln!(out)?,
            }
        }
    }
    Ok(())
}

fn check_text(s: &str) -> io::Result<()> {
    if s.contains('\t') || s.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("text contains tab/newline: {s:?}"),
        ));
    }
    Ok(())
}

/// What a writer made of `ds`: the bytes it passed on, and its error.
fn written(
    ds: &Dataset,
    write: impl Fn(&Dataset, &mut Vec<u8>) -> io::Result<()>,
) -> (Vec<u8>, Option<String>) {
    let mut out = Vec::new();
    let error = write(ds, &mut out)
        .err()
        .map(|e| format!("{:?}: {e}", e.kind()));
    (out, error)
}

/// Both writers pass on the same bytes and fail the same way.
fn assert_same_text(ds: &Dataset, what: &str) {
    let got = written(ds, |ds, out| ds.write_text(out));
    let want = written(ds, |ds, out| reference_write_text(ds, out));
    assert_eq!(got.1, want.1, "{what}: the errors differ");
    if got.0 != want.0 {
        let at = got
            .0
            .iter()
            .zip(&want.0)
            .take_while(|(a, b)| a == b)
            .count();
        let line = want.0[..at].iter().filter(|&&b| b == b'\n').count() + 1;
        panic!(
            "{what}: the text differs from line {line} (byte {at}; {} bytes written, {} wanted)",
            got.0.len(),
            want.0.len()
        );
    }
}

fn corpus(seed: u64, traces: usize, mix: ScenarioMix) -> Dataset {
    DatasetBuilder::new(seed).traces(traces).mix(mix).build()
}

#[test]
fn simulated_corpora_of_both_mixes_write_the_reference_bytes() {
    for (seed, mix) in [
        (7, ScenarioMix::Selected),
        (2014, ScenarioMix::Selected),
        (9, ScenarioMix::Full),
        (2014, ScenarioMix::Full),
    ] {
        let ds = corpus(seed, 24, mix.clone());
        assert_same_text(&ds, &format!("seed {seed}, {mix:?}"));
    }
    let dense = DatasetBuilder::new(2014)
        .traces(12)
        .instances_per_trace(8, 12)
        .build();
    assert_same_text(&dense, "dense");
}

#[test]
fn fault_injected_corpora_write_the_reference_bytes() {
    let clean = corpus(31, 16, ScenarioMix::Full);
    for kind in ALL_FAULT_KINDS {
        for rate in [0.05, 0.3] {
            let (ds, _) = FaultInjector::new(5).with(kind, rate).inject(&clean);
            assert_same_text(&ds, &format!("{} at {rate}", kind.label()));
        }
    }
    let (ds, _) = FaultInjector::new(5).with_all(0.1).inject(&clean);
    assert_same_text(&ds, "every kind");
}

/// Either side of each digit-count boundary, and the largest values.
const U32S: [u32; 7] = [0, 9, 10, 99, 100, 1_000_000_007, u32::MAX];
const U64S: [u64; 7] = [0, 9, 10, 99, 100, u32::MAX as u64, u64::MAX];

#[test]
fn boundary_values_in_every_field_write_the_reference_bytes() {
    let mut ds = Dataset::new();
    for (k, pair) in U64S.windows(2).enumerate() {
        ds.scenarios.push(Scenario::new(
            ScenarioName::new(format!("Boundary{k}")),
            Thresholds::new(TimeNs(pair[0]), TimeNs(pair[1])),
        ));
    }
    // 101 stacks: `!stack` ids 0, 9, 10, 99 and 100 among them.
    for k in 0..=100 {
        ds.stacks
            .intern_symbols(&["app!Main", &format!("drv.sys!F{k}")]);
    }
    let kinds = [
        EventKind::Running,
        EventKind::Wait,
        EventKind::Unwait,
        EventKind::HardwareService,
    ];
    let n = U64S.len();
    for (k, &trace) in U32S.iter().enumerate() {
        ds.instances.push(ScenarioInstance {
            trace: TraceId(trace),
            scenario: ScenarioName::new("Boundary0"),
            tid: ThreadId(U32S[(k + 1) % n]),
            t0: TimeNs(U64S[k]),
            t1: TimeNs(U64S[(k + 3) % n]),
        });
        let mut events = Vec::new();
        for (i, kind) in kinds.into_iter().cycle().take(4 * n).enumerate() {
            // Every value in every field, with and without a woken
            // thread, whatever the kind.
            events.push(Event {
                kind,
                tid: ThreadId(U32S[i % n]),
                pid: ProcessId(U32S[(i + k) % n]),
                t: TimeNs(U64S[(i + 2 * k) % n]),
                cost: TimeNs(U64S[(i + 1) % n]),
                stack: StackId(U32S[(i + 3) % n]),
                wtid: (i % 8 < 4).then(|| ThreadId(U32S[(i + k) % n])),
            });
        }
        ds.streams
            .push(TraceStream::from_unchecked_parts(TraceId(trace), events));
    }
    assert_same_text(&ds, "boundary values");
}

#[test]
fn an_unrepresentable_name_stops_both_writers_at_the_same_byte() {
    let mut ds = corpus(3, 4, ScenarioMix::Selected);
    ds.stacks.intern_symbols(&["app!Main", "bad\tframe"]);
    assert_same_text(&ds, "a tab in a frame");
    let mut ds = corpus(3, 4, ScenarioMix::Selected);
    ds.scenarios.push(Scenario::new(
        ScenarioName::new("Bad\nName"),
        Thresholds::new(TimeNs(1), TimeNs(2)),
    ));
    assert_same_text(&ds, "a newline in a scenario name");
    let mut ds = corpus(3, 4, ScenarioMix::Selected);
    ds.instances.push(ScenarioInstance {
        scenario: ScenarioName::new("Tab\tName"),
        ..ds.instances[0]
    });
    assert_same_text(&ds, "a tab in an undefined instance's scenario name");
    let e = ds.write_text(io::sink()).unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
}

/// A writer that takes at most `limit` bytes, then fails every write
/// and every flush.
struct Full {
    taken: Vec<u8>,
    limit: usize,
}

impl Write for Full {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.limit - self.taken.len();
        if room == 0 {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "full"));
        }
        let n = room.min(buf.len());
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.taken.len() == self.limit {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "full"));
        }
        Ok(())
    }
}

#[test]
fn a_failed_write_is_the_error_whatever_the_chunk_it_hits() {
    let ds = corpus(11, 12, ScenarioMix::Selected);
    let text = written(&ds, |ds, out| ds.write_text(out)).0;
    assert!(text.len() > 3 * 65_536, "the corpus spans several chunks");
    for limit in [0, 1, 4_000, 65_536, 100_000, text.len() - 1] {
        let mut out = Full {
            taken: Vec::new(),
            limit,
        };
        let e = ds.write_text(&mut out).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull, "limit {limit}");
        assert_eq!(out.taken, text[..limit], "limit {limit}");
    }
    // A text that fits has still been flushed: the writer's error at
    // flush time is the call's error.
    let mut out = Full {
        taken: Vec::new(),
        limit: text.len(),
    };
    let e = ds.write_text(&mut out).unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::StorageFull);
    assert_eq!(out.taken, text);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random values over the whole range of every field.
        #[test]
        fn random_records_write_the_reference_bytes(
            fields in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
                1..40
            ),
            trace in any::<u32>(),
            span in (any::<u64>(), any::<u64>())
        ) {
            let mut ds = Dataset::new();
            ds.stacks.intern_symbols(&["app!Main"]);
            let kinds = [
                EventKind::Running,
                EventKind::Wait,
                EventKind::Unwait,
                EventKind::HardwareService,
            ];
            let events = fields
                .iter()
                .enumerate()
                .map(|(i, &(tid, pid, t, cost, stack, wtid))| Event {
                    kind: kinds[i % 4],
                    tid: ThreadId(tid),
                    pid: ProcessId(pid),
                    t: TimeNs(t),
                    cost: TimeNs(cost),
                    stack: StackId(stack),
                    wtid: (wtid % 3 != 0).then_some(ThreadId(wtid)),
                })
                .collect();
            ds.streams.push(TraceStream::from_unchecked_parts(TraceId(trace), events));
            ds.instances.push(ScenarioInstance {
                trace: TraceId(trace),
                scenario: ScenarioName::new("Random"),
                tid: ThreadId(fields[0].0),
                t0: TimeNs(span.0),
                t1: TimeNs(span.1),
            });
            let got = written(&ds, |ds, out| ds.write_text(out));
            let want = written(&ds, |ds, out| reference_write_text(ds, out));
            prop_assert_eq!(got, want);
        }
    }
}
