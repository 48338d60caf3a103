//! Random trace streams shared by the property tests.

use proptest::prelude::*;
use tracelens_model::{StackTable, ThreadId, TimeNs, TraceStream, TraceStreamBuilder};

#[derive(Debug, Clone)]
pub enum RawEvent {
    Running { tid: u8, t: u16, cost: u8 },
    Wait { tid: u8, t: u16 },
    Unwait { tid: u8, woken: u8, t: u16 },
    Hardware { tid: u8, t: u16, cost: u8 },
}

pub fn raw_event() -> impl Strategy<Value = RawEvent> {
    prop_oneof![
        (0u8..4, 0u16..1000, 1u8..20).prop_map(|(tid, t, cost)| RawEvent::Running { tid, t, cost }),
        (0u8..4, 0u16..1000).prop_map(|(tid, t)| RawEvent::Wait { tid, t }),
        (0u8..4, 0u8..4, 0u16..1000).prop_map(|(tid, woken, t)| RawEvent::Unwait { tid, woken, t }),
        (0u8..4, 0u16..1000, 1u8..20).prop_map(|(tid, t, cost)| RawEvent::Hardware {
            tid,
            t,
            cost
        }),
    ]
}

/// Builds a valid stream from arbitrary raw events (self-unwaits are
/// redirected to the next thread id to satisfy validation).
pub fn build_stream(events: &[RawEvent], stacks: &mut StackTable) -> TraceStream {
    let s = stacks.intern_symbols(&["mod.sys!Fn", "kernel!Op"]);
    let mut b = TraceStreamBuilder::new(0);
    for e in events {
        match *e {
            RawEvent::Running { tid, t, cost } => {
                b.push_running(
                    ThreadId(tid as u32),
                    TimeNs(t as u64),
                    TimeNs(cost as u64),
                    s,
                );
            }
            RawEvent::Wait { tid, t } => {
                b.push_wait(ThreadId(tid as u32), TimeNs(t as u64), TimeNs::ZERO, s);
            }
            RawEvent::Unwait { tid, woken, t } => {
                let woken = if woken == tid { (tid + 1) % 4 } else { woken };
                b.push_unwait(
                    ThreadId(tid as u32),
                    ThreadId(woken as u32),
                    TimeNs(t as u64),
                    s,
                );
            }
            RawEvent::Hardware { tid, t, cost } => {
                b.push_hardware(
                    ThreadId(tid as u32),
                    TimeNs(t as u64),
                    TimeNs(cost as u64),
                    s,
                );
            }
        }
    }
    b.finish().expect("builder output is valid")
}
