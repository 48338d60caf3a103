//! The discrete-event simulation engine.
//!
//! A [`Machine`] hosts threads (each executing a [`Program`]), FIFO kernel
//! locks, and single-server hardware devices. Running it produces an
//! ETW-shaped [`TraceStream`]: running samples at the 1 ms
//! [`SAMPLE_INTERVAL`], wait events when threads block, unwait events when
//! locks are handed over or device requests complete, and
//! hardware-service events on per-device system worker threads.
//!
//! ## Model notes
//!
//! * CPU capacity is unbounded (no run-queue contention): the phenomena
//!   under study — lock contention and hierarchical dependencies — are
//!   wait phenomena, matching the paper's observation that drivers consume
//!   little CPU (`IA_run ≈ 1.6 %`).
//! * Locks hand off FIFO; a release wakes the longest waiter.
//! * Devices serve FIFO with a single server; each device owns a system
//!   worker thread that emits the hardware-service event, performs any
//!   post-processing (e.g. decryption in `se.sys`), and unwaits the
//!   requester — exactly the `TS,W0` pattern of the paper's Figure 1.

use crate::program::{CondId, DeviceId, LockId, Op, Program};
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;
use tracelens_model::{
    ProcessId, StackTable, Symbol, ThreadId, TimeNs, TraceStream, TraceStreamBuilder,
    SAMPLE_INTERVAL,
};

/// Synthetic kernel frame shown on lock-wait callstacks.
pub const FRAME_ACQUIRE: &str = "kernel!AcquireLock";
/// Synthetic kernel frame shown on lock-release (unwait) callstacks.
pub const FRAME_RELEASE: &str = "kernel!ReleaseLock";
/// Synthetic kernel frame shown on hardware-wait callstacks.
pub const FRAME_WAIT_OBJECT: &str = "kernel!WaitForObject";
/// Root frame of device system worker threads.
pub const FRAME_WORKER: &str = "kernel!Worker";

/// Static description of a hardware device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Human name (diagnostics only).
    pub name: String,
    /// The dummy service signature stamped on hardware-service events,
    /// e.g. `DiskService!Transfer`. Its module (`DiskService`) must *not*
    /// look like a driver, so `*.sys` filters exclude raw hardware time.
    pub service_frame: String,
}

impl DeviceSpec {
    /// Creates a device spec.
    pub fn new(name: &str, service_frame: &str) -> Self {
        DeviceSpec {
            name: name.to_owned(),
            service_frame: service_frame.to_owned(),
        }
    }
}

/// A thread to simulate.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Owning process.
    pub pid: ProcessId,
    /// When the thread begins executing its program.
    pub start: TimeNs,
    /// The program to run.
    pub program: Program,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No runnable thread remains but some threads are still blocked:
    /// the configured programs deadlock.
    Deadlock {
        /// Threads still blocked when progress stopped.
        blocked: Vec<ThreadId>,
    },
    /// The produced event sequence failed stream validation
    /// (indicates an engine bug; should not occur).
    Stream(tracelens_model::StreamError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked with blocked threads {blocked:?}")
            }
            SimError::Stream(e) => write!(f, "simulated stream failed validation: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Stream(e) => Some(e),
            SimError::Deadlock { .. } => None,
        }
    }
}

/// Result of running a [`Machine`].
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The produced trace stream.
    pub stream: TraceStream,
    /// Per simulated thread: `(start, finish)` of its program.
    pub spans: Vec<(ThreadId, TimeNs, TimeNs)>,
}

impl SimOutput {
    /// The `(start, finish)` span of a thread, if it was simulated.
    pub fn span_of(&self, tid: ThreadId) -> Option<(TimeNs, TimeNs)> {
        self.spans
            .iter()
            .find(|(t, _, _)| *t == tid)
            .map(|(_, a, b)| (*a, *b))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug)]
struct LockState {
    exclusive: Option<usize>,
    shared: Vec<usize>,
    queue: VecDeque<(usize, LockMode)>,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }

    /// Whether a fresh request can be granted immediately. Strict FIFO:
    /// any queued waiter forces newcomers to queue too (no starvation).
    fn can_grant(&self, mode: LockMode) -> bool {
        if !self.queue.is_empty() {
            return false;
        }
        match mode {
            LockMode::Exclusive => self.is_free(),
            LockMode::Shared => self.exclusive.is_none(),
        }
    }

    fn grant(&mut self, thread: usize, mode: LockMode) {
        match mode {
            LockMode::Exclusive => {
                debug_assert!(self.is_free());
                self.exclusive = Some(thread);
            }
            LockMode::Shared => {
                debug_assert!(self.exclusive.is_none());
                self.shared.push(thread);
            }
        }
    }

    fn release_by(&mut self, thread: usize) {
        if self.exclusive == Some(thread) {
            self.exclusive = None;
        } else if let Some(pos) = self.shared.iter().position(|&s| s == thread) {
            self.shared.swap_remove(pos);
        } else {
            debug_assert!(false, "release by non-holder");
        }
    }
}

#[derive(Debug)]
struct CondState {
    notified: bool,
    waiters: Vec<usize>,
}

#[derive(Debug)]
struct DeviceState {
    busy_until: TimeNs,
    service_sym: Symbol,
}

#[derive(Debug)]
struct ThreadState {
    tid: ThreadId,
    pid: ProcessId,
    ip: usize,
    stack: Vec<Symbol>,
    start: TimeNs,
    finish: Option<TimeNs>,
    blocked: bool,
}

/// A configured machine: locks, devices, and threads to simulate.
///
/// ```
/// use tracelens_model::{StackTable, TimeNs, ProcessId};
/// use tracelens_sim::{Machine, ProgramBuilder};
/// let mut stacks = StackTable::new();
/// let mut m = Machine::new(0);
/// let t = m.add_thread(ProcessId(1), TimeNs::ZERO,
///     ProgramBuilder::new("app!Main").compute(TimeNs::from_millis(3)).build()?);
/// let out = m.run(&mut stacks)?;
/// assert_eq!(out.span_of(t).unwrap().1, TimeNs::from_millis(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Machine {
    trace_id: u32,
    locks: u32,
    conds: u32,
    cores: Option<u32>,
    devices: Vec<DeviceSpec>,
    threads: Vec<ThreadSpec>,
}

impl Machine {
    /// Creates an empty machine whose output stream will carry `trace_id`.
    pub fn new(trace_id: u32) -> Self {
        Machine {
            trace_id,
            ..Machine::default()
        }
    }

    /// Bounds the machine to `n` CPU cores: `Compute` ops queue FCFS for
    /// a core, so run-queue pressure dilates wall time. The default is
    /// unbounded (the paper's phenomena are wait phenomena, and ETW does
    /// not record ready time as wait events — neither does the engine:
    /// scheduling delay shows up as time dilation, not extra events).
    /// Device service and post-processing run in completion context and
    /// do not consume cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn set_cores(&mut self, n: u32) -> &mut Self {
        assert!(n > 0, "a machine needs at least one core");
        self.cores = Some(n);
        self
    }

    /// Registers a new lock.
    pub fn add_lock(&mut self) -> LockId {
        let id = LockId(self.locks);
        self.locks += 1;
        id
    }

    /// Registers a one-shot event object.
    pub fn add_cond(&mut self) -> CondId {
        let id = CondId(self.conds);
        self.conds += 1;
        id
    }

    /// Registers a hardware device.
    pub fn add_device(&mut self, spec: DeviceSpec) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(spec);
        id
    }

    /// Adds a thread; returns the [`ThreadId`] it will carry in the trace.
    ///
    /// Thread ids are assigned sequentially from 1; device workers receive
    /// ids above all program threads when the machine runs.
    pub fn add_thread(&mut self, pid: ProcessId, start: TimeNs, program: Program) -> ThreadId {
        self.threads.push(ThreadSpec {
            pid,
            start,
            program,
        });
        ThreadId(self.threads.len() as u32)
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the thread programs deadlock.
    pub fn run(self, stacks: &mut StackTable) -> Result<SimOutput, SimError> {
        Runner::new(self, stacks).run()
    }
}

/// Heap entry: earliest time first, FIFO among equal times via `seq`.
#[derive(Debug, PartialEq, Eq)]
struct Ready {
    at: TimeNs,
    seq: u64,
    thread: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Runner<'a> {
    stacks: &'a mut StackTable,
    builder: TraceStreamBuilder,
    threads: Vec<ThreadState>,
    programs: Vec<Program>,
    locks: Vec<LockState>,
    conds: Vec<CondState>,
    devices: Vec<DeviceState>,
    heap: BinaryHeap<Ready>,
    seq: u64,
    sym_acquire: Symbol,
    sym_release: Symbol,
    sym_wait_object: Symbol,
    sym_worker: Symbol,
    /// Min-heap of per-core free times when cores are bounded
    /// (`Reverse` for earliest-free-first).
    core_free: Option<BinaryHeap<std::cmp::Reverse<TimeNs>>>,
    /// Next thread id for per-request device workers. Each hardware
    /// request completes on its own system worker thread (mirroring I/O
    /// completion work items), so unrelated requests never contaminate
    /// each other's wait intervals.
    next_worker_tid: u32,
}

impl<'a> Runner<'a> {
    fn new(machine: Machine, stacks: &'a mut StackTable) -> Self {
        let sym_acquire = stacks.intern_frame(FRAME_ACQUIRE);
        let sym_release = stacks.intern_frame(FRAME_RELEASE);
        let sym_wait_object = stacks.intern_frame(FRAME_WAIT_OBJECT);
        let sym_worker = stacks.intern_frame(FRAME_WORKER);

        let n = machine.threads.len();
        let mut threads = Vec::with_capacity(n);
        let mut programs = Vec::with_capacity(n);
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, spec) in machine.threads.into_iter().enumerate() {
            threads.push(ThreadState {
                tid: ThreadId((i + 1) as u32),
                pid: spec.pid,
                ip: 0,
                stack: Vec::new(),
                start: spec.start,
                finish: None,
                blocked: false,
            });
            heap.push(Ready {
                at: spec.start,
                seq,
                thread: i,
            });
            seq += 1;
            programs.push(spec.program);
        }

        let devices = machine
            .devices
            .iter()
            .map(|spec| DeviceState {
                busy_until: TimeNs::ZERO,
                service_sym: stacks.intern_frame(&spec.service_frame),
            })
            .collect();

        let locks = (0..machine.locks)
            .map(|_| LockState {
                exclusive: None,
                shared: Vec::new(),
                queue: VecDeque::new(),
            })
            .collect();

        let conds = (0..machine.conds)
            .map(|_| CondState {
                notified: false,
                waiters: Vec::new(),
            })
            .collect();

        Runner {
            stacks,
            builder: TraceStreamBuilder::new(machine.trace_id),
            threads,
            programs,
            locks,
            conds,
            devices,
            heap,
            seq,
            sym_acquire,
            sym_release,
            sym_wait_object,
            sym_worker,
            core_free: machine
                .cores
                .map(|c| (0..c).map(|_| std::cmp::Reverse(TimeNs::ZERO)).collect()),
            next_worker_tid: (n + 1) as u32,
        }
    }

    fn schedule(&mut self, thread: usize, at: TimeNs) {
        self.heap.push(Ready {
            at,
            seq: self.seq,
            thread,
        });
        self.seq += 1;
    }

    /// Emits running samples covering `[from, from + dur)` at the 1 ms
    /// sampling granularity, on `tid` with callstack `frames`.
    fn emit_running(
        &mut self,
        tid: ThreadId,
        pid: ProcessId,
        from: TimeNs,
        dur: TimeNs,
        frames: &[Symbol],
    ) {
        if dur == TimeNs::ZERO {
            return;
        }
        let stack = self.stacks.intern(frames);
        self.builder.set_process(pid);
        let mut t = from;
        let end = from + dur;
        while t < end {
            let chunk = SAMPLE_INTERVAL.min(end - t);
            self.builder.push_running(tid, t, chunk, stack);
            t += chunk;
        }
    }

    fn emit_wait(
        &mut self,
        tid: ThreadId,
        pid: ProcessId,
        t: TimeNs,
        frames: &[Symbol],
        extra: Symbol,
    ) {
        let mut full = frames.to_vec();
        full.push(extra);
        let stack = self.stacks.intern(&full);
        self.builder.set_process(pid);
        self.builder.push_wait(tid, t, TimeNs::ZERO, stack);
    }

    fn emit_unwait(
        &mut self,
        tid: ThreadId,
        pid: ProcessId,
        woken: ThreadId,
        t: TimeNs,
        frames: &[Symbol],
        extra: Option<Symbol>,
    ) {
        let mut full = frames.to_vec();
        if let Some(e) = extra {
            full.push(e);
        }
        let stack = self.stacks.intern(&full);
        self.builder.set_process(pid);
        self.builder.push_unwait(tid, woken, t, stack);
    }

    /// Runs thread `i` from time `now` until it blocks, finishes, or
    /// consumes time (in which case it is rescheduled).
    fn step(&mut self, i: usize, now: TimeNs) {
        let t = now;
        loop {
            let ip = self.threads[i].ip;
            if ip >= self.programs[i].ops().len() {
                self.threads[i].finish = Some(t);
                return;
            }
            // Clone the op to sidestep borrowing; ops are small.
            let op = self.programs[i].ops()[ip].clone();
            match op {
                Op::Call(frame) => {
                    let sym = self.stacks.intern_frame(&frame);
                    self.threads[i].stack.push(sym);
                    self.threads[i].ip += 1;
                }
                Op::Ret => {
                    self.threads[i]
                        .stack
                        .pop()
                        .expect("validated program cannot underflow");
                    self.threads[i].ip += 1;
                }
                Op::Compute(d) => {
                    let (tid, pid, frames) = {
                        let th = &self.threads[i];
                        (th.tid, th.pid, th.stack.clone())
                    };
                    // With bounded cores, queue FCFS for the earliest
                    // free core; the ready delay emits no events.
                    let start = match self.core_free.as_mut() {
                        Some(cores) => {
                            let std::cmp::Reverse(free) =
                                cores.pop().expect("core count is nonzero");
                            let start = t.max(free);
                            cores.push(std::cmp::Reverse(start + d));
                            start
                        }
                        None => t,
                    };
                    self.emit_running(tid, pid, start, d, &frames);
                    self.threads[i].ip += 1;
                    self.schedule(i, start + d);
                    return;
                }
                Op::Idle(d) => {
                    self.threads[i].ip += 1;
                    self.schedule(i, t + d);
                    return;
                }
                Op::Acquire(l) | Op::AcquireShared(l) => {
                    let mode = if matches!(op, Op::Acquire(_)) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let li = l.0 as usize;
                    if self.locks[li].can_grant(mode) {
                        self.locks[li].grant(i, mode);
                        self.threads[i].ip += 1;
                    } else {
                        let (tid, pid, frames) = {
                            let th = &self.threads[i];
                            (th.tid, th.pid, th.stack.clone())
                        };
                        let acq = self.sym_acquire;
                        self.emit_wait(tid, pid, t, &frames, acq);
                        self.locks[li].queue.push_back((i, mode));
                        // Leave ip at the Acquire op; the release path
                        // advances it when handing the lock over.
                        self.threads[i].blocked = true;
                        return;
                    }
                }
                Op::Release(l) => {
                    let li = l.0 as usize;
                    self.locks[li].release_by(i);
                    self.threads[i].ip += 1;
                    // Grant the queue head; batch consecutive shared
                    // requests (FIFO reader convoys wake together).
                    while let Some(&(w, mode)) = self.locks[li].queue.front() {
                        let grantable = match mode {
                            LockMode::Exclusive => self.locks[li].is_free(),
                            LockMode::Shared => self.locks[li].exclusive.is_none(),
                        };
                        if !grantable {
                            break;
                        }
                        self.locks[li].queue.pop_front();
                        self.locks[li].grant(w, mode);
                        // The waiter was parked on its Acquire op.
                        self.threads[w].ip += 1;
                        self.threads[w].blocked = false;
                        let woken_tid = self.threads[w].tid;
                        let (tid, pid, frames) = {
                            let th = &self.threads[i];
                            (th.tid, th.pid, th.stack.clone())
                        };
                        let rel = self.sym_release;
                        self.emit_unwait(tid, pid, woken_tid, t, &frames, Some(rel));
                        self.schedule(w, t);
                        if mode == LockMode::Exclusive {
                            break;
                        }
                    }
                }
                Op::Await(c) => {
                    let ci = c.0 as usize;
                    if self.conds[ci].notified {
                        self.threads[i].ip += 1;
                    } else {
                        let (tid, pid, frames) = {
                            let th = &self.threads[i];
                            (th.tid, th.pid, th.stack.clone())
                        };
                        let wo = self.sym_wait_object;
                        self.emit_wait(tid, pid, t, &frames, wo);
                        self.conds[ci].waiters.push(i);
                        self.threads[i].ip += 1; // resume past the Await
                        self.threads[i].blocked = true;
                        return;
                    }
                }
                Op::Notify(c) => {
                    let ci = c.0 as usize;
                    self.threads[i].ip += 1;
                    self.conds[ci].notified = true;
                    let waiters = std::mem::take(&mut self.conds[ci].waiters);
                    for w in waiters {
                        self.threads[w].blocked = false;
                        let woken_tid = self.threads[w].tid;
                        let (tid, pid, frames) = {
                            let th = &self.threads[i];
                            (th.tid, th.pid, th.stack.clone())
                        };
                        self.emit_unwait(tid, pid, woken_tid, t, &frames, None);
                        self.schedule(w, t);
                    }
                }
                Op::Request(req) => {
                    let (tid, pid, frames) = {
                        let th = &self.threads[i];
                        (th.tid, th.pid, th.stack.clone())
                    };
                    let wo = self.sym_wait_object;
                    self.emit_wait(tid, pid, t, &frames, wo);

                    let di = req.device.0 as usize;
                    let start = t.max(self.devices[di].busy_until);
                    let worker = ThreadId(self.next_worker_tid);
                    self.next_worker_tid += 1;
                    let service_sym = self.devices[di].service_sym;
                    let worker_pid = ProcessId(0); // system process

                    // Hardware service period.
                    let hw_stack = self.stacks.intern(&[self.sym_worker, service_sym]);
                    self.builder.set_process(worker_pid);
                    self.builder
                        .push_hardware(worker, start, req.service, hw_stack);

                    // Post-processing on the worker (e.g. decryption).
                    let post_start = start + req.service;
                    let end = post_start + req.post_compute;
                    if req.post_compute > TimeNs::ZERO {
                        let mut frames_post = vec![self.sym_worker];
                        for f in &req.post_frames {
                            let s = self.stacks.intern_frame(f);
                            frames_post.push(s);
                        }
                        self.emit_running(
                            worker,
                            worker_pid,
                            post_start,
                            req.post_compute,
                            &frames_post,
                        );
                        let fp = frames_post.clone();
                        self.emit_unwait(worker, worker_pid, tid, end, &fp, None);
                    } else {
                        let fp = vec![self.sym_worker, service_sym];
                        self.emit_unwait(worker, worker_pid, tid, end, &fp, None);
                    }

                    // The device frees after the raw transfer; any
                    // post-processing occupies only the worker's CPU.
                    self.devices[di].busy_until = post_start;
                    self.threads[i].ip += 1;
                    self.threads[i].blocked = true; // released when rescheduled
                    self.schedule_unblock(i, end);
                    return;
                }
            }
        }
    }

    fn schedule_unblock(&mut self, thread: usize, at: TimeNs) {
        self.schedule(thread, at);
    }

    fn run(mut self) -> Result<SimOutput, SimError> {
        while let Some(Ready { at, thread, .. }) = self.heap.pop() {
            // A thread scheduled after a device completion is unblocked
            // on dequeue.
            self.threads[thread].blocked = false;
            self.step(thread, at);
        }
        let blocked: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|t| t.finish.is_none())
            .map(|t| t.tid)
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        let spans = self
            .threads
            .iter()
            .map(|t| (t.tid, t.start, t.finish.expect("checked above")))
            .collect();
        let stream = self.builder.finish().map_err(SimError::Stream)?;
        Ok(SimOutput { stream, spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{HwRequest, ProgramBuilder};
    use tracelens_model::EventKind;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn run_machine(m: Machine) -> (SimOutput, StackTable) {
        let mut stacks = StackTable::new();
        let out = m.run(&mut stacks).expect("simulation should complete");
        (out, stacks)
    }

    #[test]
    fn single_thread_compute_emits_samples() {
        let mut m = Machine::new(0);
        let t = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Main")
                .compute(ms(3))
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        let running: Vec<_> = out
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Running)
            .collect();
        assert_eq!(running.len(), 3);
        assert!(running.iter().all(|e| e.cost == ms(1) && e.tid == t));
        assert_eq!(out.span_of(t), Some((TimeNs::ZERO, ms(3))));
    }

    #[test]
    fn partial_sample_at_tail() {
        let mut m = Machine::new(0);
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Main")
                .compute(TimeNs::from_micros(2_500))
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        let costs: Vec<u64> = out.stream.events().iter().map(|e| e.cost.0).collect();
        assert_eq!(costs, [1_000_000, 1_000_000, 500_000]);
    }

    #[test]
    fn lock_contention_produces_wait_unwait_pair() {
        let mut m = Machine::new(0);
        let l = m.add_lock();
        // Holder: starts first, holds for 10ms.
        let holder = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Holder")
                .call("fv.sys!QueryFileTable")
                .acquire(l)
                .compute(ms(10))
                .release(l)
                .ret()
                .build()
                .unwrap(),
        );
        // Waiter: arrives at 2ms, must wait until 10ms.
        let waiter = m.add_thread(
            ProcessId(1),
            ms(2),
            ProgramBuilder::new("app!Waiter")
                .call("fv.sys!QueryFileTable")
                .acquire(l)
                .compute(ms(1))
                .release(l)
                .ret()
                .build()
                .unwrap(),
        );
        let (out, stacks) = run_machine(m);
        let wait = out
            .stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Wait)
            .expect("a wait event");
        assert_eq!(wait.tid, waiter);
        assert_eq!(wait.t, ms(2));
        let frames = stacks.resolve_frames(wait.stack);
        assert_eq!(
            frames,
            ["app!Waiter", "fv.sys!QueryFileTable", "kernel!AcquireLock"]
        );
        let unwait = out
            .stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Unwait)
            .expect("an unwait event");
        assert_eq!(unwait.tid, holder);
        assert_eq!(unwait.wtid, Some(waiter));
        assert_eq!(unwait.t, ms(10));
        // Waiter finishes 1ms after being woken.
        assert_eq!(out.span_of(waiter).unwrap().1, ms(11));
    }

    #[test]
    fn fifo_handoff_order() {
        let mut m = Machine::new(0);
        let l = m.add_lock();
        let mk = |root: &str, start: u64| {
            (
                start,
                ProgramBuilder::new(root)
                    .acquire(l)
                    .compute(ms(5))
                    .release(l)
                    .build()
                    .unwrap(),
            )
        };
        let (s0, p0) = mk("app!A", 0);
        let (s1, p1) = mk("app!B", 1);
        let (s2, p2) = mk("app!C", 2);
        let a = m.add_thread(ProcessId(1), ms(s0), p0);
        let b = m.add_thread(ProcessId(1), ms(s1), p1);
        let c = m.add_thread(ProcessId(1), ms(s2), p2);
        let (out, _) = run_machine(m);
        // A: [0,5); B: [5,10); C: [10,15).
        assert_eq!(out.span_of(a).unwrap().1, ms(5));
        assert_eq!(out.span_of(b).unwrap().1, ms(10));
        assert_eq!(out.span_of(c).unwrap().1, ms(15));
        // Unwait order: A wakes B at 5, B wakes C at 10.
        let unwaits: Vec<_> = out
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Unwait)
            .collect();
        assert_eq!(unwaits.len(), 2);
        assert_eq!(unwaits[0].wtid, Some(b));
        assert_eq!(unwaits[1].wtid, Some(c));
    }

    #[test]
    fn hardware_request_round_trip() {
        let mut m = Machine::new(0);
        let disk = m.add_device(DeviceSpec::new("disk", "DiskService!Transfer"));
        let t = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Main")
                .call("fs.sys!Read")
                .request(HwRequest {
                    device: disk,
                    service: ms(20),
                    post_frames: vec!["se.sys!ReadDecrypt".into()],
                    post_compute: ms(4),
                })
                .ret()
                .build()
                .unwrap(),
        );
        let (out, stacks) = run_machine(m);
        let hw = out
            .stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::HardwareService)
            .expect("hardware event");
        assert_eq!(hw.cost, ms(20));
        assert_ne!(hw.tid, t, "hardware time is on the device worker");
        assert_eq!(
            stacks.resolve_frames(hw.stack),
            ["kernel!Worker", "DiskService!Transfer"]
        );
        // Post-processing runs on the worker under se.sys.
        let decrypt_samples = out
            .stream
            .events()
            .iter()
            .filter(|e| {
                e.kind == EventKind::Running
                    && stacks
                        .resolve_frames(e.stack)
                        .contains(&"se.sys!ReadDecrypt")
            })
            .count();
        assert_eq!(decrypt_samples, 4);
        // Requester resumes at 24ms.
        assert_eq!(out.span_of(t).unwrap().1, ms(24));
    }

    #[test]
    fn device_serializes_requests() {
        let mut m = Machine::new(0);
        let disk = m.add_device(DeviceSpec::new("disk", "DiskService!Transfer"));
        let prog = |root: &str| {
            ProgramBuilder::new(root)
                .request(HwRequest::plain(disk, ms(10)))
                .build()
                .unwrap()
        };
        let a = m.add_thread(ProcessId(1), TimeNs::ZERO, prog("app!A"));
        let b = m.add_thread(ProcessId(1), ms(1), prog("app!B"));
        let (out, _) = run_machine(m);
        assert_eq!(out.span_of(a).unwrap().1, ms(10));
        // B queues behind A: served [10, 20).
        assert_eq!(out.span_of(b).unwrap().1, ms(20));
    }

    #[test]
    fn deadlock_is_reported() {
        let mut m = Machine::new(0);
        let l1 = m.add_lock();
        let l2 = m.add_lock();
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!A")
                .acquire(l1)
                .compute(ms(5))
                .acquire(l2)
                .release(l2)
                .release(l1)
                .build()
                .unwrap(),
        );
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!B")
                .acquire(l2)
                .compute(ms(5))
                .acquire(l1)
                .release(l1)
                .release(l2)
                .build()
                .unwrap(),
        );
        let mut stacks = StackTable::new();
        let err = m.run(&mut stacks).unwrap_err();
        match err {
            SimError::Deadlock { blocked } => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn idle_advances_time_without_events() {
        let mut m = Machine::new(0);
        let t = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Main").idle(ms(7)).build().unwrap(),
        );
        let (out, _) = run_machine(m);
        assert_eq!(out.stream.len(), 0);
        assert_eq!(out.span_of(t).unwrap().1, ms(7));
    }

    #[test]
    fn uncontended_acquire_emits_no_wait() {
        let mut m = Machine::new(0);
        let l = m.add_lock();
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Main")
                .acquire(l)
                .compute(ms(1))
                .release(l)
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        assert!(out
            .stream
            .events()
            .iter()
            .all(|e| e.kind == EventKind::Running));
    }

    #[test]
    fn bounded_cores_serialize_compute() {
        let mut m = Machine::new(0);
        m.set_cores(1);
        let a = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!A")
                .compute(ms(10))
                .build()
                .unwrap(),
        );
        let b = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!B")
                .compute(ms(10))
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        let ends: Vec<TimeNs> = [a, b].iter().map(|&t| out.span_of(t).unwrap().1).collect();
        // One finishes at 10, the other queued behind it until 20.
        assert_eq!(ends.iter().max(), Some(&ms(20)));
        assert_eq!(ends.iter().min(), Some(&ms(10)));
        // No wait events: ready time is invisible, like ETW.
        assert!(out
            .stream
            .events()
            .iter()
            .all(|e| e.kind == EventKind::Running));
        // Running samples never overlap on the single core.
        let samples: Vec<_> = out.stream.events().to_vec();
        for (i, x) in samples.iter().enumerate() {
            for y in &samples[i + 1..] {
                assert!(x.end() <= y.t || y.end() <= x.t, "core oversubscribed");
            }
        }
    }

    #[test]
    fn two_cores_run_two_threads_in_parallel() {
        let mut m = Machine::new(0);
        m.set_cores(2);
        let mut tids = Vec::new();
        for _ in 0..2 {
            tids.push(
                m.add_thread(
                    ProcessId(1),
                    TimeNs::ZERO,
                    ProgramBuilder::new("app!T")
                        .compute(ms(10))
                        .build()
                        .unwrap(),
                ),
            );
        }
        let (out, _) = run_machine(m);
        for t in tids {
            assert_eq!(out.span_of(t).unwrap().1, ms(10));
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        Machine::new(0).set_cores(0);
    }

    #[test]
    fn shared_holders_run_concurrently() {
        let mut m = Machine::new(0);
        let l = m.add_lock();
        let reader = || {
            ProgramBuilder::new("app!Reader")
                .acquire_shared(l)
                .compute(ms(10))
                .release(l)
                .build()
                .unwrap()
        };
        let a = m.add_thread(ProcessId(1), ms(0), reader());
        let b = m.add_thread(ProcessId(1), ms(1), reader());
        let (out, _) = run_machine(m);
        // Both readers overlap: finish at 10 and 11, not serialized.
        assert_eq!(out.span_of(a).unwrap().1, ms(10));
        assert_eq!(out.span_of(b).unwrap().1, ms(11));
        assert!(out
            .stream
            .events()
            .iter()
            .all(|e| e.kind != EventKind::Wait));
    }

    #[test]
    fn writer_blocks_readers_and_vice_versa() {
        let mut m = Machine::new(0);
        let l = m.add_lock();
        // Writer holds [0, 20).
        let w = m.add_thread(
            ProcessId(1),
            ms(0),
            ProgramBuilder::new("app!Writer")
                .acquire(l)
                .compute(ms(20))
                .release(l)
                .build()
                .unwrap(),
        );
        // Readers arrive at 5 and 6: both wake at 20, overlap thereafter.
        let r1 = m.add_thread(
            ProcessId(1),
            ms(5),
            ProgramBuilder::new("app!Reader")
                .acquire_shared(l)
                .compute(ms(10))
                .release(l)
                .build()
                .unwrap(),
        );
        let r2 = m.add_thread(
            ProcessId(1),
            ms(6),
            ProgramBuilder::new("app!Reader")
                .acquire_shared(l)
                .compute(ms(10))
                .release(l)
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        assert_eq!(out.span_of(w).unwrap().1, ms(20));
        // Reader convoy wakes together at the writer's release.
        assert_eq!(out.span_of(r1).unwrap().1, ms(30));
        assert_eq!(out.span_of(r2).unwrap().1, ms(30));
        let unwaits = out
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Unwait)
            .count();
        assert_eq!(unwaits, 2, "one unwait per woken reader");
    }

    #[test]
    fn queued_writer_blocks_late_readers() {
        // FIFO anti-starvation: readers arriving after a queued writer
        // must wait behind it even though a reader currently holds.
        let mut m = Machine::new(0);
        let l = m.add_lock();
        let r1 = m.add_thread(
            ProcessId(1),
            ms(0),
            ProgramBuilder::new("app!Reader")
                .acquire_shared(l)
                .compute(ms(20))
                .release(l)
                .build()
                .unwrap(),
        );
        let w = m.add_thread(
            ProcessId(1),
            ms(5),
            ProgramBuilder::new("app!Writer")
                .acquire(l)
                .compute(ms(10))
                .release(l)
                .build()
                .unwrap(),
        );
        // Late reader at 6: would be compatible with r1, but the queued
        // writer takes precedence.
        let r2 = m.add_thread(
            ProcessId(1),
            ms(6),
            ProgramBuilder::new("app!Reader")
                .acquire_shared(l)
                .compute(ms(5))
                .release(l)
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        assert_eq!(out.span_of(r1).unwrap().1, ms(20));
        assert_eq!(out.span_of(w).unwrap().1, ms(30));
        assert_eq!(out.span_of(r2).unwrap().1, ms(35));
    }

    #[test]
    fn await_blocks_until_notify() {
        let mut m = Machine::new(0);
        let done = m.add_cond();
        // Worker: computes 10ms, then notifies.
        let worker = m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Worker")
                .compute(ms(10))
                .notify(done)
                .build()
                .unwrap(),
        );
        // UI: awaits at 2ms, resumes at 10ms.
        let ui = m.add_thread(
            ProcessId(1),
            ms(2),
            ProgramBuilder::new("app!UI")
                .await_cond(done)
                .compute(ms(3))
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        assert_eq!(out.span_of(ui).unwrap().1, ms(13));
        let wait = out
            .stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Wait)
            .expect("await emits a wait event");
        assert_eq!(wait.tid, ui);
        let unwait = out
            .stream
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Unwait)
            .expect("notify emits an unwait");
        assert_eq!(unwait.tid, worker);
        assert_eq!(unwait.wtid, Some(ui));
    }

    #[test]
    fn await_after_notify_is_instant() {
        let mut m = Machine::new(0);
        let done = m.add_cond();
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Worker")
                .notify(done)
                .build()
                .unwrap(),
        );
        let ui = m.add_thread(
            ProcessId(1),
            ms(5),
            ProgramBuilder::new("app!UI")
                .await_cond(done)
                .compute(ms(1))
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        assert_eq!(out.span_of(ui).unwrap().1, ms(6));
        assert!(out
            .stream
            .events()
            .iter()
            .all(|e| e.kind != EventKind::Wait));
    }

    #[test]
    fn notify_wakes_all_awaiters() {
        let mut m = Machine::new(0);
        let done = m.add_cond();
        let mut waiters = Vec::new();
        for i in 0..3 {
            waiters.push(
                m.add_thread(
                    ProcessId(1),
                    ms(i),
                    ProgramBuilder::new("app!W")
                        .await_cond(done)
                        .build()
                        .unwrap(),
                ),
            );
        }
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!Notifier")
                .compute(ms(20))
                .notify(done)
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        for w in waiters {
            assert_eq!(out.span_of(w).unwrap().1, ms(20));
        }
        let unwaits = out
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Unwait)
            .count();
        assert_eq!(unwaits, 3);
    }

    #[test]
    fn never_notified_cond_deadlocks() {
        let mut m = Machine::new(0);
        let never = m.add_cond();
        m.add_thread(
            ProcessId(1),
            TimeNs::ZERO,
            ProgramBuilder::new("app!W")
                .await_cond(never)
                .build()
                .unwrap(),
        );
        let mut stacks = StackTable::new();
        assert!(matches!(m.run(&mut stacks), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn chained_contention_builds_propagation_path() {
        // A waits on B (lock l1); B waits on C (lock l2); C does disk I/O.
        // This is the Figure-1 shape in miniature.
        let mut m = Machine::new(0);
        let l1 = m.add_lock();
        let l2 = m.add_lock();
        let disk = m.add_device(DeviceSpec::new("disk", "DiskService!Transfer"));

        let c = m.add_thread(
            ProcessId(3),
            TimeNs::ZERO,
            ProgramBuilder::new("cm!Worker")
                .call("fs.sys!AcquireMDU")
                .acquire(l2)
                .request(HwRequest {
                    device: disk,
                    service: ms(50),
                    post_frames: vec!["se.sys!ReadDecrypt".into()],
                    post_compute: ms(10),
                })
                .release(l2)
                .ret()
                .build()
                .unwrap(),
        );
        let b = m.add_thread(
            ProcessId(1),
            ms(1),
            ProgramBuilder::new("browser!Worker")
                .call("fv.sys!QueryFileTable")
                .acquire(l1)
                .call("fs.sys!AcquireMDU")
                .acquire(l2)
                .compute(ms(2))
                .release(l2)
                .ret()
                .release(l1)
                .ret()
                .build()
                .unwrap(),
        );
        let a = m.add_thread(
            ProcessId(1),
            ms(2),
            ProgramBuilder::new("browser!UI")
                .call("fv.sys!QueryFileTable")
                .acquire(l1)
                .compute(ms(1))
                .release(l1)
                .ret()
                .build()
                .unwrap(),
        );
        let (out, _) = run_machine(m);
        // C finishes at 60; B gets l2 at 60, finishes at 62; A gets l1 at 62.
        assert_eq!(out.span_of(c).unwrap().1, ms(60));
        assert_eq!(out.span_of(b).unwrap().1, ms(62));
        assert_eq!(out.span_of(a).unwrap().1, ms(63));
        // Three wait events: B on l2... wait: B on l1? l1 free when B arrives.
        // Waits: C none; B waits on l2; A waits on l1; plus C's hw wait.
        let waits = out
            .stream
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Wait)
            .count();
        assert_eq!(waits, 3);
    }
}
