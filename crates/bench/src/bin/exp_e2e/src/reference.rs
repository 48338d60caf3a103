//! The reference kernel: a fixed amount of work, unrelated to the
//! program under test, that each rep's wall time is divided by.
//!
//! On a shared host, contention from other tenants slows every process
//! on the machine by a factor that drifts over minutes: `tracelens
//! report` medians of the same input moved by 20% and more between
//! 15-second windows. A process with a similar profile (spawned fresh, allocating,
//! parsing text, hashing, sorting) run right before and after a rep is
//! slowed by nearly the same factor, so the ratio of the two stays put
//! while each swings. The kernel runs in a child process — this harness
//! re-run as `exp_e2e reference-kernel` — because page faults and
//! process start-up are part of what the contention slows; an in-process
//! kernel tracked it about half as well.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Lines of trace-like text the kernel writes and parses (about 80 ms
/// on a 2.0 GHz Xeon core).
const LINES: u64 = 250_000;

/// The kernel: writes `LINES` lines of tab-separated event-like text,
/// parses them back, groups them per thread, sorts each group and folds
/// it. Returns a checksum so no step can be optimised away.
pub fn kernel() -> u64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut text = String::with_capacity(LINES as usize * 32);
    let mut t = 0u64;
    for _ in 0..LINES {
        t += next() % 1000;
        let r = next();
        let _ = writeln!(
            text,
            "e\t{}\t{t}\t{}\t{}",
            r % 64,
            (r >> 8) % 5000,
            (r >> 20) % 4096
        );
    }
    let mut events: Vec<[u64; 4]> = Vec::with_capacity(LINES as usize);
    for line in text.lines() {
        let mut fields = line
            .split('\t')
            .skip(1)
            .map(|f| f.parse::<u64>().unwrap_or(0));
        events.push(std::array::from_fn(|_| fields.next().unwrap_or(0)));
    }
    let mut by_thread: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        by_thread.entry(e[0]).or_default().push(i);
    }
    let mut per_stack: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for ids in by_thread.values_mut() {
        ids.sort_by_key(|&i| (events[i][3], events[i][1]));
        for pair in ids.windows(2) {
            let (a, b) = (&events[pair[0]], &events[pair[1]]);
            acc = acc.wrapping_add(b[1].abs_diff(a[1] + a[2]));
            *per_stack.entry(a[3]).or_default() += a[2];
        }
    }
    acc ^ per_stack.values().fold(0, |x, &v| x ^ v)
}

/// Runs the kernel in a child process (`exe reference-kernel`) and
/// returns its wall time from spawn to exit.
pub fn time_child(exe: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(exe)
        .arg("reference-kernel")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run the reference kernel: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(elapsed)
    } else {
        Err(format!("the reference kernel failed: {status}"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(super::kernel(), super::kernel());
    }
}
