//! The untraced phase: `tracelens report` as a user runs it, one child
//! process at a time, timed from spawn to exit.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A rep that has not exited by then is killed and counted as failed.
pub const REP_TIMEOUT: Duration = Duration::from_secs(60);

/// How often the harness checks whether the child exited; this bounds
/// how late the end of a rep is seen.
const EXIT_POLL: Duration = Duration::from_micros(500);

/// Peak RSS is read every this many exit polls (every 2 ms).
const RSS_EVERY: u32 = 4;

/// One timed `report` run.
#[derive(Debug)]
pub struct Rep {
    pub wall_s: f64,
    /// The last `VmHWM` read from `/proc/<pid>/status`, in KiB.
    pub peak_rss_kib: u64,
    /// The report's bytes, when the child exited successfully.
    pub output: Result<Vec<u8>, String>,
}

/// Runs `tracelens report INPUT -o OUT --jobs 1 [FLAG]` and waits for it,
/// polling the child's peak RSS until it exits. The child's stderr goes
/// to `stderr_log`.
pub fn report(
    cli: &Path,
    input: &Path,
    out: &Path,
    flag: Option<&str>,
    stderr_log: &Path,
) -> Result<Rep, String> {
    let _ = std::fs::remove_file(out);
    let log = File::create(stderr_log).map_err(|e| format!("{}: {e}", stderr_log.display()))?;
    let mut cmd = Command::new(cli);
    cmd.arg("report")
        .arg(input)
        .arg("-o")
        .arg(out)
        .args(["--jobs", "1"])
        .args(flag)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_rss_kib = 0;
    let mut polls = 0u32;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Ok(status);
        }
        if polls.is_multiple_of(RSS_EVERY) {
            // Absent once the child is a zombie: keep the last reading.
            if let Some(kib) = read_hwm_kib(&status_path) {
                peak_rss_kib = kib;
            }
        }
        polls = polls.wrapping_add(1);
        if start.elapsed() > REP_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            break Err(format!("timed out after {}s", REP_TIMEOUT.as_secs()));
        }
        std::thread::sleep(EXIT_POLL);
    };
    let wall_s = start.elapsed().as_secs_f64();
    let output = status.and_then(|status| {
        if status.success() {
            std::fs::read(out).map_err(|e| format!("{}: {e}", out.display()))
        } else {
            let log = std::fs::read_to_string(stderr_log).unwrap_or_default();
            Err(format!("{status}: {}", log.lines().last().unwrap_or("")))
        }
    });
    Ok(Rep {
        wall_s,
        peak_rss_kib,
        output,
    })
}

fn read_hwm_kib(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
