//! Running the real `ssjoin` binary and measuring it from outside: wall time
//! from spawn to exit, and peak resident memory from `/proc`.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a running batch process's memory high-water mark is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// The `ssjoin` binary and the scratch directory every run works in.
pub struct Program {
    pub bin: PathBuf,
    pub work: PathBuf,
}

impl Program {
    /// A command for `ssjoin args…` whose temp files (spill partitions) land
    /// in the scratch directory.
    pub fn command<S: AsRef<std::ffi::OsStr>>(&self, args: &[S]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).env("TMPDIR", &self.work);
        cmd
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.work.join(file)
    }
}

/// Outcome of one process run to completion.
pub struct Timed {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub status: ExitStatus,
    pub stderr: String,
}

/// Run `cmd` to completion with no stdin and stdout discarded, timing it
/// from spawn to exit while a second thread samples its `VmHWM`.
pub fn run_timed(mut cmd: Command, stderr_path: &Path) -> io::Result<Timed> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(stderr_path)?);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut child = Reaped(cmd.spawn()?);
    let pid = child.0.id();
    let (status, wall, peak_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0;
            // A statistic flag: publishes no other data.
            while !done.load(Ordering::Relaxed) {
                peak = vm_hwm_kb(pid).unwrap_or(0).max(peak);
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.0.wait();
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak = poller.join().expect("the RSS poller does not panic");
        (status, wall, peak)
    });
    Ok(Timed {
        wall_s: wall.as_secs_f64(),
        peak_rss_mb: peak_kb as f64 / 1024.0,
        status: status?,
        stderr: std::fs::read_to_string(stderr_path).unwrap_or_default(),
    })
}

/// The process's resident-memory high-water mark in KiB, while it runs.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A child that is killed and waited for if it is dropped before it exits,
/// so no `ssjoin` process outlives the benchmark on an error path.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}
