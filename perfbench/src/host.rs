//! Host context recorded with every result, so numbers from different or
//! drifting hosts are visible as such and not compared.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model line of `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// directly (no child process); "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Iterations of the calibration kernel: about half a millisecond.
const KERNEL_ITERS: u64 = 200_000;

/// Kernel time that defines the reference host speed.
const KERNEL_REF_MS: f64 = 0.5;

/// Kernel runs behind one speed estimate.
const RECENT: usize = 5;

/// Host CPU speed, tracked by running a fixed integer kernel between
/// measurements.
///
/// A shared host's clock drifts by several percent over seconds. The
/// kernel slows with it (on a 2-vCPU KVM guest its time correlated at 0.97
/// with a simulator run's over 5 s windows), so a host time multiplied by
/// [`HostSpeed::scale`] cancels the drift: it reads what the host would
/// have measured at the reference speed, where the kernel takes
/// `KERNEL_REF_MS`. The kernel is the benchmark's own code, so no change
/// to the program under test moves it.
pub struct HostSpeed {
    recent: Vec<f64>,
    all: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut h = HostSpeed {
            recent: Vec::with_capacity(RECENT + 1),
            all: Vec::new(),
        };
        for _ in 0..RECENT {
            h.sample();
        }
        h
    }

    /// Runs the kernel once more.
    fn sample(&mut self) {
        let t = Instant::now();
        let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
        let mut acc: u64 = 0;
        for _ in 0..black_box(KERNEL_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        black_box(acc);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.recent.push(ms);
        if self.recent.len() > RECENT {
            self.recent.remove(0);
        }
        self.all.push(ms);
    }

    /// Samples the kernel, then returns the factor scaling a host time
    /// measured around now to the reference speed.
    pub fn scale(&mut self) -> f64 {
        self.sample();
        KERNEL_REF_MS / median(&self.recent)
    }

    /// Median kernel time over the invocation: a drift detector.
    pub fn calib_ms(&self) -> f64 {
        median(&self.all)
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}
