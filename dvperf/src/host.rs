//! Host and process probes: a calibration loop, CPU steal, process CPU
//! time and peak memory from `/proc`, per-child resource usage from
//! `wait4`, and the commit being measured.

use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

/// Iterations of the calibration loop (about 50 ms on a 2-core cloud
/// VM of 2026).
const CALIB_ITERS: u64 = 8_000_000;

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, which
/// Linux fixes at 100 for every architecture's user-space ABI).
const USER_HZ: f64 = 100.0;

/// SplitMix64 step: the mixing function the benchmark uses everywhere
/// it needs a cheap, well-distributed 64-bit hash.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall time of a fixed single-thread integer loop, in ms. Timed at the
/// start and end of a run, it tells host drift from a program change.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1u64);
    for i in 0..CALIB_ITERS {
        x = splitmix(x ^ i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Read the host-wide counters; zeros where `/proc/stat` is absent.
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks { total: fields.iter().sum(), steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        crate::stats::ratio(self.steal.saturating_sub(earlier.steal) as f64, total as f64)
    }
}

/// User plus system CPU time of this process so far, in ms, from
/// `/proc/self/stat`; 0 where it is absent.
pub fn self_cpu_ms() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).map(|x| x.parse().unwrap_or(0.0)).sum();
    ticks / USER_HZ * 1e3
}

/// Restart this process's peak-memory mark (`VmHWM`) at its current
/// resident size, so that a later [`peak_rss_mb`] covers only what runs
/// in between. Kernels without the control leave the mark unchanged.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What `wait4` reports about a child that has exited.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Exit code, or `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// Peak resident memory, in MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU time.
    pub cpu: Duration,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Wait for `child` to exit and collect its resource usage. The child
/// is reaped here, so the caller must not wait on it again.
pub fn wait_with_usage(child: Child) -> std::io::Result<ChildUsage> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the 64-bit Linux ABI's `int` and `struct rusage` (two
        // `timeval`s of two longs each, then fourteen longs); `pid` is
        // our own unreaped child, so wait4 touches nothing else.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let tv = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec).max(0) as u64);
    Ok(ChildUsage {
        exit_code,
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        cpu: tv(&ru.utime) + tv(&ru.stime),
    })
}

/// The commit of the checkout at `root`, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}
