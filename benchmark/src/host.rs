//! What the benchmark reads from the host: process CPU time, peak RSS,
//! the fd limit, and a fixed spin loop that tells a noisy box from a slow
//! change.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time every thread of the process has used,
/// threads that already exited included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process, to the nanosecond
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse to take per block
/// of rounds). The layout of `Timespec` is that of 64-bit Linux.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Soft limit on open files, `None` when unlimited or unreadable.
pub fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Times a fixed arithmetic loop, in milliseconds: the fastest of three
/// goes, so a stray interruption does not count. The same work before and
/// after a workload: more than a tenth apart marks the run noisy.
pub fn spin_ms() -> f64 {
    let once = || {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    };
    once().min(once()).min(once())
}
