//! Host-side probes: process CPU time, peak memory, steal time, a fixed
//! compute calibration loop, and the run record that lets a reader tell a
//! slow host from a slow program.

use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide steal time so far, seconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`). Zero where it is not reported.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks / if hz > 0 { hz as f64 } else { 100.0 }
}

/// Time a fixed pure-compute loop (no allocation, no memory traffic).
/// Run between passes; its drift measures host contention, not the
/// program.
pub fn calib_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the vendored rayon's stage width. Only called while no worker
/// threads exist (parallel stages are scoped and joined before return).
pub fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Toolchain and source identity of this run.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// `git describe` of the working tree, or `"unknown"` outside a git
/// checkout.
pub fn git_describe() -> String {
    command_line("git", &["describe", "--always", "--dirty", "--tags"])
}
