//! What the host was doing while the benchmark ran: processor count,
//! hypervisor steal time and the process's resident memory, all read
//! from `/proc`. Every reader degrades to `None` where `/proc` is
//! missing, so the harness still runs (without these fields) elsewhere.

use std::fs;

/// The thread-policy variable every `mawilab-exec` fan-out reads.
// lint:allow(thread-env-isolation): the benchmark harness pins each workload's thread setting, as the repository's bench bins do for their sweeps
const THREADS_VAR: &str = "MAWILAB_THREADS";

/// Sets the worker count of every later fan-out. Call only while no
/// other thread of this process runs.
pub fn set_threads(n: usize) {
    std::env::set_var(THREADS_VAR, n.to_string());
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Aggregate steal time of all processors since boot, in seconds
/// (`/proc/stat` counts in USER_HZ ticks, which Linux fixes at 100).
pub fn steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Current resident set size, MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// Peak resident set size since start (or since the last
/// [`reset_peak_rss`]), MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what ran after this call. Returns false
/// where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hands the allocator's free pages back to the kernel, so the RSS read
/// next counts live data only (glibc `malloc_trim`; a no-op elsewhere).
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer, is thread-safe, and
        // only releases memory the allocator holds free.
        unsafe {
            malloc_trim(0);
        }
    }
}
