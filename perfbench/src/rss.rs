//! Peak resident set per measured pass, in one process.
//!
//! Before a pass, freed heap is returned to the OS (`malloc_trim`) and the
//! kernel's high-water mark is reset (`5` written to
//! `/proc/self/clear_refs`, Linux 4.0+), so `VmHWM` read after the pass is
//! that pass's peak and never an earlier pass's. The peak includes what
//! the process holds across passes (module, input, reference profile).

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a fresh peak-RSS window. Returns whether the kernel accepted
/// the reset; without it [`peak_mb`] would report the process's peak.
pub fn reset_peak() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes a byte count, touches only
    // allocator-internal state and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last [`reset_peak`], in MB (10^6 bytes).
pub fn peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
