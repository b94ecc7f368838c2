//! Host and configuration record printed with every result, and the
//! process's peak memory: resident (VmHWM) and live heap.

use srumma::dense::active_kernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting live heap bytes and their high-water
/// mark once [`track_heap`] has switched counting on. The counters
/// publish no other data, so relaxed ordering suffices.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if COUNTING.load(Relaxed) {
        let now = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Start counting heap bytes. Blocks allocated before this call are
/// uncounted, and freeing them lowers the live count; call it before
/// the workload allocates anything.
pub fn track_heap() {
    COUNTING.store(true, Relaxed);
}

/// High-water mark of live heap bytes since [`track_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

/// One-line JSON record of everything that can change a number without
/// changing the code: core count, pool shape, the dispatched kernel,
/// `SRUMMA_*` knobs and whether a calibration profile is present.
pub fn config_line(workload: &str, seed: u64, ranks: usize, workers: Option<usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SRUMMA_"))
        .collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let kernel = active_kernel();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"nproc\": {nproc}, \"ranks\": {ranks}, \
         \"workers\": {}, \"active_kernel\": {}, \"srumma_env\": {{{env}}}, \
         \"host_profile_present\": {}}}",
        json_str(workload),
        workers.map_or("null".to_string(), |w| w.to_string()),
        json_str(kernel.name()),
        Path::new("results/host_profile.json").exists()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn heap_peak_counts_live_blocks() {
        track_heap();
        let before = PEAK.load(Relaxed);
        let v = vec![0u8; 64 << 20];
        assert!(PEAK.load(Relaxed) >= before.max(64 << 20));
        drop(v);
        assert!(peak_heap_mb() >= 64.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
