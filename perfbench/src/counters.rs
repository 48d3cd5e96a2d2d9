//! Process-level counters read from outside the program's layers: heap
//! allocations (a counting global allocator), peak resident memory, and the
//! epoch reclamation backlog.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation (including reallocs).
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are ours; the counter is a relaxed
// statistic that publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set size (`VmHWM`) in MB, or `None` where `/proc` is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Lifetime epoch-reclamation totals of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounts {
    /// Nodes handed to `defer_destroy` plus nodes handed to `defer_recycle`.
    pub retired: u64,
    /// Retired nodes whose grace period is not over yet: `retired −
    /// destroyed` plus `recycle-retired − recycled`.
    pub backlog: u64,
}

/// Reads the `crossbeam::epoch` counters.
pub fn epoch_counts() -> EpochCounts {
    use crossbeam::epoch;
    let retired = epoch::retired_count() as u64;
    let destroyed = epoch::destroyed_count() as u64;
    let recycle_retired = epoch::recycle_retired_count() as u64;
    let recycled = epoch::recycled_count() as u64;
    EpochCounts {
        retired: retired + recycle_retired,
        backlog: retired.saturating_sub(destroyed) + recycle_retired.saturating_sub(recycled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_count_up() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(std::hint::black_box(64));
        drop(std::hint::black_box(v));
        assert!(allocations() > before);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
    }
}
