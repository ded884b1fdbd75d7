//! Allocation accounting: a counting [`GlobalAlloc`] wrapper over the
//! system allocator.
//!
//! Installing it (the `global-alloc` crate feature, which `yv-cli`
//! forwards as its default-on `alloc-metrics` feature) makes every
//! allocation in the process bump a handful of relaxed atomics, from
//! which [`alloc_stats`] derives byte totals, live bytes, and a
//! high-water mark. Library users of `yv-obs` are unaffected: without the
//! feature no `#[global_allocator]` is declared and [`alloc_stats`]
//! reports `enabled: false` with all-zero readings.
//!
//! Caveats (also in DESIGN.md §11): readings are process-wide, cover
//! every thread, and count requested layout sizes, not allocator-internal
//! overhead; the high-water mark is monotone per process unless reset via
//! [`reset_peak`], which batch drivers call between phases to attribute
//! peaks. A second `#[global_allocator]` in any crate the binary links is
//! a compile error, so these counters cannot be silently bypassed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The relaxed-atomic counter set behind the accounting. One static
/// instance backs the installed allocator; tests exercise private
/// instances so their assertions cannot race with real allocations.
///
/// Aligned to a cache line of its own: every thread that allocates writes
/// these five words, and a static that straddles two lines (its offset in
/// `.bss` moves with any unrelated code change) swung the two-connection
/// serving workloads of `yv-benchmark` by ±15 % between builds.
#[derive(Debug, Default)]
#[repr(align(64))]
struct AllocCounters {
    alloc_bytes: AtomicU64,
    dealloc_bytes: AtomicU64,
    alloc_calls: AtomicU64,
    dealloc_calls: AtomicU64,
    peak_bytes: AtomicU64,
}

impl AllocCounters {
    const fn new() -> AllocCounters {
        AllocCounters {
            alloc_bytes: AtomicU64::new(0),
            dealloc_bytes: AtomicU64::new(0),
            alloc_calls: AtomicU64::new(0),
            dealloc_calls: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    fn account_alloc(&self, bytes: u64) {
        self.alloc_calls.fetch_add(1, Ordering::Relaxed);
        let allocated = self.alloc_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let live = allocated.saturating_sub(self.dealloc_bytes.load(Ordering::Relaxed));
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
    }

    fn account_dealloc(&self, bytes: u64) {
        self.dealloc_calls.fetch_add(1, Ordering::Relaxed);
        self.dealloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn stats(&self) -> AllocStats {
        let alloc_bytes = self.alloc_bytes.load(Ordering::Relaxed);
        let dealloc_bytes = self.dealloc_bytes.load(Ordering::Relaxed);
        let alloc_calls = self.alloc_calls.load(Ordering::Relaxed);
        AllocStats {
            enabled: alloc_calls > 0,
            alloc_bytes,
            dealloc_bytes,
            alloc_calls,
            dealloc_calls: self.dealloc_calls.load(Ordering::Relaxed),
            live_bytes: alloc_bytes.saturating_sub(dealloc_bytes),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }

    fn reset_peak(&self) {
        let live = self
            .alloc_bytes
            .load(Ordering::Relaxed)
            .saturating_sub(self.dealloc_bytes.load(Ordering::Relaxed));
        self.peak_bytes.store(live, Ordering::Relaxed);
    }
}

static COUNTERS: AllocCounters = AllocCounters::new();

/// Point-in-time allocator readings (all zero until the counting
/// allocator is installed and serves its first allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// True once the counting allocator has served at least one
    /// allocation — i.e. it is installed as the global allocator.
    pub enabled: bool,
    /// Total bytes ever allocated.
    pub alloc_bytes: u64,
    /// Total bytes ever deallocated.
    pub dealloc_bytes: u64,
    /// Number of allocation calls.
    pub alloc_calls: u64,
    /// Number of deallocation calls.
    pub dealloc_calls: u64,
    /// Bytes currently live (`alloc_bytes - dealloc_bytes`, saturating).
    pub live_bytes: u64,
    /// High-water mark of live bytes since process start (or the last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
}

/// Read the process-wide allocator counters.
#[must_use]
pub fn alloc_stats() -> AllocStats {
    COUNTERS.stats()
}

/// Reset the high-water mark to the current live-byte count, so a
/// subsequent [`alloc_stats`] reports the peak of one phase rather than
/// the whole process lifetime.
pub fn reset_peak() {
    COUNTERS.reset_peak();
}

/// A counting global allocator delegating to [`System`].
///
/// Declared as the `#[global_allocator]` by this crate's `global-alloc`
/// feature; binaries can equally install it themselves. Accounting is a
/// few relaxed atomic adds per call — negligible next to the allocation
/// itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`, which upholds the
// GlobalAlloc contract; the added atomic accounting does not allocate and
// cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            COUNTERS.account_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            COUNTERS.account_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        COUNTERS.account_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            COUNTERS.account_dealloc(layout.size() as u64);
            COUNTERS.account_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// The feature-gated installation: with `global-alloc` on, every crate in
/// the build (tests included) allocates through the counting wrapper.
#[cfg(feature = "global-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_totals_live_and_peak() {
        let c = AllocCounters::new();
        c.account_alloc(1_000);
        c.account_alloc(500);
        c.account_dealloc(400);
        let s = c.stats();
        assert!(s.enabled);
        assert_eq!(s.alloc_bytes, 1_500);
        assert_eq!(s.dealloc_bytes, 400);
        assert_eq!(s.alloc_calls, 2);
        assert_eq!(s.dealloc_calls, 1);
        assert_eq!(s.live_bytes, 1_100);
        assert_eq!(s.peak_bytes, 1_500, "peak observed before the dealloc");
    }

    #[test]
    fn fresh_counters_report_disabled_zeroes() {
        assert_eq!(AllocCounters::new().stats(), AllocStats::default());
    }

    #[test]
    fn reset_peak_drops_to_live() {
        let c = AllocCounters::new();
        c.account_alloc(10_000);
        c.account_dealloc(9_000);
        assert_eq!(c.stats().peak_bytes, 10_000);
        c.reset_peak();
        assert_eq!(c.stats().peak_bytes, 1_000);
        c.account_alloc(5_000);
        assert_eq!(c.stats().peak_bytes, 6_000);
    }

    #[cfg(feature = "global-alloc")]
    #[test]
    fn installed_allocator_observes_real_allocations() {
        let before = alloc_stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = alloc_stats();
        drop(v);
        assert!(after.enabled);
        assert!(after.alloc_bytes >= before.alloc_bytes + (1 << 16));
        assert!(after.peak_bytes > 0);
    }
}
