//! Clock injection: the single place in the workspace that is allowed to
//! read the wall clock.
//!
//! Clippy's `disallowed-methods` (root `clippy.toml`) forbids
//! `Instant::now` / `SystemTime::now` everywhere else, so deterministic
//! pipeline code can only obtain time through a [`Clock`] — either the
//! real [`MonotonicClock`] or a test-controlled [`ManualClock`]. That
//! makes "timing never influences scores or cluster output" true by
//! construction: code that wants a timestamp has to take a clock as an
//! argument, which is visible at every call site.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond counter since an arbitrary fixed origin.
///
/// `Send + Sync` so recorders and server metrics can share one clock
/// across worker threads.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since this clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The real clock: origin is the moment of construction.
///
/// This is the only sanctioned `Instant::now` call site in the workspace.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    #[must_use]
    #[allow(
        clippy::disallowed_methods,
        reason = "the workspace's one wall-clock read; everything else takes a Clock"
    )]
    pub fn new() -> MonotonicClock {
        MonotonicClock { origin: std::time::Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // A u64 of nanoseconds lasts ~584 years from the origin; saturate
        // rather than panic if something pathological happens.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic clock advanced explicitly by tests.
///
/// Interior mutability (an atomic) lets the same handle be read by the
/// recorder under test and advanced by the test body.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    #[must_use]
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// A manual clock starting at an explicit nanosecond value.
    #[must_use]
    pub fn at(nanos: u64) -> ManualClock {
        ManualClock { nanos: AtomicU64::new(nanos) }
    }

    /// Move the clock forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Set the clock to an absolute nanosecond value.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(1_500);
        assert_eq!(clock.now_nanos(), 1_500);
        clock.advance(500);
        assert_eq!(clock.now_nanos(), 2_000);
        clock.set(42);
        assert_eq!(clock.now_nanos(), 42);
        assert_eq!(ManualClock::at(7).now_nanos(), 7);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
