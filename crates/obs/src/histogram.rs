//! Counters and fixed-bucket latency histograms.
//!
//! The histogram uses power-of-two microsecond buckets: bucket 0 holds
//! samples below 1µs and bucket `i` holds samples in `[2^(i-1), 2^i)` µs,
//! with the last bucket absorbing everything slower. The buckets are the
//! storage — lock-free, constant-memory, and safe to share across server
//! workers. Percentiles are read one way only,
//! [`HistogramSnapshot::percentile_interp_us`]: interpolated inside the
//! rank bucket and clamped to the observed min/max, so no reported
//! percentile falls below the smallest sample or above the largest.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. The final boundary is `2^26` µs ≈ 67 s;
/// anything slower lands in the overflow bucket.
pub const BUCKET_COUNT: usize = 28;

/// A shared monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Exact worst sample (not bucket-rounded) — the number you grep
    /// for after an incident.
    pub max_us: u64,
    /// Best sample (0 when empty). Exact for live snapshots; for a
    /// [`HistogramSnapshot::sub`] delta it is the tightest provable
    /// lower bound on the window's smallest sample.
    pub min_us: u64,
}

/// An immutable copy of a [`Histogram`]'s bucket counts and sum, taken in
/// one pass. Every statistic of a histogram (count, mean, percentiles) is
/// read from a snapshot, so statistics computed from the same snapshot
/// describe the same instant even while other threads keep recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; BUCKET_COUNT],
    pub sum_ns: u64,
    /// Largest single sample recorded, exact (0 when empty).
    pub max_ns: u64,
    /// Smallest single sample recorded (0 when empty). For deltas
    /// produced by [`HistogramSnapshot::sub`] this is a lower bound:
    /// the later snapshot's lifetime minimum raised to the floor of the
    /// window's lowest non-empty bucket.
    pub min_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { counts: [0; BUCKET_COUNT], sum_ns: 0, max_ns: 0, min_ns: 0 }
    }
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean latency in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        self.sum_ns / n / 1_000
    }

    /// The `q`-quantile interpolated linearly inside the rank bucket and
    /// clamped to the snapshot's observed `[min, max]`, in microseconds.
    ///
    /// Naive in-bucket interpolation walks down from the bucket floor as
    /// the rank drops — with two samples of 30µs and 31µs in the
    /// `[16,32)`µs bucket the raw p50 interpolates to 24µs, *below* the
    /// smallest sample ever observed. Clamping to `min_us` pins the
    /// reported quantile inside the envelope the snapshot actually saw,
    /// which is what makes windowed deltas trustworthy on dashboards.
    #[must_use]
    pub fn percentile_interp_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // The rank (1-based) the `q`-quantile falls on.
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let min_us = self.min_ns / 1_000;
        let max_us = self.max_ns / 1_000;
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let rank_in_bucket = target - cumulative; // 1..=n
                let lo = Histogram::bucket_floor_us(i);
                let hi = Histogram::bucket_bound_us(i);
                let raw = lo + ((hi - lo) * rank_in_bucket).div_ceil(n);
                return raw.clamp(min_us, max_us.max(min_us));
            }
            cumulative += n;
        }
        max_us.max(min_us)
    }

    /// Checked snapshot subtraction: the samples recorded between
    /// `earlier` and `self` (both taken from the same growing histogram).
    ///
    /// Returns `None` when `self` is not a superset of `earlier` (any
    /// bucket count or the sum would go negative) — the caller's snapshots
    /// are from different histograms or were taken out of order. The
    /// delta's `max_ns` carries the later lifetime max (an upper bound for
    /// the window); `min_ns` is the later lifetime min raised to the floor
    /// of the window's lowest non-empty bucket — the tightest lower bound
    /// derivable from two cumulative snapshots.
    #[must_use]
    pub fn sub(&self, earlier: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        let mut counts = [0u64; BUCKET_COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].checked_sub(earlier.counts[i])?;
        }
        let sum_ns = self.sum_ns.checked_sub(earlier.sum_ns)?;
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Some(HistogramSnapshot::default());
        }
        let lowest = counts.iter().position(|&n| n > 0).unwrap_or(0);
        let floor_ns = Histogram::bucket_floor_us(lowest).saturating_mul(1_000);
        Some(HistogramSnapshot {
            counts,
            sum_ns,
            max_ns: self.max_ns,
            min_ns: self.min_ns.max(floor_ns),
        })
    }

    /// Pure snapshot merge: the concatenation of both sample streams.
    /// Inverse of [`HistogramSnapshot::sub`] — `b.sub(a).merge(a) == b`
    /// whenever both snapshots came from the same growing histogram
    /// (pinned by a property test).
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKET_COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_add(other.counts[i]);
        }
        let min_ns = match (self.count() > 0, other.count() > 0) {
            (true, true) => self.min_ns.min(other.min_ns),
            (true, false) => self.min_ns,
            (false, true) => other.min_ns,
            (false, false) => 0,
        };
        HistogramSnapshot {
            counts,
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
            max_ns: self.max_ns.max(other.max_ns),
            min_ns,
        }
    }

    /// Count / mean / p50 / p95 / p99 / max / min, all from this one
    /// snapshot, with [`HistogramSnapshot::percentile_interp_us`]
    /// percentiles: the one rule every latency row reports.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean_us: self.mean_us(),
            p50_us: self.percentile_interp_us(0.50),
            p95_us: self.percentile_interp_us(0.95),
            p99_us: self.percentile_interp_us(0.99),
            max_us: self.max_ns / 1_000,
            min_us: self.min_ns / 1_000,
        }
    }
}

/// A lock-free fixed-bucket latency histogram (nanosecond samples,
/// microsecond reporting).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_COUNT],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// `u64::MAX` until the first sample, so `fetch_min` needs no branch.
    min_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// The bucket a nanosecond sample falls into.
    #[must_use]
    pub fn bucket_index(nanos: u64) -> usize {
        let micros = nanos / 1_000;
        if micros == 0 {
            return 0;
        }
        let bits = 64 - micros.leading_zeros() as usize;
        bits.min(BUCKET_COUNT - 1)
    }

    /// Upper bound of bucket `i` in microseconds (the Prometheus `le`
    /// label). The overflow bucket reports its lower bound.
    #[must_use]
    pub fn bucket_bound_us(i: usize) -> u64 {
        1u64 << i.min(BUCKET_COUNT - 1)
    }

    /// Lower bound of bucket `i` in microseconds (0 for the sub-µs
    /// bucket).
    #[must_use]
    pub fn bucket_floor_us(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i.min(BUCKET_COUNT - 1) - 1)
        }
    }

    /// Record one latency sample.
    pub fn record_ns(&self, nanos: u64) {
        self.counts[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
        self.min_ns.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Copy the bucket counts and sum in one pass. Concurrent `record_ns`
    /// calls may land between bucket loads (the histogram is lock-free by
    /// design), but every statistic derived from the returned snapshot is
    /// internally consistent.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let raw_min = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            min_ns: if raw_min == u64::MAX { 0 } else { raw_min },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000; // one microsecond in nanoseconds

    #[test]
    fn bucket_boundaries_are_powers_of_two_micros() {
        // Below 1µs: bucket 0.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(999), 0);
        // [1µs, 2µs) -> bucket 1, bound 2µs.
        assert_eq!(Histogram::bucket_index(US), 1);
        assert_eq!(Histogram::bucket_index(2 * US - 1), 1);
        // [2µs, 4µs) -> bucket 2.
        assert_eq!(Histogram::bucket_index(2 * US), 2);
        // 1ms = 1000µs falls in [512, 1024) -> bucket 10.
        assert_eq!(Histogram::bucket_index(1_000_000), 10);
        assert_eq!(Histogram::bucket_bound_us(10), 1_024);
        // Overflow clamps to the last bucket.
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKET_COUNT - 1);
        // Floors are half the bound except for the sub-µs bucket.
        assert_eq!(Histogram::bucket_floor_us(0), 0);
        assert_eq!(Histogram::bucket_floor_us(1), 1);
        assert_eq!(Histogram::bucket_floor_us(10), 512);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean_us(), 0);
        assert_eq!(snap.percentile_interp_us(0.5), 0);
        assert_eq!(snap.percentile_interp_us(0.99), 0);
        assert_eq!(snap.summary(), LatencySummary::default());
    }

    #[test]
    fn single_sample_sets_every_percentile() {
        let h = Histogram::new();
        h.record_ns(3 * US); // bucket 2, bound 4µs
        let s = h.snapshot().summary();
        assert_eq!(s.count, 1);
        // The bucket bound (4µs) clamps to the one sample: a percentile
        // never exceeds the exact max.
        assert_eq!(s.p50_us, 3);
        assert_eq!(s.p95_us, 3);
        assert_eq!(s.p99_us, 3);
        assert_eq!(s.mean_us, 3);
        // Max and min are exact, not bucket-rounded.
        assert_eq!(s.max_us, 3);
        assert_eq!(s.min_us, 3);
    }

    #[test]
    fn max_tracks_the_exact_worst_sample() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().summary().max_us, 0);
        for &ns in &[100 * US, 800 * US, 200 * US, 400 * US] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.summary().max_us, 800);
        assert_eq!(snap.max_ns, 800 * US);
        // Merging takes the max of maxes.
        let other = Histogram::new();
        other.record_ns(50 * US);
        assert_eq!(snap.merge(&other.snapshot()).summary().max_us, 800);
        other.record_ns(9_000 * US);
        assert_eq!(snap.merge(&other.snapshot()).summary().max_us, 9_000);
    }

    #[test]
    fn min_tracks_the_exact_best_sample() {
        let h = Histogram::new();
        for &ns in &[100 * US, 30 * US, 400 * US] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.summary().min_us, 30);
        // Merging an empty snapshot must not reset the minimum.
        assert_eq!(snap.merge(&HistogramSnapshot::default()).summary().min_us, 30);
        let faster = Histogram::new();
        faster.record_ns(7 * US);
        assert_eq!(snap.merge(&faster.snapshot()).summary().min_us, 7);
    }

    #[test]
    fn skewed_stream_separates_p50_from_p99() {
        let h = Histogram::new();
        // 90 fast samples at ~10µs, 10 slow at ~1s.
        for _ in 0..90 {
            h.record_ns(10 * US);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        // p50 rank 50 of 90 in the fast bucket [8,16)µs: 8 + ceil(8·50/90).
        assert_eq!(snap.percentile_interp_us(0.50), 13);
        // p90 rank 90 is the fast bucket's last: its bound.
        assert_eq!(snap.percentile_interp_us(0.90), 16);
        // p99 rank 9 of 10 in the slow bucket [2^19, 2^20)µs, under the
        // exact 1s max.
        assert_eq!(snap.percentile_interp_us(0.99), (1 << 19) + ((1u64 << 19) * 9).div_ceil(10));
    }

    #[test]
    fn percentile_clamps_degenerate_quantiles() {
        let h = Histogram::new();
        h.record_ns(US);
        h.record_ns(100 * US);
        // q=0 clamps to rank 1 (the first sample's bucket bound), q=1 to
        // the last rank, whose bucket bound (128µs) clamps to the max.
        let snap = h.snapshot();
        assert_eq!(snap.percentile_interp_us(0.0), 2);
        assert_eq!(snap.percentile_interp_us(1.0), 100);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for &ns in &[500, 3 * US, 90 * US, 2_000_000] {
            a.record_ns(ns);
            all.record_ns(ns);
        }
        for &ns in &[7 * US, 7 * US, 1_000_000_000] {
            b.record_ns(ns);
            all.record_ns(ns);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), all.snapshot());
    }

    #[test]
    fn merge_into_empty_copies_everything() {
        let src = Histogram::new();
        src.record_ns(10 * US);
        let dst = HistogramSnapshot::default().merge(&src.snapshot());
        assert_eq!(dst, src.snapshot());
        // Merging an empty snapshot changes nothing.
        assert_eq!(dst.merge(&HistogramSnapshot::default()), dst);
    }

    #[test]
    fn sub_recovers_the_window_between_two_snapshots() {
        let h = Histogram::new();
        h.record_ns(10 * US);
        h.record_ns(20 * US);
        let earlier = h.snapshot();
        h.record_ns(100 * US);
        h.record_ns(200 * US);
        let later = h.snapshot();
        let delta = later.sub(&earlier).expect("later is a superset");
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum_ns, 300 * US);
        // The window's min bound: lifetime min (10µs) raised to the floor
        // of the lowest delta bucket ([64,128)µs -> 64µs).
        assert_eq!(delta.min_ns, 64 * US);
        assert_eq!(delta.max_ns, 200 * US);
    }

    #[test]
    fn sub_of_unrelated_snapshots_is_none_not_garbage() {
        let a = Histogram::new();
        a.record_ns(10 * US);
        let b = Histogram::new();
        b.record_ns(900 * US);
        // b's snapshot is not a superset of a's: some bucket underflows.
        assert_eq!(b.snapshot().sub(&a.snapshot()), None);
        // Equal snapshots subtract to the empty snapshot.
        let same = a.snapshot();
        assert_eq!(same.sub(&same), Some(HistogramSnapshot::default()));
    }

    #[test]
    fn interpolated_p50_never_undershoots_the_window_minimum() {
        // Regression: two samples at 30µs and 31µs share the [16,32)µs
        // bucket. Rank-1 interpolation yields 16 + 16*1/2 = 24µs — below
        // every sample in the window. The clamp pins p50 to the observed
        // minimum instead.
        let h = Histogram::new();
        h.record_ns(30 * US);
        h.record_ns(31 * US);
        let delta = h.snapshot().sub(&HistogramSnapshot::default()).expect("superset");
        assert_eq!(delta.min_ns, 30 * US);
        assert_eq!(delta.percentile_interp_us(0.50), 30);
        // p100 interpolates to the bucket bound (32) but clamps to the
        // exact max.
        assert_eq!(delta.percentile_interp_us(1.0), 31);
        let s = delta.summary();
        assert_eq!((s.p50_us, s.min_us, s.max_us), (30, 30, 31));
        // Unclamped ranks still interpolate inside the bucket: with four
        // samples spread across [16,32), rank 1 of 4 sits at 20µs...
        let spread = Histogram::new();
        for &us in &[16, 20, 25, 31] {
            spread.record_ns(us * US);
        }
        // ...16 + ceil(16*1/4) = 20, within [min=16, max=31].
        assert_eq!(spread.snapshot().percentile_interp_us(0.25), 20);
    }

    #[test]
    fn snapshot_merge_is_subs_inverse() {
        let h = Histogram::new();
        h.record_ns(5 * US);
        let a = h.snapshot();
        h.record_ns(300 * US);
        h.record_ns(2 * US);
        let b = h.snapshot();
        let delta = b.sub(&a).expect("superset");
        assert_eq!(delta.merge(&a), b);
        assert_eq!(a.merge(&delta), b);
        // Merging the empty snapshot is the identity.
        assert_eq!(b.merge(&HistogramSnapshot::default()), b);
        assert_eq!(HistogramSnapshot::default().merge(&b), b);
    }

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
