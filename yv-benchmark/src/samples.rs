//! Raw latency samples and exact order statistics.
//!
//! `yv_obs::Histogram` summaries are power-of-two bucket upper bounds:
//! `yv bench` printed `p99 512 us, max 406 us` from one, and two runs
//! 40 % apart both read `256`. A 10 % regression bound needs the real
//! order statistic, so the benchmark keeps every per-operation sample
//! and sorts.

/// Percentiles reported for a latency series, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 90, 75, 50];

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the value is one scheduler hiccup.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Per-operation latencies in nanoseconds, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    #[must_use]
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sort once and answer every percentile question from the result.
    #[must_use]
    pub fn sorted(&self) -> Sorted {
        let mut ns = self.ns.clone();
        ns.sort_unstable();
        Sorted { ns }
    }
}

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// 1-based nearest-rank index of the `pct`-th percentile.
    fn rank(&self, pct: u32) -> usize {
        (self.ns.len() * pct as usize).div_ceil(100).max(1)
    }

    /// Nearest-rank percentile in nanoseconds: the smallest sample with
    /// at least `pct` % of the samples at or below it. `None` when empty.
    #[must_use]
    pub fn percentile_ns(&self, pct: u32) -> Option<u64> {
        self.ns
            .get(self.rank(pct.min(100)).checked_sub(1)?)
            .copied()
    }

    /// [`Sorted::percentile_ns`] in microseconds, 0 when empty.
    #[must_use]
    pub fn percentile_us(&self, pct: u32) -> f64 {
        self.percentile_ns(pct)
            .map_or(0.0, |ns| ns as f64 / 1_000.0)
    }

    #[must_use]
    pub fn max_us(&self) -> f64 {
        self.ns.last().map_or(0.0, |&ns| ns as f64 / 1_000.0)
    }

    /// Samples strictly beyond the `pct`-th percentile's rank.
    #[must_use]
    pub fn beyond(&self, pct: u32) -> usize {
        self.ns.len() - self.rank(pct).min(self.ns.len())
    }

    /// The highest of p99/p90/p75/p50 that is at most `cap` and still has
    /// [`MIN_SAMPLES_BEYOND`] samples beyond it; the median when the
    /// series is too short for any of them.
    #[must_use]
    pub fn supported_tail(&self, cap: u32) -> u32 {
        TAIL_CANDIDATES
            .into_iter()
            .find(|&pct| pct <= cap && self.beyond(pct) >= MIN_SAMPLES_BEYOND)
            .unwrap_or(50)
    }
}

/// Median of a small set of per-repetition values (mean of the middle
/// two for even counts); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: impl IntoIterator<Item = u64>) -> Sorted {
        let mut s = Samples::default();
        for v in values {
            s.push_ns(v);
        }
        s.sorted()
    }

    #[test]
    fn percentiles_are_order_statistics_of_the_raw_samples() {
        let s = series((1..=100).rev().map(|v| v * 1_000));
        assert_eq!(s.percentile_ns(50), Some(50_000));
        assert_eq!(s.percentile_ns(90), Some(90_000));
        assert_eq!(s.percentile_ns(99), Some(99_000));
        assert_eq!(s.percentile_ns(100), Some(100_000));
        assert_eq!(s.percentile_us(90), 90.0);
        assert_eq!(s.max_us(), 100.0);
    }

    #[test]
    fn a_percentile_never_exceeds_the_maximum() {
        // The histogram summaries this module replaces printed
        // `p99 512 us, max 406 us`.
        let s = series([406_000, 300_000, 120_000, 90_000]);
        assert!(s.percentile_us(99) <= s.max_us());
        assert_eq!(s.percentile_us(99), 406.0);
    }

    #[test]
    fn nearby_series_stay_distinguishable() {
        // Both would read `256` from power-of-two buckets.
        let slow = series([250_000; 20]);
        let fast = series([180_000; 20]);
        assert!(fast.percentile_us(50) < slow.percentile_us(50));
    }

    #[test]
    fn empty_series_have_no_percentile() {
        let s = series([]);
        assert_eq!(s.percentile_ns(50), None);
        assert_eq!(s.percentile_us(50), 0.0);
        assert_eq!(s.supported_tail(90), 50);
    }

    #[test]
    fn tail_guard_wants_ten_samples_beyond_the_percentile() {
        // 100 samples: p90 has 10 beyond it, p99 has 1.
        assert_eq!(series(0..100).beyond(90), 10);
        assert_eq!(series(0..100).supported_tail(99), 90);
        // 99 samples: p90 sits at rank 90, 9 beyond: fall back to p75.
        assert_eq!(series(0..99).supported_tail(99), 75);
        // 1 000 samples support p99; a cap keeps it at p90.
        assert_eq!(series(0..1_000).supported_tail(99), 99);
        assert_eq!(series(0..1_000).supported_tail(90), 90);
        // Three repetitions of a batch job support only the median.
        assert_eq!(series(0..3).supported_tail(90), 50);
        assert_eq!(series(0..20).supported_tail(90), 50);
        assert_eq!(series(0..21).supported_tail(90), 50);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
