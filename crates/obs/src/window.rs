//! Time-bucketed telemetry windows and SLO burn-rate evaluation.
//!
//! Every metric the exposition carries is cumulative since process start —
//! useless for "p99 over the last minute". This module derives *recent*
//! views without touching the recording hot path: a [`WindowedHistogram`]
//! owns a fixed ring of closed per-second [`HistogramSnapshot`] deltas
//! (60 × 1 s), rotated lazily from the injected [`Clock`]. Rotation takes
//! one snapshot of the source histogram and subtracts the previous
//! boundary snapshot ([`HistogramSnapshot::sub`]), so recording stays a
//! handful of relaxed atomic ops and all windowing cost is paid by the
//! reader/ticker.
//!
//! Rotation is **lazy and idempotent**: any reader (the server tick, a
//! `HISTORY` request, an SLO evaluation) rotates first, and under a
//! [`ManualClock`] two servers fed the same requests and clock advances
//! produce byte-identical windows — no background thread required for
//! correctness. Samples observed since the previous rotation are
//! attributed to the most recently closed bucket; with the server ticking
//! a few times per bucket that is the bucket they were recorded in.
//!
//! [`SloRule`] implements multi-window burn-rate alerting over those
//! windows: with objective `p` and threshold `T`, the error budget is
//! `1 - p` and the burn rate of a window is
//! `share_of_samples_over_T / budget` (1.0 = consuming budget exactly as
//! fast as allowed). The rule fires when both the long window and the
//! short window (`window/6`, min 1) burn at ≥ 100%, warns when either
//! shows elevated burn, and recovers to ok as the windows drain.
//!
//! [`ManualClock`]: crate::clock::ManualClock

use std::sync::Arc;
use std::sync::Mutex;

use crate::clock::Clock;
use crate::histogram::{Histogram, HistogramSnapshot};

/// Buckets in the ring: 60 seconds of 1 s buckets.
pub const WINDOW_BUCKETS: usize = 60;

/// Width of one bucket in nanoseconds.
const BUCKET_NS: u64 = 1_000_000_000;

/// A recent-window view, as returned by [`WindowedHistogram::window`].
#[derive(Debug, Clone)]
pub struct WindowView {
    /// Buckets requested (clamped to [`WINDOW_BUCKETS`]).
    pub window: usize,
    /// The currently open epoch (seconds since clock origin); the view
    /// covers `[now_epoch - window, now_epoch)`.
    pub now_epoch: u64,
    /// All in-window samples merged into one snapshot.
    pub merged: HistogramSnapshot,
    /// Non-empty closed buckets in the window, ascending by epoch.
    pub buckets: Vec<(u64, HistogramSnapshot)>,
}

/// The last [`WINDOW_BUCKETS`] closed deltas, keyed by epoch so wrapped
/// slots are self-invalidating (a slot whose stored epoch is outside the
/// queried window is simply skipped — rotation never zeroes stale slots,
/// staying O(1) even across long idle gaps), plus the not-yet-closed
/// samples accumulating toward the open bucket.
#[derive(Debug)]
struct Ring {
    slots: Vec<Option<(u64, HistogramSnapshot)>>,
    /// Epoch of the currently *open* bucket; everything below is closed.
    open_epoch: u64,
    pending: HistogramSnapshot,
    /// Cumulative source snapshot at the last rotation.
    last: HistogramSnapshot,
}

/// Ring-of-snapshots rollup over a cumulative [`Histogram`].
///
/// All mutation happens under one mutex on the rotate/read path; the
/// source histogram's recording path is untouched.
#[derive(Debug)]
pub struct WindowedHistogram {
    source: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    ring: Mutex<Ring>,
}

impl WindowedHistogram {
    #[must_use]
    pub fn new(source: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        let ring = Ring {
            slots: vec![None; WINDOW_BUCKETS],
            open_epoch: clock.now_nanos() / BUCKET_NS,
            pending: HistogramSnapshot::default(),
            last: source.snapshot(),
        };
        WindowedHistogram { source, clock, ring: Mutex::new(ring) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        match self.ring.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Fold newly recorded samples into the open bucket and close every
    /// bucket boundary the clock has passed. Idempotent: a second call at
    /// the same instant changes nothing.
    pub fn rotate(&self) {
        let mut ring = self.lock();
        self.rotate_locked(&mut ring);
    }

    fn rotate_locked(&self, ring: &mut Ring) {
        let now = self.clock.now_nanos();
        let snap = self.source.snapshot();
        if let Some(delta) = snap.sub(&ring.last).filter(|d| d.count() > 0) {
            ring.pending = ring.pending.merge(&delta);
        }
        ring.last = snap;
        let cur = now / BUCKET_NS;
        if cur <= ring.open_epoch {
            return;
        }
        if ring.pending.count() > 0 {
            // Close into the most recently passed bucket. Epochs only
            // grow, so the slot never holds this epoch already.
            let epoch = cur - 1;
            ring.slots[(epoch % WINDOW_BUCKETS as u64) as usize] = Some((epoch, ring.pending));
            ring.pending = HistogramSnapshot::default();
        }
        ring.open_epoch = cur;
    }

    /// Rotate, then merge the last `window` closed buckets.
    #[must_use]
    pub fn window(&self, window: usize) -> WindowView {
        let window = window.clamp(1, WINDOW_BUCKETS);
        let mut ring = self.lock();
        self.rotate_locked(&mut ring);
        let cur = ring.open_epoch;
        let lo = cur.saturating_sub(window as u64);
        let mut buckets: Vec<(u64, HistogramSnapshot)> = ring
            .slots
            .iter()
            .filter_map(|slot| *slot)
            .filter(|&(e, _)| e >= lo && e < cur)
            .collect();
        buckets.sort_unstable_by_key(|&(e, _)| e);
        let merged = buckets
            .iter()
            .fold(HistogramSnapshot::default(), |acc, (_, delta)| acc.merge(delta));
        WindowView { window, now_epoch: cur, merged, buckets }
    }
}

// ------------------------------------------------------------------ SLO

/// Alert state of one [`SloRule`], rendered as a `yv_slo_*_state` gauge
/// (0 = ok, 1 = warning, 2 = firing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    Ok,
    Warning,
    Firing,
}

impl SloState {
    #[must_use]
    pub fn as_u64(self) -> u64 {
        match self {
            SloState::Ok => 0,
            SloState::Warning => 1,
            SloState::Firing => 2,
        }
    }

    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Firing => "firing",
        }
    }
}

/// One evaluation of an [`SloRule`]: burn rates are in percent (100 =
/// consuming the error budget exactly as fast as the objective allows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloStatus {
    pub state: SloState,
    pub burn_long_pct: u64,
    pub burn_short_pct: u64,
}

/// A latency objective over a windowed metric: "`p`-quantile of `metric`
/// under `threshold_us`, judged over a `window`-second long window".
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// The windowed metric (a server command kind, e.g. `query`).
    pub metric: String,
    /// Objective quantile in `(0, 1)`, e.g. 0.99.
    pub p: f64,
    pub threshold_us: u64,
    /// Long-window length in seconds-tier buckets.
    pub window: usize,
}

impl SloRule {
    /// Parse the `--slo` flag grammar: `[metric:]pQQ<MICROS/WINDOW`,
    /// e.g. `p99<5000/60` or `resolve:p95<20000/30`.
    pub fn parse(spec: &str) -> Result<SloRule, String> {
        let bad =
            |why: &str| format!("bad --slo '{spec}': {why} (expected [metric:]p99<MICROS/WINDOW)");
        let (metric, rest) = match spec.split_once(':') {
            Some((m, rest)) => (m, rest),
            None => ("query", spec),
        };
        if metric.is_empty() || !metric.chars().all(|c| c.is_ascii_lowercase()) {
            return Err(bad("metric must be a lowercase command kind"));
        }
        let rest = rest.strip_prefix('p').ok_or_else(|| bad("quantile must start with 'p'"))?;
        let (digits, rest) = rest.split_once('<').ok_or_else(|| bad("missing '<'"))?;
        if digits.is_empty() || digits.len() > 4 || !digits.chars().all(|c| c.is_ascii_digit()) {
            return Err(bad("quantile digits must be 1-4 numerals (p50, p99, p999)"));
        }
        let p = digits.parse::<f64>().map_err(|_| bad("unparseable quantile"))?
            / 10f64.powi(digits.len() as i32);
        if !(0.0..1.0).contains(&p) || p == 0.0 {
            return Err(bad("quantile must be in (0, 1)"));
        }
        let (micros, window) = rest.split_once('/').ok_or_else(|| bad("missing '/WINDOW'"))?;
        let threshold_us = micros.parse::<u64>().map_err(|_| bad("unparseable MICROS"))?;
        if threshold_us == 0 {
            return Err(bad("MICROS must be positive"));
        }
        let window = window.parse::<usize>().map_err(|_| bad("unparseable WINDOW"))?;
        if window == 0 || window > WINDOW_BUCKETS {
            return Err(bad("WINDOW must be 1..=60 seconds"));
        }
        Ok(SloRule { metric: metric.to_string(), p, threshold_us, window })
    }

    /// The short (fast-burn) window paired with the long one.
    #[must_use]
    pub fn short_window(&self) -> usize {
        (self.window / 6).max(1)
    }

    /// Samples provably over the threshold: full buckets whose floor is
    /// at or above it. In-bucket position is unknowable, so a bucket
    /// straddling the threshold counts as under — the evaluator is
    /// deliberately conservative about firing.
    #[must_use]
    pub fn over_threshold(&self, snap: &HistogramSnapshot) -> u64 {
        snap.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| Histogram::bucket_floor_us(i) >= self.threshold_us)
            .map(|(_, &n)| n)
            .sum()
    }

    fn burn_pct(&self, snap: &HistogramSnapshot) -> u64 {
        let total = snap.count();
        if total == 0 {
            return 0;
        }
        let over = self.over_threshold(snap);
        let budget = 1.0 - self.p;
        let burn = (over as f64 / total as f64) / budget;
        (burn * 100.0).round() as u64
    }

    /// Multi-window burn-rate evaluation. Firing needs *both* windows hot
    /// (the classic guard against alerting on long-gone spikes); a hot
    /// short window alone, or a half-burned long window, warns.
    #[must_use]
    pub fn evaluate(&self, long: &HistogramSnapshot, short: &HistogramSnapshot) -> SloStatus {
        let burn_long_pct = self.burn_pct(long);
        let burn_short_pct = self.burn_pct(short);
        let state = if burn_long_pct >= 100 && burn_short_pct >= 100 {
            SloState::Firing
        } else if burn_long_pct >= 50 || burn_short_pct >= 100 {
            SloState::Warning
        } else {
            SloState::Ok
        };
        SloStatus { state, burn_long_pct, burn_short_pct }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const US: u64 = 1_000;
    const SEC: u64 = 1_000_000_000;

    fn setup() -> (Arc<Histogram>, Arc<ManualClock>, WindowedHistogram) {
        let h = Arc::new(Histogram::new());
        let clock = Arc::new(ManualClock::new());
        let w = WindowedHistogram::new(Arc::clone(&h), clock.clone() as Arc<dyn Clock>);
        (h, clock, w)
    }

    #[test]
    fn samples_land_in_the_bucket_that_just_closed() {
        let (h, clock, w) = setup();
        h.record_ns(10 * US);
        h.record_ns(20 * US);
        clock.advance(SEC); // close bucket 0
        w.rotate();
        // Idempotent at the same instant.
        w.rotate();
        let view = w.window(60);
        assert_eq!(view.merged.count(), 2);
        assert_eq!(view.now_epoch, 1);
        assert_eq!(view.buckets.len(), 1);
        assert_eq!(view.buckets[0].0, 0);
        assert_eq!(view.buckets[0].1, view.merged);
    }

    #[test]
    fn stale_buckets_age_out_of_the_window() {
        let (h, clock, w) = setup();
        h.record_ns(5 * US);
        clock.advance(SEC);
        w.rotate();
        // 2 idle seconds later the sample is outside a 2-bucket window
        // but still inside a 60-bucket one.
        clock.advance(2 * SEC);
        assert_eq!(w.window(2).merged.count(), 0);
        assert_eq!(w.window(60).merged.count(), 1);
    }

    #[test]
    fn ring_wrap_discards_only_the_overwritten_epochs() {
        let (h, clock, w) = setup();
        h.record_ns(US);
        clock.advance(SEC);
        w.rotate(); // epoch 0 closed with 1 sample
        // Jump past the ring: epoch 0's slot is reused by epoch 60+.
        clock.set(61 * SEC);
        h.record_ns(2 * US);
        clock.advance(SEC);
        // The second sample closes into epoch 61 (the bucket that just
        // passed); the first is long out of the window.
        let view = w.window(60);
        assert_eq!(view.merged.count(), 1);
        assert_eq!(view.buckets.len(), 1);
        assert_eq!(view.buckets[0].0, 61);
    }

    #[test]
    fn rotation_is_o1_across_long_idle_gaps() {
        let (h, clock, w) = setup();
        h.record_ns(US);
        // An hour of idle must not require an hour of bucket closes: the
        // sample closes into epoch 3599, the most recently passed bucket
        // at rotation time.
        clock.set(3_600 * SEC);
        let view = w.window(60);
        assert_eq!(view.merged.count(), 1);
        assert_eq!(view.buckets[0].0, 3_599);
        // One more idle hour ages it out.
        clock.set(7_200 * SEC);
        assert_eq!(w.window(60).merged.count(), 0);
    }

    #[test]
    fn slo_parse_accepts_the_flag_grammar() {
        let rule = SloRule::parse("p99<5000/60").expect("valid");
        assert_eq!(rule.metric, "query");
        assert!((rule.p - 0.99).abs() < 1e-9);
        assert_eq!(rule.threshold_us, 5_000);
        assert_eq!(rule.window, 60);
        assert_eq!(rule.short_window(), 10);
        let rule = SloRule::parse("resolve:p999<20000/30").expect("valid");
        assert_eq!(rule.metric, "resolve");
        assert!((rule.p - 0.999).abs() < 1e-9);
        assert_eq!(rule.short_window(), 5);
        for bad in [
            "",
            "p99",
            "p99<x/60",
            "p99<0/60",
            "p99<5/0",
            "p99<5/61",
            "q99<5/60",
            "Query:p99<5/60",
            "p0<5/60",
        ] {
            assert!(SloRule::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn slo_states_follow_the_burn_rate() {
        let rule = SloRule { metric: "query".into(), p: 0.99, threshold_us: 1_000, window: 60 };
        let hot = Histogram::new();
        for _ in 0..10 {
            hot.record_ns(5_000 * US); // all well over 1ms
        }
        let hot = hot.snapshot();
        let status = rule.evaluate(&hot, &hot);
        assert_eq!(status.state, SloState::Firing);
        // 100% over threshold against a 1% budget: burn = 10000%.
        assert_eq!(status.burn_long_pct, 10_000);
        // Spike aged out of the short window: warning, not firing.
        let empty = HistogramSnapshot::default();
        assert_eq!(rule.evaluate(&hot, &empty).state, SloState::Warning);
        assert_eq!(rule.evaluate(&empty, &hot).state, SloState::Warning);
        // Both windows drained: ok.
        assert_eq!(rule.evaluate(&empty, &empty).state, SloState::Ok);
        // Fast traffic never burns.
        let cool = Histogram::new();
        for _ in 0..1_000 {
            cool.record_ns(10 * US);
        }
        let cool = cool.snapshot();
        assert_eq!(rule.evaluate(&cool, &cool).state, SloState::Ok);
    }

    #[test]
    fn over_threshold_is_conservative_at_bucket_boundaries() {
        let rule = SloRule { metric: "query".into(), p: 0.9, threshold_us: 100, window: 10 };
        let h = Histogram::new();
        h.record_ns(90 * US); // [64,128): straddles 100µs -> counts as under
        h.record_ns(130 * US); // [128,256): floor 128 >= 100 -> over
        h.record_ns(10 * US); // clearly under
        assert_eq!(rule.over_threshold(&h.snapshot()), 1);
    }
}
