//! Time-bucketed telemetry windows and SLO burn-rate evaluation.
//!
//! Every metric the registry exposes is cumulative since process start —
//! useless for "p99 over the last minute". This module derives *recent*
//! views without touching the recording hot path: a [`WindowedHistogram`]
//! owns a fixed ring of closed per-bucket [`HistogramSnapshot`] deltas per
//! tier (60 × 1s and 60 × 1m), rotated lazily from the injected [`Clock`].
//! Rotation takes one snapshot of the source histogram and subtracts the
//! previous boundary snapshot ([`HistogramSnapshot::sub`]), so recording
//! stays a handful of relaxed atomic ops and all windowing cost is paid
//! by the reader/ticker.
//!
//! Rotation is **lazy and idempotent**: any reader (the server tick, a
//! `HISTORY` request, an SLO evaluation) calls `rotate()` first, and under
//! a [`ManualClock`] two servers fed the same requests and clock advances
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
use crate::histogram::{Counter, Histogram, HistogramSnapshot};

/// Buckets per tier ring: 60 seconds of 1s buckets, 60 minutes of 1m.
pub const WINDOW_BUCKETS: usize = 60;

/// Rollup granularities. `Seconds` answers "the last minute at 1s
/// resolution", `Minutes` answers "the last hour at 1m resolution".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Seconds,
    Minutes,
}

impl Tier {
    /// Bucket width in nanoseconds.
    #[must_use]
    pub fn width_ns(self) -> u64 {
        match self {
            Tier::Seconds => 1_000_000_000,
            Tier::Minutes => 60_000_000_000,
        }
    }

    /// The wire label (`s` / `m`) used by `HISTORY tier=`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Seconds => "s",
            Tier::Minutes => "m",
        }
    }

    #[must_use]
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "s" => Some(Tier::Seconds),
            "m" => Some(Tier::Minutes),
            _ => None,
        }
    }

    /// Stable on-disk tag for telemetry frames.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Tier::Seconds => 0,
            Tier::Minutes => 1,
        }
    }

    #[must_use]
    pub fn from_code(code: u8) -> Option<Tier> {
        match code {
            0 => Some(Tier::Seconds),
            1 => Some(Tier::Minutes),
            _ => None,
        }
    }
}

/// A bucket that just closed during rotation — what the server persists
/// to `telemetry.yvt`. `epoch` is the bucket's index since clock origin
/// (`bucket start = epoch * tier.width_ns()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedBucket {
    pub tier: Tier,
    pub epoch: u64,
    pub delta: HistogramSnapshot,
}

/// One tier's ring: the last [`WINDOW_BUCKETS`] closed deltas, keyed by
/// epoch so wrapped slots are self-invalidating (a slot whose stored
/// epoch is outside the queried window is simply skipped — rotation never
/// zeroes stale slots, staying O(1) even across long idle gaps).
#[derive(Debug)]
struct Ring<T: Copy> {
    width_ns: u64,
    slots: Vec<Option<(u64, T)>>,
    /// Epoch of the currently *open* bucket; everything below is closed.
    open_epoch: u64,
}

impl<T: Copy> Ring<T> {
    fn new(width_ns: u64) -> Self {
        Ring { width_ns, slots: vec![None; WINDOW_BUCKETS], open_epoch: 0 }
    }

    fn current_epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.width_ns
    }

    fn get(&self, epoch: u64) -> Option<T> {
        match self.slots[(epoch % WINDOW_BUCKETS as u64) as usize] {
            Some((e, value)) if e == epoch => Some(value),
            _ => None,
        }
    }

    fn put(&mut self, epoch: u64, value: T) {
        let i = (epoch % WINDOW_BUCKETS as u64) as usize;
        self.slots[i] = Some((epoch, value));
    }

    /// The epoch views anchor at: the clock's epoch, or the open epoch
    /// when a replayed (restored) bucket has pushed it ahead of a
    /// freshly restarted clock.
    fn anchor_epoch(&self, now_ns: u64) -> u64 {
        self.current_epoch(now_ns).max(self.open_epoch)
    }

    /// Closed buckets with `epoch ∈ [cur - window, cur)`, ascending.
    fn collect(&self, cur: u64, window: usize) -> Vec<(u64, T)> {
        let lo = cur.saturating_sub(window.min(WINDOW_BUCKETS) as u64);
        let mut out: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|slot| *slot)
            .filter(|&(e, _)| e >= lo && e < cur)
            .collect();
        out.sort_unstable_by_key(|&(e, _)| e);
        out
    }
}

/// A recent-window view over one tier, as returned by
/// [`WindowedHistogram::window`].
#[derive(Debug, Clone)]
pub struct WindowView {
    pub tier: Tier,
    /// Buckets requested (clamped to [`WINDOW_BUCKETS`]).
    pub window: usize,
    /// The currently open epoch; the view covers `[now_epoch - window,
    /// now_epoch)`.
    pub now_epoch: u64,
    /// All in-window samples merged into one snapshot.
    pub merged: HistogramSnapshot,
    /// Non-empty closed buckets in the window, ascending by epoch.
    pub buckets: Vec<(u64, HistogramSnapshot)>,
}

/// One tier's ring plus the not-yet-closed samples accumulating toward
/// its open bucket.
#[derive(Debug)]
struct HistTier {
    tier: Tier,
    ring: Ring<HistogramSnapshot>,
    pending: HistogramSnapshot,
}

impl HistTier {
    fn new(tier: Tier, now_ns: u64) -> Self {
        let mut ring = Ring::new(tier.width_ns());
        ring.open_epoch = ring.current_epoch(now_ns);
        HistTier { tier, ring, pending: HistogramSnapshot::default() }
    }

    fn rotate(&mut self, delta: &HistogramSnapshot, now_ns: u64, closed: &mut Vec<ClosedBucket>) {
        if delta.count() > 0 {
            self.pending = self.pending.merge(delta);
        }
        let cur = self.ring.current_epoch(now_ns);
        if cur <= self.ring.open_epoch {
            return;
        }
        if self.pending.count() > 0 {
            // Close into the most recently passed bucket, merging with
            // anything already there (a replayed bucket, or an earlier
            // close into the same epoch).
            let epoch = cur - 1;
            let merged = match self.ring.get(epoch) {
                Some(prior) => prior.merge(&self.pending),
                None => self.pending,
            };
            self.ring.put(epoch, merged);
            closed.push(ClosedBucket { tier: self.tier, epoch, delta: merged });
            self.pending = HistogramSnapshot::default();
        }
        self.ring.open_epoch = cur;
    }
}

/// Ring-of-snapshots rollup over a cumulative [`Histogram`].
///
/// All mutation happens under one mutex on the rotate/read path; the
/// source histogram's recording path is untouched.
#[derive(Debug)]
pub struct WindowedHistogram {
    source: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    inner: Mutex<Tiers>,
}

#[derive(Debug)]
struct Tiers {
    seconds: HistTier,
    minutes: HistTier,
    /// Cumulative source snapshot at the last rotation.
    last: HistogramSnapshot,
}

impl WindowedHistogram {
    #[must_use]
    pub fn new(source: Arc<Histogram>, clock: Arc<dyn Clock>) -> Self {
        let now = clock.now_nanos();
        let last = source.snapshot();
        let tiers = Tiers {
            seconds: HistTier::new(Tier::Seconds, now),
            minutes: HistTier::new(Tier::Minutes, now),
            last,
        };
        WindowedHistogram { source, clock, inner: Mutex::new(tiers) }
    }

    /// The histogram this rollup windows over.
    #[must_use]
    pub fn source(&self) -> &Arc<Histogram> {
        &self.source
    }

    /// Fold newly recorded samples into the open buckets, close every
    /// bucket boundary the clock has passed, and return the newly closed
    /// non-empty buckets (for persistence). Idempotent: a second call at
    /// the same instant returns nothing.
    pub fn rotate(&self) -> Vec<ClosedBucket> {
        let now = self.clock.now_nanos();
        let snap = self.source.snapshot();
        let mut closed = Vec::new();
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let delta = snap.sub(&inner.last).unwrap_or_default();
        inner.seconds.rotate(&delta, now, &mut closed);
        inner.minutes.rotate(&delta, now, &mut closed);
        inner.last = snap;
        closed
    }

    /// Rotate, then merge the last `window` closed buckets of `tier`.
    #[must_use]
    pub fn window(&self, tier: Tier, window: usize) -> WindowView {
        let _ = self.rotate();
        let now = self.clock.now_nanos();
        let window = window.clamp(1, WINDOW_BUCKETS);
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let ring = match tier {
            Tier::Seconds => &inner.seconds.ring,
            Tier::Minutes => &inner.minutes.ring,
        };
        let cur = ring.anchor_epoch(now);
        let buckets = ring.collect(cur, window);
        let merged = buckets
            .iter()
            .fold(HistogramSnapshot::default(), |acc, (_, delta)| acc.merge(delta));
        WindowView { tier, window, now_epoch: cur, merged, buckets }
    }

    /// Re-install a bucket persisted before a restart (telemetry.yvt
    /// replay). The open epoch advances past the replayed bucket so a
    /// later rotation cannot close an older epoch over it.
    pub fn restore(&self, bucket: ClosedBucket) {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let tier = match bucket.tier {
            Tier::Seconds => &mut inner.seconds,
            Tier::Minutes => &mut inner.minutes,
        };
        tier.ring.put(bucket.epoch, bucket.delta);
        tier.ring.open_epoch = tier.ring.open_epoch.max(bucket.epoch + 1);
    }
}

/// Ring-of-deltas rollup over a cumulative [`Counter`] (seconds tier
/// only — counters answer "how many in the last N seconds").
#[derive(Debug)]
pub struct WindowedCounter {
    source: Arc<Counter>,
    clock: Arc<dyn Clock>,
    inner: Mutex<CounterRing>,
}

#[derive(Debug)]
struct CounterRing {
    ring: Ring<u64>,
    pending: u64,
    last: u64,
}

impl WindowedCounter {
    #[must_use]
    pub fn new(source: Arc<Counter>, clock: Arc<dyn Clock>) -> Self {
        let mut ring = Ring::new(Tier::Seconds.width_ns());
        ring.open_epoch = ring.current_epoch(clock.now_nanos());
        let last = source.get();
        WindowedCounter { source, clock, inner: Mutex::new(CounterRing { ring, pending: 0, last }) }
    }

    /// Close passed bucket boundaries (idempotent, lazy — see
    /// [`WindowedHistogram::rotate`]).
    pub fn rotate(&self) {
        let now = self.clock.now_nanos();
        let value = self.source.get();
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.pending += value.saturating_sub(inner.last);
        inner.last = value;
        let cur = inner.ring.current_epoch(now);
        if cur <= inner.ring.open_epoch {
            return;
        }
        if inner.pending > 0 {
            let epoch = cur - 1;
            let merged = inner.ring.get(epoch).unwrap_or(0) + inner.pending;
            inner.ring.put(epoch, merged);
            inner.pending = 0;
        }
        inner.ring.open_epoch = cur;
    }

    /// Rotate, then sum the increments of the last `window` seconds.
    #[must_use]
    pub fn sum(&self, window: usize) -> u64 {
        self.rotate();
        let now = self.clock.now_nanos();
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner
            .ring
            .collect(inner.ring.anchor_epoch(now), window.clamp(1, WINDOW_BUCKETS))
            .iter()
            .map(|&(_, n)| n)
            .sum()
    }
}

// ------------------------------------------------------------------ SLO

/// Alert state of one [`SloRule`], published as a `yv_slo_*_state` gauge
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
        let closed = w.rotate();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].tier, Tier::Seconds);
        assert_eq!(closed[0].epoch, 0);
        assert_eq!(closed[0].delta.count(), 2);
        // Idempotent at the same instant.
        assert!(w.rotate().is_empty());
        let view = w.window(Tier::Seconds, 60);
        assert_eq!(view.merged.count(), 2);
        assert_eq!(view.now_epoch, 1);
        assert_eq!(view.buckets, vec![(0, closed[0].delta)]);
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
        assert_eq!(w.window(Tier::Seconds, 2).merged.count(), 0);
        assert_eq!(w.window(Tier::Seconds, 60).merged.count(), 1);
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
        let closed = w.rotate();
        // The second sample closes into seconds epoch 61 (the bucket that
        // just passed); the first is long out of the seconds window.
        let seconds: Vec<_> = closed.iter().filter(|c| c.tier == Tier::Seconds).collect();
        assert_eq!(seconds.len(), 1);
        assert_eq!(seconds[0].epoch, 61);
        let view = w.window(Tier::Seconds, 60);
        assert_eq!(view.merged.count(), 1);
        assert_eq!(view.buckets.len(), 1);
        assert_eq!(view.buckets[0].0, 61);
    }

    #[test]
    fn minute_tier_promotes_seconds() {
        let (h, clock, w) = setup();
        // One sample per second for 60 seconds.
        for _ in 0..60 {
            h.record_ns(100 * US);
            clock.advance(SEC);
            w.rotate();
        }
        // All 60 fall inside minute bucket 0, which closed at t=60s.
        let minutes = w.window(Tier::Minutes, 60);
        assert_eq!(minutes.merged.count(), 60);
        assert_eq!(minutes.buckets.len(), 1);
        assert_eq!(minutes.buckets[0].0, 0);
        // The seconds view still resolves them per-bucket.
        let seconds = w.window(Tier::Seconds, 60);
        assert_eq!(seconds.merged.count(), 60);
        assert_eq!(seconds.buckets.len(), 60);
        assert_eq!(seconds.merged, minutes.merged);
    }

    #[test]
    fn rotation_is_o1_across_long_idle_gaps() {
        let (h, clock, w) = setup();
        h.record_ns(US);
        // An hour of idle must not require an hour of bucket closes.
        clock.set(3_600 * SEC);
        let closed = w.rotate();
        // The sample closes into seconds epoch 3599 and minute epoch 59 —
        // the most recently passed buckets at rotation time.
        assert_eq!(closed.len(), 2);
        assert_eq!(w.window(Tier::Seconds, 60).merged.count(), 1);
        assert_eq!(w.window(Tier::Minutes, 60).merged.count(), 1);
        // One more idle hour ages both out.
        clock.set(7_200 * SEC);
        assert_eq!(w.window(Tier::Seconds, 60).merged.count(), 0);
        assert_eq!(w.window(Tier::Minutes, 60).merged.count(), 0);
    }

    #[test]
    fn restore_replays_persisted_buckets() {
        let (h, clock, w) = setup();
        h.record_ns(40 * US);
        clock.advance(SEC);
        let closed = w.rotate();
        // "Restart": fresh histogram + windows on a clock at the same time.
        let h2 = Arc::new(Histogram::new());
        let clock2 = Arc::new(ManualClock::at(clock.now_nanos()));
        let w2 = WindowedHistogram::new(Arc::clone(&h2), clock2.clone() as Arc<dyn Clock>);
        for bucket in closed {
            w2.restore(bucket);
        }
        let (a, b) = (w.window(Tier::Seconds, 60), w2.window(Tier::Seconds, 60));
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.buckets, b.buckets);
        // New traffic after the restore keeps accumulating.
        h2.record_ns(10 * US);
        clock2.advance(SEC);
        w2.rotate();
        assert_eq!(w2.window(Tier::Seconds, 60).merged.count(), 2);

        // A restart whose clock re-starts at the origin still serves the
        // replayed history: views anchor at the restored open epoch, not
        // the (earlier) clock epoch, so the rendering is byte-identical
        // to the pre-restart one.
        let h3 = Arc::new(Histogram::new());
        let clock3 = Arc::new(ManualClock::at(0));
        let w3 = WindowedHistogram::new(Arc::clone(&h3), clock3 as Arc<dyn Clock>);
        w3.restore(ClosedBucket {
            tier: Tier::Seconds,
            epoch: 0,
            delta: a.buckets[0].1,
        });
        let c = w3.window(Tier::Seconds, 60);
        assert_eq!(c.now_epoch, a.now_epoch);
        assert_eq!(c.merged, a.merged);
        assert_eq!(c.buckets, a.buckets);
    }

    #[test]
    fn windowed_counter_sums_recent_increments() {
        let c = Arc::new(Counter::new());
        let clock = Arc::new(ManualClock::new());
        let w = WindowedCounter::new(Arc::clone(&c), clock.clone() as Arc<dyn Clock>);
        c.add(3);
        clock.advance(SEC);
        w.rotate();
        c.add(4);
        clock.advance(SEC);
        assert_eq!(w.sum(60), 7);
        assert_eq!(w.sum(1), 4);
        clock.advance(5 * SEC);
        assert_eq!(w.sum(2), 0);
        assert_eq!(w.sum(60), 7);
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
