//! A pull-based metrics registry with Prometheus text exposition.
//!
//! Counters, gauges, and histograms are registered once by name and
//! scraped on demand: registration hands back a shared handle
//! (`Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>`) that the hot path
//! updates with relaxed atomics, and [`MetricsRegistry::render_prometheus`]
//! walks the registry and renders every metric in the Prometheus text
//! format, version 0.0.4.
//!
//! Naming scheme (see DESIGN.md §11): every metric is prefixed `yv_`,
//! monotonic totals end in `_total`, and latency histograms end in `_us`
//! because the bucket boundaries are integer microseconds (powers of two,
//! see [`Histogram`]) — keeping the renderer free of float formatting and
//! the scrape byte-stable for a given set of atomic readings.
//!
//! Metrics are stored in a `BTreeMap`, so exposition order is the sorted
//! metric name order — deterministic across runs and platforms.

use crate::histogram::{Counter, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared instantaneous value: set to the latest reading, unlike
/// [`Counter`] which only accumulates. Store sizes, cache populations and
/// allocator readings are gauges.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the current value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a metric renders in the exposition (`# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenderKind {
    Counter,
    Gauge,
}

#[derive(Debug)]
enum Handle {
    /// An incrementing counter owned by the hot path.
    Counter(Arc<Counter>),
    /// A settable value; `kind` controls whether it renders as a
    /// `counter` (monotonic totals republished from another source, e.g.
    /// allocator readings) or a `gauge`.
    Gauge(Arc<Gauge>, RenderKind),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    help: String,
    handle: Handle,
}

/// A named collection of metrics, registered once and scraped on demand.
///
/// Safe to share across server workers: registration takes a short mutex,
/// but the returned handles update lock-free, so the request hot path
/// never contends on the registry itself.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Entry>> {
        // Registry bookkeeping never panics while holding the lock;
        // recover rather than poisoning every future scrape.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or fetch) a monotonic counter. Re-registering an existing
    /// name returns the existing handle; registering a name previously
    /// bound to a different metric kind replaces it (a programming error
    /// surfaced by `debug_assert!` in test builds).
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        if let Some(entry) = inner.get(name) {
            if let Handle::Counter(c) = &entry.handle {
                return Arc::clone(c);
            }
            debug_assert!(false, "metric {name} re-registered with a different kind");
        }
        let c = Arc::new(Counter::new());
        inner.insert(
            name.to_owned(),
            Entry { help: help.to_owned(), handle: Handle::Counter(Arc::clone(&c)) },
        );
        c
    }

    /// Register (or fetch) a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.settable(name, help, RenderKind::Gauge)
    }

    /// Register (or fetch) a settable metric that renders as a `counter`:
    /// a monotonic total whose source of truth lives elsewhere (e.g. the
    /// global allocator's byte counts, republished at scrape time).
    #[must_use]
    pub fn counter_value(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.settable(name, help, RenderKind::Counter)
    }

    fn settable(&self, name: &str, help: &str, kind: RenderKind) -> Arc<Gauge> {
        let mut inner = self.lock();
        if let Some(entry) = inner.get(name) {
            if let Handle::Gauge(g, k) = &entry.handle {
                debug_assert!(*k == kind, "metric {name} re-registered with a different kind");
                return Arc::clone(g);
            }
            debug_assert!(false, "metric {name} re-registered with a different kind");
        }
        let g = Arc::new(Gauge::new());
        inner.insert(
            name.to_owned(),
            Entry { help: help.to_owned(), handle: Handle::Gauge(Arc::clone(&g), kind) },
        );
        g
    }

    /// Register (or fetch) a latency histogram (nanosecond samples,
    /// microsecond buckets). Name it with a `_us` suffix: the exposition
    /// emits integer-microsecond `le` bucket boundaries.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        if let Some(entry) = inner.get(name) {
            if let Handle::Histogram(h) = &entry.handle {
                return Arc::clone(h);
            }
            debug_assert!(false, "metric {name} re-registered with a different kind");
        }
        let h = Arc::new(Histogram::new());
        inner.insert(
            name.to_owned(),
            Entry { help: help.to_owned(), handle: Handle::Histogram(Arc::clone(&h)) },
        );
        h
    }

    /// Set a gauge in one call (registering it on first use).
    pub fn set_gauge(&self, name: &str, help: &str, value: u64) {
        self.gauge(name, help).set(value);
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format, version 0.0.4. Histograms emit cumulative
    /// `_bucket{le="..."}` series (integer-microsecond boundaries, the
    /// overflow bucket as `le="+Inf"`), `_sum` (microseconds) and
    /// `_count`, all derived from one [`Histogram::snapshot`].
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use crate::histogram::{Histogram as H, BUCKET_COUNT};
        let mut out = String::new();
        for (name, entry) in self.lock().iter() {
            out.push_str(&format!("# HELP {name} {}\n", entry.help));
            match &entry.handle {
                Handle::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Handle::Gauge(g, kind) => {
                    let t = match kind {
                        RenderKind::Counter => "counter",
                        RenderKind::Gauge => "gauge",
                    };
                    out.push_str(&format!("# TYPE {name} {t}\n{name} {}\n", g.get()));
                }
                Handle::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.counts.iter().enumerate() {
                        cumulative += n;
                        if i + 1 == BUCKET_COUNT {
                            // The overflow bucket has no finite bound.
                            out.push_str(&format!(
                                "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
                            ));
                        } else {
                            out.push_str(&format!(
                                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                                H::bucket_bound_us(i)
                            ));
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n", snap.sum_ns / 1_000));
                    out.push_str(&format!("{name}_count {}\n", snap.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::BUCKET_COUNT;

    #[test]
    fn registration_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("yv_test_total", "a test counter");
        let b = reg.counter("yv_test_total", "ignored on re-register");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        let g = reg.gauge("yv_test_gauge", "a gauge");
        g.set(7);
        assert_eq!(reg.gauge("yv_test_gauge", "").get(), 7);
    }

    #[test]
    fn prometheus_rendering_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("yv_requests_total", "Requests served").add(5);
        reg.gauge("yv_records", "Records resident").set(100);
        reg.counter_value("yv_alloc_bytes_total", "Bytes allocated").set(4096);
        let h = reg.histogram("yv_latency_us", "Request latency");
        h.record_ns(3_000); // bucket 2, bound 4µs
        h.record_ns(u64::MAX); // overflow bucket

        let text = reg.render_prometheus();
        assert!(text.contains("# HELP yv_requests_total Requests served\n"));
        assert!(text.contains("# TYPE yv_requests_total counter\nyv_requests_total 5\n"));
        assert!(text.contains("# TYPE yv_records gauge\nyv_records 100\n"));
        assert!(text.contains("# TYPE yv_alloc_bytes_total counter\nyv_alloc_bytes_total 4096\n"));
        assert!(text.contains("# TYPE yv_latency_us histogram\n"));
        // Cumulative buckets: nothing below 4µs boundary 2, both by +Inf.
        assert!(text.contains("yv_latency_us_bucket{le=\"2\"} 0\n"));
        assert!(text.contains("yv_latency_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("yv_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("yv_latency_us_count 2\n"));
        // One finite bucket line per non-overflow bucket plus +Inf.
        let buckets = text.matches("yv_latency_us_bucket{").count();
        assert_eq!(buckets, BUCKET_COUNT);
        // BTreeMap order: alloc before latency before records before requests.
        let order: Vec<usize> = ["yv_alloc_bytes_total", "yv_latency_us", "yv_records", "yv_requests_total"]
            .iter()
            .map(|n| text.find(&format!("# HELP {n} ")).expect("metric rendered"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }
}
