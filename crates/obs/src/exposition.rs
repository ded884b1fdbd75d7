//! Prometheus text exposition, format 0.0.4, rendered from samples the
//! caller reads off its sources at scrape time.
//!
//! Nothing is stored between scrapes: the caller collects one [`Sample`]
//! per series (a name, a help text, and a counter value, a gauge value or
//! a [`HistogramSnapshot`]) and [`render_prometheus`] turns the list into
//! text.
//!
//! Naming scheme (see DESIGN.md §11): every metric is prefixed `yv_`,
//! monotonic totals end in `_total`, and latency histograms end in `_us`
//! because the bucket boundaries are integer microseconds (powers of two,
//! see [`Histogram`]) — keeping the renderer free of float formatting and
//! the scrape byte-stable for a given set of readings.
//!
//! [`Histogram`]: crate::histogram::Histogram

use crate::histogram::{Histogram, HistogramSnapshot, BUCKET_COUNT};
use std::borrow::Cow;

/// One series' reading.
#[derive(Debug)]
enum SampleValue {
    /// A monotonic total (`# TYPE … counter`).
    Counter(u64),
    /// An instantaneous value (`# TYPE … gauge`).
    Gauge(u64),
    /// A latency histogram (`# TYPE … histogram`).
    Histogram(Box<HistogramSnapshot>),
}

/// One series of the exposition: its name, its `# HELP` text and its
/// reading.
#[derive(Debug)]
pub struct Sample {
    name: Cow<'static, str>,
    help: Cow<'static, str>,
    value: SampleValue,
}

impl Sample {
    #[must_use]
    pub fn counter(
        name: impl Into<Cow<'static, str>>,
        help: impl Into<Cow<'static, str>>,
        value: u64,
    ) -> Sample {
        Sample { name: name.into(), help: help.into(), value: SampleValue::Counter(value) }
    }

    #[must_use]
    pub fn gauge(
        name: impl Into<Cow<'static, str>>,
        help: impl Into<Cow<'static, str>>,
        value: u64,
    ) -> Sample {
        Sample { name: name.into(), help: help.into(), value: SampleValue::Gauge(value) }
    }

    /// A latency histogram. Name it with a `_us` suffix: the exposition
    /// emits integer-microsecond `le` bucket boundaries.
    #[must_use]
    pub fn histogram(
        name: impl Into<Cow<'static, str>>,
        help: impl Into<Cow<'static, str>>,
        snapshot: HistogramSnapshot,
    ) -> Sample {
        let value = SampleValue::Histogram(Box::new(snapshot));
        Sample { name: name.into(), help: help.into(), value }
    }
}

/// Render `samples` in the Prometheus text exposition format, version
/// 0.0.4: in ascending name order, each under its `# HELP` and `# TYPE`
/// lines, a repeated name once (its first sample). Histograms emit
/// cumulative `_bucket{le="..."}` series (integer-microsecond boundaries,
/// the overflow bucket as `le="+Inf"`), `_sum` (microseconds) and
/// `_count`.
#[must_use]
pub fn render_prometheus(mut samples: Vec<Sample>) -> String {
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    samples.dedup_by(|later, earlier| later.name == earlier.name);
    let mut out = String::new();
    for Sample { name, help, value } in &samples {
        out.push_str(&format!("# HELP {name} {help}\n"));
        let (kind, value) = match value {
            SampleValue::Counter(v) => ("counter", v),
            SampleValue::Gauge(v) => ("gauge", v),
            SampleValue::Histogram(snap) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (i, &n) in snap.counts.iter().enumerate() {
                    cumulative += n;
                    if i + 1 == BUCKET_COUNT {
                        // The overflow bucket has no finite bound.
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    } else {
                        let bound = Histogram::bucket_bound_us(i);
                        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", snap.sum_ns / 1_000));
                out.push_str(&format!("{name}_count {}\n", snap.count()));
                continue;
            }
        };
        out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_covers_all_kinds() {
        let h = Histogram::new();
        h.record_ns(3_000); // bucket 2, bound 4µs
        h.record_ns(u64::MAX); // overflow bucket
        let text = render_prometheus(vec![
            Sample::counter("yv_requests_total", "Requests served", 5),
            Sample::gauge("yv_records", "Records resident", 100),
            Sample::counter("yv_alloc_bytes_total", "Bytes allocated", 4096),
            Sample::histogram("yv_latency_us", "Request latency", h.snapshot()),
        ]);
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
        // Name order: alloc before latency before records before requests.
        let order: Vec<usize> =
            ["yv_alloc_bytes_total", "yv_latency_us", "yv_records", "yv_requests_total"]
                .iter()
                .map(|n| text.find(&format!("# HELP {n} ")).expect("metric rendered"))
                .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }

    #[test]
    fn a_repeated_name_renders_once_with_its_first_sample() {
        let text = render_prometheus(vec![
            Sample::gauge("yv_records", "Records resident", 100),
            Sample::counter("yv_requests_total", "Requests served", 5),
            Sample::gauge("yv_records", "A repeated name renders once", 7),
        ]);
        assert_eq!(text.matches("# TYPE yv_records ").count(), 1, "{text}");
        assert!(text.contains("# HELP yv_records Records resident\n# TYPE yv_records gauge\nyv_records 100\n"));
        assert!(!text.contains("yv_records 7\n"), "{text}");
        assert!(!text.contains("A repeated name renders once"), "{text}");
    }
}
