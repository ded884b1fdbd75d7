//! The harness's own tracing: spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's files only — around public
//! calls of the product crates — with one [`yv_obs::Recorder`] per
//! harness thread (a recorder tracks one nesting depth) over one shared
//! clock. They stay in memory until the run ends; then every span gets
//! an id, the id of the span that caused it, and its self time (duration
//! minus the part its children cover), and the lot is written as
//! Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>).

use crate::report::quote;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use yv_obs::{Clock, Recorder, SpanRecord};

/// Hands out per-thread recorders and collects them afterwards.
#[derive(Debug)]
pub struct Tracer {
    clock: Arc<dyn Clock>,
    threads: Mutex<Vec<(String, Arc<Recorder>)>>,
}

impl Tracer {
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            clock,
            threads: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for one harness thread, labelled in the trace viewer.
    #[must_use]
    pub fn thread(&self, label: &str) -> Arc<Recorder> {
        let rec = Arc::new(Recorder::new(Arc::clone(&self.clock)));
        // The list is only ever appended to, so a panic elsewhere leaves
        // it valid.
        self.threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((label.to_owned(), Arc::clone(&rec)));
        rec
    }

    /// Resolve parents and self times over everything recorded so far.
    #[must_use]
    pub fn finish(&self) -> Trace {
        let threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        let mut trace = Trace {
            threads: Vec::new(),
            spans: Vec::new(),
        };
        for (label, rec) in threads.iter() {
            let thread = trace.threads.len();
            trace.threads.push(label.clone());
            // `Recorder::spans` sorts by (start, depth): parents first.
            let mut open: Vec<(usize, usize)> = Vec::new(); // (depth, span id)
            for record in rec.spans() {
                while open.last().is_some_and(|&(depth, _)| depth >= record.depth) {
                    open.pop();
                }
                let id = trace.spans.len();
                let parent = open.last().map(|&(_, id)| id);
                if let Some(p) = parent {
                    let parent_span = &mut trace.spans[p];
                    parent_span.self_ns = parent_span.self_ns.saturating_sub(record.dur_ns);
                }
                open.push((record.depth, id));
                trace.spans.push(TracedSpan {
                    id,
                    parent,
                    thread,
                    self_ns: record.dur_ns,
                    record,
                });
            }
        }
        trace
    }
}

/// A span with its place in the tree.
#[derive(Debug, Clone)]
pub struct TracedSpan {
    pub id: usize,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub thread: usize,
    /// Duration minus the part covered by direct children.
    pub self_ns: u64,
    pub record: SpanRecord,
}

/// Calls, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The finished span forest of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    pub threads: Vec<String>,
    pub spans: Vec<TracedSpan>,
}

impl Trace {
    /// Aggregate the spans of the threads `keep` accepts by span name.
    #[must_use]
    pub fn by_name(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| keep(&self.threads[s.thread])) {
            let t = out.entry(span.record.name.clone()).or_default();
            t.calls += 1;
            t.total_ns += span.record.dur_ns;
            t.self_ns += span.self_ns;
        }
        out
    }

    /// Lines for the text report: the `top` span names holding the most
    /// self time on the threads `keep` accepts, each line led by `label`.
    #[must_use]
    pub fn self_time_notes(
        &self,
        label: &str,
        keep: impl Fn(&str) -> bool,
        top: usize,
    ) -> Vec<String> {
        let mut rows: Vec<(String, NameTotals)> = self.by_name(keep).into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(&b.0)));
        rows.into_iter()
            .take(top)
            .map(|(name, t)| {
                format!(
                    "{label} {name} self_us={} total_us={} calls={}",
                    t.self_ns / 1_000,
                    t.total_ns / 1_000,
                    t.calls
                )
            })
            .collect()
    }

    /// Chrome trace JSON: one complete (`"ph":"X"`) event per span with
    /// `id`, `parent` (`null` for roots), `self_us` and the span's own
    /// arguments (`req` is the request or round the span belongs to),
    /// plus one `thread_name` metadata event per harness thread.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut events: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .map(|(tid, label)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                    quote(label)
                )
            })
            .collect();
        for span in &self.spans {
            let mut args = format!(
                "{{\"id\":{},\"parent\":{},\"self_us\":{}",
                span.id,
                span.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                span.self_ns as f64 / 1_000.0
            );
            for (key, value) in &span.record.args {
                args.push_str(&format!(",{}:{value}", quote(key)));
            }
            args.push('}');
            events.push(format!(
                "{{\"name\":{},\"cat\":\"yv-benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{args}}}",
                quote(&span.record.name),
                span.record.start_ns as f64 / 1_000.0,
                span.record.dur_ns as f64 / 1_000.0,
                span.thread
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

/// Run `f` under a span when tracing is on, bare otherwise.
pub fn spanned<R>(
    rec: Option<&Recorder>,
    name: &str,
    args: &[(&str, u64)],
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => {
            let _span = rec.span_with(name, args);
            f()
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_obs::ManualClock;

    #[test]
    fn parents_and_self_times_follow_the_nesting() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let rec = tracer.thread("main");
        {
            let _round = rec.span_with("round", &[("req", 7)]);
            clock.advance(1_000);
            spanned(Some(&rec), "client.add", &[("req", 7)], || {
                clock.advance(3_000)
            });
            spanned(Some(&rec), "client.query", &[("req", 7)], || {
                clock.advance(5_000)
            });
            clock.advance(1_000);
        }
        spanned(Some(&rec), "shutdown", &[], || clock.advance(2_000));
        let other = tracer.thread("connection-1");
        spanned(Some(&other), "client.query", &[], || clock.advance(4_000));

        let trace = tracer.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.record.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "round",
                "client.add",
                "client.query",
                "shutdown",
                "client.query"
            ]
        );
        let parents: Vec<Option<usize>> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None, None]);
        assert_eq!(trace.spans[0].record.dur_ns, 10_000);
        assert_eq!(
            trace.spans[0].self_ns, 2_000,
            "10 us minus 3 + 5 us of children"
        );
        assert_eq!(trace.spans[4].thread, 1);

        let totals = trace.by_name(|_| true);
        assert_eq!(
            totals["client.query"],
            NameTotals {
                calls: 2,
                total_ns: 9_000,
                self_ns: 9_000
            }
        );
        assert_eq!(
            trace.by_name(|thread| thread == "main")["client.query"].calls,
            1
        );
        let notes = trace.self_time_notes("self_time", |_| true, 1);
        assert!(notes[0].starts_with("self_time client.query self_us=9 "));

        let json = trace.chrome_json();
        assert!(json.contains("\"name\":\"client.add\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0,\"self_us\":3,\"req\":7"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn untraced_calls_run_bare() {
        assert_eq!(spanned(None, "anything", &[], || 41 + 1), 42);
    }
}
