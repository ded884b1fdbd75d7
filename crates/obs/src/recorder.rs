//! Structured span recording over an injected [`Clock`].
//!
//! A [`Recorder`] collects nested, named [`SpanRecord`]s plus named
//! counters. Spans are RAII guards: [`Recorder::span`] opens one at the
//! current nesting depth, dropping (or [`Span::finish`]ing) it closes it.
//! With a [`ManualClock`] the recorded stream — and every rendering of it
//! — is deterministic and byte-identical across runs, which is how the
//! instrumented pipeline stays testable.

use crate::clock::{Clock, ManualClock, MonotonicClock};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Clock reading when the span opened.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Optional structured arguments (e.g. the minsup level of a mining
    /// iteration).
    pub args: Vec<(String, u64)>,
}

impl SpanRecord {
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    depth: usize,
    counters: BTreeMap<String, u64>,
}

/// Collects spans and counters against an injected clock.
#[derive(Debug)]
pub struct Recorder {
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
}

impl Recorder {
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> Recorder {
        Recorder { clock, inner: Mutex::new(Inner::default()) }
    }

    /// A recorder over the real clock — what production paths use.
    #[must_use]
    pub fn monotonic() -> Recorder {
        Recorder::new(Arc::new(MonotonicClock::new()))
    }

    /// A recorder over a [`ManualClock`], returned alongside the clock
    /// handle so tests can advance time explicitly.
    #[must_use]
    pub fn manual() -> (Recorder, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Recorder::new(Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }

    /// The injected clock's current reading.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Span bookkeeping never panics while holding the lock; recover
        // the data rather than poisoning the whole recorder if a caller's
        // panic unwinds through a guard drop.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span at the current depth. Close it by dropping the guard
    /// or calling [`Span::finish`] to also get the duration back.
    #[must_use]
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with(name, &[])
    }

    /// Open a span carrying structured arguments.
    #[must_use]
    pub fn span_with(&self, name: &str, args: &[(&str, u64)]) -> Span<'_> {
        let depth = {
            let mut inner = self.lock();
            let d = inner.depth;
            inner.depth += 1;
            d
        };
        Span {
            recorder: self,
            open: Some(OpenSpan {
                name: name.to_owned(),
                args: args.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
                depth,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Record an already-measured span (for stages whose duration is
    /// accumulated across a fused loop rather than bracketed by a guard).
    pub fn record_span(&self, name: &str, start_ns: u64, dur_ns: u64) {
        let mut inner = self.lock();
        let depth = inner.depth;
        inner.spans.push(SpanRecord {
            name: name.to_owned(),
            depth,
            start_ns,
            dur_ns,
            args: Vec::new(),
        });
    }

    fn close(&self, open: OpenSpan) -> u64 {
        let end = self.now_ns();
        let dur_ns = end.saturating_sub(open.start_ns);
        let mut inner = self.lock();
        inner.depth = inner.depth.saturating_sub(1);
        inner.spans.push(SpanRecord {
            name: open.name,
            depth: open.depth,
            start_ns: open.start_ns,
            dur_ns,
            args: open.args,
        });
        dur_ns
    }

    /// Add `by` to the named counter.
    pub fn incr(&self, name: &str, by: u64) {
        *self.lock().counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of a counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name (BTreeMap order — deterministic).
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock().counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Completed spans in (start, depth) order, so parents precede their
    /// children even though children close first.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.lock().spans.clone();
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(a.depth.cmp(&b.depth))
                .then(a.name.cmp(&b.name))
        });
        spans
    }

    /// Total recorded nanoseconds across all spans with this name.
    #[must_use]
    pub fn sum_ns(&self, name: &str) -> u64 {
        self.lock().spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum()
    }

    /// Time a closure under a named span.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    args: Vec<(String, u64)>,
    depth: usize,
    start_ns: u64,
}

/// RAII guard for an open span.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a Recorder,
    open: Option<OpenSpan>,
}

impl Span<'_> {
    /// Close the span now and return its duration in nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.open.take().map_or(0, |open| self.recorder.close(open))
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.recorder.close(open);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth() {
        let (rec, clock) = Recorder::manual();
        let root = rec.span("root");
        clock.advance(100);
        {
            let inner = rec.span_with("child", &[("minsup", 5)]);
            clock.advance(50);
            assert_eq!(inner.finish(), 50);
        }
        clock.advance(10);
        assert_eq!(root.finish(), 160);

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].dur_ns, 160);
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].start_ns, 100);
        assert_eq!(spans[1].dur_ns, 50);
        assert_eq!(spans[1].args, vec![("minsup".to_owned(), 5)]);
    }

    #[test]
    fn drop_closes_like_finish() {
        let (rec, clock) = Recorder::manual();
        {
            let _span = rec.span("scoped");
            clock.advance(30);
        }
        assert_eq!(rec.sum_ns("scoped"), 30);
        // Depth returned to 0: a new span opens at top level.
        let s = rec.span("after");
        s.finish();
        assert_eq!(rec.spans().last().map(|s| s.depth), Some(0));
    }

    #[test]
    fn counters_accumulate_sorted() {
        let (rec, _clock) = Recorder::manual();
        rec.incr("zeta", 2);
        rec.incr("alpha", 1);
        rec.incr("zeta", 3);
        assert_eq!(rec.counter("zeta"), 5);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(
            rec.counters(),
            vec![("alpha".to_owned(), 1), ("zeta".to_owned(), 5)]
        );
    }

    #[test]
    fn time_helper_brackets_the_closure() {
        let (rec, clock) = Recorder::manual();
        let out = rec.time("work", || {
            clock.advance(7);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(rec.sum_ns("work"), 7);
    }

    #[test]
    fn record_span_uses_current_depth() {
        let (rec, _clock) = Recorder::manual();
        let root = rec.span("root");
        rec.record_span("accumulated", 5, 9);
        root.finish();
        let spans = rec.spans();
        let acc = spans.iter().find(|s| s.name == "accumulated").map(|s| (s.depth, s.dur_ns));
        assert_eq!(acc, Some((1, 9)));
    }
}
