//! Request-scoped tracing: per-request span capture with a deterministic
//! trace id.
//!
//! A [`TraceCtx`] rides one request from accept to reply. It is owned by
//! exactly one worker thread for its whole life, so unlike [`Recorder`]
//! (which shares a span vector across threads behind a mutex) it needs no
//! locking at all: `enter`/`exit`/`arg` are plain writes into
//! fixed-capacity arrays. When the request finishes, the context folds
//! into a [`RequestTrace`] — a `Copy`, heap-free value — and is handed
//! to the capture store ([`crate::ring::TraceSink`]).
//!
//! Trace ids come from a [`TraceIdGen`]: a seeded splitmix64 permutation
//! of an atomic counter. No wall clock, no OS randomness — the id
//! sequence for a given seed is fixed, so tests replay byte-identical
//! `TRACE` renderings.
//!
//! [`Recorder`]: crate::recorder::Recorder

use crate::clock::{Clock, ManualClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Spans a [`RequestTrace`] can hold. A request records one span per
/// protocol stage (five today) plus any nested children; overflow increments
/// [`RequestTrace::dropped_spans`] instead of allocating.
pub const MAX_TRACE_SPANS: usize = 24;

/// Key/value annotations per span (and per request root).
pub const MAX_SPAN_ARGS: usize = 4;

/// Sentinel meaning "no shard" in a span's shard slot.
const NO_SHARD: u32 = u32::MAX;

/// One stage of a request: a static name, tree depth, optional shard
/// index, absolute start (clock nanoseconds) and duration, plus up to
/// [`MAX_SPAN_ARGS`] integer annotations. Entirely `Copy` — names and
/// arg keys are `&'static str`, values are integers — so no request text
/// can enter a span and recording one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    pub name: &'static str,
    /// Nesting depth: 0 for protocol stages, 1 for their children.
    pub depth: u8,
    shard: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    args: [(&'static str, u64); MAX_SPAN_ARGS],
    arg_count: u8,
}

impl TraceSpan {
    const EMPTY: TraceSpan = TraceSpan {
        name: "",
        depth: 0,
        shard: NO_SHARD,
        start_ns: 0,
        dur_ns: 0,
        args: [("", 0); MAX_SPAN_ARGS],
        arg_count: 0,
    };

    /// The shard this span worked on, if it names one.
    #[must_use]
    pub fn shard(&self) -> Option<u32> {
        if self.shard == NO_SHARD {
            None
        } else {
            Some(self.shard)
        }
    }

    /// The span's annotations, in insertion order.
    #[must_use]
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..usize::from(self.arg_count)]
    }

    fn push_arg(&mut self, key: &'static str, value: u64) {
        if usize::from(self.arg_count) < MAX_SPAN_ARGS {
            self.args[usize::from(self.arg_count)] = (key, value);
            self.arg_count += 1;
        }
    }
}

/// A completed request's trace: identity, outcome, and the span tree.
/// `Copy` and heap-free by construction: static names and `u64` args are
/// what keeps a victim's name structurally out of every trace, and a
/// capture into [`crate::ring::TraceSink`] is a plain copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace id (never 0; 0 means "untraced").
    pub id: u64,
    /// Server connection the request arrived on.
    pub conn: u64,
    /// Canonical command name (a static protocol string).
    pub command: &'static str,
    /// False when the request answered `ERR`.
    pub ok: bool,
    /// Clock reading at accept, nanoseconds. Span starts are absolute on
    /// the same clock; renderers subtract to show request-relative time.
    pub start_ns: u64,
    /// Accept-to-reply duration, nanoseconds.
    pub total_ns: u64,
    spans: [TraceSpan; MAX_TRACE_SPANS],
    span_count: u8,
    /// Spans discarded once the fixed capacity filled.
    pub dropped_spans: u16,
    args: [(&'static str, u64); MAX_SPAN_ARGS],
    arg_count: u8,
}

impl RequestTrace {
    /// A zeroed placeholder (id 0) for a trace under construction.
    #[must_use]
    pub const fn empty() -> RequestTrace {
        RequestTrace {
            id: 0,
            conn: 0,
            command: "",
            ok: true,
            start_ns: 0,
            total_ns: 0,
            spans: [TraceSpan::EMPTY; MAX_TRACE_SPANS],
            span_count: 0,
            dropped_spans: 0,
            args: [("", 0); MAX_SPAN_ARGS],
            arg_count: 0,
        }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans[..usize::from(self.span_count)]
    }

    /// Request-level annotations (e.g. the argument digest).
    #[must_use]
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..usize::from(self.arg_count)]
    }
}

/// Seeded deterministic trace-id generator: splitmix64 over an atomic
/// counter. Ids are never 0 and, for a fixed seed, form a fixed
/// sequence — restarting a test server replays the same ids.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    counter: AtomicU64,
}

/// The splitmix64 finalizer: a bijective mix, so distinct counter values
/// never collide for one seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceIdGen {
    #[must_use]
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen { seed, counter: AtomicU64::new(0) }
    }

    /// The next trace id. Lock-free (one relaxed `fetch_add`).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // 0 is the "untraced" sentinel; remap the (at most one per seed)
        // counter value that lands there.
        if id == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            id
        }
    }
}

/// A per-request trace under construction. Single-owner (one worker
/// thread), so every operation is a plain array write — no atomics, no
/// locks, no allocation. Construct with [`TraceCtx::start`] at accept,
/// thread `&mut` through the stages, and [`TraceCtx::finish`] at reply.
///
/// A [`TraceCtx::disabled`] context makes every operation an early
/// return, so the traced code paths (`Store::query_traced`,
/// `Store::resolve_traced`) serve untraced callers at full speed.
#[derive(Debug)]
pub struct TraceCtx {
    clock: Arc<dyn Clock>,
    enabled: bool,
    trace: RequestTrace,
    /// Stack of indices into `trace.spans` for open spans;
    /// `u8::MAX` marks an open span that overflowed the array.
    open: [u8; MAX_TRACE_SPANS],
    open_count: u8,
}

impl TraceCtx {
    /// Begin tracing a request: stamps the accept time from `clock`.
    #[must_use]
    pub fn start(id: u64, conn: u64, clock: Arc<dyn Clock>) -> TraceCtx {
        let mut trace = RequestTrace::empty();
        trace.id = id;
        trace.conn = conn;
        trace.start_ns = clock.now_nanos();
        TraceCtx {
            clock,
            enabled: true,
            trace,
            open: [0; MAX_TRACE_SPANS],
            open_count: 0,
        }
    }

    /// A no-op context: every method returns immediately and
    /// [`TraceCtx::finish`] yields `None`. Costs one small allocation
    /// (the clock arc) and nothing per operation.
    #[must_use]
    pub fn disabled() -> TraceCtx {
        TraceCtx {
            clock: Arc::new(ManualClock::new()),
            enabled: false,
            trace: RequestTrace::empty(),
            open: [0; MAX_TRACE_SPANS],
            open_count: 0,
        }
    }

    /// The request's trace id (0 when disabled).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.trace.id
    }

    /// True when this context records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Name the command once parsing identified it.
    pub fn set_command(&mut self, command: &'static str) {
        self.trace.command = command;
    }

    /// Open a span. Depth is the number of currently open ancestors.
    pub fn enter(&mut self, name: &'static str) {
        self.enter_at(name, None);
    }

    /// Open a span annotated with the shard it works on.
    pub fn enter_shard(&mut self, name: &'static str, shard: u32) {
        self.enter_at(name, Some(shard));
    }

    fn enter_at(&mut self, name: &'static str, shard: Option<u32>) {
        if !self.enabled || usize::from(self.open_count) >= MAX_TRACE_SPANS {
            return;
        }
        let depth = self.open_count;
        let slot = if usize::from(self.trace.span_count) < MAX_TRACE_SPANS {
            let i = self.trace.span_count;
            self.trace.spans[usize::from(i)] = TraceSpan {
                name,
                depth,
                shard: shard.unwrap_or(NO_SHARD),
                start_ns: self.clock.now_nanos(),
                dur_ns: 0,
                args: [("", 0); MAX_SPAN_ARGS],
                arg_count: 0,
            };
            self.trace.span_count += 1;
            i
        } else {
            self.trace.dropped_spans = self.trace.dropped_spans.saturating_add(1);
            u8::MAX
        };
        self.open[usize::from(self.open_count)] = slot;
        self.open_count += 1;
    }

    /// Annotate the innermost open span. Silently capped at
    /// [`MAX_SPAN_ARGS`]; no-op when no span is open.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if !self.enabled || self.open_count == 0 {
            return;
        }
        let slot = self.open[usize::from(self.open_count - 1)];
        if slot != u8::MAX {
            self.trace.spans[usize::from(slot)].push_arg(key, value);
        }
    }

    /// Annotate the request itself (rendered on the `TRACE` status
    /// line). Name-derived values must be digested first — pass
    /// `fnv1a64(name)` — which the type enforces by taking only `u64`.
    pub fn annotate(&mut self, key: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        if usize::from(self.trace.arg_count) < MAX_SPAN_ARGS {
            self.trace.args[usize::from(self.trace.arg_count)] = (key, value);
            self.trace.arg_count += 1;
        }
    }

    /// Close the innermost open span, stamping its duration.
    pub fn exit(&mut self) {
        if !self.enabled || self.open_count == 0 {
            return;
        }
        self.open_count -= 1;
        let slot = self.open[usize::from(self.open_count)];
        if slot != u8::MAX {
            let span = &mut self.trace.spans[usize::from(slot)];
            span.dur_ns = self.clock.now_nanos().saturating_sub(span.start_ns);
        }
    }

    /// Seal the trace: closes any spans left open, stamps the total
    /// duration and outcome. Returns `None` for a disabled context.
    #[must_use]
    pub fn finish(mut self, ok: bool) -> Option<RequestTrace> {
        if !self.enabled {
            return None;
        }
        while self.open_count > 0 {
            self.exit();
        }
        self.trace.ok = ok;
        self.trace.total_ns = self.clock.now_nanos().saturating_sub(self.trace.start_ns);
        Some(self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_ctx() -> (TraceCtx, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let ctx = TraceCtx::start(0xabcd, 7, Arc::clone(&clock) as Arc<dyn Clock>);
        (ctx, clock)
    }

    #[test]
    fn id_sequence_is_deterministic_per_seed_and_never_zero() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..64).map(|_| a.next_id()).collect();
        let again: Vec<u64> = (0..64).map(|_| b.next_id()).collect();
        assert_eq!(ids, again);
        assert!(ids.iter().all(|&id| id != 0));
        // Distinct seeds diverge immediately.
        let c = TraceIdGen::new(43);
        assert_ne!(ids[0], c.next_id());
        // Ids within a seed are distinct (splitmix64 is bijective).
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn spans_nest_with_depth_shard_and_args() {
        let (mut ctx, clock) = manual_ctx();
        ctx.set_command("RESOLVE");
        ctx.annotate("name_digest", 0x1234);
        ctx.enter("shard_fanout");
        clock.advance(1_000);
        ctx.enter_shard("shard", 2);
        ctx.arg("cands", 5);
        clock.advance(2_000);
        ctx.exit();
        clock.advance(500);
        ctx.exit();
        clock.advance(100);
        let trace = ctx.finish(true).expect("enabled");
        assert_eq!(trace.id, 0xabcd);
        assert_eq!(trace.conn, 7);
        assert_eq!(trace.command, "RESOLVE");
        assert!(trace.ok);
        assert_eq!(trace.total_ns, 3_600);
        assert_eq!(trace.args(), &[("name_digest", 0x1234)]);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "shard_fanout");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].shard(), None);
        assert_eq!(spans[0].dur_ns, 3_500);
        assert_eq!(spans[1].name, "shard");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].shard(), Some(2));
        assert_eq!(spans[1].start_ns, 1_000);
        assert_eq!(spans[1].dur_ns, 2_000);
        assert_eq!(spans[1].args(), &[("cands", 5)]);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let (mut ctx, clock) = manual_ctx();
        ctx.enter("reply");
        clock.advance(700);
        let trace = ctx.finish(false).expect("enabled");
        assert!(!trace.ok);
        assert_eq!(trace.spans()[0].dur_ns, 700);
    }

    #[test]
    fn span_overflow_counts_drops_and_keeps_exits_balanced() {
        let (mut ctx, clock) = manual_ctx();
        for _ in 0..MAX_TRACE_SPANS + 5 {
            ctx.enter("s");
            clock.advance(1);
        }
        for _ in 0..MAX_TRACE_SPANS + 5 {
            ctx.exit();
        }
        let trace = ctx.finish(true).expect("enabled");
        // Depth is capped at the open-stack size, so the deepest entries
        // never even open; everything that did open was recorded.
        assert_eq!(trace.spans().len(), MAX_TRACE_SPANS);
        assert_eq!(trace.dropped_spans, 0);
        // A wide (not deep) request overflows the span array instead.
        let (mut ctx, _clock) = manual_ctx();
        for _ in 0..MAX_TRACE_SPANS + 3 {
            ctx.enter("w");
            ctx.exit();
        }
        let trace = ctx.finish(true).expect("enabled");
        assert_eq!(trace.spans().len(), MAX_TRACE_SPANS);
        assert_eq!(trace.dropped_spans, 3);
    }

    #[test]
    fn disabled_context_records_nothing() {
        let mut ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.id(), 0);
        ctx.set_command("QUERY");
        ctx.enter("parse");
        ctx.arg("k", 1);
        ctx.annotate("digest", 2);
        ctx.exit();
        assert!(ctx.finish(true).is_none());
    }
}
