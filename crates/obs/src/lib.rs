//! # yv-obs
//!
//! Zero-dependency structured tracing and metrics for the uncertain-ER
//! stack. The paper's whole evaluation (Section 6) is about *measured*
//! behaviour — blocking quality and mining runtime across minsup levels —
//! so every pipeline stage and the query server report through this crate.
//!
//! The pieces:
//!
//! - [`Clock`] / [`MonotonicClock`] / [`ManualClock`] — clock injection.
//!   This crate is the **only sanctioned wall-clock owner** in the
//!   workspace: clippy's `disallowed-methods` bans `Instant::now` everywhere else,
//!   so deterministic code can only read time through an injected clock
//!   (and tests substitute a [`ManualClock`] for byte-identical traces).
//! - [`Recorder`] / [`Span`] — nested named spans plus counters. Blocking
//!   records per-minsup-iteration spans (`mine`, `find_support`, `score`,
//!   `ng_filter`), the pipeline records stage spans (`blocking`,
//!   `extract`, `score`, `resolve`).
//! - [`Histogram`] / [`Counter`] — lock-free fixed-bucket latency
//!   histograms, shared across `yv serve` workers and reported per command
//!   kind in `STATS`. Every read goes through a consistent
//!   [`HistogramSnapshot`], which carries the p50/p95/p99 summary and
//!   merges exactly.
//! - [`TraceCtx`] / [`TraceSink`] — request-scoped tracing: seeded
//!   deterministic trace ids, single-owner per-request span capture
//!   ([`RequestTrace`] is `Copy` and heap-free), and one mutexed capture
//!   store of two bounded windows (recent, and slow-or-ERR), surfaced by
//!   `yv serve` as `TOP`/`TRACE` protocol commands.
//! - [`WindowedHistogram`] / [`SloRule`] — windowed telemetry: a ring of
//!   per-second snapshot deltas (60 × 1 s) rotated lazily from the
//!   injected clock, plus multi-window SLO burn-rate evaluation
//!   (`ok`/`warning`/`firing`), surfaced by `yv serve` as the `HISTORY`
//!   command and `yv_slo_*` gauges.
//! - [`render_prometheus`] / [`Sample`] — the Prometheus text-format
//!   (0.0.4) renderer: the caller reads each counter, gauge and
//!   histogram off its source at scrape time and renders the list in one
//!   call, as `yv serve`'s `METRICS` command and `--metrics-addr` sidecar
//!   listener do.
//! - [`alloc_stats`] / [`CountingAlloc`] — allocation accounting via a
//!   counting global allocator, installed by the `global-alloc` feature
//!   (forwarded by `yv-cli`'s default `alloc-metrics` feature).
//! - [`par::Workers`] / [`par::for_each_run`] — the one splitter: each
//!   stage's thread count, and runs of its items handed out to that many
//!   threads. The miner and its merge (`yv-mfi`), support lookup, block
//!   bounds and scoring (`yv-blocking`) and pair scoring (`yv-core`) split
//!   through it; `Store::open` (`yv-store`) takes its count from it.
//! - [`chrome_trace`] / [`timings_table`] — sinks: Chrome-trace JSON
//!   (`yv block --trace-json out.json`) and a human stage table
//!   (`yv block --timings`).
//!
//! ```
//! use yv_obs::Recorder;
//!
//! let (rec, clock) = Recorder::manual();
//! {
//!     let _stage = rec.span("mine");
//!     clock.advance(1_000_000); // tests control time explicitly
//! }
//! rec.incr("mfis_mined", 42);
//! assert_eq!(rec.sum_ns("mine"), 1_000_000);
//! assert!(yv_obs::chrome_trace(&rec).contains("\"name\":\"mine\""));
//! ```

// Library code behind `yv serve` propagates errors; it does not panic.
// (`unwrap_used` is denied workspace-wide; tests are exempt via clippy.toml.)
// Nor does it print: what an operator reads goes through a sink the
// caller handed in, so a victim's name cannot reach a terminal or a log
// by way of a stray `println!`.
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

#[allow(
    unsafe_code,
    reason = "the counting allocator implements `GlobalAlloc`, which cannot be done without it; \
              nothing else in the workspace opts out of the deny"
)]
pub mod alloc;
pub mod clock;
pub mod ctx;
pub mod exposition;
pub mod histogram;
pub mod par;
pub mod recorder;
pub mod ring;
pub mod trace;
pub mod window;

pub use alloc::{alloc_stats, reset_peak, AllocStats, CountingAlloc};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use ctx::{RequestTrace, TraceCtx, TraceIdGen, TraceSpan, MAX_SPAN_ARGS, MAX_TRACE_SPANS};
pub use exposition::{render_prometheus, Sample};
pub use histogram::{Counter, Histogram, HistogramSnapshot, LatencySummary, BUCKET_COUNT};
pub use recorder::{Recorder, Span, SpanRecord};
pub use ring::{RingStats, TraceSink};
pub use trace::{chrome_trace, timings_table};
pub use window::{SloRule, SloState, SloStatus, WindowView, WindowedHistogram, WINDOW_BUCKETS};
