//! Concurrent line-protocol server over a [`Store`].
//!
//! Architecture: the calling thread accepts connections and feeds them
//! through a channel to a scoped worker pool. Workers share
//! the store as a plain `&Store` — the store's own per-shard and
//! state locks (see [`Store`]) replace the whole-store `RwLock` an
//! earlier design used, so `ADD`s routed to distinct shards overlap
//! their WAL fsyncs instead of serializing, and reads wait on neither. `SHUTDOWN` sets a flag and
//! self-connects to unblock the acceptor(s); once the pool drains, the
//! WALs are flushed into a fresh snapshot and the store is handed back
//! to the caller.
//!
//! Configuration is the [`ServeOptions`] builder:
//!
//! ```no_run
//! # use yv_store::{ServeOptions, Store};
//! # use std::net::TcpListener;
//! # let store = Store::open(std::path::Path::new("people.store"))?;
//! let listener = TcpListener::bind("127.0.0.1:7878")?;
//! let store = ServeOptions::new(store)
//!     .workers(8)
//!     .slow_us(5_000)
//!     .serve(listener)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Observability: every command kind keeps its own counters and latency
//! histogram, and the Prometheus text exposition is rendered from those
//! and the store's, ring's and allocator's own readings at scrape time
//! ([`yv_obs::render_prometheus`]). It is scraped two ways — the
//! `METRICS` protocol command, and (via [`ServeOptions::metrics_listener`])
//! a sidecar TCP listener answering `GET /metrics` in plain HTTP/1.1, so a
//! stock Prometheus scraper needs no protocol client. Per-shard gauges
//! (`yv_shard_<i>_records` / `_wal_bytes`) expose the shard balance.
//! Requests slower than [`ServeOptions::slow_us`] are logged as one JSON
//! line each, into a size-capped, rotating file when
//! [`ServeOptions::slow_log_file`] is set.
//!
//! Windowed telemetry: every command's latency histogram additionally
//! feeds a [`WindowedHistogram`] (an in-memory ring of 60 one-second
//! snapshot deltas) kept beside it. A tick thread rotates the windows
//! from the injected clock; `METRICS` evaluates the [`SloRule`]s from
//! [`ServeOptions::slo`] over them and renders their burn-rate state as
//! `yv_slo_*` gauges. The `HISTORY` command serves the recent-window
//! rollups; rotation is *lazy and idempotent*, so `HISTORY`/`METRICS`
//! stay correct under a [`yv_obs::ManualClock`] where the ticker never
//! observes time moving.
//! Nothing of the windows is persisted: a restarted server starts with
//! an empty history.

use crate::error::StoreError;
use crate::frame::{self, BatchStatus, RequestFrame, ResponseFrame};
use crate::protocol::{
    self, Command, CommandStats, HistoryReport, SlowRow, StatsReport, TopReport, COMMANDS,
    DEFAULT_TOP_SLOW,
};
use crate::store::{Store, DEFAULT_RESOLVE_K};
use crate::sync::Mutex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use yv_obs::{
    Clock, Counter, Histogram, MonotonicClock, Sample, SloRule, SloStatus, TraceCtx, TraceSink,
    WindowedHistogram, WINDOW_BUCKETS,
};

/// Most recent traces the capture ring retains; its slow-or-ERR window
/// holds a quarter of that (minimum 16). Memory grows with the traces
/// actually captured, up to `(capacity + max(capacity / 4, 16)) ×
/// size_of::<RequestTrace>()` — 3 416 B each, ≈ 2.1 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 512;

/// Default seed for the deterministic trace-id generator.
pub const DEFAULT_TRACE_SEED: u64 = 0x7976_5f74_7261_6365; // "yv_trace"

/// Default size cap for the slow-request JSONL log before it rotates.
pub const DEFAULT_SLOW_LOG_CAP_BYTES: u64 = 8 * 1024 * 1024;

/// Interval of the window-rotation tick thread (real time).
const TICK_MILLIS: u64 = 250;

/// Longest text request line accepted, newline included. An `ADD` with
/// every text-encodable field is a few hundred bytes; a peer that sends
/// this much without a newline gets an `ERR` and is disconnected, so it
/// cannot grow a worker's line buffer without bound (the binary path
/// refuses past [`frame::MAX_PAYLOAD`] the same way).
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One command kind's metrics: success/error counters, a lock-free
/// latency histogram (percentiles via
/// [`yv_obs::HistogramSnapshot::summary`]) and that histogram's 60 × 1 s
/// [`WindowedHistogram`]. Latency covers the full command — lock
/// acquisition included — so `STATS` reflects what clients actually wait,
/// not just the critical section. A scrape renders the set as
/// `yv_cmd_{kind}_ok_total` / `yv_cmd_{kind}_errors_total` /
/// `yv_cmd_{kind}_latency_us`.
#[derive(Debug)]
struct CommandMetrics {
    ok: Counter,
    errors: Counter,
    latency: Arc<Histogram>,
    window: WindowedHistogram,
}

impl CommandMetrics {
    fn new(clock: &Arc<dyn Clock>) -> CommandMetrics {
        let latency = Arc::new(Histogram::new());
        let window = WindowedHistogram::new(Arc::clone(&latency), Arc::clone(clock));
        CommandMetrics { ok: Counter::new(), errors: Counter::new(), latency, window }
    }

    fn record(&self, ok: bool, dur_ns: u64) {
        if ok {
            self.ok.incr();
        } else {
            self.errors.incr();
        }
        self.latency.record_ns(dur_ns);
    }

    /// One `CMD` stats row. Count, mean and percentiles all derive from a
    /// single histogram snapshot, so the row is internally consistent even
    /// while other workers keep recording; `count` is therefore the
    /// measured-request total (successes and errors alike).
    fn stats(&self, name: &'static str) -> CommandStats {
        let summary = self.latency.snapshot().summary();
        CommandStats {
            name,
            count: summary.count,
            errors: self.errors.get(),
            mean_us: summary.mean_us,
            p50_us: summary.p50_us,
            p95_us: summary.p95_us,
            p99_us: summary.p99_us,
            max_us: summary.max_us,
        }
    }
}

/// The server's metrics: one [`CommandMetrics`] per command kind, the
/// parse-failure counter, and the SLO rules evaluated over the command
/// windows (at most one per kind, see [`check_slo`]).
///
/// A mean over a mixed QUERY/ADD/SNAPSHOT stream is dominated by
/// whichever command runs most and hides tail latency entirely, so each
/// kind keeps its own counters and histogram; `STATS`, `METRICS` and the
/// scrape sidecar all read these same sources. Every window read
/// (`HISTORY`, `METRICS`, the SLO evaluator, the tick thread) rotates all
/// windows through [`ServerMetrics::rotate`] first, so a bucket boundary
/// closes at the same point for every kind.
#[derive(Debug)]
struct ServerMetrics {
    /// One set per row of [`COMMANDS`]; read through [`Self::of`].
    commands: [CommandMetrics; 10],
    /// Request lines that never parsed into a command.
    parse_errors: Counter,
    slo: Vec<SloRule>,
}

impl ServerMetrics {
    fn new(clock: &Arc<dyn Clock>, slo: Vec<SloRule>) -> ServerMetrics {
        ServerMetrics {
            commands: COMMANDS.map(|_| CommandMetrics::new(clock)),
            parse_errors: Counter::new(),
            slo,
        }
    }

    /// The set `command` records under. Each record of a `BATCH_ADD`
    /// frame counts as one [`Command::Add`].
    fn of(&self, command: Command) -> &CommandMetrics {
        &self.commands[command as usize]
    }

    /// Per-command stats rows in protocol order.
    fn command_stats(&self) -> [CommandStats; 10] {
        std::array::from_fn(|i| self.commands[i].stats(COMMANDS[i].1))
    }

    /// Total failed requests (parse failures plus per-command errors).
    fn errors(&self) -> u64 {
        self.parse_errors.get() + self.commands.iter().map(|c| c.errors.get()).sum::<u64>()
    }

    /// The window of the command kind `metric` names, through its
    /// [`COMMANDS`] row.
    fn window(&self, metric: &str) -> Option<&WindowedHistogram> {
        let row = COMMANDS.iter().position(|(kind, _)| *kind == metric)?;
        Some(&self.commands[row].window)
    }

    /// Rotate every window. Idempotent: a second call at the same
    /// instant changes nothing.
    fn rotate(&self) {
        for c in &self.commands {
            c.window.rotate();
        }
    }

    /// The `HISTORY` report: `metric`'s windowed view and its rule,
    /// evaluated. `None` for a metric the server does not track.
    fn history(&self, metric: &str, window: usize) -> Option<HistoryReport> {
        self.rotate();
        let view = self.window(metric)?.window(window);
        let slo = self.slo.iter().filter(|rule| rule.metric == metric);
        let slo = slo.filter_map(|rule| Some((rule.clone(), self.evaluate(rule)?))).collect();
        Some(HistoryReport::new(metric, &view, slo))
    }

    fn evaluate(&self, rule: &SloRule) -> Option<SloStatus> {
        let w = self.window(&rule.metric)?;
        let long = w.window(rule.window).merged;
        let short = w.window(rule.short_window()).merged;
        Some(rule.evaluate(&long, &short))
    }

    /// The per-command series, `yv_cmd_parse_errors_total` and each
    /// rule's `yv_slo_<metric>_*` gauges, read now.
    fn samples(&self) -> Vec<Sample> {
        let mut samples = Vec::new();
        for (c, (kind, display)) in self.commands.iter().zip(COMMANDS) {
            samples.extend([
                Sample::counter(
                    format!("yv_cmd_{kind}_ok_total"),
                    format!("{display} requests answered successfully"),
                    c.ok.get(),
                ),
                Sample::counter(
                    format!("yv_cmd_{kind}_errors_total"),
                    format!("{display} requests answered with an error"),
                    c.errors.get(),
                ),
                Sample::histogram(
                    format!("yv_cmd_{kind}_latency_us"),
                    format!("{display} request latency (power-of-two microsecond buckets)"),
                    c.latency.snapshot(),
                ),
            ]);
        }
        samples.push(Sample::counter(
            "yv_cmd_parse_errors_total",
            "Request lines that never parsed into a command",
            self.parse_errors.get(),
        ));
        self.rotate();
        for rule in &self.slo {
            let Some(status) = self.evaluate(rule) else { continue };
            let m = &rule.metric;
            samples.extend([
                Sample::gauge(
                    format!("yv_slo_{m}_state"),
                    "SLO burn-rate state (0 ok, 1 warning, 2 firing)",
                    status.state.as_u64(),
                ),
                Sample::gauge(
                    format!("yv_slo_{m}_burn_long_pct"),
                    "Long-window SLO burn rate (percent of error budget consumed)",
                    status.burn_long_pct,
                ),
                Sample::gauge(
                    format!("yv_slo_{m}_burn_short_pct"),
                    "Short-window SLO burn rate (percent of error budget consumed)",
                    status.burn_short_pct,
                ),
                Sample::gauge(
                    format!("yv_slo_{m}_threshold_us"),
                    "SLO latency threshold (microseconds)",
                    rule.threshold_us,
                ),
            ]);
        }
        samples
    }
}

/// Structured slow-request logging: every request at or above the
/// threshold emits one JSON line (connection id, canonical command name,
/// FNV-1a 64 digest of the argument text, latency, trace id). The command
/// name is a static protocol string and the digest and trace id are hex,
/// so no JSON escaping is needed and raw client input — which may hold
/// victims' names — never reaches the log. The trace id is the same one
/// the client saw in its `trace=` token, so a logged slow request can be
/// looked up with `TRACE <id>` while it is still in the ring.
///
/// A file log is **size-capped**: once `cap_bytes` of lines have been
/// written it renames itself to `<path>.1` (replacing the previous
/// generation, so disk usage is bounded at roughly `2 × cap_bytes`) and
/// reopens fresh. Rotations are counted and surfaced as the
/// `yv_slow_log_rotations` gauge. Any other writer (stderr, a test buffer)
/// has nothing to rename and is written without a cap.
struct SlowLog {
    threshold_ns: u64,
    cap_bytes: u64,
    rotations: AtomicU64,
    sink: Mutex<SlowSink>,
}

/// Where slow-request lines go: one writer, and the file it appends to
/// when there is one to rotate, with the bytes written since the last
/// rotation tracked alongside the handle they guard.
struct SlowSink {
    out: Box<dyn Write + Send>,
    path: Option<PathBuf>,
    written: u64,
}

impl SlowLog {
    fn new(threshold_us: u64, sink: SlowSink, cap_bytes: u64) -> SlowLog {
        SlowLog {
            threshold_ns: threshold_us.saturating_mul(1_000),
            cap_bytes: cap_bytes.max(1),
            rotations: AtomicU64::new(0),
            sink: Mutex::new(sink),
        }
    }

    fn stream(threshold_us: u64, out: Box<dyn Write + Send>) -> SlowLog {
        SlowLog::new(threshold_us, SlowSink { out, path: None, written: 0 }, u64::MAX)
    }

    fn file(threshold_us: u64, path: &std::path::Path, cap_bytes: u64) -> Result<SlowLog, StoreError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let out = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let written = out.metadata()?.len();
        let sink = SlowSink { out: Box::new(out), path: Some(path.to_path_buf()), written };
        Ok(SlowLog::new(threshold_us, sink, cap_bytes))
    }

    /// Lifetime rotations performed by this log.
    fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    fn log(&self, conn: u64, command: &'static str, args_digest: u64, dur_ns: u64, trace: u64) {
        let line = format!(
            "{{\"slow_request\":true,\"conn\":{conn},\"command\":\"{command}\",\
             \"args_digest\":\"{args_digest:016x}\",\"latency_us\":{},\
             \"trace\":\"{trace:016x}\"}}\n",
            dur_ns / 1_000
        );
        // The line is formatted before the lock; the lock serializes the
        // rotate-check, write and flush.
        let mut sink = self.sink.lock();
        let SlowSink { out, path, written } = &mut *sink;
        if let Some(path) = path {
            if *written + line.len() as u64 > self.cap_bytes {
                let _ = out.flush();
                let mut aside = path.clone().into_os_string();
                aside.push(".1");
                if std::fs::rename(path.as_path(), PathBuf::from(aside)).is_ok() {
                    if let Ok(fresh) =
                        std::fs::OpenOptions::new().create(true).append(true).open(path.as_path())
                    {
                        *out = Box::new(fresh);
                        *written = 0;
                        self.rotations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        *written += line.len() as u64;
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// Builder-style server configuration, owning the [`Store`] it will
/// serve. Construct with [`ServeOptions::new`], chain the knobs, finish
/// with [`ServeOptions::serve`]:
///
/// ```no_run
/// # use yv_store::{ServeOptions, Store};
/// # use std::net::TcpListener;
/// # let store = Store::open(std::path::Path::new("people.store"))?;
/// # let listener = TcpListener::bind("127.0.0.1:0")?;
/// let store = ServeOptions::new(store).workers(4).serve(listener)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ServeOptions {
    store: Option<Store>,
    workers: usize,
    slow_us: Option<u64>,
    metrics_listener: Option<TcpListener>,
    slow_log: Option<Box<dyn Write + Send>>,
    slow_log_path: Option<PathBuf>,
    trace_capture: bool,
    clock: Option<Arc<dyn Clock>>,
    slo: Vec<SloRule>,
}

impl ServeOptions {
    /// Start configuring a server over `store`, with the defaults: 4
    /// workers, no slow log, no scrape sidecar, a
    /// [`DEFAULT_TRACE_CAPACITY`]-slot trace ring with capture on.
    #[must_use]
    pub fn new(store: Store) -> ServeOptions {
        ServeOptions {
            store: Some(store),
            workers: 4,
            slow_us: None,
            metrics_listener: None,
            slow_log: None,
            slow_log_path: None,
            trace_capture: true,
            clock: None,
            slo: Vec::new(),
        }
    }

    /// Worker threads handling protocol connections (minimum 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServeOptions {
        self.workers = workers;
        self
    }

    /// Log requests at or above this latency (microseconds) as JSON
    /// lines (to stderr unless [`ServeOptions::slow_log`] overrides).
    #[must_use]
    pub fn slow_us(mut self, slow_us: u64) -> ServeOptions {
        self.slow_us = Some(slow_us);
        self
    }

    /// Serve the `GET /metrics` scrape sidecar on an already-bound
    /// listener.
    #[must_use]
    pub fn metrics_listener(mut self, listener: TcpListener) -> ServeOptions {
        self.metrics_listener = Some(listener);
        self
    }

    /// Redirect the slow-request log away from stderr. Ignored unless
    /// [`ServeOptions::slow_us`] is set (and superseded by
    /// [`ServeOptions::slow_log_file`]).
    #[must_use]
    pub fn slow_log(mut self, sink: Box<dyn Write + Send>) -> ServeOptions {
        self.slow_log = Some(sink);
        self
    }

    /// Write the slow-request log to `path`, size-capped: at
    /// [`DEFAULT_SLOW_LOG_CAP_BYTES`] the file rotates to `<path>.1`
    /// (one previous generation is kept). Ignored unless
    /// [`ServeOptions::slow_us`] is set.
    #[must_use]
    pub fn slow_log_file(mut self, path: PathBuf) -> ServeOptions {
        self.slow_log_path = Some(path);
        self
    }

    /// Watch latency SLOs: each rule's multi-window burn rate is
    /// evaluated on every `METRICS` scrape and `HISTORY` request, and
    /// scraped as `yv_slo_<metric>_state` / `_burn_long_pct` /
    /// `_burn_short_pct` / `_threshold_us` gauges. [`Self::serve`]
    /// refuses a rule whose metric is not a command kind
    /// ([`StoreError::UnknownSloMetric`]) and a second rule on one metric
    /// ([`StoreError::DuplicateSloMetric`]).
    #[must_use]
    pub fn slo(mut self, rules: Vec<SloRule>) -> ServeOptions {
        self.slo = rules;
        self
    }

    /// Enable or disable retaining completed traces. When disabled,
    /// requests still carry `trace=` ids on the wire, but `TOP`/`TRACE`
    /// see an empty window and the server holds no trace slot — how
    /// `yv-benchmark` runs every gated repetition.
    #[must_use]
    pub fn trace_capture(mut self, capture: bool) -> ServeOptions {
        self.trace_capture = capture;
        self
    }

    /// Inject the clock requests are timed and traced with. Defaults to
    /// a fresh [`MonotonicClock`]; tests inject a
    /// [`yv_obs::ManualClock`] for deterministic span trees.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> ServeOptions {
        self.clock = Some(clock);
        self
    }

    /// Serve the store on an already-bound listener until a client sends
    /// `SHUTDOWN`. Returns the store after flushing the WALs into a
    /// fresh snapshot, so the caller can keep using (or inspect) the
    /// final state.
    pub fn serve(self, listener: TcpListener) -> Result<Store, StoreError> {
        let ServeOptions {
            store,
            workers,
            slow_us,
            metrics_listener,
            slow_log,
            slow_log_path,
            trace_capture,
            clock,
            slo,
        } = self;
        let Some(store) = store else {
            return Err(StoreError::Corrupt("ServeOptions has no store".into()));
        };
        check_slo(&slo)?;
        // The tail sampler reuses the slow-log threshold; without one,
        // only ERR-status traces are tail-retained.
        let sampler_slow_ns = slow_us.map_or(u64::MAX, |us| us.saturating_mul(1_000));
        let capacity = DEFAULT_TRACE_CAPACITY;
        let sink = TraceSink::new(capacity, sampler_slow_ns, DEFAULT_TRACE_SEED, trace_capture);
        let clock = clock.unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let slow = match (slow_us, slow_log_path) {
            (Some(us), Some(path)) => {
                Some(SlowLog::file(us, &path, DEFAULT_SLOW_LOG_CAP_BYTES)?)
            }
            (Some(us), None) => Some(SlowLog::stream(
                us,
                slow_log.unwrap_or_else(|| Box::new(std::io::stderr())),
            )),
            (None, _) => None,
        };
        serve_inner(store, listener, workers, slow, metrics_listener, sink, clock, slo)
    }
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("workers", &self.workers)
            .field("slow_us", &self.slow_us)
            .field("metrics_listener", &self.metrics_listener)
            .field("slow_log", &self.slow_log.as_ref().map(|_| "<sink>"))
            .field("slow_log_path", &self.slow_log_path)
            .field("trace_capture", &self.trace_capture)
            .field("clock", &self.clock.as_ref().map(|_| "<injected>"))
            .field("slo", &self.slo)
            .finish_non_exhaustive()
    }
}

/// Refuse SLO rules the server could never serve: a metric that is not a
/// command kind has no window to evaluate, and two rules on one metric
/// would share one set of `yv_slo_<metric>_*` gauges.
fn check_slo(rules: &[SloRule]) -> Result<(), StoreError> {
    for (i, rule) in rules.iter().enumerate() {
        let metric = &rule.metric;
        if !COMMANDS.iter().any(|(kind, _)| kind == metric) {
            return Err(StoreError::UnknownSloMetric { metric: metric.clone() });
        }
        if rules[..i].iter().any(|earlier| &earlier.metric == metric) {
            return Err(StoreError::DuplicateSloMetric { metric: metric.clone() });
        }
    }
    Ok(())
}

/// Shared per-connection context, bundled so worker closures borrow one
/// struct instead of six loose references.
struct ServerCtx<'a> {
    store: &'a Store,
    metrics: &'a ServerMetrics,
    clock: Arc<dyn Clock>,
    shutdown: &'a AtomicBool,
    /// The protocol listener's address (self-connect target on shutdown).
    addr: SocketAddr,
    /// The scrape sidecar's address, when one is running.
    metrics_addr: Option<SocketAddr>,
    slow: Option<&'a SlowLog>,
    /// The trace id generator and capture store.
    sink: &'a TraceSink,
}

/// Take the next accepted connection off the workers' shared queue;
/// `None` once the acceptor has dropped its sender and the queue is
/// drained. The mutex is held only while waiting, never while the
/// connection is served: the guard dies with this call. (Inlined into a
/// `while let` scrutinee it would live through the loop body.)
fn next_connection(
    queue: &Mutex<std::sync::mpsc::Receiver<(u64, TcpStream)>>,
) -> Option<(u64, TcpStream)> {
    queue.lock().recv().ok()
}

#[allow(clippy::too_many_arguments)]
#[allow(clippy::disallowed_methods, reason = "the connection pool serves clients; it splits no work")]
fn serve_inner(
    store: Store,
    listener: TcpListener,
    workers: usize,
    slow: Option<SlowLog>,
    metrics_listener: Option<TcpListener>,
    sink: TraceSink,
    clock: Arc<dyn Clock>,
    slo: Vec<SloRule>,
) -> Result<Store, StoreError> {
    let addr = listener.local_addr()?;
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let metrics = ServerMetrics::new(&clock, slo);
    let shutdown = AtomicBool::new(false);
    let conn_ids = AtomicU64::new(0);
    // One queue, many workers: `mpsc` has a single receiver, so the pool
    // shares it behind a mutex — see `next_connection`.
    let (tx, rx) = std::sync::mpsc::channel::<(u64, TcpStream)>();
    let rx = Arc::new(Mutex::new(rx));
    let ctx = ServerCtx {
        store: &store,
        metrics: &metrics,
        clock,
        shutdown: &shutdown,
        addr,
        metrics_addr,
        slow: slow.as_ref(),
        sink: &sink,
    };

    std::thread::scope(|s| {
        let ctx = &ctx;
        for _ in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            s.spawn(move || {
                while let Some((conn, stream)) = next_connection(&rx) {
                    handle_connection(stream, conn, ctx);
                }
            });
        }
        // Only the workers keep the receiver alive, so `send` below fails
        // once every one of them is gone.
        drop(rx);
        // The telemetry tick: rotate the windows every TICK_MILLIS of
        // *real* time. Under a ManualClock no epoch ever passes, so the
        // tick is a no-op and rotation happens lazily on the
        // HISTORY/METRICS read paths — which keeps deterministic tests
        // byte-identical regardless of ticker scheduling.
        s.spawn(move || {
            while !ctx.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(TICK_MILLIS));
                ctx.metrics.rotate();
            }
        });
        if let Some(mlistener) = &metrics_listener {
            s.spawn(move || {
                for stream in mlistener.incoming() {
                    if ctx.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        serve_scrape(stream, ctx);
                    }
                }
            });
        }
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                // Request/response protocol: without TCP_NODELAY the
                // final partial segment of a multi-segment reply (or a
                // large BATCH_ADD frame) sits in Nagle's buffer waiting
                // for the peer's delayed ACK — tens of milliseconds per
                // round trip on an otherwise idle loopback.
                let _ = stream.set_nodelay(true);
                let conn = conn_ids.fetch_add(1, Ordering::Relaxed);
                // A send only fails if every worker panicked; stop accepting.
                if tx.send((conn, stream)).is_err() {
                    break;
                }
            }
        }
        // However the accept loop ended, make sure the tick thread (which
        // only watches the flag) can exit too.
        shutdown.store(true, Ordering::SeqCst);
        drop(tx);
    });

    store.snapshot()?;
    Ok(store)
}

/// The Prometheus text exposition (format 0.0.4), rendered from the
/// sources at the read: the command metrics, the store, its last open,
/// its shards, the trace ring, the SLO rules, the slow log and the
/// allocator are each read now and rendered in one call.
fn render_metrics(ctx: &ServerCtx<'_>) -> String {
    let stats = ctx.store.stats();
    let opened = ctx.store.open_report();
    let ring = ctx.sink.stats();
    let alloc = yv_obs::alloc_stats();
    let mut samples = ctx.metrics.samples();
    samples.extend([
        Sample::gauge(
            "yv_store_records",
            "Records resident in the store",
            stats.records as u64,
        ),
        Sample::gauge("yv_store_sources", "Sources registered", stats.sources as u64),
        Sample::gauge("yv_store_matches", "Ranked matches resident", stats.matches as u64),
        Sample::gauge(
            "yv_store_wal_entries",
            "Arrivals pending in the WALs since the last snapshot",
            stats.wal_entries as u64,
        ),
        Sample::gauge(
            "yv_store_wal_bytes",
            "On-disk WAL size in bytes, all shards",
            stats.wal_bytes,
        ),
        Sample::counter(
            "yv_store_wal_syncs_total",
            "WAL sync_data calls since open, all shards",
            stats.wal_syncs,
        ),
        Sample::gauge(
            "yv_store_vocabulary",
            "Distinct lowercased first names plus distinct lowercased last names in the query index",
            stats.vocabulary as u64,
        ),
        Sample::gauge(
            "yv_store_postings",
            "Total posting entries in the query index",
            stats.postings as u64,
        ),
        Sample::gauge(
            "yv_store_shards",
            "Shard count (fixed at create)",
            stats.shards.len() as u64,
        ),
        Sample::gauge(
            "yv_store_open_frames_replayed",
            "Arrivals (record and source frames) the last open replayed, all shards",
            opened.frames,
        ),
        Sample::gauge(
            "yv_store_open_rescored",
            "Record frames the last open replayed without a matches frame, hence scored again",
            opened.rescored,
        ),
        Sample::gauge(
            "yv_store_open_torn_bytes",
            "Torn-tail WAL bytes the last open dropped, all shards",
            opened.torn_bytes,
        ),
        Sample::gauge(
            "yv_store_open_replay_us",
            "Wall time of the last open's WAL merge and replay in microseconds",
            opened.replay_ns / 1_000,
        ),
        Sample::gauge(
            "yv_store_open_us",
            "Wall time of the whole last open, replay included, in microseconds",
            opened.open_ns / 1_000,
        ),
        Sample::gauge(
            "yv_store_fuzzy_names",
            "Distinct lowercased names in the fuzzy q-gram index",
            stats.fuzzy_names as u64,
        ),
        Sample::gauge(
            "yv_store_fuzzy_grams",
            "Distinct q-grams in the fuzzy index",
            stats.fuzzy_grams as u64,
        ),
        Sample::gauge(
            "yv_store_fuzzy_postings",
            "Gram-to-name posting entries in the fuzzy index",
            stats.fuzzy_postings as u64,
        ),
        Sample::counter(
            "yv_store_fuzzy_examined_total",
            "Lifetime candidate names examined by RESOLVE",
            stats.fuzzy_examined,
        ),
        Sample::counter(
            "yv_store_fuzzy_pruned_total",
            "Lifetime candidate names pruned by the RESOLVE length and count filters",
            stats.fuzzy_pruned,
        ),
        Sample::gauge("yv_trace_ring_capacity", "Trace capture ring slot count", ring.capacity),
        Sample::gauge(
            "yv_trace_ring_occupancy",
            "Completed traces currently resident in the capture ring",
            ring.occupancy,
        ),
        Sample::counter(
            "yv_trace_ring_captured_total",
            "Lifetime traces captured into the ring",
            ring.captured,
        ),
        Sample::counter(
            "yv_trace_ring_evicted_total",
            "Lifetime traces displaced by drop-oldest overwrites",
            ring.evicted,
        ),
        Sample::counter(
            "yv_trace_ring_sampled_total",
            "Lifetime traces retained by the tail sampler (slow or ERR)",
            ring.sampled,
        ),
        Sample::counter(
            "yv_alloc_bytes_total",
            "Bytes allocated since process start",
            alloc.alloc_bytes,
        ),
        Sample::counter(
            "yv_dealloc_bytes_total",
            "Bytes deallocated since process start",
            alloc.dealloc_bytes,
        ),
        Sample::gauge("yv_alloc_live_bytes", "Bytes currently allocated", alloc.live_bytes),
        Sample::gauge("yv_alloc_peak_bytes", "High-water mark of live bytes", alloc.peak_bytes),
    ]);
    // The exposition carries no labels, so per-shard gauges mangle the
    // shard index into the metric name.
    for s in &stats.shards {
        let i = s.shard;
        samples.extend([
            Sample::gauge(
                format!("yv_shard_{i}_records"),
                "Records routed to this shard",
                s.records as u64,
            ),
            Sample::gauge(
                format!("yv_shard_{i}_wal_bytes"),
                "On-disk size of this shard's WAL in bytes",
                s.wal_bytes,
            ),
        ]);
    }
    if let Some(slow) = ctx.slow {
        samples.push(Sample::gauge(
            "yv_slow_log_rotations",
            "Slow-request log rotations performed by this process",
            slow.rotations(),
        ));
    }
    yv_obs::render_prometheus(samples)
}

/// Answer one sidecar connection: a hand-rolled HTTP/1.1 exchange — read
/// the request line, drain headers to the blank line, answer
/// `GET /metrics` (or `/`) with the exposition and anything else with
/// 404 — so a stock Prometheus scraper works without any HTTP dependency
/// in the build. The sidecar has one thread, so the whole request head
/// is read through one [`MAX_LINE_BYTES`] budget: a peer that streams a
/// header without end gets `431` and is disconnected instead of growing
/// a line buffer and stalling every later scrape.
fn serve_scrape(stream: TcpStream, ctx: &ServerCtx<'_>) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half.take(MAX_LINE_BYTES as u64));
    let mut request = String::new();
    match reader.read_line(&mut request) {
        Ok(0) | Err(_) => return,
        Ok(_) => {}
    }
    // Drain the header block; the blank line ends the request head.
    let mut header = String::new();
    let head_ended = loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break false,
            Ok(_) if header == "\r\n" || header == "\n" => break true,
            Ok(_) => {}
        }
    };
    if !head_ended && reader.get_ref().limit() == 0 {
        let _ = writer.write_all(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Length: 0\r\n\
              Connection: close\r\n\r\n",
        );
        return;
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" || !(path == "/metrics" || path == "/") {
        let _ = writer.write_all(
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        return;
    }
    let body = render_metrics(ctx);
    let head = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.write_all(body.as_bytes()));
}

/// Serve one client connection: request lines in, response blocks out,
/// until the client closes or asks for shutdown.
///
/// HELLO negotiation state machine: a fresh connection may upgrade to
/// the binary framing in [`crate::frame`] by making its *first* request
/// the literal line [`frame::HELLO_LINE`]; the server acknowledges with
/// a normal text block ([`frame::HELLO_OK`]) and the socket speaks
/// frames from then on. Any other first request fixes the connection to
/// the text transport for its lifetime — a later `HELLO` is refused
/// with an `ERR`, never a mid-stream transport switch.
fn handle_connection(stream: TcpStream, conn: u64, ctx: &ServerCtx<'_>) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    let mut first_request = true;
    loop {
        line.clear();
        match reader.by_ref().take(MAX_LINE_BYTES as u64).read_line(&mut line) {
            Ok(0) | Err(_) => return, // client closed
            Ok(_) => {}
        }
        if line.len() == MAX_LINE_BYTES && !line.ends_with('\n') {
            ctx.metrics.parse_errors.incr();
            let refusal = format!("ERR request line exceeds {MAX_LINE_BYTES} bytes");
            let _ = writer.write_all(protocol::format_status(&refusal).as_bytes());
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let is_hello = tokens.next().is_some_and(|cmd| cmd.eq_ignore_ascii_case("HELLO"));
        if is_hello && first_request && tokens.eq(["proto=binary"]) {
            if writer.write_all(protocol::format_status(frame::HELLO_OK).as_bytes()).is_err() {
                return;
            }
            handle_binary_connection(&mut reader, &mut writer, conn, ctx);
            return;
        }
        first_request = false;
        // Digest the argument text (everything after the command token)
        // so repeats of one query correlate in the slow log without the
        // arguments themselves ever being logged.
        let args = line.trim().split_once(char::is_whitespace).map_or("", |(_, rest)| rest);
        let args_digest = crate::codec::fnv1a64(args.as_bytes());
        let (reply, closing) = serve_request(ctx, conn, args_digest, || {
            if is_hello {
                Err("HELLO: binary negotiation expects exactly `HELLO proto=binary` as the \
                     first request on a fresh connection"
                    .to_owned())
            } else {
                protocol::parse_request(&line)
            }
        });
        // The line parser never yields `BATCH_ADD`, the one batch reply.
        let ResponseFrame::Block(block) = reply else { return };
        if writer.write_all(block.as_bytes()).is_err() {
            return;
        }
        if closing {
            unblock_acceptors(ctx);
            return;
        }
    }
}

/// Serve the binary side of a negotiated connection: request frames in,
/// response frames out, until the client closes or asks for shutdown.
///
/// Error discipline mirrors the WAL reader. A clean EOF *between* frames
/// ends the connection quietly. A torn frame, checksum mismatch or
/// oversized length prefix means the byte stream itself can no longer be
/// trusted, so the connection drops without applying anything from the
/// broken frame — this is what keeps a mid-frame `BATCH_ADD` cut from
/// half-applying. A frame that passes the checksum but decodes to an
/// invalid request gets a normal `ERR` reply; the transport is fine,
/// only the request was bad.
fn handle_binary_connection(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    conn: u64,
    ctx: &ServerCtx<'_>,
) {
    loop {
        let (tag, payload) = match frame::read_raw_frame(reader) {
            Ok(Some(raw)) => raw,
            Ok(None) => return, // clean close at a frame boundary
            Err(_) => {
                ctx.metrics.parse_errors.incr();
                return;
            }
        };
        // The payload digest plays the role the argument-text digest
        // plays on the text path: correlating repeats in the slow log
        // without logging the arguments.
        let args_digest = crate::codec::fnv1a64(&payload);
        let (reply, closing) = serve_request(ctx, conn, args_digest, || {
            RequestFrame::decode(tag, &payload)
                .map_err(|e| e.to_string())
                .and_then(RequestFrame::checked)
        });
        if write_response_frame(writer, &reply).is_err() {
            return;
        }
        if closing {
            unblock_acceptors(ctx);
            return;
        }
    }
}

/// Encode and write one response frame; an unencodable response (a
/// status string past the u32 limit) surfaces as an IO error so the
/// caller drops the connection rather than sending a half-frame.
fn write_response_frame(
    writer: &mut TcpStream,
    reply: &ResponseFrame,
) -> std::io::Result<()> {
    let bytes = reply.encode().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("unencodable reply: {e}"))
    })?;
    writer.write_all(&bytes)
}

/// Self-connect to the protocol (and scrape) listeners so acceptors
/// blocked in `accept` observe the shutdown flag.
fn unblock_acceptors(ctx: &ServerCtx<'_>) {
    let _ = TcpStream::connect(ctx.addr);
    if let Some(maddr) = ctx.metrics_addr {
        let _ = TcpStream::connect(maddr);
    }
}

/// One request from admission to reply, the one path both transports
/// take. `decode` turns the bytes already read into a checked request or
/// the `ERR` message refusing them; it runs inside the trace's `parse`
/// span. Returns the reply and whether the connection closes after it
/// (`SHUTDOWN`).
///
/// After the command runs, a response block gets the `trace=` token of
/// the commands whose traces are kept (the `reply` span). Then comes one
/// slow-log line if the request crossed the threshold, and the kept
/// trace is sealed and captured — all *before* the reply is written, so
/// a client can `TRACE` the id from the response it just read.
fn serve_request(
    ctx: &ServerCtx<'_>,
    conn: u64,
    args_digest: u64,
    decode: impl FnOnce() -> Result<RequestFrame, String>,
) -> (ResponseFrame, bool) {
    let started = ctx.clock.now_nanos();
    // Every request gets a trace context from accept to reply. The accept
    // span marks request admission (id issue + context setup); the stage
    // spans follow inside the command arms.
    let mut trace = TraceCtx::start(ctx.sink.next_id(), conn, Arc::clone(&ctx.clock));
    trace.enter("accept");
    trace.exit();
    trace.enter("parse");
    let decoded = decode();
    trace.exit();
    let command = decoded.as_ref().map_or("INVALID", RequestFrame::name);
    trace.set_command(command);
    let (mut reply, closing) = match decoded {
        Ok(request) => dispatch(ctx, request, &mut trace, started),
        Err(msg) => {
            ctx.metrics.parse_errors.incr();
            (ResponseFrame::Block(protocol::format_status(format_args!("ERR {msg}"))), false)
        }
    };
    let dur_ns = ctx.clock.now_nanos().saturating_sub(started);
    // Reads, writes and refusals keep their traces; the introspection
    // commands (STATS, TOP, TRACE, …) are slow-logged but leave none.
    let kept =
        matches!(command, "QUERY" | "RESOLVE" | "ADD" | "SNAPSHOT" | "BATCH_ADD" | "INVALID");
    let ok = match &mut reply {
        ResponseFrame::Block(block) => {
            trace.enter("reply");
            if kept {
                protocol::insert_trace_token(block, trace.id());
            }
            trace.exit();
            !block.starts_with("ERR")
        }
        ResponseFrame::Batch(statuses) => {
            statuses.iter().all(|s| matches!(s, BatchStatus::Ok { .. }))
        }
    };
    if let Some(slow) = ctx.slow {
        if dur_ns >= slow.threshold_ns {
            slow.log(conn, command, args_digest, dur_ns, trace.id());
        }
    }
    if let Some(done) = kept.then(|| trace.finish(ok)).flatten() {
        ctx.sink.capture(done);
    }
    (reply, closing)
}

/// Execute one checked request and record its per-command metrics.
/// Omitted knobs take their defaults here, where they are read. Returns
/// the reply and whether the connection closes after it (`SHUTDOWN`).
fn dispatch(
    ctx: &ServerCtx<'_>,
    request: RequestFrame,
    trace: &mut TraceCtx,
    started: u64,
) -> (ResponseFrame, bool) {
    let cmd = ctx.metrics.of(request.command());
    let mut closing = false;
    let elapsed = || ctx.clock.now_nanos().saturating_sub(started);
    let block = match request {
        RequestFrame::Query(query) => {
            let hits = ctx.store.query_traced(&query, trace);
            trace.annotate("hits", hits.len() as u64);
            cmd.record(true, elapsed());
            protocol::format_hits(&hits)
        }
        RequestFrame::Resolve { name, k, min } => {
            let k = k.map_or(DEFAULT_RESOLVE_K, |k| k as usize);
            // The name itself never enters the trace — only its
            // sanctioned digest, same policy as the slow log.
            trace.annotate("name_digest", crate::codec::fnv1a64(name.as_bytes()));
            trace.annotate("k", k as u64);
            let options = crate::store::ResolveOptions {
                k,
                min_score: min.unwrap_or(f64::NEG_INFINITY),
                ..crate::store::ResolveOptions::default()
            };
            let outcome = ctx.store.resolve_traced(&name, &options, trace);
            let cands = outcome.hits.len() as u64;
            trace.annotate("cands", cands);
            cmd.record(true, elapsed());
            protocol::format_candidates(&outcome.hits)
        }
        RequestFrame::Add(record) => {
            let shard = crate::shard::shard_of_record(&record, ctx.store.n_shards());
            trace.enter_shard("apply", shard as u32);
            let outcome = ctx.store.add_record(*record);
            trace.exit();
            cmd.record(outcome.is_ok(), elapsed());
            match outcome {
                Ok(matches) => {
                    trace.annotate("matches", matches.len() as u64);
                    protocol::format_status(format_args!("OK matches={}", matches.len()))
                }
                Err(e) => protocol::format_status(format_args!("ERR {e}")),
            }
        }
        RequestFrame::BatchAdd(records) => {
            // `Store::add_records` group commit: one WAL fsync per dirty
            // shard for the whole frame, and every status in the reply
            // refers to a record whose shard WAL has already been synced.
            // A connection lost before the reply leaves only durable
            // records behind — never a torn batch (a torn *frame* never
            // decodes at all: the checksum gate drops it).
            let count = records.len().max(1) as u64;
            trace.annotate("records", records.len() as u64);
            trace.enter("apply");
            let apply_started = ctx.clock.now_nanos();
            let outcomes = ctx.store.add_records(records);
            let apply_ns = ctx.clock.now_nanos().saturating_sub(apply_started);
            let mut statuses = Vec::with_capacity(outcomes.len());
            for outcome in outcomes {
                // Per-record metrics under the ADD kind (amortized share
                // of the batch): a batch of N shows up as N adds in every
                // CMD row, latency window and HISTORY bucket, so the two
                // transports report load on the same scale.
                cmd.record(outcome.is_ok(), apply_ns / count);
                statuses.push(match outcome {
                    Ok(matches) => BatchStatus::Ok {
                        matches: u32::try_from(matches.len()).unwrap_or(u32::MAX),
                    },
                    Err(e) => BatchStatus::Err(e.to_string()),
                });
            }
            trace.exit();
            return (ResponseFrame::Batch(statuses), false);
        }
        RequestFrame::Stats => {
            let stats = ctx.store.stats();
            // Record before rendering so this request appears in its
            // own CMD row.
            cmd.record(true, elapsed());
            let commands = ctx.metrics.command_stats().to_vec();
            protocol::format_stats(&StatsReport::new(stats, ctx.metrics.errors(), commands))
        }
        RequestFrame::Metrics => {
            // Record first so this scrape's own latency sample is in
            // the exposition it returns.
            cmd.record(true, elapsed());
            protocol::format_metrics(&render_metrics(ctx))
        }
        RequestFrame::Top { k } => {
            let k = k.map_or(DEFAULT_TOP_SLOW, |k| k as usize);
            let ring = ctx.sink.stats();
            let slow = ctx.sink.recent_slow(k).iter().map(SlowRow::from).collect();
            cmd.record(true, elapsed());
            let commands = ctx.metrics.command_stats().to_vec();
            protocol::format_top(&TopReport { ring, commands, slow })
        }
        RequestFrame::Trace { id } => match ctx.sink.find(id) {
            Some(found) => {
                cmd.record(true, elapsed());
                protocol::format_trace(&found)
            }
            None => {
                cmd.record(false, elapsed());
                protocol::format_status(format_args!(
                    "ERR TRACE: no trace {id:016x} (never captured or already evicted)"
                ))
            }
        },
        RequestFrame::History { metric, window } => {
            let window = window.map_or(WINDOW_BUCKETS, |w| w as usize);
            match ctx.metrics.history(&metric, window) {
                Some(report) => {
                    cmd.record(true, elapsed());
                    protocol::format_history(&report)
                }
                None => {
                    cmd.record(false, elapsed());
                    protocol::format_status(format_args!(
                        "ERR HISTORY: unknown metric {metric:?} (expected a command kind: {})",
                        protocol::command_kinds()
                    ))
                }
            }
        }
        RequestFrame::Snapshot => {
            trace.enter("snapshot");
            let outcome = ctx.store.snapshot();
            trace.exit();
            cmd.record(outcome.is_ok(), elapsed());
            match outcome {
                Ok(()) => protocol::format_status("OK snapshot"),
                Err(e) => protocol::format_status(format_args!("ERR {e}")),
            }
        }
        RequestFrame::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            cmd.record(true, elapsed());
            closing = true;
            protocol::format_status("OK bye")
        }
    };
    (ResponseFrame::Block(block), closing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_metrics() -> ServerMetrics {
        ServerMetrics::new(&(Arc::new(MonotonicClock::new()) as Arc<dyn Clock>), Vec::new())
    }

    /// Regression test for the `STATS` consistency bug: `count` used to
    /// come from the `ok` counter while the percentiles came from a
    /// separately-read histogram, so a row could report `count=0` with
    /// nonzero percentiles (or vice versa). Both now derive from one
    /// [`Histogram::snapshot`]; driving the durations through a
    /// [`yv_obs::ManualClock`] pins the exact row.
    #[test]
    fn command_stats_row_derives_from_one_snapshot() {
        let metrics = server_metrics();
        let clock = yv_obs::ManualClock::new();
        // Three successes and one error, with known latencies.
        for (us, ok) in [(100u64, true), (200, true), (400, true), (800, false)] {
            let started = clock.now_nanos();
            clock.advance(us * 1_000);
            metrics.of(Command::Query).record(ok, clock.now_nanos().saturating_sub(started));
        }
        let row = metrics.command_stats()[Command::Query as usize];
        assert_eq!(row.name, "QUERY");
        // Count covers every measured request — including the error — and
        // comes from the same snapshot as the percentiles.
        assert_eq!(row.count, 4);
        assert_eq!(row.errors, 1);
        assert_eq!(row.mean_us, 375);
        assert_eq!(row.p50_us, 256, "rank 2 of 4: the 200µs sample's bucket bound");
        assert_eq!(row.p95_us, 800, "rank 4 of 4: its bucket bound (1 024) clamps to the max");
        assert_eq!(row.p99_us, 800);
        assert_eq!(row.max_us, 800, "max is the exact worst sample, not a bucket bound");
    }

    /// A `CMD` row reports its percentiles under the `WINDOW` row's rule,
    /// so none exceeds the slowest request it counts.
    #[test]
    fn cmd_row_percentiles_never_exceed_the_max() {
        let metrics = server_metrics();
        for (us, ok) in [(100u64, true), (200, true), (400, true), (800, false)] {
            metrics.of(Command::Query).record(ok, us * 1_000);
        }
        metrics.of(Command::Add).record(true, 3_000);
        for row in metrics.command_stats() {
            assert!(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us, "{row:?}");
            assert!(row.p99_us <= row.max_us, "{row:?}");
        }
    }

    #[test]
    fn server_metrics_register_one_set_per_command() {
        let metrics = server_metrics();
        metrics.of(Command::Add).record(true, 5_000);
        let rendered = yv_obs::render_prometheus(metrics.samples());
        for kind in [
            "query", "resolve", "add", "stats", "metrics", "top", "trace", "history", "snapshot",
            "shutdown",
        ] {
            assert!(rendered.contains(&format!("# TYPE yv_cmd_{kind}_ok_total counter\n")));
            assert!(
                rendered.contains(&format!("# TYPE yv_cmd_{kind}_latency_us histogram\n")),
                "{kind}"
            );
        }
        assert!(rendered.contains("yv_cmd_add_ok_total 1\n"));
        assert!(rendered.contains("yv_cmd_add_latency_us_count 1\n"));
        assert!(rendered.contains("yv_cmd_parse_errors_total 0\n"));
    }

    #[test]
    fn errors_sum_every_command_and_parse_failures() {
        let metrics = server_metrics();
        metrics.parse_errors.incr();
        metrics.of(Command::Add).record(false, 1_000);
        metrics.of(Command::Snapshot).record(false, 1_000);
        metrics.of(Command::Trace).record(false, 1_000);
        assert_eq!(metrics.errors(), 4);
        let rows = metrics.command_stats();
        assert_eq!(
            rows.map(|r| r.name),
            [
                "QUERY", "RESOLVE", "ADD", "STATS", "METRICS", "TOP", "TRACE", "HISTORY",
                "SNAPSHOT", "SHUTDOWN"
            ],
            "CMD rows keep protocol order"
        );
        assert_eq!(rows.map(|r| r.errors), [0, 0, 1, 0, 0, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn slow_log_lines_are_json_with_hex_digest() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let slow = SlowLog::stream(0, Box::new(Sink(Arc::clone(&buf))));
        slow.log(7, "QUERY", 0xabcd, 1_234_567, 0x00ff_1122_3344_5566);
        let logged = String::from_utf8(buf.lock().clone()).expect("utf8 log line");
        assert_eq!(
            logged,
            "{\"slow_request\":true,\"conn\":7,\"command\":\"QUERY\",\
             \"args_digest\":\"000000000000abcd\",\"latency_us\":1234,\
             \"trace\":\"00ff112233445566\"}\n"
        );
        assert_eq!(slow.rotations(), 0);
    }

    #[test]
    fn file_slow_log_rotates_at_the_size_cap_keeping_one_generation() {
        let dir = crate::scratch::ScratchDir::new("slowlog-rotate");
        let path = dir.join("slow.jsonl");
        // Each line is ~130 bytes; a 300-byte cap rotates every 2-3 lines.
        let slow = SlowLog::file(1, &path, 300).expect("open slow log");
        for conn in 0..10 {
            slow.log(conn, "QUERY", conn, 5_000_000, conn);
        }
        assert!(slow.rotations() >= 2, "cap must force rotations, saw {}", slow.rotations());
        let aside = dir.join("slow.jsonl.1");
        assert!(aside.exists(), "rotation keeps exactly one previous generation");
        let head = std::fs::read_to_string(&path).expect("active log");
        let prev = std::fs::read_to_string(&aside).expect("rotated log");
        assert!(head.len() as u64 <= 300 + 200, "active file stays near the cap");
        // Every retained line is complete JSONL (rotation never tears one).
        for line in head.lines().chain(prev.lines()) {
            assert!(line.starts_with("{\"slow_request\":true,"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        // The newest line survived in the active file.
        assert!(head.contains("\"conn\":9,"));
    }
}
