//! The `yv serve` line protocol.
//!
//! One request per line, `key=value` tokens separated by whitespace
//! (values therefore cannot contain spaces — a binary protocol is a
//! roadmap item). Responses are one `OK ...` or `ERR ...` status line,
//! zero or more data lines, and a lone `.` terminator:
//!
//! ```text
//! > QUERY first=Guido last=Foa certainty=1.0
//! < OK 2
//! < HIT seed=17 entity=17,203,5044
//! < HIT seed=203 entity=17,203,5044
//! < .
//! > ADD book=99 source=0 first=Sara last=Levi gender=f year=1921
//! < OK matches=3
//! < .
//! > RESOLVE Lewi k=3 min=0.5
//! < OK 2
//! < CAND entity=17 score=0.93110290407 name=levi members=17,203,5044
//! < CAND entity=88 score=0.71842 name=lewin members=88
//! < .
//! > STATS
//! < OK records=5000 sources=12 matches=10817 shards=4 wal=1 wal_bytes=104 wal_syncs=1 ...
//! < SHARD 0 records=1290 wal=1 wal_bytes=104
//! < SHARD 1 records=1244 wal=0 wal_bytes=0
//! < SHARD 2 records=1267 wal=0 wal_bytes=0
//! < SHARD 3 records=1199 wal=0 wal_bytes=0
//! < CMD QUERY count=240 errors=0 mean_us=412 p50_us=256 p95_us=1024 p99_us=2048 max_us=1940
//! < CMD ADD count=12 errors=1 mean_us=95 p50_us=64 p95_us=256 p99_us=256 max_us=221
//! < CMD SNAPSHOT count=1 errors=0 mean_us=5210 p50_us=8192 p95_us=8192 p99_us=8192 max_us=5210
//! < .
//! > TOP k=1
//! < OK top
//! < RING capacity=512 occupancy=253 captured=253 evicted=0 sampled=2 last_slow_trace=b10e24d1fa8c0f37
//! < CMD QUERY count=240 errors=0 mean_us=412 p50_us=256 p95_us=1024 p99_us=2048 max_us=1940
//! < ...
//! < SLOW trace=b10e24d1fa8c0f37 command=RESOLVE status=ok conn=3 total_ns=2104930 spans=5
//! < .
//! > TRACE b10e24d1fa8c0f37
//! < OK trace=b10e24d1fa8c0f37 command=RESOLVE status=ok conn=3 total_ns=2104930 spans=5 dropped=0 name_digest=5817832
//! < SPAN name=accept depth=0 start_ns=0 dur_ns=90
//! < SPAN name=parse depth=0 start_ns=110 dur_ns=1800
//! < SPAN name=candidates depth=0 start_ns=2050 dur_ns=1210000 cands=7 examined=412
//! < SPAN name=rank depth=0 start_ns=1212300 dur_ns=880000
//! < SPAN name=reply depth=0 start_ns=2093000 dur_ns=9000
//! < .
//! > HISTORY query window=5
//! < OK history metric=query window=5 now_epoch=93 buckets=2
//! < WINDOW count=240 mean_us=412 p50_us=256 p95_us=1024 p99_us=2048 min_us=38 max_us=1940
//! < SLO metric=query p=0.99 threshold_us=5000 window=60 short_window=10 state=ok burn_long_pct=0 burn_short_pct=0
//! < BUCKET epoch=91 count=120 mean_us=400 p50_us=250 max_us=1800
//! < BUCKET epoch=92 count=120 mean_us=424 p50_us=262 max_us=1940
//! < .
//! > METRICS
//! < OK metrics
//! < # HELP yv_cmd_query_latency_us QUERY latency (microsecond buckets)
//! < # TYPE yv_cmd_query_latency_us histogram
//! < yv_cmd_query_latency_us_bucket{le="1"} 0
//! < ...
//! < .
//! > SNAPSHOT
//! < OK snapshot
//! < .
//! > SHUTDOWN
//! < OK bye
//! < .
//! ```

#![deny(clippy::cast_possible_truncation)]

use crate::frame::RequestFrame;
use yv_core::{PersonQuery, QueryHit};
use yv_fuzzy::RankedEntity;
use yv_obs::{RequestTrace, RingStats, SloRule, SloStatus, WindowView, WINDOW_BUCKETS};
use yv_records::{DateParts, Gender, Record, RecordBuilder, SourceId};

/// Slow-trace summary rows a bare `TOP` returns.
pub const DEFAULT_TOP_SLOW: usize = 5;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query(PersonQuery),
    Resolve {
        /// The (possibly misspelled) name to resolve.
        name: String,
        /// Maximum candidates returned (defaults to
        /// [`crate::store::DEFAULT_RESOLVE_K`], never 0).
        k: usize,
        /// Minimum blended score, if the client set one.
        min: Option<f64>,
    },
    Add(Box<Record>),
    Stats,
    Metrics,
    Top {
        /// Slow-trace summary rows to include (defaults to
        /// [`DEFAULT_TOP_SLOW`]; 0 suppresses them).
        k: usize,
    },
    Trace {
        /// The trace id to look up (as issued in a `trace=` token).
        id: u64,
    },
    History {
        /// The windowed metric: a lowercase command kind (e.g. `query`).
        metric: String,
        /// Closed one-second buckets to cover, ending at the open one
        /// (1..=[`WINDOW_BUCKETS`]).
        window: usize,
    },
    Snapshot,
    Shutdown,
}

/// The ten commands in protocol order; `as usize` is the command's row
/// in [`COMMANDS`] and in the server's per-command metric sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Query,
    Resolve,
    Add,
    Stats,
    Metrics,
    Top,
    Trace,
    History,
    Snapshot,
    Shutdown,
}

/// `(kind, NAME)` per [`Command`]: the kind names the `yv_cmd_<kind>_*`
/// series and the `HISTORY` metric, the name is what `CMD` rows, traces
/// and the slow log print.
pub const COMMANDS: [(&str, &str); 10] = [
    ("query", "QUERY"),
    ("resolve", "RESOLVE"),
    ("add", "ADD"),
    ("stats", "STATS"),
    ("metrics", "METRICS"),
    ("top", "TOP"),
    ("trace", "TRACE"),
    ("history", "HISTORY"),
    ("snapshot", "SNAPSHOT"),
    ("shutdown", "SHUTDOWN"),
];

/// The command kinds, as an error lists them: `query, resolve, … or
/// shutdown`.
pub(crate) fn command_kinds() -> String {
    let [kinds @ .., (last, _)] = COMMANDS;
    format!("{} or {last}", kinds.map(|(kind, _)| kind).join(", "))
}

impl Request {
    /// Which of the ten commands this request is.
    #[must_use]
    pub const fn command(&self) -> Command {
        match self {
            Request::Query(_) => Command::Query,
            Request::Resolve { .. } => Command::Resolve,
            Request::Add(_) => Command::Add,
            Request::Stats => Command::Stats,
            Request::Metrics => Command::Metrics,
            Request::Top { .. } => Command::Top,
            Request::Trace { .. } => Command::Trace,
            Request::History { .. } => Command::History,
            Request::Snapshot => Command::Snapshot,
            Request::Shutdown => Command::Shutdown,
        }
    }

    /// The canonical command name — a static string safe to embed in
    /// structured logs without escaping.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        COMMANDS[self.command() as usize].1
    }
}

/// The response terminator line.
pub const TERMINATOR: &str = ".";

/// Parse one request line. Errors are human-readable strings destined for
/// an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let command = tokens.next().ok_or_else(|| "empty request".to_owned())?;
    let args: Vec<&str> = tokens.collect();
    match command.to_ascii_uppercase().as_str() {
        "QUERY" => parse_query(&args),
        "RESOLVE" => parse_resolve(&args),
        "ADD" => parse_add(&args).map(|r| Request::Add(Box::new(r))),
        "STATS" => expect_no_args("STATS", &args).map(|()| Request::Stats),
        "METRICS" => expect_no_args("METRICS", &args).map(|()| Request::Metrics),
        "TOP" => parse_top(&args),
        "TRACE" => parse_trace(&args),
        "HISTORY" => parse_history(&args),
        "SNAPSHOT" => expect_no_args("SNAPSHOT", &args).map(|()| Request::Snapshot),
        "SHUTDOWN" => expect_no_args("SHUTDOWN", &args).map(|()| Request::Shutdown),
        other => Err(format!(
            "unknown command {other}; expected QUERY, RESOLVE, ADD, STATS, METRICS, TOP, \
             TRACE, HISTORY, SNAPSHOT or SHUTDOWN"
        )),
    }
}

/// Parse `TOP [k=N]` — live per-command stats plus the `N` most recent
/// slow-trace summaries.
///
/// Like the four parsers below, this one owns the *syntax* — numbers,
/// keys, duplicates, argument order — and collects the raw optionals into
/// a [`RequestFrame`]; the defaults and semantic refusals live once, in
/// [`RequestFrame::into_request`], for both transports.
fn parse_top(args: &[&str]) -> Result<Request, String> {
    let mut k = None;
    for token in args {
        let (key, value) = split_kv(token, "TOP")?;
        match key {
            "k" if k.is_some() => return Err("TOP: duplicate key k".to_owned()),
            "k" => {
                k = Some(value.parse().map_err(|_| {
                    format!("TOP: bad k value {value:?} (expected a non-negative integer)")
                })?);
            }
            other => return Err(format!("TOP: unknown key {other}")),
        }
    }
    RequestFrame::Top { k }.into_request()
}

/// Parse `TRACE <id>`. The id is the hex token the server returned
/// (`trace=` prefix tolerated, so the wire token can be pasted back
/// verbatim); it takes no options.
fn parse_trace(args: &[&str]) -> Result<Request, String> {
    let Some((&raw, options)) = args.split_first() else {
        return Err("TRACE: a trace id argument is required".to_owned());
    };
    let hex = raw.strip_prefix("trace=").unwrap_or(raw);
    let id = u64::from_str_radix(hex, 16)
        .map_err(|_| format!("TRACE: bad trace id {raw:?} (expected hex)"))?;
    if let Some(token) = options.first() {
        let (key, _) = split_kv(token, "TRACE")?;
        return Err(format!("TRACE: unknown key {key}"));
    }
    RequestFrame::Trace { id }.into_request()
}

/// Parse `HISTORY <metric> [window=N]`.
/// The metric comes first as a bare token (a command kind, matched
/// case-insensitively so `HISTORY QUERY` and `HISTORY query` agree);
/// the server rejects kinds it does not track.
fn parse_history(args: &[&str]) -> Result<Request, String> {
    let (metric, options) = args.split_first().map_or(("", args), |(&m, rest)| (m, rest));
    if metric.contains('=') {
        return Err(format!("HISTORY: first argument must be a bare metric name, got {metric:?}"));
    }
    let mut window = None;
    for token in options {
        let (key, value) = split_kv(token, "HISTORY")?;
        match key {
            "window" if window.is_some() => return Err("HISTORY: duplicate key window".to_owned()),
            "window" => {
                window = Some(value.parse().map_err(|_| {
                    format!("HISTORY: bad window value {value:?} (expected 1..={WINDOW_BUCKETS})")
                })?);
            }
            other => return Err(format!("HISTORY: unknown key {other}")),
        }
    }
    RequestFrame::History { metric: metric.to_owned(), window }.into_request()
}

/// Parse `RESOLVE <name> [k=N] [min=SCORE]`. The name comes first as a
/// bare token; the options follow as `key=value` with the same
/// duplicate-key discipline as `QUERY`. `k=0` is rejected with a
/// dedicated message — it would silently answer nothing — as are
/// non-numeric `k`/`min` values.
fn parse_resolve(args: &[&str]) -> Result<Request, String> {
    let (name, options) = args.split_first().map_or(("", args), |(&n, rest)| (n, rest));
    if name.contains('=') {
        return Err(format!("RESOLVE: the name must come before options, got {name:?}"));
    }
    let (mut k, mut min) = (None, None);
    for token in options {
        let (key, value) = split_kv(token, "RESOLVE")?;
        match key {
            "k" if k.is_some() => return Err("RESOLVE: duplicate key k".to_owned()),
            "min" if min.is_some() => return Err("RESOLVE: duplicate key min".to_owned()),
            "k" => {
                k = Some(value.parse().map_err(|_| {
                    format!("RESOLVE: bad k value {value:?} (expected a positive integer)")
                })?);
            }
            "min" => {
                min = Some(value.parse().map_err(|_| {
                    format!("RESOLVE: bad min value {value:?} (expected a number)")
                })?);
            }
            other => return Err(format!("RESOLVE: unknown key {other}")),
        }
    }
    RequestFrame::Resolve { name: name.to_owned(), k, min }.into_request()
}

fn expect_no_args(command: &str, args: &[&str]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("{command} takes no arguments"))
    }
}

fn split_kv<'a>(token: &'a str, command: &str) -> Result<(&'a str, &'a str), String> {
    token
        .split_once('=')
        .ok_or_else(|| format!("{command}: expected key=value, got {token:?}"))
}

fn parse_query(args: &[&str]) -> Result<Request, String> {
    let mut query = PersonQuery::default();
    // Every QUERY key is single-valued, so a repeat is a client bug: the
    // earlier value would be silently discarded and the client would get
    // an answer to a question it didn't mean to ask. Reject instead.
    let mut seen: Vec<&str> = Vec::new();
    for token in args {
        let (key, value) = split_kv(token, "QUERY")?;
        if seen.contains(&key) {
            return Err(format!("QUERY: duplicate key {key}"));
        }
        match key {
            "first" => query.first_name = Some(value.to_owned()),
            "last" => query.last_name = Some(value.to_owned()),
            "similarity" => query.name_similarity = parse_f64("similarity", value)?,
            "certainty" => query.certainty = parse_f64("certainty", value)?,
            other => return Err(format!("QUERY: unknown key {other}")),
        }
        seen.push(key);
    }
    RequestFrame::Query(query).into_request()
}

fn parse_add(args: &[&str]) -> Result<Record, String> {
    let mut book: Option<u64> = None;
    let mut source: Option<u32> = None;
    let mut builder: Option<RecordBuilder> = None;
    let mut pending: Vec<(String, String)> = Vec::new();
    // `first` and `last` legitimately repeat (records carry name lists);
    // every other ADD key is single-valued in the record schema, so a
    // repeat would silently drop the earlier value. Reject those.
    let mut seen: Vec<&str> = Vec::new();
    for token in args {
        let (key, value) = split_kv(token, "ADD")?;
        if !matches!(key, "first" | "last") {
            if seen.contains(&key) {
                return Err(format!("ADD: duplicate key {key}"));
            }
            seen.push(key);
        }
        match key {
            "book" => {
                book = Some(value.parse().map_err(|_| format!("ADD: bad book id {value:?}"))?);
            }
            "source" => {
                source =
                    Some(value.parse().map_err(|_| format!("ADD: bad source id {value:?}"))?);
            }
            _ => pending.push((key.to_owned(), value.to_owned())),
        }
        if builder.is_none() {
            if let (Some(b), Some(s)) = (book, source) {
                builder = Some(RecordBuilder::new(b, SourceId(s)));
            }
        }
    }
    let Some(mut builder) = builder else {
        return Err("ADD: book= and source= are required".to_owned());
    };
    let mut birth = DateParts::default();
    for (key, value) in pending {
        builder = match key.as_str() {
            "first" => builder.first_name(value),
            "last" => builder.last_name(value),
            "maiden" => builder.maiden_name(value),
            "father" => builder.father_name(value),
            "mother" => builder.mother_name(value),
            "spouse" => builder.spouse_name(value),
            "profession" => builder.profession(value),
            "gender" => match value.as_str() {
                "m" | "M" => builder.gender(Gender::Male),
                "f" | "F" => builder.gender(Gender::Female),
                other => return Err(format!("ADD: gender must be m or f, got {other:?}")),
            },
            "day" => {
                birth.day =
                    Some(value.parse().map_err(|_| format!("ADD: bad day {value:?}"))?);
                builder
            }
            "month" => {
                birth.month =
                    Some(value.parse().map_err(|_| format!("ADD: bad month {value:?}"))?);
                builder
            }
            "year" => {
                birth.year =
                    Some(value.parse().map_err(|_| format!("ADD: bad year {value:?}"))?);
                builder
            }
            other => return Err(format!("ADD: unknown key {other}")),
        };
    }
    Ok(builder.birth(birth).build())
}

fn parse_f64(what: &str, value: &str) -> Result<f64, String> {
    value.parse().map_err(|_| format!("bad {what} value {value:?}"))
}

/// Render query hits as response lines (status, data, terminator).
#[must_use]
pub fn format_hits(hits: &[QueryHit]) -> String {
    let mut out = format!("OK {}\n", hits.len());
    for hit in hits {
        let entity: Vec<String> = hit.entity.iter().map(|r| r.0.to_string()).collect();
        out.push_str(&format!("HIT seed={} entity={}\n", hit.seed.0, entity.join(",")));
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// Render ranked `RESOLVE` candidates as response lines (status, one
/// `CAND` line per hit, terminator). Scores use plain `Display` — no
/// fixed-precision rounding — so identical rankings render to identical
/// bytes and the restart-identity tests can compare responses directly.
#[must_use]
pub fn format_candidates(hits: &[RankedEntity]) -> String {
    let mut out = format!("OK {}\n", hits.len());
    for hit in hits {
        let members: Vec<String> = hit.members.iter().map(|r| r.0.to_string()).collect();
        out.push_str(&format!(
            "CAND entity={} score={} name={} members={}\n",
            hit.entity.0,
            hit.score,
            hit.name,
            members.join(",")
        ));
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// Render a single-status response (`OK ...` / `ERR ...`).
#[must_use]
pub fn format_status(status: &str) -> String {
    format!("{status}\n{TERMINATOR}\n")
}

/// Render a `METRICS` response: status line, the Prometheus text
/// exposition verbatim as data lines, and the terminator. Exposition
/// lines are metric samples or `# HELP`/`# TYPE` comments, so none can
/// collide with the lone-`.` terminator.
#[must_use]
pub fn format_metrics(exposition: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + 16);
    out.push_str("OK metrics\n");
    out.push_str(exposition);
    if !exposition.ends_with('\n') && !exposition.is_empty() {
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// One per-command row of the `STATS` response: request/error counts and
/// a latency summary in integer microseconds (percentiles are histogram
/// bucket upper bounds, hence powers of two). `count` is the number of
/// latency-measured requests — successes *and* errors — read from the
/// same histogram snapshot as the percentiles, so the row always
/// describes one consistent instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandStats {
    pub name: &'static str,
    pub count: u64,
    pub errors: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Exact worst latency (not a bucket bound), microseconds.
    pub max_us: u64,
}

/// Render the `STATS` response: the store-wide status line, one `SHARD`
/// data line per shard, one `CMD` data line per command kind, and the
/// terminator.
#[must_use]
pub fn format_stats(
    status: &str,
    shards: &[crate::shard::ShardStats],
    commands: &[CommandStats],
) -> String {
    let mut out = format!("{status}\n");
    for s in shards {
        out.push_str(&format!(
            "SHARD {} records={} wal={} wal_bytes={}\n",
            s.shard, s.records, s.wal_entries, s.wal_bytes
        ));
    }
    for c in commands {
        out.push_str(&format_cmd_row(c));
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

fn format_cmd_row(c: &CommandStats) -> String {
    format!(
        "CMD {} count={} errors={} mean_us={} p50_us={} p95_us={} p99_us={} max_us={}\n",
        c.name, c.count, c.errors, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.max_us
    )
}

/// Splice a `trace=<id>` token onto the end of a response's `OK` status
/// line. `ERR` responses and the untraced id 0 pass through untouched —
/// the token is a success artifact a client can paste into `TRACE`.
#[must_use]
pub fn with_trace_token(response: &str, trace_id: u64) -> String {
    if trace_id == 0 || !response.starts_with("OK") {
        return response.to_owned();
    }
    match response.split_once('\n') {
        Some((status, rest)) => format!("{status} trace={trace_id:016x}\n{rest}"),
        None => format!("{response} trace={trace_id:016x}"),
    }
}

fn push_span_args(out: &mut String, args: &[(&'static str, u64)]) {
    for (key, value) in args {
        out.push_str(&format!(" {key}={value}"));
    }
}

/// Render a `TRACE` response as a human-readable span tree that is still
/// machine-parseable: a status line describing the request, one `SPAN`
/// data line per span (indented two spaces per depth, every field a
/// `key=value` token), and the terminator. Span starts are rendered
/// relative to the request's accept time, so renderings are byte-
/// identical whenever the trace was captured under a deterministic
/// clock, regardless of the clock's absolute origin.
#[must_use]
pub fn format_trace(trace: &RequestTrace) -> String {
    let mut out = format!(
        "OK trace={:016x} command={} status={} conn={} total_ns={} spans={} dropped={}",
        trace.id,
        trace.command,
        if trace.ok { "ok" } else { "err" },
        trace.conn,
        trace.total_ns,
        trace.spans().len(),
        trace.dropped_spans
    );
    push_span_args(&mut out, trace.args());
    out.push('\n');
    for span in trace.spans() {
        for _ in 0..span.depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "SPAN name={} depth={}",
            span.name, span.depth
        ));
        if let Some(shard) = span.shard() {
            out.push_str(&format!(" shard={shard}"));
        }
        out.push_str(&format!(
            " start_ns={} dur_ns={}",
            span.start_ns.saturating_sub(trace.start_ns),
            span.dur_ns
        ));
        push_span_args(&mut out, span.args());
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// Render the `TOP` response: status line, a `RING` data line with the
/// capture-ring counters, one `CMD` row per command kind (same shape as
/// `STATS`), and one `SLOW` summary line per recent tail-sampled trace,
/// newest first.
#[must_use]
pub fn format_top(ring: &RingStats, commands: &[CommandStats], slow: &[RequestTrace]) -> String {
    let mut out = format!(
        "OK top\nRING capacity={} occupancy={} captured={} evicted={} sampled={} \
         last_slow_trace={:016x}\n",
        ring.capacity, ring.occupancy, ring.captured, ring.evicted, ring.sampled, ring.last_slow
    );
    for c in commands {
        out.push_str(&format_cmd_row(c));
    }
    for trace in slow {
        out.push_str(&format!(
            "SLOW trace={:016x} command={} status={} conn={} total_ns={} spans={}\n",
            trace.id,
            trace.command,
            if trace.ok { "ok" } else { "err" },
            trace.conn,
            trace.total_ns,
            trace.spans().len()
        ));
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// One `SLO` row: the rule, its derived short window, and the evaluated
/// burn-rate state.
fn format_slo_row(rule: &SloRule, status: &SloStatus) -> String {
    format!(
        "SLO metric={} p={} threshold_us={} window={} short_window={} state={} \
         burn_long_pct={} burn_short_pct={}\n",
        rule.metric,
        rule.p,
        rule.threshold_us,
        rule.window,
        rule.short_window(),
        status.state.label(),
        status.burn_long_pct,
        status.burn_short_pct
    )
}

/// Render the `HISTORY` response: a status line carrying the resolved
/// metric/window, one `WINDOW` roll-up row over every in-window
/// sample, one `SLO` row per rule watching this metric, and one `BUCKET`
/// row per non-empty closed bucket (ascending epoch). Percentiles are
/// interpolated and clamped to the window's observed min/max
/// ([`yv_obs::HistogramSnapshot::percentile_interp_us`]), so a `p50_us`
/// can never undershoot `min_us`.
#[must_use]
pub fn format_history(metric: &str, view: &WindowView, slo: &[(SloRule, SloStatus)]) -> String {
    let mut out = format!(
        "OK history metric={} window={} now_epoch={} buckets={}\n",
        metric,
        view.window,
        view.now_epoch,
        view.buckets.len()
    );
    let s = view.merged.summary_interp();
    out.push_str(&format!(
        "WINDOW count={} mean_us={} p50_us={} p95_us={} p99_us={} min_us={} max_us={}\n",
        s.count, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.min_us, s.max_us
    ));
    for (rule, status) in slo {
        out.push_str(&format_slo_row(rule, status));
    }
    for &(epoch, ref snap) in &view.buckets {
        let b = snap.summary_interp();
        out.push_str(&format!(
            "BUCKET epoch={} count={} mean_us={} p50_us={} max_us={}\n",
            epoch, b.count, b.mean_us, b.p50_us, b.max_us
        ));
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DEFAULT_RESOLVE_K;
    use yv_records::RecordId;

    #[test]
    fn query_parses_all_knobs() {
        let req = parse_request("QUERY first=Guido last=Foa similarity=0.9 certainty=1.5");
        let Ok(Request::Query(q)) = req else { panic!("{req:?}") };
        assert_eq!(q.first_name.as_deref(), Some("Guido"));
        assert_eq!(q.last_name.as_deref(), Some("Foa"));
        assert!((q.name_similarity - 0.9).abs() < 1e-12);
        assert!((q.certainty - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bare_query_is_unconstrained() {
        let Ok(Request::Query(q)) = parse_request("QUERY") else { panic!() };
        assert_eq!(q.first_name, None);
        assert_eq!(q.last_name, None);
    }

    #[test]
    fn add_builds_a_record() {
        let line = "ADD book=99 source=2 first=Sara last=Levi gender=f day=3 month=7 year=1921";
        let Ok(Request::Add(r)) = parse_request(line) else { panic!() };
        assert_eq!(r.book_id, 99);
        assert_eq!(r.source, SourceId(2));
        assert_eq!(r.first_names, vec!["Sara".to_owned()]);
        assert_eq!(r.gender, Some(Gender::Female));
        assert_eq!(r.birth, DateParts::full(3, 7, 1921));
    }

    #[test]
    fn add_requires_book_and_source() {
        assert!(parse_request("ADD first=Sara").is_err());
        assert!(parse_request("ADD book=1 first=Sara").is_err());
    }

    #[test]
    fn duplicate_single_valued_keys_are_protocol_errors() {
        // QUERY: every key is single-valued; last-wins used to silently
        // answer a different question than the client asked.
        for line in [
            "QUERY first=Guido first=Moshe",
            "QUERY last=Foa last=Foy",
            "QUERY similarity=0.9 similarity=0.8",
            "QUERY certainty=1.0 first=Guido certainty=0.5",
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains("duplicate key"), "{line}: {err}");
        }
        // ADD: scalar record fields reject repeats...
        for line in [
            "ADD book=1 book=2 source=0 first=Sara",
            "ADD book=1 source=0 source=1 first=Sara",
            "ADD book=1 source=0 gender=f gender=m",
            "ADD book=1 source=0 maiden=Roth maiden=Katz",
            "ADD book=1 source=0 year=1921 year=1922",
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains("duplicate key"), "{line}: {err}");
        }
        // ...while first/last repeat legitimately (records carry name
        // lists).
        let Ok(Request::Add(r)) =
            parse_request("ADD book=1 source=0 first=Sara first=Sura last=Levi last=Lewi")
        else {
            panic!()
        };
        assert_eq!(r.first_names, vec!["Sara".to_owned(), "Sura".to_owned()]);
        assert_eq!(r.last_names, vec!["Levi".to_owned(), "Lewi".to_owned()]);
    }

    #[test]
    fn unknown_commands_and_keys_are_rejected() {
        assert!(parse_request("FROB").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("QUERY color=blue").is_err());
        assert_eq!(
            parse_request("QUERY last=Levi similarity=NaN"),
            Err("bad similarity value \"NaN\"".to_owned())
        );
        assert!(parse_request("ADD book=1 source=0 color=blue").is_err());
        assert!(parse_request("STATS now").is_err());
        assert!(parse_request("METRICS now").is_err());
    }

    #[test]
    fn metrics_parses_and_names_are_canonical() {
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(Request::Metrics.name(), "METRICS");
        assert_eq!(Request::Stats.name(), "STATS");
        assert_eq!(Request::Shutdown.name(), "SHUTDOWN");
        // One request per command, in protocol order: the enum, the table
        // and the parser agree row by row.
        let lines = [
            "QUERY first=Guido",
            "RESOLVE Levi",
            "ADD book=1 source=0 first=Sara",
            "STATS",
            "METRICS",
            "TOP",
            "TRACE 00000000000000ab",
            "HISTORY query",
            "SNAPSHOT",
            "SHUTDOWN",
        ];
        for (i, (line, (kind, name))) in lines.iter().zip(COMMANDS).enumerate() {
            let request = parse_request(line).expect(line);
            assert_eq!(request.command() as usize, i, "{line}");
            assert_eq!(request.name(), name);
            assert_eq!(line.split(' ').next(), Some(name));
            assert_eq!(kind, name.to_ascii_lowercase());
        }
    }

    #[test]
    fn metrics_render_exposition_between_status_and_terminator() {
        let exposition = "# TYPE yv_x counter\nyv_x 3\n";
        assert_eq!(
            format_metrics(exposition),
            "OK metrics\n# TYPE yv_x counter\nyv_x 3\n.\n"
        );
        assert_eq!(format_metrics(""), "OK metrics\n.\n");
        // A missing trailing newline is repaired, keeping the terminator
        // on its own line.
        assert_eq!(format_metrics("yv_x 3"), "OK metrics\nyv_x 3\n.\n");
    }

    #[test]
    fn stats_render_one_cmd_line_per_command() {
        let rows = [
            CommandStats {
                name: "QUERY",
                count: 3,
                errors: 0,
                mean_us: 40,
                p50_us: 32,
                p95_us: 64,
                p99_us: 64,
                max_us: 57,
            },
            CommandStats {
                name: "ADD",
                count: 0,
                errors: 1,
                mean_us: 0,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
            },
        ];
        let shards = [
            crate::shard::ShardStats { shard: 0, records: 5, wal_entries: 1, wal_bytes: 104 },
            crate::shard::ShardStats { shard: 1, records: 2, wal_entries: 0, wal_bytes: 0 },
        ];
        let rendered = format_stats("OK records=7", &shards, &rows);
        assert_eq!(
            rendered,
            "OK records=7\n\
             SHARD 0 records=5 wal=1 wal_bytes=104\n\
             SHARD 1 records=2 wal=0 wal_bytes=0\n\
             CMD QUERY count=3 errors=0 mean_us=40 p50_us=32 p95_us=64 p99_us=64 max_us=57\n\
             CMD ADD count=0 errors=1 mean_us=0 p50_us=0 p95_us=0 p99_us=0 max_us=0\n\
             .\n"
        );
        assert_eq!(format_stats("OK records=7", &[], &[]), "OK records=7\n.\n");
    }

    #[test]
    fn resolve_parses_name_and_options() {
        let Ok(Request::Resolve { name, k, min }) = parse_request("RESOLVE Lewi") else {
            panic!()
        };
        assert_eq!(name, "Lewi");
        assert_eq!(k, DEFAULT_RESOLVE_K);
        assert_eq!(min, None);

        let Ok(Request::Resolve { name, k, min }) = parse_request("resolve Foa k=3 min=0.5")
        else {
            panic!()
        };
        assert_eq!(name, "Foa");
        assert_eq!(k, 3);
        assert!((min.expect("min set") - 0.5).abs() < 1e-12);
        // Negative thresholds are legal: scores are unbounded below.
        let Ok(Request::Resolve { min, .. }) = parse_request("RESOLVE Foa min=-1.5") else {
            panic!()
        };
        assert!((min.expect("min set") + 1.5).abs() < 1e-12);
    }

    #[test]
    fn resolve_misuse_gets_dedicated_errors() {
        let err = parse_request("RESOLVE").expect_err("name required");
        assert!(err.contains("name argument is required"), "{err}");
        let err = parse_request("RESOLVE k=3").expect_err("name before options");
        assert!(err.contains("name must come before options"), "{err}");
        let err = parse_request("RESOLVE Foa k=0").expect_err("k=0");
        assert!(err.contains("k must be at least 1"), "{err}");
        for bad_k in ["RESOLVE Foa k=three", "RESOLVE Foa k=-1", "RESOLVE Foa k=1.5"] {
            let err = parse_request(bad_k).expect_err(bad_k);
            assert!(err.contains("bad k value"), "{bad_k}: {err}");
        }
        let err = parse_request("RESOLVE Foa min=high").expect_err("bad min");
        assert!(err.contains("bad min value"), "{err}");
        let err = parse_request("RESOLVE Foa k=1 k=2").expect_err("duplicate k");
        assert!(err.contains("duplicate key k"), "{err}");
        let err = parse_request("RESOLVE Foa min=0.1 min=0.2").expect_err("duplicate min");
        assert!(err.contains("duplicate key min"), "{err}");
        let err = parse_request("RESOLVE Foa color=blue").expect_err("unknown key");
        assert!(err.contains("unknown key color"), "{err}");
    }

    #[test]
    fn candidates_render_with_plain_display_scores() {
        let hits = vec![
            RankedEntity {
                entity: RecordId(17),
                score: 0.612_5,
                name: "levi".to_owned(),
                members: vec![RecordId(17), RecordId(203)],
            },
            RankedEntity {
                entity: RecordId(88),
                score: 0.25,
                name: "lewin".to_owned(),
                members: vec![RecordId(88)],
            },
        ];
        assert_eq!(
            format_candidates(&hits),
            "OK 2\n\
             CAND entity=17 score=0.6125 name=levi members=17,203\n\
             CAND entity=88 score=0.25 name=lewin members=88\n\
             .\n"
        );
        assert_eq!(format_candidates(&[]), "OK 0\n.\n");
    }

    #[test]
    fn top_parses_with_optional_k() {
        assert_eq!(parse_request("TOP"), Ok(Request::Top { k: DEFAULT_TOP_SLOW }));
        assert_eq!(parse_request("top k=0"), Ok(Request::Top { k: 0 }));
        assert_eq!(parse_request("TOP k=12"), Ok(Request::Top { k: 12 }));
        let err = parse_request("TOP k=many").expect_err("bad k");
        assert!(err.contains("bad k value"), "{err}");
        let err = parse_request("TOP k=1 k=2").expect_err("duplicate k");
        assert!(err.contains("duplicate key k"), "{err}");
        let err = parse_request("TOP depth=3").expect_err("unknown key");
        assert!(err.contains("unknown key depth"), "{err}");
    }

    #[test]
    fn trace_parses_hex_ids_with_or_without_wire_prefix() {
        assert_eq!(
            parse_request("TRACE 00ab00cd00ef0011"),
            Ok(Request::Trace { id: 0x00ab_00cd_00ef_0011 })
        );
        // The exact token the server printed can be pasted back.
        assert_eq!(
            parse_request("trace trace=ff00000000000001"),
            Ok(Request::Trace { id: 0xff00_0000_0000_0001 })
        );
        assert_eq!(parse_request("TRACE 1f"), Ok(Request::Trace { id: 0x1f }));
        let err = parse_request("TRACE").expect_err("id required");
        assert!(err.contains("trace id argument is required"), "{err}");
        let err = parse_request("TRACE zebra").expect_err("bad hex");
        assert!(err.contains("bad trace id"), "{err}");
        let err = parse_request("TRACE 0").expect_err("zero id");
        assert!(err.contains("untraced"), "{err}");
        // TRACE has one rendering and takes no options.
        for (line, key) in [("TRACE 1f format=json", "format"), ("TRACE 1f color=blue", "color")] {
            let err = parse_request(line).expect_err("unknown key");
            assert!(err.contains(&format!("unknown key {key}")), "{err}");
        }
    }

    #[test]
    fn unknown_command_error_lists_top_and_trace() {
        let err = parse_request("FROB").expect_err("unknown");
        assert!(err.contains("TOP"), "{err}");
        assert!(err.contains("TRACE"), "{err}");
        assert!(err.contains("HISTORY"), "{err}");
    }

    #[test]
    fn history_parses_metric_window_tier_and_format() {
        assert_eq!(
            parse_request("HISTORY query"),
            Ok(Request::History { metric: "query".to_owned(), window: WINDOW_BUCKETS })
        );
        // The metric is case-insensitive.
        assert_eq!(
            parse_request("history QUERY window=5"),
            Ok(Request::History { metric: "query".to_owned(), window: 5 })
        );
        let err = parse_request("HISTORY").expect_err("metric required");
        assert!(err.contains("metric argument is required"), "{err}");
        let err = parse_request("HISTORY window=5").expect_err("bare metric");
        assert!(err.contains("bare metric name"), "{err}");
        let err = parse_request("HISTORY query window=0").expect_err("zero window");
        assert!(err.contains("out of range"), "{err}");
        let err = parse_request("HISTORY query window=61").expect_err("oversized window");
        assert!(err.contains("out of range"), "{err}");
        let err = parse_request("HISTORY query window=soon").expect_err("bad window");
        assert!(err.contains("bad window value"), "{err}");
        // One tier and one rendering: `tier=` and `format=` are unknown
        // keys like any other.
        for key in ["tier=s", "format=json", "depth=3"] {
            let err = parse_request(&format!("HISTORY query {key}")).expect_err("unknown key");
            let name = key.split('=').next().unwrap();
            assert!(err.contains(&format!("unknown key {name}")), "{err}");
        }
    }

    fn sample_view() -> (WindowView, SloRule, SloStatus) {
        let h1 = yv_obs::Histogram::new();
        for us in [10u64, 20, 30] {
            h1.record_ns(us * 1_000);
        }
        let b1 = h1.snapshot();
        let h2 = yv_obs::Histogram::new();
        h2.record_ns(100_000);
        let b2 = h2.snapshot();
        let merged = b1.merge(&b2);
        let view = WindowView {
            window: 5,
            now_epoch: 9,
            merged,
            buckets: vec![(7, b1), (8, b2)],
        };
        let rule =
            SloRule { metric: "query".to_owned(), p: 0.99, threshold_us: 1000, window: 60 };
        let status = rule.evaluate(&merged, &merged);
        (view, rule, status)
    }

    #[test]
    fn history_formats_exact_rows() {
        let (view, rule, status) = sample_view();
        assert_eq!(
            format_history("query", &view, &[(rule, status)]),
            "OK history metric=query window=5 now_epoch=9 buckets=2\n\
             WINDOW count=4 mean_us=40 p50_us=24 p95_us=100 p99_us=100 min_us=10 max_us=100\n\
             SLO metric=query p=0.99 threshold_us=1000 window=60 short_window=10 state=ok \
             burn_long_pct=0 burn_short_pct=0\n\
             BUCKET epoch=7 count=3 mean_us=20 p50_us=24 max_us=30\n\
             BUCKET epoch=8 count=1 mean_us=100 p50_us=100 max_us=100\n\
             .\n"
        );
    }

    #[test]
    fn trace_token_splices_onto_ok_status_lines_only() {
        assert_eq!(
            with_trace_token("OK 2\nHIT seed=1 entity=1\n.\n", 0xab),
            "OK 2 trace=00000000000000ab\nHIT seed=1 entity=1\n.\n"
        );
        assert_eq!(
            with_trace_token("OK matches=3\n.\n", 0x1234_5678_9abc_def0),
            "OK matches=3 trace=123456789abcdef0\n.\n"
        );
        // ERR responses and untraced requests pass through untouched.
        assert_eq!(with_trace_token("ERR nope\n.\n", 0xab), "ERR nope\n.\n");
        assert_eq!(with_trace_token("OK 2\n.\n", 0), "OK 2\n.\n");
    }

    fn sample_trace() -> RequestTrace {
        use std::sync::Arc;
        use yv_obs::{Clock, ManualClock, TraceCtx};
        let clock = Arc::new(ManualClock::at(50_000));
        let mut ctx = TraceCtx::start(0x00ab_00cd_00ef_0011, 3, Arc::clone(&clock) as Arc<dyn Clock>);
        ctx.set_command("RESOLVE");
        ctx.annotate("name_digest", 0xdead_beef);
        ctx.enter("parse");
        clock.advance(1_500);
        ctx.exit();
        ctx.enter("shard_fanout");
        for shard in 0..2u32 {
            ctx.enter_shard("shard", shard);
            ctx.arg("cands", u64::from(shard) + 2);
            clock.advance(10_000);
            ctx.exit();
        }
        ctx.exit();
        ctx.enter("merge");
        clock.advance(3_000);
        ctx.exit();
        ctx.finish(true).expect("enabled ctx")
    }

    #[test]
    fn trace_renders_a_parseable_span_tree_with_relative_starts() {
        let rendered = format_trace(&sample_trace());
        assert_eq!(
            rendered,
            "OK trace=00ab00cd00ef0011 command=RESOLVE status=ok conn=3 total_ns=24500 \
             spans=5 dropped=0 name_digest=3735928559\n\
             SPAN name=parse depth=0 start_ns=0 dur_ns=1500\n\
             SPAN name=shard_fanout depth=0 start_ns=1500 dur_ns=20000\n\
             \x20\x20SPAN name=shard depth=1 shard=0 start_ns=1500 dur_ns=10000 cands=2\n\
             \x20\x20SPAN name=shard depth=1 shard=1 start_ns=11500 dur_ns=10000 cands=3\n\
             SPAN name=merge depth=0 start_ns=21500 dur_ns=3000\n\
             .\n"
        );
        // Byte-identical across runs: the same ManualClock schedule
        // renders the same bytes, whatever the clock origin was.
        assert_eq!(rendered, format_trace(&sample_trace()));
    }

    #[test]
    fn top_renders_ring_cmd_and_slow_rows() {
        let ring = RingStats {
            capacity: 512,
            occupancy: 17,
            captured: 912,
            evicted: 400,
            sampled: 2,
            last_slow: 0x00ab_00cd_00ef_0011,
        };
        let rows = [CommandStats {
            name: "RESOLVE",
            count: 4,
            errors: 0,
            mean_us: 388,
            p50_us: 256,
            p95_us: 512,
            p99_us: 512,
            max_us: 497,
        }];
        let slow = [sample_trace()];
        assert_eq!(
            format_top(&ring, &rows, &slow),
            "OK top\n\
             RING capacity=512 occupancy=17 captured=912 evicted=400 sampled=2 \
             last_slow_trace=00ab00cd00ef0011\n\
             CMD RESOLVE count=4 errors=0 mean_us=388 p50_us=256 p95_us=512 p99_us=512 \
             max_us=497\n\
             SLOW trace=00ab00cd00ef0011 command=RESOLVE status=ok conn=3 total_ns=24500 \
             spans=5\n\
             .\n"
        );
        assert_eq!(
            format_top(&RingStats::default(), &[], &[]),
            "OK top\nRING capacity=0 occupancy=0 captured=0 evicted=0 sampled=0 \
             last_slow_trace=0000000000000000\n.\n"
        );
    }

    #[test]
    fn hits_render_with_terminator() {
        let hits = vec![QueryHit {
            seed: RecordId(17),
            entity: vec![RecordId(17), RecordId(203)],
        }];
        assert_eq!(format_hits(&hits), "OK 1\nHIT seed=17 entity=17,203\n.\n");
        assert_eq!(format_hits(&[]), "OK 0\n.\n");
    }
}
