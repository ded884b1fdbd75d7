//! The `yv serve` line protocol.
//!
//! One request per line, `key=value` tokens separated by whitespace
//! (values therefore cannot contain spaces; the binary framing in
//! [`crate::frame`] carries any value). [`parse_request`] reads a line into
//! the one request type, [`RequestFrame`], and [`render_request`] writes
//! one back. Responses are one `OK ...` or `ERR ...` status line, zero or
//! more data lines, and a lone `.` terminator:
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
//! < CMD QUERY count=240 errors=0 mean_us=412 p50_us=301 p95_us=1190 p99_us=1812 max_us=1940
//! < CMD ADD count=12 errors=1 mean_us=95 p50_us=88 p95_us=210 p99_us=221 max_us=221
//! < CMD SNAPSHOT count=1 errors=0 mean_us=5210 p50_us=5210 p95_us=5210 p99_us=5210 max_us=5210
//! < .
//! > TOP k=1
//! < OK top
//! < RING capacity=512 occupancy=253 captured=253 evicted=0 sampled=2 last_slow_trace=b10e24d1fa8c0f37
//! < CMD QUERY count=240 errors=0 mean_us=412 p50_us=301 p95_us=1190 p99_us=1812 max_us=1940
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
//! < WINDOW count=240 mean_us=412 p50_us=301 p95_us=1190 p99_us=1812 min_us=38 max_us=1940
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
use std::fmt::{self, Write as _};
use yv_core::{PersonQuery, QueryHit};
use yv_fuzzy::RankedEntity;
use crate::shard::ShardStats;
use crate::store::StoreStats;
use yv_obs::{
    HistogramSnapshot, LatencySummary, RequestTrace, RingStats, SloRule, SloStatus, WindowView,
    WINDOW_BUCKETS,
};
use yv_records::{DateParts, Gender, Record, RecordBuilder, RecordId, SourceId};

/// Slow-trace summary rows a bare `TOP` returns.
pub const DEFAULT_TOP_SLOW: usize = 5;

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
    command_list(|(kind, _)| kind)
}

/// The ten commands as an error lists them, `column` picking the kind or
/// the name (`QUERY, RESOLVE, … or SHUTDOWN`).
fn command_list(column: fn((&'static str, &'static str)) -> &'static str) -> String {
    let [names @ .., last] = COMMANDS.map(column);
    format!("{} or {last}", names.join(", "))
}

/// The response terminator line.
pub const TERMINATOR: &str = ".";

/// Parse one request line. Errors are human-readable strings destined for
/// an `ERR` response.
///
/// The parsers own the *syntax* — numbers, keys, duplicates, argument
/// order — and collect the raw optionals into a [`RequestFrame`]; the
/// semantic refusals live once, in [`RequestFrame::checked`], for both
/// transports.
pub fn parse_request(line: &str) -> Result<RequestFrame, String> {
    let mut tokens = line.split_whitespace();
    let command = tokens.next().ok_or_else(|| "empty request".to_owned())?;
    let args: Vec<&str> = tokens.collect();
    let no_args = |request: RequestFrame| expect_no_args(request.name(), &args).map(|()| request);
    let request = match command.to_ascii_uppercase().as_str() {
        "QUERY" => parse_query(&args),
        "RESOLVE" => parse_resolve(&args),
        "ADD" => parse_add(&args).map(|r| RequestFrame::Add(Box::new(r))),
        "STATS" => no_args(RequestFrame::Stats),
        "METRICS" => no_args(RequestFrame::Metrics),
        "TOP" => parse_top(&args),
        "TRACE" => parse_trace(&args),
        "HISTORY" => parse_history(&args),
        "SNAPSHOT" => no_args(RequestFrame::Snapshot),
        "SHUTDOWN" => no_args(RequestFrame::Shutdown),
        other => {
            Err(format!("unknown command {other}; expected {}", command_list(|(_, name)| name)))
        }
    };
    request.and_then(RequestFrame::checked)
}

/// Parse `TOP [k=N]` — live per-command stats plus the `N` most recent
/// slow-trace summaries.
fn parse_top(args: &[&str]) -> Result<RequestFrame, String> {
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
    Ok(RequestFrame::Top { k })
}

/// Parse `TRACE <id>`. The id is the hex token the server returned
/// (`trace=` prefix tolerated, so the wire token can be pasted back
/// verbatim); it takes no options.
fn parse_trace(args: &[&str]) -> Result<RequestFrame, String> {
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
    Ok(RequestFrame::Trace { id })
}

/// Parse `HISTORY <metric> [window=N]`.
/// The metric comes first as a bare token (a command kind, matched
/// case-insensitively so `HISTORY QUERY` and `HISTORY query` agree);
/// the server rejects kinds it does not track.
fn parse_history(args: &[&str]) -> Result<RequestFrame, String> {
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
    Ok(RequestFrame::History { metric: metric.to_owned(), window })
}

/// Parse `RESOLVE <name> [k=N] [min=SCORE]`. The name comes first as a
/// bare token; the options follow as `key=value` with the same
/// duplicate-key discipline as `QUERY`. Non-numeric `k`/`min` values are
/// refused here; `k=0` and a NaN `min`, which would silently answer
/// nothing, by [`RequestFrame::checked`].
fn parse_resolve(args: &[&str]) -> Result<RequestFrame, String> {
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
    Ok(RequestFrame::Resolve { name: name.to_owned(), k, min })
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

fn parse_query(args: &[&str]) -> Result<RequestFrame, String> {
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
    Ok(RequestFrame::Query(query))
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

/// Render a request as its text line (no newline), the inverse of
/// [`parse_request`]: the line parses back to the request, checked. Floats
/// use plain `Display`, which parses back to the same bits. A request the
/// line format cannot carry is refused, naming what: `BATCH_ADD`, an empty
/// value or one holding whitespace, a bare token holding `=`, a record's
/// `mothers_maiden` or places.
pub fn render_request(request: &RequestFrame) -> Result<String, String> {
    let mut line = request.name().to_owned();
    match request {
        RequestFrame::Query(query) => {
            if let Some(first) = &query.first_name {
                push_kv(&mut line, "first", first)?;
            }
            if let Some(last) = &query.last_name {
                push_kv(&mut line, "last", last)?;
            }
            push_kv(&mut line, "similarity", &query.name_similarity.to_string())?;
            push_kv(&mut line, "certainty", &query.certainty.to_string())?;
        }
        RequestFrame::Resolve { name, k, min } => {
            push_bare(&mut line, "name", name)?;
            if let Some(k) = k {
                push_kv(&mut line, "k", &k.to_string())?;
            }
            if let Some(min) = min {
                push_kv(&mut line, "min", &min.to_string())?;
            }
        }
        RequestFrame::Add(record) => render_add(&mut line, record)?,
        RequestFrame::BatchAdd(_) => {
            return Err(
                "BATCH_ADD has no line-protocol encoding; connect with Protocol::Binary".to_owned()
            )
        }
        RequestFrame::Top { k: Some(k) } => push_kv(&mut line, "k", &k.to_string())?,
        RequestFrame::Trace { id } => {
            let _ = write!(line, " {id:016x}");
        }
        RequestFrame::History { metric, window } => {
            push_bare(&mut line, "metric", metric)?;
            if let Some(window) = window {
                push_kv(&mut line, "window", &window.to_string())?;
            }
        }
        RequestFrame::Top { k: None }
        | RequestFrame::Stats
        | RequestFrame::Metrics
        | RequestFrame::Snapshot
        | RequestFrame::Shutdown => {}
    }
    Ok(line)
}

/// Check a value is wire-safe (non-empty, no whitespace) and return it.
fn wire_value<'a>(key: &str, value: &'a str) -> Result<&'a str, String> {
    if value.is_empty() {
        return Err(format!("{key} value is empty"));
    }
    if value.chars().any(char::is_whitespace) {
        return Err(format!("{key} value {value:?} contains whitespace"));
    }
    Ok(value)
}

/// Append a bare positional token (`RESOLVE`'s name, `HISTORY`'s metric).
/// A token holding `=` would parse back as an option, so it is refused.
fn push_bare(out: &mut String, key: &str, value: &str) -> Result<(), String> {
    if value.contains('=') {
        return Err(format!("{key} value {value:?} contains '='"));
    }
    out.push(' ');
    out.push_str(wire_value(key, value)?);
    Ok(())
}

fn push_kv(out: &mut String, key: &str, value: &str) -> Result<(), String> {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    out.push_str(wire_value(key, value)?);
    Ok(())
}

/// Append a record's `ADD` keys, or refuse if it holds anything the line
/// format cannot carry.
fn render_add(out: &mut String, record: &Record) -> Result<(), String> {
    if record.mothers_maiden.is_some() {
        return Err("mothers_maiden has no ADD key".to_owned());
    }
    if record.places.iter().any(Option::is_some) {
        return Err("places have no ADD keys".to_owned());
    }
    push_kv(out, "book", &record.book_id.to_string())?;
    push_kv(out, "source", &record.source.0.to_string())?;
    for first in &record.first_names {
        push_kv(out, "first", first)?;
    }
    for last in &record.last_names {
        push_kv(out, "last", last)?;
    }
    let scalars = [
        ("maiden", &record.maiden_name),
        ("father", &record.father_name),
        ("mother", &record.mother_name),
        ("spouse", &record.spouse_name),
        ("profession", &record.profession),
    ];
    for (key, value) in scalars {
        if let Some(value) = value {
            push_kv(out, key, value)?;
        }
    }
    if let Some(gender) = record.gender {
        let code = match gender {
            Gender::Male => "m",
            Gender::Female => "f",
        };
        push_kv(out, "gender", code)?;
    }
    if let Some(day) = record.birth.day {
        push_kv(out, "day", &day.to_string())?;
    }
    if let Some(month) = record.birth.month {
        push_kv(out, "month", &month.to_string())?;
    }
    if let Some(year) = record.birth.year {
        push_kv(out, "year", &year.to_string())?;
    }
    Ok(())
}

/// Bytes a `trace=<id>` token adds to a status line: a space, `trace=`
/// and 16 hex digits. [`format_hits`], [`format_candidates`] and
/// [`format_status`] leave this much room behind their block, so
/// [`insert_trace_token`] neither copies nor grows it.
const TRACE_TOKEN_LEN: usize = 23;

/// Bytes of a status line `OK <n>`, its newline, and the terminator line.
fn counted_block_len(n: usize) -> usize {
    "OK ".len() + display_len(n) + 1 + TERMINATOR.len() + 1
}

/// Bytes `value`'s `Display` writes, counted without writing them.
fn display_len(value: impl fmt::Display) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = write!(count, "{value}");
    count.0
}

/// Decimal digits of `n`.
fn digits(n: u32) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Bytes of `ids` rendered comma-separated.
fn ids_len(ids: &[RecordId]) -> usize {
    ids.iter().map(|id| digits(id.0)).sum::<usize>() + ids.len().saturating_sub(1)
}

fn push_ids(out: &mut String, ids: &[RecordId]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_id(out, id.0);
    }
}

/// Append `id` in decimal without the formatting machinery: ids are most
/// of a `QUERY` reply's bytes.
fn push_id(out: &mut String, id: u32) {
    const DIGITS: &[u8; 10] = b"0123456789";
    let mut buf = [0u8; 10];
    let mut at = buf.len();
    let mut rest = id;
    loop {
        at -= 1;
        buf[at] = DIGITS[(rest % 10) as usize];
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        out.push_str(digits);
    }
}

/// Render query hits as response lines (status, data, terminator), into
/// one `String` sized for them and a trace token.
#[must_use]
pub fn format_hits(hits: &[QueryHit]) -> String {
    const HIT: usize = "HIT seed= entity=\n".len();
    let len = counted_block_len(hits.len())
        + hits.iter().map(|hit| HIT + digits(hit.seed.0) + ids_len(&hit.entity)).sum::<usize>();
    let mut out = String::with_capacity(len + TRACE_TOKEN_LEN);
    let _ = writeln!(out, "OK {}", hits.len());
    for hit in hits {
        out.push_str("HIT seed=");
        push_id(&mut out, hit.seed.0);
        out.push_str(" entity=");
        push_ids(&mut out, &hit.entity);
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    debug_assert_eq!(out.len(), len);
    out
}

/// Render ranked `RESOLVE` candidates as response lines (status, one
/// `CAND` line per hit, terminator), into one `String` sized for them and
/// a trace token. Scores use plain `Display` — no fixed-precision
/// rounding — so identical rankings render to identical bytes and the
/// restart-identity tests can compare responses directly.
#[must_use]
pub fn format_candidates(hits: &[RankedEntity]) -> String {
    const CAND: usize = "CAND entity= score= name= members=\n".len();
    let cand_len = |hit: &RankedEntity| {
        let fields = digits(hit.entity.0) + display_len(hit.score) + hit.name.len();
        CAND + fields + ids_len(&hit.members)
    };
    let len = counted_block_len(hits.len()) + hits.iter().map(cand_len).sum::<usize>();
    let mut out = String::with_capacity(len + TRACE_TOKEN_LEN);
    let _ = writeln!(out, "OK {}", hits.len());
    for hit in hits {
        out.push_str("CAND entity=");
        push_id(&mut out, hit.entity.0);
        let _ = write!(out, " score={}", hit.score);
        out.push_str(" name=");
        out.push_str(&hit.name);
        out.push_str(" members=");
        push_ids(&mut out, &hit.members);
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    debug_assert_eq!(out.len(), len);
    out
}

/// Render a single-status response (`OK ...` / `ERR ...`), into one
/// `String` sized for it and a trace token. `format_args!` renders a
/// formatted status without a `String` of its own.
#[must_use]
pub fn format_status(status: impl fmt::Display) -> String {
    let len = display_len(&status) + 1 + TERMINATOR.len() + 1;
    let mut out = String::with_capacity(len + TRACE_TOKEN_LEN);
    let _ = write!(out, "{status}\n{TERMINATOR}\n");
    debug_assert_eq!(out.len(), len);
    out
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

/// One `CMD` row of the `STATS` and `TOP` responses: request/error counts
/// and a latency summary in integer microseconds
/// ([`yv_obs::HistogramSnapshot::summary`]: interpolated percentiles,
/// clamped to the exact min and max). `count` is the number of latency-measured
/// requests — successes *and* errors — read from the same histogram
/// snapshot as the percentiles, so the row always describes one
/// consistent instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandStats {
    /// The command's name, a row of [`COMMANDS`].
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

/// The `STATS` response: the store-wide counters of the status line, one
/// `SHARD` row per shard (their count is the status line's `shards=`) and
/// one `CMD` row per command kind.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    pub records: usize,
    pub sources: usize,
    pub matches: usize,
    pub wal_entries: usize,
    pub wal_bytes: u64,
    /// WAL `sync_data` calls since the server's store was opened.
    pub wal_syncs: u64,
    pub vocabulary: usize,
    pub fuzzy_names: usize,
    pub fuzzy_grams: usize,
    pub fuzzy_postings: usize,
    pub fuzzy_examined: u64,
    pub fuzzy_pruned: u64,
    /// Failed requests: parse failures plus every command's errors.
    pub errors: u64,
    pub shard_rows: Vec<ShardStats>,
    pub commands: Vec<CommandStats>,
}

impl StatsReport {
    /// The report for a store's counters, the server's error total and
    /// its per-command rows.
    #[must_use]
    pub fn new(stats: StoreStats, errors: u64, commands: Vec<CommandStats>) -> StatsReport {
        StatsReport {
            records: stats.records,
            sources: stats.sources,
            matches: stats.matches,
            wal_entries: stats.wal_entries,
            wal_bytes: stats.wal_bytes,
            wal_syncs: stats.wal_syncs,
            vocabulary: stats.vocabulary,
            fuzzy_names: stats.fuzzy_names,
            fuzzy_grams: stats.fuzzy_grams,
            fuzzy_postings: stats.fuzzy_postings,
            fuzzy_examined: stats.fuzzy_examined,
            fuzzy_pruned: stats.fuzzy_pruned,
            errors,
            shard_rows: stats.shards,
            commands,
        }
    }
}

/// Render the `STATS` response: the store-wide status line, one `SHARD`
/// data line per shard, one `CMD` data line per command kind, and the
/// terminator.
#[must_use]
pub fn format_stats(r: &StatsReport) -> String {
    let mut out = format!(
        "OK records={} sources={} matches={} shards={} wal={} wal_bytes={} wal_syncs={} \
         vocabulary={} fuzzy_names={} fuzzy_grams={} fuzzy_postings={} fuzzy_examined={} \
         fuzzy_pruned={} errors={}\n",
        r.records,
        r.sources,
        r.matches,
        r.shard_rows.len(),
        r.wal_entries,
        r.wal_bytes,
        r.wal_syncs,
        r.vocabulary,
        r.fuzzy_names,
        r.fuzzy_grams,
        r.fuzzy_postings,
        r.fuzzy_examined,
        r.fuzzy_pruned,
        r.errors,
    );
    for s in &r.shard_rows {
        let _ = writeln!(
            out,
            "SHARD {} records={} wal={} wal_bytes={}",
            s.shard, s.records, s.wal_entries, s.wal_bytes
        );
    }
    for c in &r.commands {
        push_cmd_row(&mut out, c);
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

fn push_cmd_row(out: &mut String, c: &CommandStats) {
    let _ = writeln!(
        out,
        "CMD {} count={} errors={} mean_us={} p50_us={} p95_us={} p99_us={} max_us={}",
        c.name, c.count, c.errors, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.max_us
    );
}

/// Put a `trace=<id>` token at the end of a response's `OK` status line,
/// in place: the block's later lines move up by `TRACE_TOKEN_LEN` bytes
/// into the room its renderer left. `ERR` responses and the untraced id 0
/// stay untouched — the token is a success artifact a client can paste
/// into `TRACE`.
pub fn insert_trace_token(block: &mut String, trace_id: u64) {
    if trace_id == 0 || !block.starts_with("OK") {
        return;
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut token = *b" trace=0000000000000000";
    for (pair, byte) in token[7..].chunks_exact_mut(2).zip(trace_id.to_be_bytes()) {
        pair[0] = HEX[usize::from(byte >> 4)];
        pair[1] = HEX[usize::from(byte & 0xf)];
    }
    let end = block.find('\n').unwrap_or(block.len());
    if let Ok(token) = std::str::from_utf8(&token) {
        block.insert_str(end, token);
    }
}

fn push_span_args(out: &mut String, args: &[(&'static str, u64)]) {
    for (key, value) in args {
        let _ = write!(out, " {key}={value}");
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
        let _ = write!(out, "SPAN name={} depth={}", span.name, span.depth);
        if let Some(shard) = span.shard() {
            let _ = write!(out, " shard={shard}");
        }
        let _ = write!(
            out,
            " start_ns={} dur_ns={}",
            span.start_ns.saturating_sub(trace.start_ns),
            span.dur_ns
        );
        push_span_args(&mut out, span.args());
        out.push('\n');
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// One `SLOW` row of the `TOP` response: a tail-sampled request's
/// summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRow {
    pub trace: u64,
    /// The command name the trace was sealed with (a [`COMMANDS`] name,
    /// `BATCH_ADD` or `INVALID`).
    pub command: String,
    pub ok: bool,
    pub conn: u64,
    pub total_ns: u64,
    pub spans: usize,
}

impl From<&RequestTrace> for SlowRow {
    fn from(trace: &RequestTrace) -> SlowRow {
        SlowRow {
            trace: trace.id,
            command: trace.command.to_owned(),
            ok: trace.ok,
            conn: trace.conn,
            total_ns: trace.total_ns,
            spans: trace.spans().len(),
        }
    }
}

/// The `TOP` response: the capture-ring counters, one `CMD` row per
/// command kind (the rows `STATS` prints) and the recent tail-sampled
/// requests, newest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopReport {
    pub ring: RingStats,
    pub commands: Vec<CommandStats>,
    pub slow: Vec<SlowRow>,
}

/// Render the `TOP` response: status line, a `RING` data line, the `CMD`
/// rows and one `SLOW` line per slow row.
#[must_use]
pub fn format_top(r: &TopReport) -> String {
    let ring = &r.ring;
    let mut out = format!(
        "OK top\nRING capacity={} occupancy={} captured={} evicted={} sampled={} \
         last_slow_trace={:016x}\n",
        ring.capacity, ring.occupancy, ring.captured, ring.evicted, ring.sampled, ring.last_slow
    );
    for c in &r.commands {
        push_cmd_row(&mut out, c);
    }
    for s in &r.slow {
        let _ = writeln!(
            out,
            "SLOW trace={:016x} command={} status={} conn={} total_ns={} spans={}",
            s.trace,
            s.command,
            if s.ok { "ok" } else { "err" },
            s.conn,
            s.total_ns,
            s.spans
        );
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

/// One `BUCKET` row of the `HISTORY` response: a closed one-second
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryBucketRow {
    pub epoch: u64,
    pub count: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub max_us: u64,
}

/// The `HISTORY` response: the resolved metric and window, the `WINDOW`
/// summary over every in-window sample, the SLO rule watching the metric
/// (at most one) with its evaluated state, and the non-empty closed
/// buckets (ascending epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryReport {
    pub metric: String,
    pub window: usize,
    /// The currently open epoch; buckets cover `[now_epoch - window,
    /// now_epoch)`.
    pub now_epoch: u64,
    pub summary: LatencySummary,
    pub slo: Vec<(SloRule, SloStatus)>,
    pub buckets: Vec<HistoryBucketRow>,
}

impl HistoryReport {
    /// The report for `metric`'s windowed view and its evaluated rules.
    #[must_use]
    pub fn new(metric: &str, view: &WindowView, slo: Vec<(SloRule, SloStatus)>) -> HistoryReport {
        let bucket = |&(epoch, ref snap): &(u64, HistogramSnapshot)| {
            let LatencySummary { count, mean_us, p50_us, max_us, .. } = snap.summary();
            HistoryBucketRow { epoch, count, mean_us, p50_us, max_us }
        };
        HistoryReport {
            metric: metric.to_owned(),
            window: view.window,
            now_epoch: view.now_epoch,
            summary: view.merged.summary(),
            slo,
            buckets: view.buckets.iter().map(bucket).collect(),
        }
    }
}

/// Render the `HISTORY` response: a status line carrying the resolved
/// metric/window, the `WINDOW` row, one `SLO` row per rule (with its
/// derived short window) and one `BUCKET` row per bucket.
#[must_use]
pub fn format_history(r: &HistoryReport) -> String {
    let mut out = format!(
        "OK history metric={} window={} now_epoch={} buckets={}\n",
        r.metric,
        r.window,
        r.now_epoch,
        r.buckets.len()
    );
    let s = &r.summary;
    let _ = writeln!(
        out,
        "WINDOW count={} mean_us={} p50_us={} p95_us={} p99_us={} min_us={} max_us={}",
        s.count, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.min_us, s.max_us
    );
    for (rule, status) in &r.slo {
        let _ = writeln!(
            out,
            "SLO metric={} p={} threshold_us={} window={} short_window={} state={} \
             burn_long_pct={} burn_short_pct={}",
            rule.metric,
            rule.p,
            rule.threshold_us,
            rule.window,
            rule.short_window(),
            status.state.label(),
            status.burn_long_pct,
            status.burn_short_pct
        );
    }
    for b in &r.buckets {
        let _ = writeln!(
            out,
            "BUCKET epoch={} count={} mean_us={} p50_us={} max_us={}",
            b.epoch, b.count, b.mean_us, b.p50_us, b.max_us
        );
    }
    out.push_str(TERMINATOR);
    out.push('\n');
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use yv_records::RecordId;

    #[test]
    fn query_parses_all_knobs() {
        let req = parse_request("QUERY first=Guido last=Foa similarity=0.9 certainty=1.5");
        let Ok(RequestFrame::Query(q)) = req else { panic!("{req:?}") };
        assert_eq!(q.first_name.as_deref(), Some("Guido"));
        assert_eq!(q.last_name.as_deref(), Some("Foa"));
        assert!((q.name_similarity - 0.9).abs() < 1e-12);
        assert!((q.certainty - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bare_query_is_unconstrained() {
        let Ok(RequestFrame::Query(q)) = parse_request("QUERY") else { panic!() };
        assert_eq!(q.first_name, None);
        assert_eq!(q.last_name, None);
    }

    #[test]
    fn add_builds_a_record() {
        let line = "ADD book=99 source=2 first=Sara last=Levi gender=f day=3 month=7 year=1921";
        let Ok(RequestFrame::Add(r)) = parse_request(line) else { panic!() };
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
        let Ok(RequestFrame::Add(r)) =
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
        assert_eq!(parse_request("METRICS"), Ok(RequestFrame::Metrics));
        assert_eq!(parse_request("metrics"), Ok(RequestFrame::Metrics));
        assert_eq!(RequestFrame::Metrics.name(), "METRICS");
        assert_eq!(RequestFrame::Stats.name(), "STATS");
        assert_eq!(RequestFrame::Shutdown.name(), "SHUTDOWN");
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

    pub(crate) fn sample_stats() -> StatsReport {
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
        StatsReport {
            records: 7,
            sources: 2,
            matches: 9,
            wal_entries: 1,
            wal_bytes: 104,
            wal_syncs: 3,
            errors: 1,
            shard_rows: vec![
                ShardStats { shard: 0, records: 5, wal_entries: 1, wal_bytes: 104 },
                ShardStats { shard: 1, records: 2, wal_entries: 0, wal_bytes: 0 },
            ],
            commands: rows.to_vec(),
            ..StatsReport::default()
        }
    }

    #[test]
    fn stats_render_one_cmd_line_per_command() {
        assert_eq!(
            format_stats(&sample_stats()),
            "OK records=7 sources=2 matches=9 shards=2 wal=1 wal_bytes=104 wal_syncs=3 \
             vocabulary=0 fuzzy_names=0 fuzzy_grams=0 fuzzy_postings=0 fuzzy_examined=0 \
             fuzzy_pruned=0 errors=1\n\
             SHARD 0 records=5 wal=1 wal_bytes=104\n\
             SHARD 1 records=2 wal=0 wal_bytes=0\n\
             CMD QUERY count=3 errors=0 mean_us=40 p50_us=32 p95_us=64 p99_us=64 max_us=57\n\
             CMD ADD count=0 errors=1 mean_us=0 p50_us=0 p95_us=0 p99_us=0 max_us=0\n\
             .\n"
        );
        assert!(format_stats(&StatsReport::default()).ends_with(" errors=0\n.\n"));
    }

    #[test]
    fn resolve_parses_name_and_options() {
        let Ok(RequestFrame::Resolve { name, k, min }) = parse_request("RESOLVE Lewi") else {
            panic!()
        };
        assert_eq!(name, "Lewi");
        assert_eq!(k, None);
        assert_eq!(min, None);

        let Ok(RequestFrame::Resolve { name, k, min }) = parse_request("resolve Foa k=3 min=0.5")
        else {
            panic!()
        };
        assert_eq!(name, "Foa");
        assert_eq!(k, Some(3));
        assert!((min.expect("min set") - 0.5).abs() < 1e-12);
        // Negative thresholds are legal: scores are unbounded below.
        let Ok(RequestFrame::Resolve { min, .. }) = parse_request("RESOLVE Foa min=-1.5") else {
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

    /// No score clears a NaN floor, so `min=NaN` would answer `OK 0`.
    #[test]
    fn resolve_refuses_a_nan_min() {
        let err = parse_request("RESOLVE Levi min=NaN").expect_err("NaN min");
        assert_eq!(err, "RESOLVE: bad min value \"NaN\"");
    }

    /// A full text-encodable record: every `ADD` key set, names repeated.
    fn text_record() -> Record {
        RecordBuilder::new(99, SourceId(2))
            .first_name("Sara")
            .first_name("Sura")
            .last_name("Levi")
            .maiden_name("Roth")
            .father_name("Moshe")
            .mother_name("Rivka")
            .spouse_name("David")
            .profession("tailor")
            .gender(Gender::Female)
            .birth(DateParts::full(3, 7, 1921))
            .build()
    }

    /// Rendering then parsing gives back the checked request, and encoding
    /// then decoding gives back the request.
    fn assert_round_trips(request: RequestFrame) {
        let checked = request.clone().checked().expect("a valid request");
        let line = render_request(&request).expect("renderable");
        assert_eq!(parse_request(&line), Ok(checked), "{line}");
        let bytes = request.encode().expect("encodable");
        let decoded = RequestFrame::read(&mut bytes.as_slice()).expect("decodable");
        assert_eq!(decoded, Some(request));
    }

    #[test]
    fn query_round_trips() {
        // Plain `Display` floats parse back to the same bits.
        for (similarity, certainty) in [(0.91, 1.25), (0.1 + 0.2, 1.0 / 3.0), (-0.0, 1e300)] {
            assert_round_trips(RequestFrame::Query(PersonQuery {
                first_name: Some("Guido".into()),
                last_name: Some("Foa".into()),
                name_similarity: similarity,
                certainty,
            }));
        }
        assert_round_trips(RequestFrame::Query(PersonQuery::default()));
    }

    #[test]
    fn resolve_round_trips() {
        for (k, min) in [(Some(3), Some(0.25)), (None, Some(-1.5)), (None, None)] {
            assert_round_trips(RequestFrame::Resolve { name: "levi".into(), k, min });
        }
    }

    #[test]
    fn add_round_trips() {
        assert_round_trips(RequestFrame::Add(Box::new(text_record())));
        let bare = RecordBuilder::new(1, SourceId(0)).build();
        assert_round_trips(RequestFrame::Add(Box::new(bare)));
    }

    #[test]
    fn batch_add_round_trips_as_a_frame_only() {
        let batch = RequestFrame::BatchAdd(vec![text_record(), text_record()]);
        let bytes = batch.encode().expect("encodable");
        let decoded = RequestFrame::read(&mut bytes.as_slice()).expect("decodable");
        assert_eq!(decoded, Some(batch.clone()));
        let err = render_request(&batch).expect_err("no line form");
        assert!(err.contains("BATCH_ADD has no line-protocol encoding"), "{err}");
    }

    #[test]
    fn stats_round_trips() {
        assert_round_trips(RequestFrame::Stats);
    }

    #[test]
    fn metrics_round_trips() {
        assert_round_trips(RequestFrame::Metrics);
    }

    #[test]
    fn top_round_trips() {
        assert_round_trips(RequestFrame::Top { k: Some(7) });
        assert_round_trips(RequestFrame::Top { k: Some(0) });
        assert_round_trips(RequestFrame::Top { k: None });
    }

    #[test]
    fn trace_round_trips() {
        assert_round_trips(RequestFrame::Trace { id: 0x00ab_00cd_00ef_0011 });
        assert_round_trips(RequestFrame::Trace { id: u64::MAX });
    }

    #[test]
    fn history_round_trips() {
        assert_round_trips(RequestFrame::History { metric: "query".into(), window: Some(5) });
        // The check lowercases the metric; the frame keeps what was sent.
        assert_round_trips(RequestFrame::History { metric: "QUERY".into(), window: None });
    }

    #[test]
    fn snapshot_round_trips() {
        assert_round_trips(RequestFrame::Snapshot);
    }

    #[test]
    fn shutdown_round_trips() {
        assert_round_trips(RequestFrame::Shutdown);
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
        assert_eq!(parse_request("TOP"), Ok(RequestFrame::Top { k: None }));
        assert_eq!(parse_request("top k=0"), Ok(RequestFrame::Top { k: Some(0) }));
        assert_eq!(parse_request("TOP k=12"), Ok(RequestFrame::Top { k: Some(12) }));
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
            Ok(RequestFrame::Trace { id: 0x00ab_00cd_00ef_0011 })
        );
        // The exact token the server printed can be pasted back.
        assert_eq!(
            parse_request("trace trace=ff00000000000001"),
            Ok(RequestFrame::Trace { id: 0xff00_0000_0000_0001 })
        );
        assert_eq!(parse_request("TRACE 1f"), Ok(RequestFrame::Trace { id: 0x1f }));
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
            Ok(RequestFrame::History { metric: "query".to_owned(), window: None })
        );
        // The metric is case-insensitive.
        assert_eq!(
            parse_request("history QUERY window=5"),
            Ok(RequestFrame::History { metric: "query".to_owned(), window: Some(5) })
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

    pub(crate) fn sample_history() -> HistoryReport {
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
        HistoryReport::new("query", &view, vec![(rule, status)])
    }

    #[test]
    fn history_formats_exact_rows() {
        assert_eq!(
            format_history(&sample_history()),
            "OK history metric=query window=5 now_epoch=9 buckets=2\n\
             WINDOW count=4 mean_us=40 p50_us=24 p95_us=100 p99_us=100 min_us=10 max_us=100\n\
             SLO metric=query p=0.99 threshold_us=1000 window=60 short_window=10 state=ok \
             burn_long_pct=0 burn_short_pct=0\n\
             BUCKET epoch=7 count=3 mean_us=20 p50_us=24 max_us=30\n\
             BUCKET epoch=8 count=1 mean_us=100 p50_us=100 max_us=100\n\
             .\n"
        );
    }

    /// The allocating `format_hits` the one-buffer renderer replaced, kept
    /// as the reference its bytes are checked against.
    pub(crate) fn reference_format_hits(hits: &[QueryHit]) -> String {
        let mut out = format!("OK {}\n", hits.len());
        for hit in hits {
            let entity: Vec<String> = hit.entity.iter().map(|r| r.0.to_string()).collect();
            out.push_str(&format!("HIT seed={} entity={}\n", hit.seed.0, entity.join(",")));
        }
        out + ".\n"
    }

    /// The allocating `format_candidates`, kept as a reference likewise.
    pub(crate) fn reference_format_candidates(hits: &[RankedEntity]) -> String {
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
        out + ".\n"
    }

    /// `block` with the token of `trace_id` put in, and whether that kept
    /// to the room its renderer left.
    fn traced(mut block: String, trace_id: u64) -> (String, bool) {
        let room = block.capacity();
        insert_trace_token(&mut block, trace_id);
        let in_place = block.capacity() == room;
        (block, in_place)
    }

    #[test]
    fn trace_token_splices_onto_ok_status_lines_only() {
        let hits = [QueryHit { seed: RecordId(1), entity: vec![RecordId(1)] }];
        assert_eq!(
            traced(format_hits(&hits), 0xab),
            ("OK 1 trace=00000000000000ab\nHIT seed=1 entity=1\n.\n".to_owned(), true)
        );
        assert_eq!(
            traced(format_status("OK matches=3"), 0x1234_5678_9abc_def0),
            ("OK matches=3 trace=123456789abcdef0\n.\n".to_owned(), true)
        );
        assert_eq!(
            traced(format_candidates(&[]), u64::MAX),
            ("OK 0 trace=ffffffffffffffff\n.\n".to_owned(), true)
        );
        // ERR responses and untraced requests stay untouched.
        assert_eq!(traced(format_status("ERR nope"), 0xab).0, "ERR nope\n.\n");
        assert_eq!(traced(format_hits(&[]), 0).0, "OK 0\n.\n");
    }

    pub(crate) fn sample_trace() -> RequestTrace {
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

    pub(crate) fn sample_top() -> TopReport {
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
        TopReport { ring, commands: rows.to_vec(), slow: vec![SlowRow::from(&sample_trace())] }
    }

    #[test]
    fn top_renders_ring_cmd_and_slow_rows() {
        assert_eq!(
            format_top(&sample_top()),
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
            format_top(&TopReport { ring: RingStats::default(), commands: vec![], slow: vec![] }),
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
