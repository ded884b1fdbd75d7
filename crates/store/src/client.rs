//! Typed client for `yv serve`, over either transport.
//!
//! A [`Client`] wraps one TCP connection and turns protocol exchanges
//! into typed calls — [`Client::query`] returns [`QueryHit`]s,
//! [`Client::add`] the match count, [`Client::stats`] a parsed
//! [`StatsReport`] — so callers (tests, the CLI, load generators) never
//! hand-assemble request lines or scrape response text:
//!
//! ```no_run
//! # use yv_store::client::Client;
//! # use yv_core::PersonQuery;
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let query = PersonQuery { last_name: Some("Foa".into()), ..PersonQuery::default() };
//! for hit in client.query(&query)? {
//!     println!("seed {} resolves with {} records", hit.seed.0, hit.entity.len());
//! }
//! # Ok::<(), yv_store::client::ClientError>(())
//! ```
//!
//! ## Transports
//!
//! The transport lives behind the [`Connection`] trait with two
//! backends: the original line protocol ([`Protocol::Text`], what
//! `Client::connect` still gives you) and the length-prefixed,
//! checksummed binary framing from [`crate::frame`]
//! ([`Protocol::Binary`], negotiated by sending `HELLO proto=binary` as
//! the first request). [`ClientOptions`] picks the transport and the
//! socket timeouts:
//!
//! ```no_run
//! # use std::time::Duration;
//! # use yv_store::client::{ClientOptions, Protocol};
//! let mut client = ClientOptions::new()
//!     .connect_timeout(Duration::from_secs(2))
//!     .read_timeout(Duration::from_secs(30))
//!     .protocol(Protocol::Binary)
//!     .connect("127.0.0.1:7878")?;
//! # Ok::<(), yv_store::client::ClientError>(())
//! ```
//!
//! Every typed call works identically on both transports (binary
//! replies carry the same rendered block the text server would have
//! written, so even the parsers are shared). The binary transport adds
//! [`Client::batch_add`] — many records in one round trip with
//! per-record [`BatchStatus`] outcomes — and [`Client::pipeline`], which
//! keeps a bounded window of requests in flight and hands replies back
//! in request order.
//!
//! ## What the text wire cannot carry
//!
//! The line format is `key=value` tokens separated by whitespace, so not
//! every [`Record`] is expressible there: values containing whitespace
//! (or empty ones), `mothers_maiden`, and places have no encoding. Those
//! surface as [`ClientError::Unencodable`] *before* anything is sent —
//! an encoding gap never half-transmits a record. The binary codec
//! carries every record verbatim.

#![deny(clippy::cast_possible_truncation)]

use crate::error::StoreError;
use crate::frame::{BatchStatus, RequestFrame, ResponseFrame, HELLO_LINE, HELLO_OK};
use crate::protocol::TERMINATOR;
use crate::shard::ShardStats;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use yv_core::{PersonQuery, QueryHit};
use yv_records::{Gender, Record, RecordId};

/// Everything that can go wrong talking to a `yv serve` server.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed or dropped mid-exchange.
    Io(std::io::Error),
    /// The server answered, but not in the shape the protocol promises
    /// (missing terminator, malformed data line, bad frame checksum).
    /// The string names what was expected.
    Protocol(String),
    /// The server answered with an `ERR ...` status; the string is the
    /// server's message.
    Server(String),
    /// The request has no encoding on the connection's transport
    /// (whitespace or empty value, `mothers_maiden`, places on the line
    /// protocol; `BATCH_ADD` on a text connection). Detected client-side
    /// before anything is sent.
    Unencodable(String),
}

impl ClientError {
    /// True when the server itself answered `ERR ...` — the request
    /// reached the store and was refused (bad arguments, unknown
    /// source). Protocol misuse is testable through this predicate
    /// without string-matching transport failures.
    #[must_use]
    pub fn is_server(&self) -> bool {
        matches!(self, ClientError::Server(_))
    }

    /// True when the failure happened *around* the server rather than
    /// in it: the connection dropped, the response was malformed, or
    /// the request could not be encoded at all.
    #[must_use]
    pub fn is_transport(&self) -> bool {
        !self.is_server()
    }

    /// The server's `ERR` message, if this is a server-side refusal.
    #[must_use]
    pub fn server_message(&self) -> Option<&str> {
        match self {
            ClientError::Server(msg) => Some(msg),
            _ => None,
        }
    }

    /// The [`std::io::ErrorKind`] underneath a transport failure, if the
    /// failure was an I/O error at all. Retry logic upstream can branch
    /// on this without string-matching: `ConnectionRefused` (server not
    /// up yet) and `TimedOut`/`WouldBlock` (slow reply) are retryable in
    /// ways `ConnectionReset` mid-request may not be.
    #[must_use]
    pub fn io_kind(&self) -> Option<std::io::ErrorKind> {
        match self {
            ClientError::Io(e) => Some(e.kind()),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(what) => write!(f, "malformed server response: {what}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unencodable(what) => {
                write!(f, "not expressible on this transport: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<StoreError> for ClientError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// One `SHARD` row of a `STATS` response. Field-for-field the server's
/// [`ShardStats`].
pub type ShardRow = ShardStats;

/// One `CAND` row of a `RESOLVE` response: a ranked entity candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveRow {
    /// Entity representative (smallest member record id).
    pub entity: RecordId,
    /// Blended score in `[0, 1]`.
    pub score: f64,
    /// The indexed name that matched the query best.
    pub name: String,
    /// Entity members, ascending.
    pub members: Vec<RecordId>,
}

/// One `CMD` row of a `STATS` or `TOP` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRow {
    pub name: String,
    pub count: u64,
    pub errors: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// The `RING` row of a `TOP` response: capture-ring counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingRow {
    pub capacity: usize,
    pub occupancy: usize,
    pub captured: u64,
    pub evicted: u64,
    pub sampled: u64,
    /// Trace id of the most recent tail-sampled request (0 = none yet).
    pub last_slow: u64,
}

/// One `SLOW` row of a `TOP` response: a tail-sampled request summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRow {
    pub trace: u64,
    pub command: String,
    pub ok: bool,
    pub conn: u64,
    pub total_ns: u64,
    pub spans: usize,
}

/// A parsed `TOP` response: ring counters, per-command latency rows and
/// the recent tail-sampled requests, newest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopReport {
    pub ring: RingRow,
    pub commands: Vec<CommandRow>,
    pub slow: Vec<SlowRow>,
}

/// One `SPAN` row of a `TRACE` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    pub name: String,
    pub depth: u8,
    pub shard: Option<u32>,
    /// Start offset relative to the request's accept time, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub args: Vec<(String, u64)>,
}

/// A parsed `TRACE` response: the request summary from the status line
/// plus the span tree in depth-first order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    pub id: u64,
    pub command: String,
    pub ok: bool,
    pub conn: u64,
    pub total_ns: u64,
    pub dropped_spans: u16,
    pub args: Vec<(String, u64)>,
    pub spans: Vec<SpanRow>,
}

/// The `WINDOW` row of a `HISTORY` response: every in-window sample
/// merged, with interpolated min/max-clamped percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistorySummaryRow {
    pub count: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub min_us: u64,
    pub max_us: u64,
}

/// One `SLO` row of a `HISTORY` response: a burn-rate rule and its
/// evaluated state (`ok` / `warning` / `firing`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySloRow {
    pub metric: String,
    pub p: f64,
    pub threshold_us: u64,
    pub window: usize,
    pub short_window: usize,
    pub state: String,
    pub burn_long_pct: u64,
    pub burn_short_pct: u64,
}

/// One `BUCKET` row of a `HISTORY` response: a closed window bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryBucketRow {
    pub epoch: u64,
    pub count: u64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub max_us: u64,
}

/// A parsed `HISTORY` response: the resolved metric/window from the
/// status line, the whole-window summary, the SLO rows watching the
/// metric, and the non-empty closed buckets (ascending epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryReport {
    pub metric: String,
    pub window: usize,
    /// The currently open epoch; buckets cover `[now_epoch - window,
    /// now_epoch)`.
    pub now_epoch: u64,
    pub summary: HistorySummaryRow,
    pub slo: Vec<HistorySloRow>,
    pub buckets: Vec<HistoryBucketRow>,
}

/// A parsed `STATS` response: the store-wide aggregates from the status
/// line plus the per-shard and per-command data rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    pub records: usize,
    pub sources: usize,
    pub matches: usize,
    pub shards: usize,
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
    pub errors: u64,
    pub shard_rows: Vec<ShardRow>,
    pub commands: Vec<CommandRow>,
}

/// Which transport a connection should speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The original line protocol. The default: inspectable with
    /// `telnet`/`nc`, and what [`Client::connect`] gives you.
    #[default]
    Text,
    /// Send `HELLO proto=binary` on connect and require the upgrade; a
    /// server that refuses is an error ([`ClientError::Server`]).
    Binary,
}

/// Builder for how a [`Client`] connects: socket timeouts and the
/// transport ([`Protocol`]). `Client::connect(addr)` is shorthand for
/// `ClientOptions::new().connect(addr)`.
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    protocol: Protocol,
}

impl ClientOptions {
    /// Defaults: no timeouts (blocking connect/read), text protocol.
    #[must_use]
    pub fn new() -> ClientOptions {
        ClientOptions::default()
    }

    /// Bound how long `connect` waits for the TCP handshake. Each
    /// resolved address gets the full budget in turn.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> ClientOptions {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bound how long any single read waits for server bytes; an
    /// expired timeout surfaces as [`ClientError::Io`] with kind
    /// `TimedOut`/`WouldBlock` (platform-dependent).
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> ClientOptions {
        self.read_timeout = Some(timeout);
        self
    }

    /// Pick the transport (default [`Protocol::Text`]).
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> ClientOptions {
        self.protocol = protocol;
        self
    }

    /// Connect, apply the timeouts, and run the `HELLO` negotiation the
    /// chosen [`Protocol`] calls for.
    pub fn connect<A: ToSocketAddrs>(&self, addr: A) -> Result<Client, ClientError> {
        let stream = self.open_stream(addr)?;
        stream.set_read_timeout(self.read_timeout)?;
        // Request/response protocol: Nagle holds the final partial
        // segment of a large frame until the server's delayed ACK, which
        // turns every pipelined BATCH_ADD into a ~40ms round trip.
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let conn: Box<dyn Connection> = match self.protocol {
            Protocol::Text => Box::new(TextConnection { reader, writer }),
            Protocol::Binary => {
                writer.write_all(HELLO_LINE.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                let (status, _) = read_text_block(&mut reader)?;
                if status != HELLO_OK {
                    return Err(match status.strip_prefix("ERR ") {
                        Some(msg) => ClientError::Server(msg.to_owned()),
                        None => {
                            ClientError::Protocol(format!("unexpected HELLO reply {status:?}"))
                        }
                    });
                }
                Box::new(BinaryConnection { reader, writer })
            }
        };
        Ok(Client { conn, protocol: self.protocol })
    }

    fn open_stream<A: ToSocketAddrs>(&self, addr: A) -> Result<TcpStream, ClientError> {
        let Some(timeout) = self.connect_timeout else {
            return Ok(TcpStream::connect(addr)?);
        };
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }
}

/// One reply off the wire, still in transport shape. [`Reply::block`]
/// and [`Reply::batch`] convert to the typed forms (mapping `ERR`
/// statuses to [`ClientError::Server`]); pipelined callers get `Reply`
/// values back so an `ERR` mid-stream doesn't abort the replies behind
/// it.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A rendered response block: the status line plus the data lines
    /// (terminator already consumed). Both transports produce these —
    /// the binary framing carries the same rendered text.
    Block {
        status: String,
        data: Vec<String>,
    },
    /// Per-record `BATCH_ADD` outcomes, in request order (binary only).
    Batch(Vec<BatchStatus>),
}

impl Reply {
    /// This reply as a successful text block. `ERR` statuses become
    /// [`ClientError::Server`]; a batch reply here is a protocol breach.
    pub fn block(self) -> Result<(String, Vec<String>), ClientError> {
        match self {
            Reply::Block { status, data } => {
                if let Some(msg) = status.strip_prefix("ERR ") {
                    return Err(ClientError::Server(msg.to_owned()));
                }
                if !status.starts_with("OK") {
                    return Err(ClientError::Protocol(format!(
                        "expected an OK or ERR status line, got {status:?}"
                    )));
                }
                Ok((status, data))
            }
            Reply::Batch(_) => Err(ClientError::Protocol(
                "expected a response block, got a BATCH_ADD status frame".to_owned(),
            )),
        }
    }

    /// This reply as per-record `BATCH_ADD` statuses.
    pub fn batch(self) -> Result<Vec<BatchStatus>, ClientError> {
        match self {
            Reply::Batch(statuses) => Ok(statuses),
            Reply::Block { status, .. } => {
                if let Some(msg) = status.strip_prefix("ERR ") {
                    return Err(ClientError::Server(msg.to_owned()));
                }
                Err(ClientError::Protocol(format!(
                    "expected BATCH_ADD statuses, got a response block {status:?}"
                )))
            }
        }
    }
}

/// One request/reply transport. Implementations promise that replies
/// come back **in request order** (the server handles each connection
/// serially), which is what makes [`Pipeline`] sound: after `n` sends
/// and `m < n` receives, the next [`recv`](Connection::recv) yields the
/// reply to send `m + 1`.
pub trait Connection: fmt::Debug + Send {
    /// Encode and write one request without waiting for its reply.
    /// Encoding failures ([`ClientError::Unencodable`]) are detected
    /// before any byte is written.
    fn send(&mut self, request: &RequestFrame) -> Result<(), ClientError>;

    /// Read the next reply, in send order.
    fn recv(&mut self) -> Result<Reply, ClientError>;
}

/// The line-protocol backend: requests render to `key=value` lines,
/// replies are status + data lines up to the terminator.
#[derive(Debug)]
pub struct TextConnection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection for TextConnection {
    fn send(&mut self, request: &RequestFrame) -> Result<(), ClientError> {
        // One write per request: splitting the line and its newline into
        // two TCP segments lets Nagle hold the newline for the delayed
        // ACK (~40ms per request on loopback).
        let mut line = render_request(request)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, ClientError> {
        let (status, data) = read_text_block(&mut self.reader)?;
        Ok(Reply::Block { status, data })
    }
}

/// The binary backend: length-prefixed, checksummed frames from
/// [`crate::frame`], entered via `HELLO proto=binary`.
#[derive(Debug)]
pub struct BinaryConnection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection for BinaryConnection {
    fn send(&mut self, request: &RequestFrame) -> Result<(), ClientError> {
        let bytes = request.encode()?;
        self.writer.write_all(&bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, ClientError> {
        match ResponseFrame::read(&mut self.reader)? {
            None => Err(ClientError::Protocol("connection closed mid-response".to_owned())),
            Some(ResponseFrame::Batch(statuses)) => Ok(Reply::Batch(statuses)),
            Some(ResponseFrame::Block(block)) => {
                let mut lines = block.lines().map(str::to_owned);
                let status = lines.next().ok_or_else(|| {
                    ClientError::Protocol("empty response block frame".to_owned())
                })?;
                let mut data: Vec<String> = lines.collect();
                if data.pop().as_deref() != Some(TERMINATOR) {
                    return Err(ClientError::Protocol(
                        "response block frame has no terminator".to_owned(),
                    ));
                }
                Ok(Reply::Block { status, data })
            }
        }
    }
}

/// A connected client. One logical request/reply at a time through the
/// typed methods; [`Client::pipeline`] overlaps requests explicitly.
#[derive(Debug)]
pub struct Client {
    conn: Box<dyn Connection>,
    protocol: Protocol,
}

impl Client {
    /// Connect with the defaults: text protocol, no timeouts. Shorthand
    /// for `ClientOptions::new().connect(addr)`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        ClientOptions::new().connect(addr)
    }

    /// The transport this connection speaks: [`Protocol::Binary`] iff
    /// the `HELLO` upgrade happened.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Run a `QUERY` and parse the hits.
    pub fn query(&mut self, query: &PersonQuery) -> Result<Vec<QueryHit>, ClientError> {
        let (_, data) = self.request(&RequestFrame::Query(query.clone()))?;
        data.iter().map(|line| parse_hit(line)).collect()
    }

    /// Run an `ADD`, returning the number of ranked matches the new
    /// record produced.
    pub fn add(&mut self, record: &Record) -> Result<usize, ClientError> {
        let (status, _) = self.request(&RequestFrame::Add(Box::new(record.clone())))?;
        // Token scan, not a prefix match: OK status lines may carry a
        // trailing `trace=<id>` token after the matches count.
        status
            .split_whitespace()
            .find_map(|token| token.strip_prefix("matches="))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("expected OK matches=N, got {status:?}")))
    }

    /// Run a `BATCH_ADD`: all `records` in one round trip, answered with
    /// one [`BatchStatus`] per record in order. Binary transport only —
    /// on a text connection this refuses with
    /// [`ClientError::Unencodable`] before sending anything.
    pub fn batch_add(&mut self, records: Vec<Record>) -> Result<Vec<BatchStatus>, ClientError> {
        self.conn.send(&RequestFrame::BatchAdd(records))?;
        self.conn.recv()?.batch()
    }

    /// Run a `RESOLVE` and parse the ranked candidates. `k` and `min`
    /// are optional protocol options (`k=N`, `min=SCORE`); the server
    /// defaults apply when absent.
    pub fn resolve(
        &mut self,
        name: &str,
        k: Option<usize>,
        min: Option<f64>,
    ) -> Result<Vec<ResolveRow>, ClientError> {
        let k = k.map(wire_u32("k")).transpose()?;
        let frame = RequestFrame::Resolve { name: name.to_owned(), k, min };
        let (_, data) = self.request(&frame)?;
        data.iter().map(|line| parse_cand(line)).collect()
    }

    /// Run `STATS` and parse the report.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let (status, data) = self.request(&RequestFrame::Stats)?;
        parse_stats(&status, &data)
    }

    /// Run `METRICS`, returning the Prometheus text exposition verbatim.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (_, data) = self.request(&RequestFrame::Metrics)?;
        let mut out = String::new();
        for line in data {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }

    /// Run `TOP` and parse the live introspection report. `k` bounds the
    /// number of `SLOW` rows; the server default applies when absent.
    pub fn top(&mut self, k: Option<usize>) -> Result<TopReport, ClientError> {
        let k = k.map(wire_u32("k")).transpose()?;
        let (_, data) = self.request(&RequestFrame::Top { k })?;
        parse_top(&data)
    }

    /// Run `TRACE <id>` and parse the span tree for one captured request.
    /// Ids come from the `trace=` token on OK status lines (or `TOP`).
    pub fn trace_get(&mut self, id: u64) -> Result<TraceReport, ClientError> {
        let (status, data) = self.request(&RequestFrame::Trace { id })?;
        parse_trace(&status, &data)
    }

    /// Run `HISTORY <metric>` and parse the windowed-rollup report.
    /// `window` (one-second buckets) falls back to the server default
    /// (60) when absent.
    pub fn history(
        &mut self,
        metric: &str,
        window: Option<usize>,
    ) -> Result<HistoryReport, ClientError> {
        let frame = RequestFrame::History {
            metric: metric.to_owned(),
            window: window.map(wire_u32("window")).transpose()?,
        };
        let (status, data) = self.request(&frame)?;
        parse_history(&status, &data)
    }

    /// Ask the server to fold its WALs into a fresh snapshot.
    pub fn snapshot(&mut self) -> Result<(), ClientError> {
        self.request(&RequestFrame::Snapshot).map(|_| ())
    }

    /// Ask the server to shut down (it answers `OK bye` first).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&RequestFrame::Shutdown).map(|_| ())
    }

    /// Start a pipelined stretch: up to `window` requests in flight at
    /// once, replies collected in request order. A `window` of 0 is
    /// treated as 1 (plain request/reply).
    pub fn pipeline(&mut self, window: usize) -> Pipeline<'_> {
        Pipeline { conn: self.conn.as_mut(), window: window.max(1), in_flight: 0, replies: Vec::new() }
    }

    /// One request/reply exchange, unwrapped to (status, data lines).
    fn request(&mut self, frame: &RequestFrame) -> Result<(String, Vec<String>), ClientError> {
        self.conn.send(frame)?;
        self.conn.recv()?.block()
    }
}

/// An explicit pipelining window over a [`Client`]'s connection.
///
/// [`push`](Pipeline::push) writes a request, first draining one reply
/// if the in-flight window is full — so at most `window` requests are
/// outstanding and neither side can deadlock on a full TCP buffer.
/// [`flush`](Pipeline::flush) drains the rest. Replies always come back
/// in push order; an `ERR` reply occupies its slot like any other (it
/// does not abort the stream), so callers match replies to requests by
/// index.
#[derive(Debug)]
pub struct Pipeline<'a> {
    conn: &'a mut dyn Connection,
    window: usize,
    in_flight: usize,
    replies: Vec<Reply>,
}

impl Pipeline<'_> {
    /// Send one request, draining a reply first if the window is full.
    pub fn push(&mut self, request: &RequestFrame) -> Result<(), ClientError> {
        if self.in_flight >= self.window {
            let reply = self.conn.recv()?;
            self.replies.push(reply);
            self.in_flight -= 1;
        }
        self.conn.send(request)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Drain every outstanding reply and return all replies collected
    /// since the last flush, in push order. The pipeline stays usable.
    pub fn flush(&mut self) -> Result<Vec<Reply>, ClientError> {
        while self.in_flight > 0 {
            let reply = self.conn.recv()?;
            self.replies.push(reply);
            self.in_flight -= 1;
        }
        Ok(std::mem::take(&mut self.replies))
    }
}

/// Read one text-protocol response block: the status line plus data
/// lines up to (and consuming) the terminator.
fn read_text_block<R: BufRead>(reader: &mut R) -> Result<(String, Vec<String>), ClientError> {
    let status = read_line(reader)?;
    let mut data = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line == TERMINATOR {
            break;
        }
        data.push(line);
    }
    Ok((status, data))
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Protocol("connection closed mid-response".to_owned()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Narrow a caller-facing `usize` knob to the wire's `u32`.
fn wire_u32(key: &'static str) -> impl Fn(usize) -> Result<u32, ClientError> {
    move |value| {
        u32::try_from(value)
            .map_err(|_| ClientError::Unencodable(format!("{key} value {value} exceeds u32")))
    }
}

/// Render a request as its line-protocol form, exactly as the pre-frame
/// client would have sent it. `BATCH_ADD` has no line form.
fn render_request(request: &RequestFrame) -> Result<String, ClientError> {
    Ok(match request {
        RequestFrame::Query(query) => encode_query(query)?,
        RequestFrame::Add(record) => encode_add(record)?,
        RequestFrame::Resolve { name, k, min } => {
            let mut line = String::from("RESOLVE");
            line.push(' ');
            line.push_str(wire_value("name", name)?);
            if let Some(k) = k {
                push_kv(&mut line, "k", &k.to_string())?;
            }
            if let Some(min) = min {
                push_kv(&mut line, "min", &format!("{min}"))?;
            }
            line
        }
        RequestFrame::BatchAdd(_) => {
            return Err(ClientError::Unencodable(
                "BATCH_ADD has no line-protocol encoding; connect with Protocol::Binary"
                    .to_owned(),
            ))
        }
        RequestFrame::Stats => "STATS".to_owned(),
        RequestFrame::Metrics => "METRICS".to_owned(),
        RequestFrame::Top { k } => {
            let mut line = String::from("TOP");
            if let Some(k) = k {
                push_kv(&mut line, "k", &k.to_string())?;
            }
            line
        }
        RequestFrame::Trace { id } => format!("TRACE {id:016x}"),
        RequestFrame::History { metric, window } => {
            let mut line = String::from("HISTORY");
            line.push(' ');
            line.push_str(wire_value("metric", metric)?);
            if let Some(window) = window {
                push_kv(&mut line, "window", &window.to_string())?;
            }
            line
        }
        RequestFrame::Snapshot => "SNAPSHOT".to_owned(),
        RequestFrame::Shutdown => "SHUTDOWN".to_owned(),
    })
}

/// Check a value is wire-safe (non-empty, no whitespace) and return it.
fn wire_value<'a>(key: &str, value: &'a str) -> Result<&'a str, ClientError> {
    if value.is_empty() {
        return Err(ClientError::Unencodable(format!("{key} value is empty")));
    }
    if value.chars().any(char::is_whitespace) {
        return Err(ClientError::Unencodable(format!(
            "{key} value {value:?} contains whitespace"
        )));
    }
    Ok(value)
}

fn push_kv(out: &mut String, key: &str, value: &str) -> Result<(), ClientError> {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    out.push_str(wire_value(key, value)?);
    Ok(())
}

/// Encode a query as a request line. Floats use plain `Display` (no
/// fixed-precision truncation), which round-trips exactly through the
/// server's `parse`.
fn encode_query(query: &PersonQuery) -> Result<String, ClientError> {
    let mut out = String::from("QUERY");
    if let Some(first) = &query.first_name {
        push_kv(&mut out, "first", first)?;
    }
    if let Some(last) = &query.last_name {
        push_kv(&mut out, "last", last)?;
    }
    push_kv(&mut out, "similarity", &format!("{}", query.name_similarity))?;
    push_kv(&mut out, "certainty", &format!("{}", query.certainty))?;
    Ok(out)
}

/// Encode a record as an `ADD` line, or refuse with
/// [`ClientError::Unencodable`] if the record holds anything the wire
/// format cannot carry.
fn encode_add(record: &Record) -> Result<String, ClientError> {
    if record.mothers_maiden.is_some() {
        return Err(ClientError::Unencodable(
            "mothers_maiden has no ADD key".to_owned(),
        ));
    }
    if record.places.iter().any(Option::is_some) {
        return Err(ClientError::Unencodable("places have no ADD keys".to_owned()));
    }
    let mut out = String::from("ADD");
    push_kv(&mut out, "book", &record.book_id.to_string())?;
    push_kv(&mut out, "source", &record.source.0.to_string())?;
    for first in &record.first_names {
        push_kv(&mut out, "first", first)?;
    }
    for last in &record.last_names {
        push_kv(&mut out, "last", last)?;
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
            push_kv(&mut out, key, value)?;
        }
    }
    if let Some(gender) = record.gender {
        let code = match gender {
            Gender::Male => "m",
            Gender::Female => "f",
        };
        push_kv(&mut out, "gender", code)?;
    }
    if let Some(day) = record.birth.day {
        push_kv(&mut out, "day", &day.to_string())?;
    }
    if let Some(month) = record.birth.month {
        push_kv(&mut out, "month", &month.to_string())?;
    }
    if let Some(year) = record.birth.year {
        push_kv(&mut out, "year", &year.to_string())?;
    }
    Ok(out)
}

/// Parse one `HIT seed=N entity=A,B,C` data line.
fn parse_hit(line: &str) -> Result<QueryHit, ClientError> {
    let malformed = || ClientError::Protocol(format!("malformed HIT line {line:?}"));
    let rest = line.strip_prefix("HIT seed=").ok_or_else(malformed)?;
    let (seed, entity) = rest.split_once(" entity=").ok_or_else(malformed)?;
    let seed = RecordId(seed.parse().map_err(|_| malformed())?);
    let entity = entity
        .split(',')
        .map(|r| r.parse().map(RecordId))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| malformed())?;
    Ok(QueryHit { seed, entity })
}

/// Parse one `CAND entity=N score=S name=X members=A,B,C` data line.
fn parse_cand(line: &str) -> Result<ResolveRow, ClientError> {
    let malformed = || ClientError::Protocol(format!("malformed CAND line {line:?}"));
    if !line.starts_with("CAND ") {
        return Err(malformed());
    }
    let members: String = field(line, "members")?;
    let members = members
        .split(',')
        .map(|r| r.parse().map(RecordId))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| malformed())?;
    Ok(ResolveRow {
        entity: RecordId(field(line, "entity")?),
        score: field(line, "score")?,
        name: field::<String>(line, "name")?,
        members,
    })
}

/// Pull `key=` out of a whitespace-tokenized line and parse it.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, ClientError> {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("no {key}= field in {line:?}")))
}

/// Like [`field`], but for the zero-padded hex trace ids.
fn hex_field(line: &str, key: &str) -> Result<u64, ClientError> {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&prefix))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| ClientError::Protocol(format!("no hex {key}= field in {line:?}")))
}

/// Collect the `key=value` tokens whose key is *not* in `known` and
/// whose value is a u64 — the open-ended trace/span annotation args.
fn extra_args(line: &str, known: &[&str]) -> Vec<(String, u64)> {
    line.split_whitespace()
        .filter_map(|token| token.split_once('='))
        .filter(|(key, _)| !known.contains(key))
        .filter_map(|(key, value)| value.parse().ok().map(|v| (key.to_owned(), v)))
        .collect()
}

/// Parse one `CMD NAME count=... max_us=...` row (shared by `STATS` and
/// `TOP`).
fn parse_cmd_row(line: &str) -> Result<CommandRow, ClientError> {
    let rest = line
        .strip_prefix("CMD ")
        .ok_or_else(|| ClientError::Protocol(format!("malformed CMD line {line:?}")))?;
    let name = rest
        .split_whitespace()
        .next()
        .ok_or_else(|| ClientError::Protocol(format!("malformed CMD line {line:?}")))?
        .to_owned();
    Ok(CommandRow {
        name,
        count: field(line, "count")?,
        errors: field(line, "errors")?,
        mean_us: field(line, "mean_us")?,
        p50_us: field(line, "p50_us")?,
        p95_us: field(line, "p95_us")?,
        p99_us: field(line, "p99_us")?,
        max_us: field(line, "max_us")?,
    })
}

/// Parse the `ok`/`err` value of a `status=` token.
fn status_flag(line: &str) -> Result<bool, ClientError> {
    match field::<String>(line, "status")?.as_str() {
        "ok" => Ok(true),
        "err" => Ok(false),
        other => Err(ClientError::Protocol(format!(
            "unexpected status={other:?} in {line:?}"
        ))),
    }
}

/// Parse the `TOP` data rows: `RING`, `CMD` and `SLOW` lines.
fn parse_top(data: &[String]) -> Result<TopReport, ClientError> {
    let mut ring = None;
    let mut commands = Vec::new();
    let mut slow = Vec::new();
    for line in data {
        if line.starts_with("RING ") {
            ring = Some(RingRow {
                capacity: field(line, "capacity")?,
                occupancy: field(line, "occupancy")?,
                captured: field(line, "captured")?,
                evicted: field(line, "evicted")?,
                sampled: field(line, "sampled")?,
                last_slow: hex_field(line, "last_slow_trace")?,
            });
        } else if line.starts_with("CMD ") {
            commands.push(parse_cmd_row(line)?);
        } else if line.starts_with("SLOW ") {
            slow.push(SlowRow {
                trace: hex_field(line, "trace")?,
                command: field(line, "command")?,
                ok: status_flag(line)?,
                conn: field(line, "conn")?,
                total_ns: field(line, "total_ns")?,
                spans: field(line, "spans")?,
            });
        } else {
            return Err(ClientError::Protocol(format!(
                "unexpected TOP data line {line:?}"
            )));
        }
    }
    let ring =
        ring.ok_or_else(|| ClientError::Protocol("TOP response has no RING line".to_owned()))?;
    Ok(TopReport { ring, commands, slow })
}

/// Parse the `TRACE` status line plus the indented `SPAN` tree.
fn parse_trace(status: &str, data: &[String]) -> Result<TraceReport, ClientError> {
    const KNOWN: &[&str] = &["trace", "command", "status", "conn", "total_ns", "spans", "dropped"];
    const SPAN_KNOWN: &[&str] = &["name", "depth", "shard", "start_ns", "dur_ns"];
    let mut report = TraceReport {
        id: hex_field(status, "trace")?,
        command: field(status, "command")?,
        ok: status_flag(status)?,
        conn: field(status, "conn")?,
        total_ns: field(status, "total_ns")?,
        dropped_spans: field(status, "dropped")?,
        args: extra_args(status, KNOWN),
        spans: Vec::new(),
    };
    for line in data {
        if !line.trim_start().starts_with("SPAN ") {
            return Err(ClientError::Protocol(format!(
                "unexpected TRACE data line {line:?}"
            )));
        }
        let shard = match line.split_whitespace().find_map(|t| t.strip_prefix("shard=")) {
            Some(v) => Some(v.parse().map_err(|_| {
                ClientError::Protocol(format!("malformed shard= in {line:?}"))
            })?),
            None => None,
        };
        report.spans.push(SpanRow {
            name: field(line, "name")?,
            depth: field(line, "depth")?,
            shard,
            start_ns: field(line, "start_ns")?,
            dur_ns: field(line, "dur_ns")?,
            args: extra_args(line, SPAN_KNOWN),
        });
    }
    Ok(report)
}

/// Parse the `HISTORY` status line plus `WINDOW` / `SLO` / `BUCKET` rows.
fn parse_history(status: &str, data: &[String]) -> Result<HistoryReport, ClientError> {
    let mut summary = None;
    let mut slo = Vec::new();
    let mut buckets = Vec::new();
    for line in data {
        if line.starts_with("WINDOW ") {
            summary = Some(HistorySummaryRow {
                count: field(line, "count")?,
                mean_us: field(line, "mean_us")?,
                p50_us: field(line, "p50_us")?,
                p95_us: field(line, "p95_us")?,
                p99_us: field(line, "p99_us")?,
                min_us: field(line, "min_us")?,
                max_us: field(line, "max_us")?,
            });
        } else if line.starts_with("SLO ") {
            slo.push(HistorySloRow {
                metric: field(line, "metric")?,
                p: field(line, "p")?,
                threshold_us: field(line, "threshold_us")?,
                window: field(line, "window")?,
                short_window: field(line, "short_window")?,
                state: field(line, "state")?,
                burn_long_pct: field(line, "burn_long_pct")?,
                burn_short_pct: field(line, "burn_short_pct")?,
            });
        } else if line.starts_with("BUCKET ") {
            buckets.push(HistoryBucketRow {
                epoch: field(line, "epoch")?,
                count: field(line, "count")?,
                mean_us: field(line, "mean_us")?,
                p50_us: field(line, "p50_us")?,
                max_us: field(line, "max_us")?,
            });
        } else {
            return Err(ClientError::Protocol(format!(
                "unexpected HISTORY data line {line:?}"
            )));
        }
    }
    let summary = summary
        .ok_or_else(|| ClientError::Protocol("HISTORY response has no WINDOW line".to_owned()))?;
    Ok(HistoryReport {
        metric: field(status, "metric")?,
        window: field(status, "window")?,
        now_epoch: field(status, "now_epoch")?,
        summary,
        slo,
        buckets,
    })
}

/// Parse the `STATS` status line plus `SHARD` / `CMD` data rows.
fn parse_stats(status: &str, data: &[String]) -> Result<StatsReport, ClientError> {
    let mut report = StatsReport {
        records: field(status, "records")?,
        sources: field(status, "sources")?,
        matches: field(status, "matches")?,
        shards: field(status, "shards")?,
        wal_entries: field(status, "wal")?,
        wal_bytes: field(status, "wal_bytes")?,
        wal_syncs: field(status, "wal_syncs")?,
        vocabulary: field(status, "vocabulary")?,
        fuzzy_names: field(status, "fuzzy_names")?,
        fuzzy_grams: field(status, "fuzzy_grams")?,
        fuzzy_postings: field(status, "fuzzy_postings")?,
        fuzzy_examined: field(status, "fuzzy_examined")?,
        fuzzy_pruned: field(status, "fuzzy_pruned")?,
        errors: field(status, "errors")?,
        ..StatsReport::default()
    };
    for line in data {
        if let Some(rest) = line.strip_prefix("SHARD ") {
            let shard = rest
                .split_whitespace()
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ClientError::Protocol(format!("malformed SHARD line {line:?}")))?;
            report.shard_rows.push(ShardRow {
                shard,
                records: field(line, "records")?,
                wal_entries: field(line, "wal")?,
                wal_bytes: field(line, "wal_bytes")?,
            });
        } else if line.starts_with("CMD ") {
            report.commands.push(parse_cmd_row(line)?);
        } else {
            return Err(ClientError::Protocol(format!(
                "unexpected STATS data line {line:?}"
            )));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use yv_records::{DateParts, RecordBuilder, SourceId};

    #[test]
    fn encoded_add_round_trips_through_the_server_parser() {
        let record = RecordBuilder::new(99, SourceId(2))
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
            .build();
        let line = encode_add(&record).expect("encodable");
        let Ok(Request::Add(parsed)) = parse_request(&line) else {
            panic!("server rejected {line:?}")
        };
        assert_eq!(*parsed, record);
    }

    #[test]
    fn encoded_query_round_trips_through_the_server_parser() {
        let query = PersonQuery {
            first_name: Some("Guido".into()),
            last_name: Some("Foa".into()),
            name_similarity: 0.91,
            certainty: 1.25,
        };
        let line = encode_query(&query).expect("encodable");
        let Ok(Request::Query(parsed)) = parse_request(&line) else {
            panic!("server rejected {line:?}")
        };
        assert_eq!(parsed.first_name, query.first_name);
        assert_eq!(parsed.last_name, query.last_name);
        assert!((parsed.name_similarity - query.name_similarity).abs() < 1e-12);
        assert!((parsed.certainty - query.certainty).abs() < 1e-12);
    }

    #[test]
    fn unencodable_records_are_refused_before_sending() {
        let spaced = RecordBuilder::new(1, SourceId(0)).first_name("Sara Lea").build();
        assert!(matches!(encode_add(&spaced), Err(ClientError::Unencodable(_))));

        let empty = RecordBuilder::new(1, SourceId(0)).first_name("").build();
        assert!(matches!(encode_add(&empty), Err(ClientError::Unencodable(_))));

        let mut with_mm = RecordBuilder::new(1, SourceId(0)).first_name("Sara").build();
        with_mm.mothers_maiden = Some("Katz".to_owned());
        assert!(matches!(encode_add(&with_mm), Err(ClientError::Unencodable(_))));

        let spaced_query =
            PersonQuery { first_name: Some("Sara Lea".into()), ..PersonQuery::default() };
        assert!(matches!(encode_query(&spaced_query), Err(ClientError::Unencodable(_))));
    }

    #[test]
    fn hit_lines_parse() {
        let hit = parse_hit("HIT seed=17 entity=17,203,5044").expect("well-formed");
        assert_eq!(hit.seed, RecordId(17));
        assert_eq!(hit.entity, vec![RecordId(17), RecordId(203), RecordId(5044)]);
        assert!(parse_hit("HIT seed=17").is_err());
        assert!(parse_hit("seed=17 entity=1").is_err());
        assert!(parse_hit("HIT seed=x entity=1").is_err());
    }

    #[test]
    fn cand_lines_parse() {
        let row = parse_cand("CAND entity=17 score=0.6125 name=levi members=17,203")
            .expect("well-formed");
        assert_eq!(row.entity, RecordId(17));
        assert!((row.score - 0.6125).abs() < 1e-12);
        assert_eq!(row.name, "levi");
        assert_eq!(row.members, vec![RecordId(17), RecordId(203)]);
        assert!(parse_cand("CAND entity=17 score=0.5 name=levi").is_err());
        assert!(parse_cand("HIT seed=17 entity=1").is_err());
        assert!(parse_cand("CAND entity=17 score=x name=levi members=17").is_err());

        // A score survives the text wire bit for bit: what the server
        // renders parses back to the same f64, which no fixed precision
        // gives for all of these.
        let scores = [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300];
        let hits: Vec<yv_fuzzy::RankedEntity> = scores
            .iter()
            .map(|&score| yv_fuzzy::RankedEntity {
                entity: RecordId(17),
                score,
                name: "levi".to_owned(),
                members: vec![RecordId(17)],
            })
            .collect();
        let rendered = crate::protocol::format_candidates(&hits);
        let parsed: Vec<u64> = rendered
            .lines()
            .filter(|line| line.starts_with("CAND "))
            .map(|line| parse_cand(line).expect("rendered by the server").score.to_bits())
            .collect();
        assert_eq!(parsed, scores.map(f64::to_bits));
    }

    /// A scripted [`Connection`] that records the high-water mark of
    /// outstanding requests, for exercising [`Pipeline`] off-socket.
    #[derive(Debug)]
    struct MockConn {
        sent: Vec<u8>,
        outstanding: usize,
        max_outstanding: usize,
        next_reply: usize,
    }

    impl MockConn {
        fn new() -> MockConn {
            MockConn { sent: Vec::new(), outstanding: 0, max_outstanding: 0, next_reply: 0 }
        }
    }

    impl Connection for MockConn {
        fn send(&mut self, request: &RequestFrame) -> Result<(), ClientError> {
            self.sent.push(request.tag());
            self.outstanding += 1;
            self.max_outstanding = self.max_outstanding.max(self.outstanding);
            Ok(())
        }

        fn recv(&mut self) -> Result<Reply, ClientError> {
            assert!(self.outstanding > 0, "recv with nothing in flight");
            self.outstanding -= 1;
            let n = self.next_reply;
            self.next_reply += 1;
            Ok(Reply::Block { status: format!("OK reply={n}"), data: Vec::new() })
        }
    }

    #[test]
    fn pipeline_bounds_the_window_and_preserves_reply_order() {
        let mut conn = MockConn::new();
        let mut pipeline =
            Pipeline { conn: &mut conn, window: 3, in_flight: 0, replies: Vec::new() };
        for _ in 0..10 {
            pipeline.push(&RequestFrame::Stats).expect("push");
        }
        let replies = pipeline.flush().expect("flush");
        assert_eq!(replies.len(), 10);
        for (n, reply) in replies.iter().enumerate() {
            let expected = format!("OK reply={n}");
            assert!(matches!(reply, Reply::Block { status, .. } if *status == expected));
        }
        // The pipeline stays usable after a flush, and a fresh flush
        // only returns replies pushed since.
        pipeline.push(&RequestFrame::Metrics).expect("push");
        let more = pipeline.flush().expect("flush");
        assert_eq!(more.len(), 1);
        assert!(pipeline.flush().expect("empty flush").is_empty());
        assert_eq!(conn.max_outstanding, 3, "window must bound in-flight requests");
        assert_eq!(conn.sent.len(), 11);
    }

    #[test]
    fn rendered_requests_round_trip_through_the_server_parser() {
        let cases = [
            (RequestFrame::Resolve { name: "levi".into(), k: Some(3), min: Some(0.25) }, ()),
            (RequestFrame::Resolve { name: "levi".into(), k: None, min: None }, ()),
            (RequestFrame::Stats, ()),
            (RequestFrame::Metrics, ()),
            (RequestFrame::Top { k: Some(7) }, ()),
            (RequestFrame::Top { k: None }, ()),
            (RequestFrame::Trace { id: 0x00ab_00cd_00ef_0011 }, ()),
            (RequestFrame::History { metric: "query".into(), window: Some(5) }, ()),
            (RequestFrame::Snapshot, ()),
            (RequestFrame::Shutdown, ()),
        ];
        for (frame, ()) in cases {
            let line = render_request(&frame).expect("renderable");
            let parsed = parse_request(&line)
                .unwrap_or_else(|e| panic!("server rejected {line:?}: {e}"));
            let via_frame = frame.clone().into_request().expect("frame converts");
            assert_eq!(parsed, via_frame, "text and binary disagree for {line:?}");
        }
        assert!(matches!(
            render_request(&RequestFrame::BatchAdd(Vec::new())),
            Err(ClientError::Unencodable(_))
        ));
    }

    #[test]
    fn reply_conversions_map_err_statuses_to_server_errors() {
        let err = Reply::Block { status: "ERR no such metric".to_owned(), data: Vec::new() };
        assert!(matches!(err.clone().block(), Err(ClientError::Server(msg)) if msg == "no such metric"));
        assert!(matches!(err.batch(), Err(ClientError::Server(_))));

        let ok = Reply::Block { status: "OK matches=2".to_owned(), data: Vec::new() };
        assert_eq!(ok.clone().block().expect("ok").0, "OK matches=2");
        assert!(matches!(ok.batch(), Err(ClientError::Protocol(_))));

        let batch = Reply::Batch(vec![BatchStatus::Ok { matches: 1 }]);
        assert!(matches!(batch.clone().block(), Err(ClientError::Protocol(_))));
        assert_eq!(batch.batch().expect("batch").len(), 1);

        let garbled = Reply::Block { status: "HELLO?".to_owned(), data: Vec::new() };
        assert!(matches!(garbled.block(), Err(ClientError::Protocol(_))));
    }

    #[test]
    fn io_kind_surfaces_the_transport_error_kind() {
        let refused = ClientError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionRefused));
        assert_eq!(refused.io_kind(), Some(std::io::ErrorKind::ConnectionRefused));
        assert_eq!(ClientError::Protocol("x".to_owned()).io_kind(), None);
        assert_eq!(ClientError::Server("x".to_owned()).io_kind(), None);
        assert_eq!(ClientError::Unencodable("x".to_owned()).io_kind(), None);
    }

    #[test]
    fn error_predicates_separate_server_refusals_from_transport() {
        let server = ClientError::Server("RESOLVE: k must be at least 1".to_owned());
        assert!(server.is_server());
        assert!(!server.is_transport());
        assert_eq!(server.server_message(), Some("RESOLVE: k must be at least 1"));

        let protocol = ClientError::Protocol("missing terminator".to_owned());
        assert!(protocol.is_transport());
        assert_eq!(protocol.server_message(), None);

        let io = ClientError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        assert!(io.is_transport());
        assert!(!io.is_server());
    }

    #[test]
    fn stats_response_parses_shard_and_cmd_rows() {
        let status = "OK records=7 sources=2 matches=9 shards=2 wal=1 wal_bytes=104 wal_syncs=3 \
                      vocabulary=13 fuzzy_names=13 fuzzy_grams=48 fuzzy_postings=58 \
                      fuzzy_examined=21 fuzzy_pruned=6 errors=3";
        let data = vec![
            "SHARD 0 records=5 wal=1 wal_bytes=104".to_owned(),
            "SHARD 1 records=2 wal=0 wal_bytes=0".to_owned(),
            "CMD QUERY count=3 errors=0 mean_us=40 p50_us=32 p95_us=64 p99_us=64 max_us=71"
                .to_owned(),
        ];
        let report = parse_stats(status, &data).expect("well-formed");
        assert_eq!(report.records, 7);
        assert_eq!(report.shards, 2);
        assert_eq!((report.wal_bytes, report.wal_syncs), (104, 3));
        assert_eq!(report.errors, 3);
        assert_eq!(report.shard_rows.len(), 2);
        assert_eq!(report.shard_rows[1].shard, 1);
        assert_eq!(report.shard_rows[0].records, 5);
        assert_eq!(report.shard_rows[0].wal_bytes, 104);
        assert_eq!(report.fuzzy_names, 13);
        assert_eq!(report.fuzzy_pruned, 6);
        assert_eq!(report.commands.len(), 1);
        assert_eq!(report.commands[0].name, "QUERY");
        assert_eq!(report.commands[0].p95_us, 64);
        assert_eq!(report.commands[0].max_us, 71);
        assert!(parse_stats("OK records=7", &[]).is_err(), "missing fields rejected");
    }

    #[test]
    fn top_response_parses_ring_cmd_and_slow_rows() {
        let data = vec![
            "RING capacity=512 occupancy=3 captured=3 evicted=0 sampled=1 \
             last_slow_trace=00ab00cd00ef0011"
                .to_owned(),
            "CMD RESOLVE count=1 errors=0 mean_us=24 p50_us=24 p95_us=24 p99_us=24 max_us=24"
                .to_owned(),
            "SLOW trace=00ab00cd00ef0011 command=RESOLVE status=ok conn=3 total_ns=24500 spans=5"
                .to_owned(),
        ];
        let report = parse_top(&data).expect("well-formed");
        assert_eq!(report.ring.capacity, 512);
        assert_eq!(report.ring.occupancy, 3);
        assert_eq!(report.ring.sampled, 1);
        assert_eq!(report.ring.last_slow, 0x00ab_00cd_00ef_0011);
        assert_eq!(report.commands.len(), 1);
        assert_eq!(report.commands[0].name, "RESOLVE");
        assert_eq!(report.commands[0].max_us, 24);
        assert_eq!(report.slow.len(), 1);
        assert_eq!(report.slow[0].trace, 0x00ab_00cd_00ef_0011);
        assert!(report.slow[0].ok);
        assert_eq!(report.slow[0].spans, 5);
        assert!(parse_top(&["CMD QUERY count=1".to_owned()]).is_err(), "RING line required");
        assert!(parse_top(&["RANDOM row".to_owned()]).is_err(), "unknown rows rejected");
    }

    #[test]
    fn trace_response_parses_the_span_tree_with_shards_and_args() {
        let status = "OK trace=00ab00cd00ef0011 command=RESOLVE status=ok conn=3 \
                      total_ns=24500 spans=5 dropped=0 name_digest=3735928559 k=3";
        let data = vec![
            "SPAN name=accept depth=0 start_ns=0 dur_ns=0".to_owned(),
            "  SPAN name=shard depth=1 shard=2 start_ns=4000 dur_ns=10000 cands=4".to_owned(),
        ];
        let report = parse_trace(status, &data).expect("well-formed");
        assert_eq!(report.id, 0x00ab_00cd_00ef_0011);
        assert_eq!(report.command, "RESOLVE");
        assert!(report.ok);
        assert_eq!(report.conn, 3);
        assert_eq!(report.total_ns, 24500);
        assert_eq!(report.dropped_spans, 0);
        assert_eq!(
            report.args,
            vec![("name_digest".to_owned(), 3_735_928_559), ("k".to_owned(), 3)]
        );
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].name, "accept");
        assert_eq!(report.spans[0].shard, None);
        assert_eq!(report.spans[1].shard, Some(2));
        assert_eq!(report.spans[1].start_ns, 4000);
        assert_eq!(report.spans[1].args, vec![("cands".to_owned(), 4)]);
        assert!(
            parse_trace(status, &["HIT seed=1 entity=1".to_owned()]).is_err(),
            "non-SPAN data rejected"
        );
        assert!(
            parse_trace("OK trace=zz command=X status=ok conn=0 total_ns=0 spans=0 dropped=0", &[])
                .is_err(),
            "bad hex id rejected"
        );
    }

    #[test]
    fn history_response_parses_summary_slo_and_bucket_rows() {
        let status = "OK history metric=query window=5 now_epoch=9 buckets=2";
        let data = vec![
            "WINDOW count=4 mean_us=40 p50_us=24 p95_us=100 p99_us=100 min_us=10 max_us=100"
                .to_owned(),
            "SLO metric=query p=0.99 threshold_us=1000 window=60 short_window=10 state=ok \
             burn_long_pct=0 burn_short_pct=0"
                .to_owned(),
            "BUCKET epoch=7 count=3 mean_us=20 p50_us=24 max_us=30".to_owned(),
            "BUCKET epoch=8 count=1 mean_us=100 p50_us=100 max_us=100".to_owned(),
        ];
        let report = parse_history(status, &data).expect("well-formed");
        assert_eq!(report.metric, "query");
        assert_eq!(report.window, 5);
        assert_eq!(report.now_epoch, 9);
        assert_eq!(report.summary.count, 4);
        assert_eq!(report.summary.p50_us, 24);
        assert_eq!(report.summary.min_us, 10);
        assert_eq!(report.summary.max_us, 100);
        assert_eq!(report.slo.len(), 1);
        assert_eq!(report.slo[0].metric, "query");
        assert!((report.slo[0].p - 0.99).abs() < 1e-12);
        assert_eq!(report.slo[0].threshold_us, 1000);
        assert_eq!(report.slo[0].short_window, 10);
        assert_eq!(report.slo[0].state, "ok");
        assert_eq!(report.buckets.len(), 2);
        assert_eq!(report.buckets[0].epoch, 7);
        assert_eq!(report.buckets[0].count, 3);
        assert_eq!(report.buckets[1].epoch, 8);
        assert_eq!(report.buckets[1].mean_us, 100);
        assert!(parse_history(status, &[]).is_err(), "WINDOW line required");
        assert!(
            parse_history(status, &["RANDOM row".to_owned()]).is_err(),
            "unknown rows rejected"
        );
    }
}
