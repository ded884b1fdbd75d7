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
//! Every typed call works identically on both transports: binary
//! replies carry the same rendered block the text server would have
//! written, both connections hand it back as one [`ReplyBlock`] — one
//! `String`, status line to terminator — and one set of line parsers
//! reads `&str` lines out of it. The binary transport adds
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
//! surface as [`ClientError::Unencodable`], carrying the refusal of
//! [`crate::protocol::render_request`], *before* anything is sent —
//! an encoding gap never half-transmits a record. The binary codec
//! carries every record verbatim.

#![deny(clippy::cast_possible_truncation)]

use crate::error::StoreError;
use crate::frame::{BatchStatus, RequestFrame, ResponseFrame, HELLO_LINE, HELLO_OK};
use crate::protocol::{
    render_request, CommandStats, HistoryBucketRow, HistoryReport, SlowRow, StatsReport,
    TopReport, COMMANDS, TERMINATOR,
};
use crate::shard::ShardStats;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use yv_core::{PersonQuery, QueryHit};
use yv_fuzzy::RankedEntity;
use yv_obs::{LatencySummary, RingStats, SloRule, SloState, SloStatus};
use yv_records::{Record, RecordId};

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

/// One `CAND` row of a `RESOLVE` response. The name remains because the
/// benchmark names it; it is the server's [`RankedEntity`].
pub type ResolveRow = RankedEntity;

/// One `CMD` row of a `STATS` or `TOP` response. The name remains because
/// the benchmark names it; it is the server's [`CommandStats`].
pub type CommandRow = CommandStats;

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
                let hello = read_text_block(&mut reader)?;
                let status = hello.status();
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

/// One response block as it came off either transport, in the one
/// `String` it arrived in: the status line, the data lines and the lone
/// `.` terminator line. The binary frame's payload becomes it without a
/// copy; the text reader appends lines into it up to the terminator. The
/// line parsers read `&str` lines out of it, so a reply's only further
/// allocations are the values it parses to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyBlock {
    text: String,
    /// Where the status line's newline sits.
    status_end: usize,
    /// Where the terminator line starts.
    data_end: usize,
}

impl ReplyBlock {
    /// Check that `text` is a whole block — a status line, data lines,
    /// and a terminator line closing it — and keep it.
    pub fn new(text: String) -> Result<ReplyBlock, ClientError> {
        let closed = text.strip_suffix('\n').unwrap_or(&text);
        let closed = closed.strip_suffix('\r').unwrap_or(closed);
        let data_end = closed.len().saturating_sub(TERMINATOR.len());
        match text.find('\n') {
            Some(status_end)
                if closed.ends_with(TERMINATOR)
                    && data_end > status_end
                    && text.as_bytes()[data_end - 1] == b'\n' =>
            {
                Ok(ReplyBlock { text, status_end, data_end })
            }
            _ => Err(ClientError::Protocol(
                "response block has no status line or no terminator line".to_owned(),
            )),
        }
    }

    /// The status line, without its line ending.
    #[must_use]
    pub(crate) fn status(&self) -> &str {
        let status = &self.text[..self.status_end];
        status.strip_suffix('\r').unwrap_or(status)
    }

    /// The data lines between the status line and the terminator.
    pub(crate) fn data(&self) -> std::str::Lines<'_> {
        self.data_text().lines()
    }

    /// Parse the data lines of a `QUERY` reply, one `HIT` line each.
    pub fn hits(&self) -> Result<Vec<QueryHit>, ClientError> {
        self.rows(parse_hit)
    }

    /// Parse the data lines of a `RESOLVE` reply, one `CAND` line each.
    pub fn candidates(&self) -> Result<Vec<RankedEntity>, ClientError> {
        self.rows(parse_cand)
    }

    /// The data lines' text, every line with its newline.
    fn data_text(&self) -> &str {
        &self.text[self.status_end + 1..self.data_end]
    }

    /// The data lines' text, in the block's own buffer.
    fn into_data(self) -> String {
        let mut text = self.text;
        text.truncate(self.data_end);
        text.drain(..=self.status_end);
        text
    }

    /// One row per data line, in a `Vec` sized for them up front.
    fn rows<T>(&self, parse: fn(&str) -> Result<T, ClientError>) -> Result<Vec<T>, ClientError> {
        let lines = self.data_text().bytes().filter(|&b| b == b'\n').count();
        let mut rows = Vec::with_capacity(lines);
        for line in self.data() {
            rows.push(parse(line)?);
        }
        Ok(rows)
    }
}

/// One reply off the wire, still in transport shape. [`Reply::block`]
/// and [`Reply::batch`] convert to the typed forms (mapping `ERR`
/// statuses to [`ClientError::Server`]); pipelined callers get `Reply`
/// values back so an `ERR` mid-stream doesn't abort the replies behind
/// it.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A rendered response block. Both transports produce these — the
    /// binary framing carries the same rendered text.
    Block(ReplyBlock),
    /// Per-record `BATCH_ADD` outcomes, in request order (binary only).
    Batch(Vec<BatchStatus>),
}

impl Reply {
    /// This reply as a successful text block. `ERR` statuses become
    /// [`ClientError::Server`]; a batch reply here is a protocol breach.
    pub fn block(self) -> Result<ReplyBlock, ClientError> {
        match self {
            Reply::Block(block) => {
                let status = block.status();
                if let Some(msg) = status.strip_prefix("ERR ") {
                    return Err(ClientError::Server(msg.to_owned()));
                }
                if !status.starts_with("OK") {
                    return Err(ClientError::Protocol(format!(
                        "expected an OK or ERR status line, got {status:?}"
                    )));
                }
                Ok(block)
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
            Reply::Block(block) => {
                let status = block.status();
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
        let line = request_line(request)?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, ClientError> {
        read_text_block(&mut self.reader).map(Reply::Block)
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
            Some(ResponseFrame::Block(text)) => ReplyBlock::new(text).map(Reply::Block),
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
        self.request(&RequestFrame::Query(query.clone()))?.hits()
    }

    /// Run an `ADD`, returning the number of ranked matches the new
    /// record produced.
    pub fn add(&mut self, record: &Record) -> Result<usize, ClientError> {
        let block = self.request(&RequestFrame::Add(Box::new(record.clone())))?;
        // Token scan, not a prefix match: OK status lines may carry a
        // trailing `trace=<id>` token after the matches count.
        field(block.status(), "matches")
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
    ) -> Result<Vec<RankedEntity>, ClientError> {
        let k = k.map(wire_u32("k")).transpose()?;
        let frame = RequestFrame::Resolve { name: name.to_owned(), k, min };
        self.request(&frame)?.candidates()
    }

    /// Run `STATS` and parse the report.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        parse_stats(&self.request(&RequestFrame::Stats)?)
    }

    /// Run `METRICS`, returning the Prometheus text exposition verbatim.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        Ok(self.request(&RequestFrame::Metrics)?.into_data())
    }

    /// Run `TOP` and parse the live introspection report. `k` bounds the
    /// number of `SLOW` rows; the server default applies when absent.
    pub fn top(&mut self, k: Option<usize>) -> Result<TopReport, ClientError> {
        let k = k.map(wire_u32("k")).transpose()?;
        parse_top(&self.request(&RequestFrame::Top { k })?)
    }

    /// Run `TRACE <id>` and parse the span tree for one captured request.
    /// Ids come from the `trace=` token on OK status lines (or `TOP`).
    pub fn trace_get(&mut self, id: u64) -> Result<TraceReport, ClientError> {
        parse_trace(&self.request(&RequestFrame::Trace { id })?)
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
        parse_history(&self.request(&frame)?)
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

    /// One request/reply exchange, unwrapped to its `OK` block.
    fn request(&mut self, frame: &RequestFrame) -> Result<ReplyBlock, ClientError> {
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

/// Read one text-protocol response block, the status line then lines up
/// to (and consuming) the terminator, appended into one `String`. It is
/// sized from the bytes already buffered, which usually hold the whole
/// block.
fn read_text_block<R: BufRead>(reader: &mut R) -> Result<ReplyBlock, ClientError> {
    let buffered = reader.fill_buf()?;
    let mut text = String::with_capacity(block_len(buffered).unwrap_or(buffered.len()));
    loop {
        let start = text.len();
        if reader.read_line(&mut text)? == 0 {
            return Err(ClientError::Protocol("connection closed mid-response".to_owned()));
        }
        if start > 0 && text[start..].trim_end_matches(['\n', '\r']) == TERMINATOR {
            return ReplyBlock::new(text);
        }
    }
}

/// The length of the block `bytes` open with, through the first
/// terminator line after its status line, if it is all there.
fn block_len(bytes: &[u8]) -> Option<usize> {
    let status_end = bytes.iter().position(|&b| b == b'\n')?;
    let closing = bytes[status_end..].windows(3).position(|w| w == b"\n.\n")?;
    Some(status_end + closing + 3)
}

/// Narrow a caller-facing `usize` knob to the wire's `u32`.
fn wire_u32(key: &'static str) -> impl Fn(usize) -> Result<u32, ClientError> {
    move |value| {
        u32::try_from(value)
            .map_err(|_| ClientError::Unencodable(format!("{key} value {value} exceeds u32")))
    }
}

/// The bytes a text connection writes for `request`: its line and the
/// newline, in one string so they go out in one write (splitting them into
/// two TCP segments lets Nagle hold the newline for the delayed ACK, ~40ms
/// per request on loopback). Refused before anything is sent when the line
/// format cannot carry the request.
fn request_line(request: &RequestFrame) -> Result<String, ClientError> {
    let mut line = render_request(request).map_err(ClientError::Unencodable)?;
    line.push('\n');
    Ok(line)
}

/// Parse one `HIT seed=N entity=A,B,C` data line. The entity's `Vec` is
/// its one allocation.
fn parse_hit(line: &str) -> Result<QueryHit, ClientError> {
    let malformed = || ClientError::Protocol(format!("malformed HIT line {line:?}"));
    let rest = line.strip_prefix("HIT seed=").ok_or_else(malformed)?;
    let (seed, entity) = rest.split_once(" entity=").ok_or_else(malformed)?;
    let seed = RecordId(seed.parse().map_err(|_| malformed())?);
    let entity = parse_ids(entity).ok_or_else(malformed)?;
    Ok(QueryHit { seed, entity })
}

/// Parse one `CAND entity=N score=S name=X members=A,B,C` data line. The
/// name's `String` and the members' `Vec` are its allocations.
fn parse_cand(line: &str) -> Result<RankedEntity, ClientError> {
    let malformed = || ClientError::Protocol(format!("malformed CAND line {line:?}"));
    if !line.starts_with("CAND ") {
        return Err(malformed());
    }
    let members = value(line, "members")
        .ok_or_else(|| ClientError::Protocol(format!("no members= field in {line:?}")))?;
    Ok(RankedEntity {
        entity: RecordId(field(line, "entity")?),
        score: field(line, "score")?,
        name: field(line, "name")?,
        members: parse_ids(members).ok_or_else(malformed)?,
    })
}

/// A comma-separated id list, in one `Vec` sized for it.
fn parse_ids(list: &str) -> Option<Vec<RecordId>> {
    let mut ids = Vec::with_capacity(list.bytes().filter(|&b| b == b',').count() + 1);
    for id in list.split(',') {
        ids.push(RecordId(id.parse().ok()?));
    }
    Some(ids)
}

/// The value of a whitespace-tokenized line's `key=value` token.
fn value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// Pull `key=` out of a whitespace-tokenized line and parse it.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, ClientError> {
    value(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("no {key}= field in {line:?}")))
}

/// Like [`field`], but for the zero-padded hex trace ids.
fn hex_field(line: &str, key: &str) -> Result<u64, ClientError> {
    value(line, key)
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
/// `TOP`); the name must be one of [`COMMANDS`].
fn parse_cmd_row(line: &str) -> Result<CommandStats, ClientError> {
    let token = line.strip_prefix("CMD ").and_then(|rest| rest.split_whitespace().next());
    let name = COMMANDS
        .iter()
        .map(|&(_, name)| name)
        .find(|name| Some(*name) == token)
        .ok_or_else(|| ClientError::Protocol(format!("malformed CMD line {line:?}")))?;
    Ok(CommandStats {
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
    match value(line, "status") {
        Some("ok") => Ok(true),
        Some("err") => Ok(false),
        Some(other) => Err(ClientError::Protocol(format!(
            "unexpected status={other:?} in {line:?}"
        ))),
        None => Err(ClientError::Protocol(format!("no status= field in {line:?}"))),
    }
}

/// Parse the `TOP` data rows: `RING`, `CMD` and `SLOW` lines.
fn parse_top(block: &ReplyBlock) -> Result<TopReport, ClientError> {
    let mut ring = None;
    let mut commands = Vec::new();
    let mut slow = Vec::new();
    for line in block.data() {
        if line.starts_with("RING ") {
            ring = Some(RingStats {
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
fn parse_trace(block: &ReplyBlock) -> Result<TraceReport, ClientError> {
    let status = block.status();
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
    for line in block.data() {
        if !line.trim_start().starts_with("SPAN ") {
            return Err(ClientError::Protocol(format!(
                "unexpected TRACE data line {line:?}"
            )));
        }
        let shard = match value(line, "shard") {
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

/// Parse one `SLO` row: the rule (its `short_window=` is derived from
/// `window=`) and its evaluated state.
fn parse_slo_row(line: &str) -> Result<(SloRule, SloStatus), ClientError> {
    let rule = SloRule {
        metric: field(line, "metric")?,
        p: field(line, "p")?,
        threshold_us: field(line, "threshold_us")?,
        window: field(line, "window")?,
    };
    let label = value(line, "state")
        .ok_or_else(|| ClientError::Protocol(format!("no state= field in {line:?}")))?;
    let state = [SloState::Ok, SloState::Warning, SloState::Firing]
        .into_iter()
        .find(|state| state.label() == label)
        .ok_or_else(|| ClientError::Protocol(format!("unexpected state={label:?} in {line:?}")))?;
    let status = SloStatus {
        state,
        burn_long_pct: field(line, "burn_long_pct")?,
        burn_short_pct: field(line, "burn_short_pct")?,
    };
    Ok((rule, status))
}

/// Parse the `HISTORY` status line plus `WINDOW` / `SLO` / `BUCKET` rows.
fn parse_history(block: &ReplyBlock) -> Result<HistoryReport, ClientError> {
    let status = block.status();
    let mut summary = None;
    let mut slo = Vec::new();
    let mut buckets = Vec::new();
    for line in block.data() {
        if line.starts_with("WINDOW ") {
            summary = Some(LatencySummary {
                count: field(line, "count")?,
                mean_us: field(line, "mean_us")?,
                p50_us: field(line, "p50_us")?,
                p95_us: field(line, "p95_us")?,
                p99_us: field(line, "p99_us")?,
                min_us: field(line, "min_us")?,
                max_us: field(line, "max_us")?,
            });
        } else if line.starts_with("SLO ") {
            slo.push(parse_slo_row(line)?);
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

/// Parse the `STATS` status line plus `SHARD` / `CMD` data rows; the
/// status line's `shards=` must count the `SHARD` rows.
fn parse_stats(block: &ReplyBlock) -> Result<StatsReport, ClientError> {
    let status = block.status();
    let mut report = StatsReport {
        records: field(status, "records")?,
        sources: field(status, "sources")?,
        matches: field(status, "matches")?,
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
    for line in block.data() {
        if let Some(rest) = line.strip_prefix("SHARD ") {
            let shard = rest
                .split_whitespace()
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ClientError::Protocol(format!("malformed SHARD line {line:?}")))?;
            report.shard_rows.push(ShardStats {
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
    if field::<usize>(status, "shards")? != report.shard_rows.len() {
        return Err(ClientError::Protocol(format!(
            "shards= disagrees with the {} SHARD rows in {status:?}",
            report.shard_rows.len()
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests as fixtures;
    use yv_records::{RecordBuilder, SourceId};

    #[test]
    fn unencodable_records_are_refused_before_sending() {
        // The refusal names what the line format cannot carry.
        let refused = |request: RequestFrame| match request_line(&request) {
            Err(ClientError::Unencodable(what)) => what,
            other => panic!("expected Unencodable, got {other:?}"),
        };
        let add = |record: Record| refused(RequestFrame::Add(Box::new(record)));
        let spaced = RecordBuilder::new(1, SourceId(0)).first_name("Sara Lea").build();
        assert_eq!(add(spaced), "first value \"Sara Lea\" contains whitespace");

        let empty = RecordBuilder::new(1, SourceId(0)).first_name("").build();
        assert_eq!(add(empty), "first value is empty");

        let mut with_mm = RecordBuilder::new(1, SourceId(0)).first_name("Sara").build();
        with_mm.mothers_maiden = Some("Katz".to_owned());
        assert_eq!(add(with_mm), "mothers_maiden has no ADD key");

        let spaced_query =
            PersonQuery { first_name: Some("Sara Lea".into()), ..PersonQuery::default() };
        assert!(refused(RequestFrame::Query(spaced_query)).contains("contains whitespace"));
        let metric = RequestFrame::History { metric: String::new(), window: None };
        assert_eq!(refused(metric), "metric value is empty");
        // A bare token holding `=` would parse back as an option.
        let resolve = RequestFrame::Resolve { name: "a=b".to_owned(), k: None, min: None };
        assert_eq!(refused(resolve), "name value \"a=b\" contains '='");
        let history = RequestFrame::History { metric: "a=b".to_owned(), window: None };
        assert_eq!(refused(history), "metric value \"a=b\" contains '='");
        let batch = refused(RequestFrame::BatchAdd(Vec::new()));
        assert!(batch.contains("BATCH_ADD has no line-protocol encoding"), "{batch}");

        let line = request_line(&RequestFrame::Stats).expect("renderable");
        assert_eq!(line, "STATS\n", "line and newline leave in one write");
    }

    /// A rendered response as [`read_text_block`] reads it off a socket.
    fn block(rendered: &str) -> ReplyBlock {
        read_text_block(&mut rendered.as_bytes()).expect("a whole response block")
    }

    fn ids(ids: &[u32]) -> Vec<RecordId> {
        ids.iter().copied().map(RecordId).collect()
    }

    #[test]
    fn hit_lines_parse() {
        let hits = vec![
            QueryHit { seed: RecordId(17), entity: ids(&[17, 203, 5044]) },
            QueryHit { seed: RecordId(9), entity: ids(&[9]) },
        ];
        let parsed = block(&crate::protocol::format_hits(&hits)).hits();
        assert_eq!(parsed.expect("rendered by the server"), hits);
        assert!(parse_hit("HIT seed=17").is_err());
        assert!(parse_hit("seed=17 entity=1").is_err());
        assert!(parse_hit("HIT seed=x entity=1").is_err());
    }

    #[test]
    fn cand_lines_parse() {
        // Every score survives the text wire bit for bit: what the server
        // renders parses back to the same f64, which no fixed precision
        // gives for all of these (17 significant digits among them).
        let scores =
            [0.1 + 0.2, 1.0 / 3.0, 0.123_456_789_012_345_68, f64::MIN_POSITIVE, -0.0, 1e300];
        let hits: Vec<RankedEntity> = scores
            .iter()
            .zip(17..)
            .map(|(&score, id)| RankedEntity {
                entity: RecordId(id),
                score,
                name: format!("levi{id}"),
                members: ids(&[id, 203]),
            })
            .collect();
        let parsed =
            block(&crate::protocol::format_candidates(&hits)).candidates().expect("rendered");
        assert_eq!(parsed, hits);
        let bits = |rows: &[RankedEntity]| -> Vec<u64> {
            rows.iter().map(|r| r.score.to_bits()).collect()
        };
        assert_eq!(bits(&parsed), bits(&hits));
        assert!(parse_cand("CAND entity=17 score=0.5 name=levi").is_err());
        assert!(parse_cand("HIT seed=17 entity=1").is_err());
        assert!(parse_cand("CAND entity=17 score=x name=levi members=17").is_err());
    }

    /// A score from its bits, or for a third of the picks one of the
    /// values plain `Display` is likeliest to get wrong: signed zeros,
    /// subnormals, the extremes, and a sum 17 significant digits long.
    fn score(bits: u64, pick: usize) -> f64 {
        const EDGES: [f64; 8] = [
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            0.300_000_000_000_000_04,
        ];
        match (EDGES.get(pick), f64::from_bits(bits)) {
            (Some(&edge), _) => edge,
            (None, drawn) if drawn.is_finite() => drawn,
            (None, _) => EDGES[pick % EDGES.len()],
        }
    }

    /// A block the server rendered, as each transport hands it back: read
    /// off a text stream, and carried in a `BLOCK` frame. Both get the
    /// in-place trace token first, as a served `QUERY` or `RESOLVE` does.
    fn over_both_transports(mut rendered: String) -> [ReplyBlock; 2] {
        crate::protocol::insert_trace_token(&mut rendered, 0x00c0_ffee_0000_0001);
        let text = read_text_block(&mut rendered.as_bytes()).expect("a whole text block");
        let frame = ResponseFrame::Block(rendered).encode().expect("encodable");
        let Ok(Some(ResponseFrame::Block(carried))) = ResponseFrame::read(&mut frame.as_slice())
        else {
            panic!("the frame decodes to a block");
        };
        [text, ReplyBlock::new(carried).expect("a whole framed block")]
    }

    use proptest::collection::vec as draws;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The reply half of the round-trip law: what the server renders
        /// for any `QUERY` hits or `RESOLVE` candidates — any `u32` ids,
        /// any finite score, names from the text-encodable alphabet —
        /// parses back to them bit for bit over both transports, and the
        /// renderers write the bytes of the allocating reference.
        #[test]
        fn rendered_replies_parse_back_bit_for_bit(
            seeds in draws(0u32..=u32::MAX, 0..14),
            lists in draws(draws(0u32..=u32::MAX, 1..7), 14..15),
            bits in draws(0u64..=u64::MAX, 14..15),
            picks in draws(0usize..24, 14..15),
            names in draws("[a-zA-Z0-9łóźüéßא'=.,_-]{0,10}", 14..15),
        ) {
            let hits: Vec<QueryHit> = seeds
                .iter()
                .zip(&lists)
                .map(|(&seed, list)| QueryHit { seed: RecordId(seed), entity: ids(list) })
                .collect();
            let rendered = crate::protocol::format_hits(&hits);
            proptest::prop_assert_eq!(&rendered, &fixtures::reference_format_hits(&hits));
            for block in over_both_transports(rendered) {
                proptest::prop_assert_eq!(&block.hits().expect("parses"), &hits);
            }

            let candidates: Vec<RankedEntity> = seeds
                .iter()
                .zip(&lists)
                .zip(bits.iter().zip(&picks))
                .zip(&names)
                .map(|(((&entity, list), (&bits, &pick)), name)| RankedEntity {
                    entity: RecordId(entity),
                    score: score(bits, pick),
                    name: name.clone(),
                    members: ids(list),
                })
                .collect();
            let exact = |rows: &[RankedEntity]| -> Vec<(u32, u64, String, Vec<RecordId>)> {
                rows.iter()
                    .map(|r| (r.entity.0, r.score.to_bits(), r.name.clone(), r.members.clone()))
                    .collect()
            };
            let rendered = crate::protocol::format_candidates(&candidates);
            let reference = fixtures::reference_format_candidates(&candidates);
            proptest::prop_assert_eq!(&rendered, &reference);
            for block in over_both_transports(rendered) {
                let parsed = block.candidates().expect("parses");
                proptest::prop_assert_eq!(exact(&parsed), exact(&candidates));
            }
        }
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
            ReplyBlock::new(format!("OK reply={n}\n.\n")).map(Reply::Block)
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
            assert!(matches!(reply, Reply::Block(block) if block.status() == expected));
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
    fn reply_conversions_map_err_statuses_to_server_errors() {
        let reply = |status: &str| Reply::Block(block(&format!("{status}\n.\n")));
        let err = reply("ERR no such metric");
        assert!(matches!(err.clone().block(), Err(ClientError::Server(msg)) if msg == "no such metric"));
        assert!(matches!(err.batch(), Err(ClientError::Server(_))));

        let ok = reply("OK matches=2");
        assert_eq!(ok.clone().block().expect("ok").status(), "OK matches=2");
        assert!(matches!(ok.batch(), Err(ClientError::Protocol(_))));

        let batch = Reply::Batch(vec![BatchStatus::Ok { matches: 1 }]);
        assert!(matches!(batch.clone().block(), Err(ClientError::Protocol(_))));
        assert_eq!(batch.batch().expect("batch").len(), 1);

        let garbled = reply("HELLO?");
        assert!(matches!(garbled.block(), Err(ClientError::Protocol(_))));
    }

    #[test]
    fn a_block_needs_a_status_line_and_a_closing_terminator() {
        let whole = |text: &str| ReplyBlock::new(text.to_owned()).ok();
        let parts = |b: ReplyBlock| (b.status().to_owned(), b.data().map(str::to_owned).collect());
        let split = |text: &str| whole(text).map(parts);
        let lines = |data: &[&str]| data.iter().map(|l| (*l).to_owned()).collect::<Vec<_>>();
        assert_eq!(split("OK 0\n.\n"), Some(("OK 0".to_owned(), lines(&[]))));
        assert_eq!(split("OK 1\nHIT a\n.\n"), Some(("OK 1".to_owned(), lines(&["HIT a"]))));
        assert_eq!(split("OK 1\r\nHIT a\r\n.\r\n"), Some(("OK 1".to_owned(), lines(&["HIT a"]))));
        // The status line is never the terminator, however it reads.
        assert_eq!(split(".\n.\n"), Some((".".to_owned(), lines(&[]))));
        for broken in ["", ".\n", "OK 2\n", "OK 2\nHIT a\n", "OK.\n", "OK 1\nHIT a.\n"] {
            assert_eq!(whole(broken), None, "{broken:?}");
        }
        // A text reply closes at its first terminator line; what follows
        // is the next reply's.
        let mut stream = "OK 1\nHIT a\n.\nOK 0\n.\n".as_bytes();
        assert_eq!(read_text_block(&mut stream).ok(), whole("OK 1\nHIT a\n.\n"));
        assert_eq!(read_text_block(&mut stream).ok(), whole("OK 0\n.\n"));
        assert!(read_text_block(&mut stream).is_err(), "closed mid-response");
        assert_eq!(block("OK metrics\na 1\nb 2\n.\n").into_data(), "a 1\nb 2\n");
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
        let report = fixtures::sample_stats();
        let rendered = crate::protocol::format_stats(&report);
        assert_eq!(parse_stats(&block(&rendered)).expect("rendered by the server"), report);
        let skewed = block(&rendered.replace("shards=2", "shards=3"));
        assert!(parse_stats(&skewed).is_err(), "shards= must count the SHARD rows");
        let unknown = block(&rendered.replace("CMD ADD", "CMD FROB"));
        assert!(parse_stats(&unknown).is_err(), "CMD names come from COMMANDS");
        assert!(parse_stats(&block("OK records=7\n.\n")).is_err(), "missing fields rejected");
    }

    #[test]
    fn top_response_parses_ring_cmd_and_slow_rows() {
        let idle = TopReport { ring: RingStats::default(), commands: Vec::new(), slow: Vec::new() };
        for report in [fixtures::sample_top(), idle] {
            let rendered = block(&crate::protocol::format_top(&report));
            assert_eq!(parse_top(&rendered).expect("rendered by the server"), report);
        }
        let cmd_only = block("OK top\nCMD QUERY count=1\n.\n");
        assert!(parse_top(&cmd_only).is_err(), "RING line required");
        assert!(parse_top(&block("OK top\nRANDOM row\n.\n")).is_err(), "unknown rows rejected");
    }

    #[test]
    fn trace_response_parses_the_span_tree_with_shards_and_args() {
        let trace = fixtures::sample_trace();
        let rendered = crate::protocol::format_trace(&trace);
        let report = parse_trace(&block(&rendered)).expect("rendered by the server");
        let owned = |args: &[(&str, u64)]| -> Vec<(String, u64)> {
            args.iter().map(|&(key, value)| (key.to_owned(), value)).collect()
        };
        assert_eq!((report.id, report.command.as_str()), (trace.id, trace.command));
        assert_eq!((report.ok, report.conn), (trace.ok, trace.conn));
        assert_eq!((report.total_ns, report.dropped_spans), (trace.total_ns, trace.dropped_spans));
        assert_eq!(report.args, owned(trace.args()));
        assert_eq!(report.spans.len(), trace.spans().len());
        for (row, span) in report.spans.iter().zip(trace.spans()) {
            let start_ns = span.start_ns - trace.start_ns;
            assert_eq!(row.name, span.name);
            assert_eq!((row.depth, row.shard), (span.depth, span.shard()));
            assert_eq!((row.start_ns, row.dur_ns), (start_ns, span.dur_ns));
            assert_eq!(row.args, owned(span.args()));
        }
        let status = rendered.lines().next().expect("a status line");
        let hit = block(&format!("{status}\nHIT seed=1 entity=1\n.\n"));
        assert!(parse_trace(&hit).is_err(), "non-SPAN data rejected");
        let bad_id = "OK trace=zz command=X status=ok conn=0 total_ns=0 spans=0 dropped=0\n.\n";
        assert!(parse_trace(&block(bad_id)).is_err(), "bad hex id rejected");
    }

    #[test]
    fn history_response_parses_summary_slo_and_bucket_rows() {
        // The fixture's rule is `ok`; add one `warning` and one `firing`.
        let mut busy = fixtures::sample_history();
        let rule = busy.slo[0].0.clone();
        for (state, burn) in [(SloState::Warning, 60), (SloState::Firing, 400)] {
            let status = SloStatus { state, burn_long_pct: burn, burn_short_pct: burn * 2 };
            busy.slo.push((SloRule { window: 30, ..rule.clone() }, status));
        }
        let empty = HistoryReport {
            summary: LatencySummary::default(),
            slo: Vec::new(),
            buckets: Vec::new(),
            ..busy.clone()
        };
        for report in [busy, empty] {
            let rendered = block(&crate::protocol::format_history(&report));
            assert_eq!(parse_history(&rendered).expect("rendered by the server"), report);
        }
        let status = "OK history metric=query window=5 now_epoch=9 buckets=0";
        assert!(parse_history(&block(&format!("{status}\n.\n"))).is_err(), "WINDOW line required");
        let random = block(&format!("{status}\nRANDOM row\n.\n"));
        assert!(parse_history(&random).is_err(), "unknown rows rejected");
    }
}
