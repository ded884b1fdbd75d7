//! Binary wire framing for `yv serve`.
//!
//! A fresh connection speaks the line protocol (`protocol.rs`) until the
//! client's *first* request is the literal line `HELLO proto=binary`. The
//! server acknowledges with a normal text response block and from that
//! point on the same socket carries length-prefixed frames in both
//! directions — the same codec family as the WAL and telemetry files:
//!
//! ```text
//! +-----+-------------+----------------+---------------------+
//! | tag | len: u32 le | payload (len)  | fnv1a64(tag‖payload)|
//! +-----+-------------+----------------+---------------------+
//! ```
//!
//! The checksum covers the tag byte and the payload, so a flipped bit
//! anywhere in a complete frame is a [`StoreError::ChecksumMismatch`],
//! a connection cut mid-frame is a torn-tail [`StoreError::Corrupt`]
//! (distinct from the clean EOF between frames), and payload bytes left
//! over after a successful decode are trailing garbage, also
//! [`StoreError::Corrupt`]. Request payloads reuse the store codec's
//! primitives (`Writer`/`Reader`), so an `ADD` record travels in exactly
//! the encoding the WAL would log it in.
//!
//! Responses stay *semantically* identical to the text protocol: a
//! [`ResponseFrame::Block`] carries the rendered response block (status
//! line, data lines, `.` terminator) byte for byte as the text path would
//! have written it — trace tokens included — so every client-side parser
//! works unchanged over either transport. The one structured reply is
//! [`ResponseFrame::Batch`], answering the binary-only `BATCH_ADD`
//! request with one status per record in request order.

#![deny(clippy::cast_possible_truncation)]

use std::io::{ErrorKind, Read};

use crate::codec::{self, fnv1a64_parts, Reader, Writer};
use crate::error::StoreError;
use crate::protocol::{Request, DEFAULT_TOP_SLOW};
use crate::store::DEFAULT_RESOLVE_K;
use yv_core::PersonQuery;
use yv_obs::{Tier, WINDOW_BUCKETS};
use yv_records::Record;

/// The negotiation line a client sends as its first request to upgrade
/// the connection to binary framing.
pub const HELLO_LINE: &str = "HELLO proto=binary";

/// Status line the server answers a successful upgrade with (a normal
/// text response block: this line, no data lines, the `.` terminator).
pub const HELLO_OK: &str = "OK hello proto=binary";

/// Ceiling on a single frame's payload. Generous enough for a
/// `BATCH_ADD` of tens of thousands of records, small enough that a
/// corrupt length prefix cannot ask the peer to allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// Payload buffer reserved up front by [`read_raw_frame`]; longer
/// payloads grow the buffer as their bytes arrive.
const READ_CHUNK: usize = 64 * 1024;

/// Frame header bytes: tag (1) + payload length (4).
pub const HEADER_LEN: usize = 5;

/// Checksum trailer bytes.
pub const TRAILER_LEN: usize = 8;

// Request tags.
const TAG_QUERY: u8 = 0x01;
const TAG_RESOLVE: u8 = 0x02;
const TAG_ADD: u8 = 0x03;
const TAG_STATS: u8 = 0x04;
const TAG_METRICS: u8 = 0x05;
const TAG_TOP: u8 = 0x06;
const TAG_TRACE: u8 = 0x07;
const TAG_HISTORY: u8 = 0x08;
const TAG_SNAPSHOT: u8 = 0x09;
const TAG_SHUTDOWN: u8 = 0x0a;
const TAG_BATCH_ADD: u8 = 0x0b;

// Response tags.
const TAG_BLOCK: u8 = 0x20;
const TAG_BATCH_STATUS: u8 = 0x21;

/// One client request as it travels on the wire. Optional knobs stay
/// optional here (mirroring what the text protocol lets a client omit);
/// defaults are applied by [`RequestFrame::into_request`] on the server,
/// so both transports resolve them to the same values.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    Query(PersonQuery),
    Resolve { name: String, k: Option<u32>, min: Option<f64> },
    Add(Box<Record>),
    /// Binary-only: many records in one round trip, answered by
    /// [`ResponseFrame::Batch`] with one status per record in order.
    BatchAdd(Vec<Record>),
    Stats,
    Metrics,
    Top { k: Option<u32> },
    Trace { id: u64, json: bool },
    History { metric: String, window: Option<u32>, tier: Option<Tier>, json: bool },
    Snapshot,
    Shutdown,
}

/// One server reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// The rendered text response block, byte-identical to what the text
    /// protocol would have written (status line, data lines, terminator).
    Block(String),
    /// Per-record outcome of a `BATCH_ADD`, in request order.
    Batch(Vec<BatchStatus>),
}

/// Outcome of one record inside a `BATCH_ADD`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStatus {
    /// The record was applied and is durable; `matches` counts the
    /// ranked matches the incremental resolver produced for it.
    Ok { matches: u32 },
    /// The record was refused; the message matches what a text `ADD`
    /// would have returned after `ERR `.
    Err(String),
}

impl RequestFrame {
    /// The wire tag identifying this request kind.
    #[must_use]
    pub const fn tag(&self) -> u8 {
        match self {
            RequestFrame::Query(_) => TAG_QUERY,
            RequestFrame::Resolve { .. } => TAG_RESOLVE,
            RequestFrame::Add(_) => TAG_ADD,
            RequestFrame::BatchAdd(_) => TAG_BATCH_ADD,
            RequestFrame::Stats => TAG_STATS,
            RequestFrame::Metrics => TAG_METRICS,
            RequestFrame::Top { .. } => TAG_TOP,
            RequestFrame::Trace { .. } => TAG_TRACE,
            RequestFrame::History { .. } => TAG_HISTORY,
            RequestFrame::Snapshot => TAG_SNAPSHOT,
            RequestFrame::Shutdown => TAG_SHUTDOWN,
        }
    }

    fn payload(&self) -> Result<Vec<u8>, StoreError> {
        let mut w = Writer::new();
        match self {
            RequestFrame::Query(q) => {
                w.opt_str(q.first_name.as_deref())?;
                w.opt_str(q.last_name.as_deref())?;
                w.f64(q.name_similarity);
                w.f64(q.certainty);
            }
            RequestFrame::Resolve { name, k, min } => {
                w.str(name)?;
                w.opt_u32(*k);
                w.opt_f64(*min);
            }
            RequestFrame::Add(record) => codec::write_record(&mut w, record)?,
            RequestFrame::BatchAdd(records) => {
                w.u32(u32::try_from(records.len()).map_err(|_| StoreError::LimitExceeded {
                    what: "BATCH_ADD record count",
                    len: records.len(),
                })?);
                for record in records {
                    codec::write_record(&mut w, record)?;
                }
            }
            RequestFrame::Stats
            | RequestFrame::Metrics
            | RequestFrame::Snapshot
            | RequestFrame::Shutdown => {}
            RequestFrame::Top { k } => w.opt_u32(*k),
            RequestFrame::Trace { id, json } => {
                w.u64(*id);
                w.u8(u8::from(*json));
            }
            RequestFrame::History { metric, window, tier, json } => {
                w.str(metric)?;
                w.opt_u32(*window);
                w.opt_u8(tier.map(Tier::code));
                w.u8(u8::from(*json));
            }
        }
        Ok(w.into_bytes())
    }

    /// Encode into a complete frame (header + payload + checksum).
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        encode_frame(self.tag(), &self.payload()?)
    }

    /// Decode a request payload for a known tag. Rejects unknown tags,
    /// truncated fields and trailing garbage as [`StoreError::Corrupt`].
    pub fn decode(tag: u8, payload: &[u8]) -> Result<RequestFrame, StoreError> {
        let mut r = Reader::new(payload);
        let frame = match tag {
            TAG_QUERY => RequestFrame::Query(PersonQuery {
                first_name: r.opt_str("QUERY first")?,
                last_name: r.opt_str("QUERY last")?,
                name_similarity: r.f64("QUERY similarity")?,
                certainty: r.f64("QUERY certainty")?,
            }),
            TAG_RESOLVE => RequestFrame::Resolve {
                name: r.str("RESOLVE name")?,
                k: r.opt_u32("RESOLVE k")?,
                min: r.opt_f64("RESOLVE min")?,
            },
            TAG_ADD => RequestFrame::Add(Box::new(codec::read_record(&mut r)?)),
            TAG_BATCH_ADD => {
                let count = r.u32("BATCH_ADD count")? as usize;
                // A count beyond what the payload could possibly hold is a
                // corrupt prefix; refuse before reserving memory for it.
                if count > payload.len() {
                    return Err(StoreError::Corrupt(format!(
                        "BATCH_ADD count {count} exceeds payload capacity"
                    )));
                }
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(codec::read_record(&mut r)?);
                }
                RequestFrame::BatchAdd(records)
            }
            TAG_STATS => RequestFrame::Stats,
            TAG_METRICS => RequestFrame::Metrics,
            TAG_TOP => RequestFrame::Top { k: r.opt_u32("TOP k")? },
            TAG_TRACE => RequestFrame::Trace {
                id: r.u64("TRACE id")?,
                json: read_bool(&mut r, "TRACE format")?,
            },
            TAG_HISTORY => RequestFrame::History {
                metric: r.str("HISTORY metric")?,
                window: r.opt_u32("HISTORY window")?,
                tier: match r.opt_u8("HISTORY tier")? {
                    None => None,
                    Some(0) => Some(Tier::Seconds),
                    Some(1) => Some(Tier::Minutes),
                    Some(t) => {
                        return Err(StoreError::Corrupt(format!("bad HISTORY tier code {t}")))
                    }
                },
                json: read_bool(&mut r, "HISTORY format")?,
            },
            TAG_SNAPSHOT => RequestFrame::Snapshot,
            TAG_SHUTDOWN => RequestFrame::Shutdown,
            other => {
                return Err(StoreError::Corrupt(format!("unknown request frame tag {other:#04x}")))
            }
        };
        expect_drained(&r, "request frame")?;
        Ok(frame)
    }

    /// Apply the protocol's defaults and semantic checks. Both transports
    /// end here — the binary one after [`RequestFrame::decode`], the text
    /// one after `parse_request` has collected a line's raw optionals into
    /// a frame — so a request means the same, and is refused with the same
    /// `ERR` message, however it arrived. `BatchAdd` has no line-protocol
    /// counterpart and is dispatched by the server before this conversion.
    pub fn into_request(self) -> Result<Request, String> {
        match self {
            RequestFrame::Query(q) => Ok(Request::Query(q)),
            RequestFrame::Resolve { name, k, min } => {
                if name.is_empty() {
                    return Err("RESOLVE: a name argument is required".to_owned());
                }
                let k = match k {
                    None => DEFAULT_RESOLVE_K,
                    Some(0) => return Err("RESOLVE: k must be at least 1".to_owned()),
                    Some(k) => k as usize,
                };
                Ok(Request::Resolve { name, k, min })
            }
            RequestFrame::Add(record) => Ok(Request::Add(record)),
            RequestFrame::BatchAdd(_) => {
                Err("BATCH_ADD is a streaming request, not a single command".to_owned())
            }
            RequestFrame::Stats => Ok(Request::Stats),
            RequestFrame::Metrics => Ok(Request::Metrics),
            RequestFrame::Top { k } => {
                Ok(Request::Top { k: k.map_or(DEFAULT_TOP_SLOW, |k| k as usize) })
            }
            RequestFrame::Trace { id, json } => {
                if id == 0 {
                    return Err("TRACE: trace id 0 means untraced".to_owned());
                }
                Ok(Request::Trace { id, json })
            }
            RequestFrame::History { mut metric, window, tier, json } => {
                if metric.is_empty() {
                    return Err(
                        "HISTORY: a metric argument is required (a command kind, e.g. query)"
                            .to_owned(),
                    );
                }
                let window = match window {
                    None => WINDOW_BUCKETS,
                    Some(w) => {
                        let w = w as usize;
                        if w == 0 || w > WINDOW_BUCKETS {
                            return Err(format!(
                                "HISTORY: window {w} out of range (expected 1..={WINDOW_BUCKETS})"
                            ));
                        }
                        w
                    }
                };
                metric.make_ascii_lowercase();
                Ok(Request::History { metric, window, tier: tier.unwrap_or(Tier::Seconds), json })
            }
            RequestFrame::Snapshot => Ok(Request::Snapshot),
            RequestFrame::Shutdown => Ok(Request::Shutdown),
        }
    }

    /// Read one request frame off a stream. `Ok(None)` is a clean close
    /// at a frame boundary; every other shortfall is a typed error.
    pub fn read<R: Read>(r: &mut R) -> Result<Option<RequestFrame>, StoreError> {
        match read_raw_frame(r)? {
            None => Ok(None),
            Some((tag, payload)) => Ok(Some(RequestFrame::decode(tag, &payload)?)),
        }
    }
}

impl ResponseFrame {
    /// The wire tag identifying this response kind.
    #[must_use]
    pub const fn tag(&self) -> u8 {
        match self {
            ResponseFrame::Block(_) => TAG_BLOCK,
            ResponseFrame::Batch(_) => TAG_BATCH_STATUS,
        }
    }

    fn payload(&self) -> Result<Vec<u8>, StoreError> {
        let mut w = Writer::new();
        match self {
            ResponseFrame::Block(text) => w.str(text)?,
            ResponseFrame::Batch(statuses) => {
                w.u32(u32::try_from(statuses.len()).map_err(|_| StoreError::LimitExceeded {
                    what: "batch status count",
                    len: statuses.len(),
                })?);
                for status in statuses {
                    match status {
                        BatchStatus::Ok { matches } => {
                            w.u8(1);
                            w.u32(*matches);
                        }
                        BatchStatus::Err(message) => {
                            w.u8(0);
                            w.str(message)?;
                        }
                    }
                }
            }
        }
        Ok(w.into_bytes())
    }

    /// Encode into a complete frame (header + payload + checksum).
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        encode_frame(self.tag(), &self.payload()?)
    }

    /// Decode a response payload for a known tag.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<ResponseFrame, StoreError> {
        let mut r = Reader::new(payload);
        let frame = match tag {
            TAG_BLOCK => ResponseFrame::Block(r.str("response block")?),
            TAG_BATCH_STATUS => {
                let count = r.u32("batch status count")? as usize;
                if count > payload.len() {
                    return Err(StoreError::Corrupt(format!(
                        "batch status count {count} exceeds payload capacity"
                    )));
                }
                let mut statuses = Vec::with_capacity(count);
                for _ in 0..count {
                    statuses.push(match r.u8("batch status flag")? {
                        1 => BatchStatus::Ok { matches: r.u32("batch status matches")? },
                        0 => BatchStatus::Err(r.str("batch status message")?),
                        t => {
                            return Err(StoreError::Corrupt(format!("bad batch status flag {t}")))
                        }
                    });
                }
                ResponseFrame::Batch(statuses)
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown response frame tag {other:#04x}"
                )))
            }
        };
        expect_drained(&r, "response frame")?;
        Ok(frame)
    }

    /// Read one response frame off a stream. `Ok(None)` is a clean close
    /// at a frame boundary.
    pub fn read<R: Read>(r: &mut R) -> Result<Option<ResponseFrame>, StoreError> {
        match read_raw_frame(r)? {
            None => Ok(None),
            Some((tag, payload)) => Ok(Some(ResponseFrame::decode(tag, &payload)?)),
        }
    }
}

/// Assemble a complete frame: header, payload, checksum trailer.
fn encode_frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| StoreError::LimitExceeded { what: "frame payload", len: payload.len() })?;
    if len > MAX_PAYLOAD {
        return Err(StoreError::LimitExceeded { what: "frame payload", len: payload.len() });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(tag, payload).to_le_bytes());
    Ok(out)
}

/// The checksum a frame's trailer must carry: FNV-1a 64 over the tag
/// byte followed by the payload (the WAL's discipline, minus the seq).
#[must_use]
pub fn frame_checksum(tag: u8, payload: &[u8]) -> u64 {
    fnv1a64_parts(&[&[tag], payload])
}

/// Read one raw frame (tag + verified payload) off a stream.
///
/// - `Ok(None)`: the peer closed cleanly at a frame boundary.
/// - `StoreError::Corrupt("torn frame: ...")`: the connection died
///   mid-frame — the unread tail must not be acted on.
/// - `StoreError::LimitExceeded`: the length prefix exceeds
///   [`MAX_PAYLOAD`] (refused before reading further).
/// - `StoreError::ChecksumMismatch`: a complete frame whose trailer does
///   not match its bytes.
pub fn read_raw_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, StoreError> {
    let mut tag_buf = [0u8; 1];
    loop {
        match r.read(&mut tag_buf) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    let tag = tag_buf[0];
    let mut len_buf = [0u8; 4];
    read_exact_or_torn(r, &mut len_buf, "length prefix")?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_PAYLOAD {
        return Err(StoreError::LimitExceeded { what: "frame payload", len: len as usize });
    }
    // The buffer grows with the bytes that arrive, not with the length
    // the peer claimed: a header alone must not pin `MAX_PAYLOAD`.
    let want = len as usize;
    let mut payload = Vec::with_capacity(want.min(READ_CHUNK));
    r.by_ref().take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < want {
        return Err(torn("payload"));
    }
    let mut sum_buf = [0u8; 8];
    read_exact_or_torn(r, &mut sum_buf, "checksum trailer")?;
    let expected = u64::from_le_bytes(sum_buf);
    let actual = frame_checksum(tag, &payload);
    if expected != actual {
        return Err(StoreError::ChecksumMismatch { expected, actual });
    }
    Ok(Some((tag, payload)))
}

fn read_exact_or_torn<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            torn(what)
        } else {
            StoreError::Io(e)
        }
    })
}

fn torn(what: &str) -> StoreError {
    StoreError::Corrupt(format!("torn frame: connection closed mid-{what}"))
}

fn read_bool(r: &mut Reader<'_>, what: &str) -> Result<bool, StoreError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(StoreError::Corrupt(format!("bad bool value {t} for {what}"))),
    }
}

fn expect_drained(r: &Reader<'_>, what: &str) -> Result<(), StoreError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(StoreError::Corrupt(format!(
            "trailing garbage: {} byte(s) left after decoding {what}",
            r.remaining()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use yv_records::{DateParts, Gender, RecordBuilder, SourceId};

    fn sample_record(book: u64) -> Record {
        RecordBuilder::new(book, SourceId(0))
            .first_name("Sara")
            .last_name("Levi")
            .gender(Gender::Female)
            .birth(DateParts::full(3, 7, 1921))
            .build()
    }

    fn all_request_frames() -> Vec<RequestFrame> {
        vec![
            RequestFrame::Query(PersonQuery {
                first_name: Some("Guido".to_owned()),
                last_name: None,
                name_similarity: 0.88,
                certainty: 0.25,
            }),
            RequestFrame::Resolve { name: "Lewi".to_owned(), k: Some(5), min: Some(0.5) },
            RequestFrame::Resolve { name: "Lewi".to_owned(), k: None, min: None },
            RequestFrame::Add(Box::new(sample_record(99))),
            RequestFrame::BatchAdd(vec![sample_record(1), sample_record(2)]),
            RequestFrame::Stats,
            RequestFrame::Metrics,
            RequestFrame::Top { k: Some(0) },
            RequestFrame::Top { k: None },
            RequestFrame::Trace { id: 0xb10e_24d1, json: true },
            RequestFrame::History {
                metric: "query".to_owned(),
                window: Some(5),
                tier: Some(Tier::Minutes),
                json: false,
            },
            RequestFrame::History { metric: "add".to_owned(), window: None, tier: None, json: true },
            RequestFrame::Snapshot,
            RequestFrame::Shutdown,
        ]
    }

    #[test]
    fn every_request_frame_round_trips_through_a_stream() {
        for frame in all_request_frames() {
            let bytes = frame.encode().unwrap();
            let mut cursor = Cursor::new(bytes);
            let back = RequestFrame::read(&mut cursor).unwrap().unwrap();
            assert_eq!(back, frame);
            assert!(RequestFrame::read(&mut cursor).unwrap().is_none(), "clean EOF after frame");
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let frames = vec![
            ResponseFrame::Block("OK 2\nHIT seed=1 entity=1,2\n.\n".to_owned()),
            ResponseFrame::Batch(vec![
                BatchStatus::Ok { matches: 3 },
                BatchStatus::Err("ADD: bad book id".to_owned()),
            ]),
        ];
        for frame in frames {
            let bytes = frame.encode().unwrap();
            let mut cursor = Cursor::new(bytes);
            assert_eq!(ResponseFrame::read(&mut cursor).unwrap().unwrap(), frame);
        }
    }

    #[test]
    fn torn_tail_is_a_typed_error_not_a_clean_eof() {
        let bytes = RequestFrame::Stats.encode().unwrap();
        for cut in 1..bytes.len() {
            let mut cursor = Cursor::new(bytes[..cut].to_vec());
            match RequestFrame::read(&mut cursor) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("torn frame"), "cut at {cut}: {msg}");
                }
                other => panic!("cut at {cut}: expected torn-frame error, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_in_a_complete_frame_is_a_checksum_mismatch() {
        let mut bytes = RequestFrame::Resolve {
            name: "Lewi".to_owned(),
            k: Some(3),
            min: None,
        }
        .encode()
        .unwrap();
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x40;
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            RequestFrame::read(&mut cursor),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_inside_a_checksummed_payload_is_corrupt() {
        // Build a payload with extra bytes, checksum it correctly — the
        // frame layer passes, the decoder must still refuse the surplus.
        let mut payload = Vec::new();
        payload.extend_from_slice(&RequestFrame::Stats.payload().unwrap());
        payload.push(0xAB);
        let framed = encode_frame(TAG_STATS, &payload).unwrap();
        let mut cursor = Cursor::new(framed);
        match RequestFrame::read(&mut cursor) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("trailing garbage"), "{msg}"),
            other => panic!("expected trailing-garbage error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut bytes = vec![TAG_STATS];
        bytes.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            RequestFrame::read(&mut cursor),
            Err(StoreError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn unknown_tags_are_corrupt_on_both_sides() {
        let framed = encode_frame(0x7f, &[]).unwrap();
        let mut cursor = Cursor::new(framed.clone());
        assert!(matches!(RequestFrame::read(&mut cursor), Err(StoreError::Corrupt(_))));
        let mut cursor = Cursor::new(framed);
        assert!(matches!(ResponseFrame::read(&mut cursor), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn into_request_applies_the_text_protocol_defaults_and_refusals() {
        use crate::protocol::parse_request;
        // Defaults agree with the line parser.
        let binary = RequestFrame::Resolve { name: "Lewi".to_owned(), k: None, min: None }
            .into_request()
            .unwrap();
        assert_eq!(binary, parse_request("RESOLVE Lewi").unwrap());
        let binary = RequestFrame::Top { k: None }.into_request().unwrap();
        assert_eq!(binary, parse_request("TOP").unwrap());
        let binary = RequestFrame::History {
            metric: "QUERY".to_owned(),
            window: None,
            tier: None,
            json: false,
        }
        .into_request()
        .unwrap();
        assert_eq!(binary, parse_request("HISTORY query").unwrap());
        // Refusals carry the same ERR messages.
        assert_eq!(
            RequestFrame::Resolve { name: "x".to_owned(), k: Some(0), min: None }
                .into_request()
                .unwrap_err(),
            parse_request("RESOLVE x k=0").unwrap_err()
        );
        assert_eq!(
            RequestFrame::Trace { id: 0, json: false }.into_request().unwrap_err(),
            parse_request("TRACE 0").unwrap_err()
        );
        let over = u32::try_from(WINDOW_BUCKETS + 1).unwrap();
        assert_eq!(
            RequestFrame::History {
                metric: "query".to_owned(),
                window: Some(over),
                tier: None,
                json: false
            }
            .into_request()
            .unwrap_err(),
            parse_request(&format!("HISTORY query window={}", WINDOW_BUCKETS + 1)).unwrap_err()
        );
    }
}
