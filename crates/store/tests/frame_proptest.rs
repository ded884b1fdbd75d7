//! Property tests over the binary wire framing (`yv_store::frame`):
//! every request and response frame kind round-trips through a byte
//! stream unchanged, every request the text line can carry round-trips
//! through `render_request` / `parse_request`, any torn tail is a typed
//! error (never a clean EOF, never a panic), and checksummed-but-overlong
//! payloads are refused as trailing garbage.
//!
//! The vendored proptest is generate-only (no combinators), so each
//! case draws a bag of random scalars and deterministically builds one
//! frame of *every* kind from them — full kind coverage every case,
//! random field values across cases.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::io::Cursor;
use yv_core::PersonQuery;
use yv_records::{DateParts, Gender, Record, RecordBuilder, SourceId};
use yv_store::protocol::{parse_request, render_request};
use yv_store::{
    frame_checksum, BatchStatus, RequestFrame, ResponseFrame, StoreError, HEADER_LEN,
    TRAILER_LEN,
};

/// The random scalars one case draws; everything else is derived.
#[derive(Debug, Clone)]
struct Draw {
    book: u64,
    source: u32,
    first: String,
    last: String,
    knob: u32,
    frac: f64,
    flags: u32,
}

fn record_from(draw: &Draw, salt: u64) -> Record {
    let mut b = RecordBuilder::new(draw.book.wrapping_add(salt), SourceId(draw.source));
    if draw.flags & 1 != 0 {
        b = b.first_name(draw.first.clone());
    }
    if draw.flags & 2 != 0 {
        b = b.last_name(draw.last.clone());
    }
    if draw.flags & 4 != 0 {
        b = b.gender(if draw.flags & 8 != 0 { Gender::Female } else { Gender::Male });
    }
    if draw.flags & 16 != 0 {
        b = b.birth(DateParts::full(
            (draw.knob % 28 + 1) as u8,
            (draw.knob % 12 + 1) as u8,
            1890 + (draw.knob % 55) as i32,
        ));
    }
    b.build()
}

fn opt_u32(draw: &Draw, bit: u32) -> Option<u32> {
    (draw.flags & bit != 0).then_some(draw.knob)
}

/// One frame of every request kind, field values taken from the draw.
fn all_request_frames(draw: &Draw) -> Vec<RequestFrame> {
    vec![
        RequestFrame::Query(PersonQuery {
            first_name: (draw.flags & 1 != 0).then(|| draw.first.clone()),
            last_name: (draw.flags & 2 != 0).then(|| draw.last.clone()),
            name_similarity: draw.frac,
            certainty: 1.0 - draw.frac,
        }),
        RequestFrame::Resolve {
            name: draw.first.clone(),
            k: opt_u32(draw, 32),
            min: (draw.flags & 64 != 0).then_some(draw.frac),
        },
        RequestFrame::Add(Box::new(record_from(draw, 0))),
        RequestFrame::BatchAdd(
            (0..u64::from(draw.knob % 4)).map(|i| record_from(draw, i + 1)).collect(),
        ),
        RequestFrame::Stats,
        RequestFrame::Metrics,
        RequestFrame::Top { k: opt_u32(draw, 128) },
        RequestFrame::Trace { id: draw.book },
        RequestFrame::History { metric: draw.last.clone(), window: opt_u32(draw, 512) },
        RequestFrame::Snapshot,
        RequestFrame::Shutdown,
    ]
}

/// One frame of every response kind.
fn all_response_frames(draw: &Draw) -> Vec<ResponseFrame> {
    vec![
        ResponseFrame::Block(format!("OK {}\n{} {}\n.\n", draw.knob, draw.first, draw.last)),
        ResponseFrame::Batch(
            (0..draw.knob % 6)
                .map(|i| {
                    if (draw.flags >> (i % 16)) & 1 == 0 {
                        BatchStatus::Ok { matches: draw.knob.wrapping_add(i) }
                    } else {
                        BatchStatus::Err(format!("ADD: refused {}", draw.last))
                    }
                })
                .collect(),
        ),
    ]
}

fn draw(
    book: u64,
    source: u32,
    first: String,
    last: String,
    knob: u32,
    frac: f64,
    flags: u32,
) -> Draw {
    Draw { book, source, first, last, knob, frac, flags }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → read is the identity for every request frame kind, and
    /// the stream is left exactly at the frame boundary (a second read
    /// is a clean EOF).
    #[test]
    fn request_frames_round_trip(
        book in 0u64..u64::MAX,
        source in 0u32..4,
        first in "[A-Za-z][a-z]{0,11}",
        last in "[A-Za-z][a-z]{0,11}",
        knob in 0u32..10_000,
        frac in 0.0f64..1.0,
        flags in 0u32..8192,
    ) {
        let draw = draw(book, source, first, last, knob, frac, flags);
        for frame in all_request_frames(&draw) {
            let bytes = frame.encode().unwrap();
            let mut cursor = Cursor::new(bytes);
            let back = RequestFrame::read(&mut cursor).unwrap().unwrap();
            prop_assert_eq!(back, frame);
            prop_assert!(RequestFrame::read(&mut cursor).unwrap().is_none());
        }
    }

    /// The text line's round-trip law, for every request kind: either
    /// `render_request` refuses the frame, or its line parses back to the
    /// frame, checked (the same request, or the same `ERR`). Names and the
    /// `HISTORY` metric come from an alphabet holding `=`, a space and the
    /// empty string: what a bare token or a `key=value` pair can be
    /// misread around.
    #[test]
    fn rendered_request_lines_parse_back_checked(
        book in 0u64..u64::MAX,
        source in 0u32..4,
        first in "[Ab= ]{0,3}",
        last in "[Ab= ]{0,3}",
        knob in 0u32..100,
        frac in 0.0f64..1.0,
        flags in 0u32..8192,
    ) {
        let draw = draw(book, source, first, last, knob, frac, flags);
        for frame in all_request_frames(&draw) {
            if let Ok(line) = render_request(&frame) {
                prop_assert_eq!(parse_request(&line), frame.checked(), "{}", line);
            }
        }
    }

    /// encode → read is the identity for every response frame kind.
    #[test]
    fn response_frames_round_trip(
        book in 0u64..u64::MAX,
        source in 0u32..4,
        first in "[A-Za-z][a-z]{0,11}",
        last in "[ -~]{0,40}",
        knob in 0u32..10_000,
        frac in 0.0f64..1.0,
        flags in 0u32..8192,
    ) {
        let draw = draw(book, source, first, last, knob, frac, flags);
        for frame in all_response_frames(&draw) {
            let bytes = frame.encode().unwrap();
            let mut cursor = Cursor::new(bytes);
            let back = ResponseFrame::read(&mut cursor).unwrap().unwrap();
            prop_assert_eq!(back, frame);
            prop_assert!(ResponseFrame::read(&mut cursor).unwrap().is_none());
        }
    }

    /// A connection cut anywhere strictly inside a frame is the typed
    /// torn-frame error — never a clean `Ok(None)` EOF, never a panic,
    /// and never a successful decode of partial bytes.
    #[test]
    fn any_torn_tail_is_a_typed_error(
        book in 0u64..u64::MAX,
        source in 0u32..4,
        first in "[A-Za-z][a-z]{0,11}",
        last in "[A-Za-z][a-z]{0,11}",
        knob in 0u32..10_000,
        frac in 0.0f64..1.0,
        flags in 0u32..8192,
        cut_frac in 0.0f64..1.0,
    ) {
        let draw = draw(book, source, first, last, knob, frac, flags);
        for frame in all_request_frames(&draw) {
            let bytes = frame.encode().unwrap();
            // Cut positions 1..len: 0 is the clean between-frames EOF.
            let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
            let mut cursor = Cursor::new(bytes[..cut].to_vec());
            match RequestFrame::read(&mut cursor) {
                Err(StoreError::Corrupt(msg)) => {
                    prop_assert!(msg.contains("torn frame"), "cut at {}: {}", cut, msg);
                }
                other => prop_assert!(
                    false,
                    "cut at {}: expected torn-frame error, got {:?}",
                    cut,
                    other
                ),
            }
        }
    }

    /// A frame whose checksum is valid but whose payload carries more
    /// bytes than its content decodes to is refused (trailing garbage or
    /// a typed decode error) — never accepted, never a panic.
    #[test]
    fn surplus_checksummed_bytes_are_refused(
        book in 0u64..u64::MAX,
        source in 0u32..4,
        first in "[A-Za-z][a-z]{0,11}",
        last in "[A-Za-z][a-z]{0,11}",
        knob in 0u32..10_000,
        frac in 0.0f64..1.0,
        flags in 0u32..8192,
        junk in proptest::collection::vec(0u8..=255, 1..4),
    ) {
        let draw = draw(book, source, first, last, knob, frac, flags);
        for frame in all_request_frames(&draw) {
            let encoded = frame.encode().unwrap();
            let tag = encoded[0];
            // Rebuild the frame by hand with the junk folded into the
            // checksummed payload, so only the decoder can refuse it.
            let mut payload = encoded[HEADER_LEN..encoded.len() - TRAILER_LEN].to_vec();
            payload.extend_from_slice(&junk);
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&frame_checksum(tag, &payload).to_le_bytes());
            let mut cursor = Cursor::new(bytes);
            match RequestFrame::read(&mut cursor) {
                Err(_) => {}
                Ok(other) => {
                    prop_assert!(false, "expected corrupt refusal, got {:?}", other);
                }
            }
        }
    }
}
