//! Arbitrary bytes into both request decoders: whatever a peer sends, the
//! line parser and the frame decoder return a request or a typed error —
//! they never panic.
//!
//! Random text rarely gets past the command word, so the line parser is
//! also fed token soup built from the words it branches on, and the frame
//! decoder is also fed valid payloads with one byte overwritten and the
//! tail cut off, which reaches every length prefix it reads.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use yv_core::PersonQuery;
use yv_records::{RecordBuilder, SourceId};
use yv_store::protocol::parse_request;
use yv_store::{RequestFrame, HEADER_LEN, TRAILER_LEN};

/// Commands, keys and values the line parser branches on, and values at
/// the edges of what it parses.
const TOKENS: &[&str] = &[
    "QUERY", "query", "RESOLVE", "ADD", "STATS", "METRICS", "TOP", "TRACE", "HISTORY",
    "SNAPSHOT", "SHUTDOWN", "HELLO", "first=", "last=", "similarity=", "certainty=", "k=",
    "min=", "book=", "source=", "maiden=", "father=", "mother=", "spouse=", "profession=",
    "gender=", "day=", "month=", "year=", "window=", "tier=", "format=", "trace=", "=", "NaN",
    "inf", "-inf", "-1", "0", "1", "255", "256", "4294967297", "18446744073709551616", "1e309",
    "0.88", "json", "human", "s", "m", "f", "Levi", "İ", "Σ", "ß", "\u{0}", "\u{feff}",
    "ffffffffffffffff", "0000000000000000",
];

/// What joins two tokens: nothing, a space, or a key-value separator.
const GLUE: [&str; 4] = [" ", "", " ", "="];

fn soup(picks: &[u32]) -> String {
    let n = TOKENS.len() as u32;
    picks
        .iter()
        .map(|&p| [TOKENS[(p % n) as usize], GLUE[(p / n) as usize % GLUE.len()]].concat())
        .collect()
}

fn text(code_points: &[u32]) -> String {
    code_points.iter().filter_map(|&c| char::from_u32(c)).collect()
}

/// Parse one line; a refusal must fit on the one `ERR` line it is sent as,
/// an accepted `QUERY` carries no NaN threshold and an accepted `RESOLVE`
/// no NaN `min`.
fn assert_parses_or_refuses(line: &str) {
    match parse_request(line) {
        Ok(RequestFrame::Query(q)) => {
            assert!(!q.name_similarity.is_nan() && !q.certainty.is_nan(), "{line:?}: {q:?}");
        }
        Ok(RequestFrame::Resolve { min, .. }) => {
            assert!(!min.is_some_and(f64::is_nan), "{line:?}: min {min:?}");
        }
        Ok(_) => {}
        Err(message) => {
            assert!(!message.is_empty(), "{line:?}: empty refusal");
            assert!(!message.contains(['\n', '\r']), "{line:?}: multi-line refusal {message:?}");
        }
    }
}

/// Decode one payload; what decodes must also pass or fail the check cleanly.
fn decode(tag: u8, payload: &[u8]) {
    if let Ok(frame) = RequestFrame::decode(tag, payload) {
        let _ = frame.checked();
    }
}

/// The payload of one valid frame of every request kind.
fn valid_payloads() -> Vec<(u8, Vec<u8>)> {
    let record = RecordBuilder::new(7, SourceId(1)).first_name("Sara").last_name("Levi").build();
    let frames = [
        RequestFrame::Query(PersonQuery {
            first_name: Some("Sara".to_owned()),
            last_name: Some("Levi".to_owned()),
            ..PersonQuery::default()
        }),
        RequestFrame::Resolve { name: "Lewi".to_owned(), k: Some(3), min: Some(0.5) },
        RequestFrame::Add(Box::new(record.clone())),
        RequestFrame::BatchAdd(vec![record.clone(), record]),
        RequestFrame::Top { k: Some(4) },
        RequestFrame::Trace { id: 0xb10e },
        RequestFrame::History { metric: "query".to_owned(), window: Some(5) },
        RequestFrame::Stats,
    ];
    frames
        .iter()
        .map(|frame| {
            let bytes = frame.encode().unwrap();
            (bytes[0], bytes[HEADER_LEN..bytes.len() - TRAILER_LEN].to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_line_parses_or_is_refused(
        unicode in proptest::collection::vec(0u32..0x11_0000, 0..48),
        ascii in proptest::collection::vec(0u32..128, 0..96),
        picks in proptest::collection::vec(0u32..1024, 0..12),
    ) {
        assert_parses_or_refuses(&text(&unicode));
        assert_parses_or_refuses(&text(&ascii));
        let line = soup(&picks);
        assert_parses_or_refuses(&line);
        assert_parses_or_refuses(&[line.as_str(), &text(&ascii)].concat());
    }

    #[test]
    fn any_tag_and_payload_decodes_or_is_refused(
        tag in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..513),
        kind in 0usize..64,
        at in 0usize..4096,
        byte in 0u8..=255,
        keep in 0usize..4096,
    ) {
        decode(tag, &payload);
        let payloads = valid_payloads();
        let (valid_tag, mut valid) = payloads[kind % payloads.len()].clone();
        if !valid.is_empty() {
            let at = at % valid.len();
            valid[at] = byte;
        }
        valid.truncate(keep % (valid.len() + 1));
        decode(valid_tag, &valid);
        decode(tag, &valid);
    }
}
