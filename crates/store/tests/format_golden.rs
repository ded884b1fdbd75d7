//! Golden digests of every byte the store puts on disk or on the wire.
//!
//! FNV-1a 64 of each file a 2-shard store writes — at `create`, after a
//! source, a single record and a batch have arrived, and after `SNAPSHOT`
//! — of a standalone WAL (synced and unsynced appends), of one encoded
//! frame per request and response kind, of the text line a client sends
//! per request kind, of the reply blocks the server renders for `QUERY`,
//! `RESOLVE` and a bare status, and of `state_bytes` after a reopen. The fixture is
//! hand-built (no datagen, no training), so only a change to a format can
//! move a digest. A change meant to keep every byte must leave the tables
//! alone; one that changes a format on purpose re-pins them from the table
//! a failing run prints.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use yv_adt::AdTree;
use yv_blocking::ScoreFunction;
use yv_core::{
    IncrementalConfig, IncrementalResolver, PersonQuery, Pipeline, PipelineConfig, QueryHit,
    RankedMatch,
};
use yv_records::{
    Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, Record, RecordBuilder, RecordId,
    Source, SourceId,
};
use yv_similarity::ExpertWeights;
use yv_store::codec::fnv1a64;
use yv_store::protocol::{format_candidates, format_hits, format_status};
use yv_store::{
    wal_file_name, BatchStatus, Client, RankedEntity, RequestFrame, ResponseFrame, Store, Wal,
    MANIFEST_FILE, SNAPSHOT_FILE,
};

fn record(book: u64, source: u32, first: &str, last: &str) -> Record {
    RecordBuilder::new(book, SourceId(source)).first_name(first).last_name(last).build()
}

/// A record with every optional field set, places and coordinates included.
fn full_record(book: u64) -> Record {
    RecordBuilder::new(book, SourceId(1))
        .first_name("Guido")
        .first_name("Guidino")
        .last_name("Foa")
        .maiden_name("Levi")
        .father_name("Italo")
        .mother_name("Estela")
        .mothers_maiden("Colombo")
        .spouse_name("Rosa")
        .gender(Gender::Male)
        .birth(DateParts::full(2, 8, 1936))
        .profession("tailor")
        .place(
            PlaceType::Birth,
            Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
        )
        .build()
}

/// Eight base records over two sources, two pinned matches, a weighted
/// score function and one pruning knob unset: every field of the snapshot
/// payload carries something.
fn resolver() -> IncrementalResolver {
    let mut ds = Dataset::new();
    ds.add_source(Source::list(SourceId(0), "deportation list 1943"));
    ds.add_source(Source::testimony(SourceId(1), "Massimo", "Foa", "Cuorgne"));
    ds.add_record(full_record(1_016_196));
    for (i, last) in ["Levi", "Roth", "Katz", "Blum", "Stern", "Weiss", "Foa"].iter().enumerate() {
        ds.add_record(record(100 + i as u64, u32::from(i % 2 == 0), "Sara", last));
    }
    let mut config = PipelineConfig::default();
    config.blocking.score = ScoreFunction::WeightedJaccard(ExpertWeights::default());
    config.blocking.prune_common = None;
    let matches = vec![
        RankedMatch { a: RecordId(0), b: RecordId(7), score: 0.875 },
        RankedMatch { a: RecordId(1), b: RecordId(2), score: 0.25 },
    ];
    IncrementalResolver::from_parts(
        ds,
        Pipeline::with_model(AdTree::prior(0.5)),
        config,
        IncrementalConfig::default(),
        matches,
    )
}

/// The lines a text [`Client`] writes for `requests`, read off the
/// accepting end of a loopback socket.
fn sent_lines(requests: &[RequestFrame]) -> Vec<String> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    let mut pipeline = client.pipeline(requests.len());
    for frame in requests {
        pipeline.push(frame).unwrap();
    }
    drop(client);
    let mut sent = String::new();
    server.read_to_string(&mut sent).unwrap();
    sent.lines().map(str::to_owned).collect()
}

fn digest_file(out: &mut Vec<(String, u64)>, label: &str, path: &Path) {
    out.push((label.to_owned(), fnv1a64(&std::fs::read(path).unwrap())));
}

fn store_files(out: &mut Vec<(String, u64)>, stage: &str, dir: &Path) {
    let mut names = vec![MANIFEST_FILE.to_owned(), SNAPSHOT_FILE.to_owned()];
    names.extend((0..2).map(wal_file_name));
    for name in names {
        digest_file(out, &format!("{stage}/{name}"), &dir.join(name));
    }
}

/// Compare with the pinned table; on a mismatch the panic message is the
/// whole actual table in source form.
fn check(what: &str, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual.iter().zip(expected).all(|((a, x), (b, y))| a == b && x == y);
    if !same {
        let rows: Vec<String> =
            actual.iter().map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),")).collect();
        panic!("{what} digests moved:\n&[\n{}\n]", rows.join("\n"));
    }
}

#[test]
fn store_directory_files_are_byte_identical() {
    let dir = ScratchDir::new("golden-store");
    let mut actual = Vec::new();
    let store = Store::create(&dir, resolver(), 2).unwrap();
    store_files(&mut actual, "create", &dir);

    let late = store.add_source(Source::list(SourceId(0), "late list")).unwrap();
    store.add_record(full_record(2_000_001)).unwrap();
    let batch: Vec<Record> = ["Levi", "Postel", "Adler", "Braun", "Segal"]
        .iter()
        .enumerate()
        .map(|(i, last)| record(3_000_000 + i as u64, late.0, "Moshe", last))
        .collect();
    for outcome in store.add_records(batch) {
        outcome.unwrap();
    }
    store_files(&mut actual, "arrivals", &dir);
    let before = store.state_bytes().unwrap();
    drop(store);

    let reopened = Store::open(&dir).unwrap();
    let state = reopened.state_bytes().unwrap();
    assert_eq!(state, before, "replay reproduces the state");
    actual.push(("reopen/state_bytes".to_owned(), fnv1a64(&state)));
    // Appends after a reopen land behind the replayed frames.
    reopened.add_record(record(4_000_000, 0, "Rivka", "Roth")).unwrap();
    reopened.add_record(record(4_000_001, 1, "Chana", "Segal")).unwrap();
    for s in 0..2 {
        let name = wal_file_name(s);
        digest_file(&mut actual, &format!("reopen/{name}"), &dir.join(&name));
    }
    reopened.snapshot().unwrap();
    store_files(&mut actual, "snapshot", &dir);

    check(
        "store directory",
        &actual,
        &[
            ("create/manifest.yvm", 0x9cb0f48c5155d070),
            ("create/snapshot.yvs", 0x6a3b07936c922ef4),
            ("create/wal.0.yvl", 0x89d6e75c8ab414f9),
            ("create/wal.1.yvl", 0x89d6e75c8ab414f9),
            ("arrivals/manifest.yvm", 0x9cb0f48c5155d070),
            ("arrivals/snapshot.yvs", 0x6a3b07936c922ef4),
            ("arrivals/wal.0.yvl", 0x47dd3e6d8ebccceb),
            ("arrivals/wal.1.yvl", 0xd92dfc5387b0acdb),
            ("reopen/state_bytes", 0x59ac53e7dd25a323),
            ("reopen/wal.0.yvl", 0xaaaca24e5d51d3e9),
            ("reopen/wal.1.yvl", 0x291890295305466b),
            ("snapshot/manifest.yvm", 0x9cb0f48c5155d070),
            ("snapshot/snapshot.yvs", 0xf112b328c1dbc1c4),
            ("snapshot/wal.0.yvl", 0x89d6e75c8ab414f9),
            ("snapshot/wal.1.yvl", 0x89d6e75c8ab414f9),
        ],
    );
}

#[test]
fn log_files_are_byte_identical() {
    let dir = ScratchDir::new("golden-logs");
    let mut actual = Vec::new();

    let path = dir.join("wal.yvl");
    let mut wal = Wal::create(&path).unwrap();
    wal.append_source(0, &Source::testimony(SourceId(2), "Rivka", "Katz", "Lodz")).unwrap();
    wal.append_record(1, &full_record(7)).unwrap();
    let ranked = [(5, 1.25), (2, 0.5), (3, 0.5), (0, -0.75)]
        .map(|(partner, score)| RankedMatch::new(RecordId(partner), RecordId(6), score));
    wal.append_matches(1, &ranked).unwrap();
    wal.append_record_nosync(4, &record(8, 0, "David", "Adler")).unwrap();
    wal.append_record_nosync(9, &record(9, 2, "Chana", "")).unwrap();
    wal.sync().unwrap();
    assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
    digest_file(&mut actual, "wal", &path);

    check("log file", &actual, &[("wal", 0xb6ba28650208cc23)]);
}

#[test]
fn wire_frames_are_byte_identical() {
    let requests = [
        RequestFrame::Query(PersonQuery {
            first_name: Some("Guido".to_owned()),
            last_name: None,
            name_similarity: 0.88,
            certainty: 0.25,
        }),
        RequestFrame::Resolve { name: "Lewi".to_owned(), k: Some(5), min: Some(0.5) },
        RequestFrame::Add(Box::new(full_record(99))),
        RequestFrame::BatchAdd(vec![record(1, 0, "Sara", "Levi"), full_record(2)]),
        RequestFrame::Stats,
        RequestFrame::Metrics,
        RequestFrame::Top { k: Some(3) },
        RequestFrame::Trace { id: 0xb10e_24d1 },
        RequestFrame::History { metric: "query".to_owned(), window: Some(5) },
        RequestFrame::Snapshot,
        RequestFrame::Shutdown,
    ];
    let responses = [
        ResponseFrame::Block("OK 2\nHIT seed=1 entity=1,2\n.\n".to_owned()),
        ResponseFrame::Batch(vec![
            BatchStatus::Ok { matches: 3 },
            BatchStatus::Err("ADD: bad book id".to_owned()),
        ]),
    ];
    let mut actual = Vec::new();
    for frame in &requests {
        actual.push((format!("request {:#04x}", frame.tag()), fnv1a64(&frame.encode().unwrap())));
    }
    for frame in &responses {
        actual.push((format!("response {:#04x}", frame.tag()), fnv1a64(&frame.encode().unwrap())));
    }
    // The same requests as text lines. `BATCH_ADD` has no line form, and
    // the line protocol cannot carry the ADD record's mother's maiden name
    // or places, so the text ADD drops those two fields.
    let mut text_record = full_record(99);
    text_record.mothers_maiden = None;
    text_record.places = Default::default();
    let text_requests: Vec<RequestFrame> = requests
        .iter()
        .filter(|frame| !matches!(frame, RequestFrame::BatchAdd(_)))
        .map(|frame| match frame {
            RequestFrame::Add(_) => RequestFrame::Add(Box::new(text_record.clone())),
            other => other.clone(),
        })
        .collect();
    for line in sent_lines(&text_requests) {
        let command = line.split(' ').next().unwrap_or_default().to_owned();
        actual.push((format!("text {command}"), fnv1a64(line.as_bytes())));
    }
    check(
        "wire frame",
        &actual,
        &[
            ("request 0x01", 0x14d377ad45f9c680),
            ("request 0x02", 0x9f2fabfc46953ad6),
            ("request 0x03", 0x1f8dc9a2928dc54f),
            ("request 0x0b", 0xfab0b418ed45f833),
            ("request 0x04", 0x19803878f4347cc9),
            ("request 0x05", 0xaf08f7255a8cb494),
            ("request 0x06", 0x8528d53ce393c29e),
            ("request 0x07", 0x39a8aa4ce467fe71),
            ("request 0x08", 0x2e644b2df39c95e1),
            ("request 0x09", 0xb9be15ca2f6713f4),
            ("request 0x0a", 0xff59e25de853c804),
            ("response 0x20", 0xe9cffbd49fb30b40),
            ("response 0x21", 0x90cc3455d2d94035),
            ("text QUERY", 0x136b034a0fb16041),
            ("text RESOLVE", 0xb1d4ecf0fc975e61),
            ("text ADD", 0x5e336de6d89e5f4d),
            ("text STATS", 0x9a0bc308546c8c6c),
            ("text METRICS", 0xa1a1070dc7de0276),
            ("text TOP", 0x083e45fb2988c419),
            ("text TRACE", 0xddb51899bc1ec201),
            ("text HISTORY", 0x43b40033fed5a3c3),
            ("text SNAPSHOT", 0x11738c874cabf4ad),
            ("text SHUTDOWN", 0xbee57e146050144b),
        ],
    );
}

fn ids(ids: &[u32]) -> Vec<RecordId> {
    ids.iter().copied().map(RecordId).collect()
}

fn candidate(entity: u32, score: f64, name: &str, members: &[u32]) -> RankedEntity {
    RankedEntity { entity: RecordId(entity), score, name: name.to_owned(), members: ids(members) }
}

#[test]
fn reply_blocks_are_byte_identical() {
    let top = u32::MAX;
    let hit_lists = [
        ("no hits", vec![]),
        ("singleton", vec![QueryHit { seed: RecordId(5), entity: ids(&[5]) }]),
        (
            "multi-id",
            vec![
                QueryHit { seed: RecordId(17), entity: ids(&[17, 203, 5044]) },
                QueryHit { seed: RecordId(203), entity: ids(&[17, 203, 5044]) },
                QueryHit { seed: RecordId(0), entity: ids(&[0, 9]) },
            ],
        ),
        (
            "near u32::MAX",
            vec![
                QueryHit { seed: RecordId(top), entity: ids(&[top - 1, top]) },
                QueryHit { seed: RecordId(top - 1), entity: ids(&[999_999_999, top - 1, top]) },
            ],
        ),
    ];
    let candidate_lists = [
        ("no candidates", vec![]),
        (
            "scores",
            vec![
                candidate(17, 0.1 + 0.2, "levi", &[17, 203]),
                candidate(88, -0.0, "lewin", &[88]),
                candidate(90, 1e-300, "lewy", &[90, 91, 92]),
                candidate(top, 0.123_456_789_012_345_68, "levy", &[top]),
            ],
        ),
        (
            "non-ASCII name",
            vec![candidate(3, 0.75, "łódź", &[3, 4]), candidate(4, -1.5, "müller", &[4])],
        ),
    ];
    let statuses = [
        "OK matches=3",
        "OK snapshot",
        "OK bye",
        "ERR RESOLVE: k must be at least 1",
    ];
    let mut actual = Vec::new();
    for (label, hits) in &hit_lists {
        actual.push((format!("hits {label}"), fnv1a64(format_hits(hits).as_bytes())));
    }
    for (label, candidates) in &candidate_lists {
        let block = format_candidates(candidates);
        actual.push((format!("candidates {label}"), fnv1a64(block.as_bytes())));
    }
    for status in statuses {
        actual.push((format!("status {status}"), fnv1a64(format_status(status).as_bytes())));
    }
    check(
        "reply block",
        &actual,
        &[
            ("hits no hits", 0xaaa5aa6e2d6240d3),
            ("hits singleton", 0x7b6f7c31acff068f),
            ("hits multi-id", 0xe1d4ee65ac3485df),
            ("hits near u32::MAX", 0x531326d8d6992045),
            ("candidates no candidates", 0xaaa5aa6e2d6240d3),
            ("candidates scores", 0x21da6a57a402e90a),
            ("candidates non-ASCII name", 0x00e23df3d16048d9),
            ("status OK matches=3", 0xa37ad369d29297bc),
            ("status OK snapshot", 0xbdef0c31c05496e9),
            ("status OK bye", 0x4e6a97ded364d5e7),
            ("status ERR RESOLVE: k must be at least 1", 0x468b284b628073ea),
        ],
    );
}
