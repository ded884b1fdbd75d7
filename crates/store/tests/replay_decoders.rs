//! Whatever bytes sit in a store directory, the two replay decoders
//! `open` runs — `wal::scan` and the snapshot decoder — return a value or
//! a typed [`StoreError`]; they never panic.
//!
//! Three kinds of input: arbitrary bytes (raw, and behind a valid header
//! with a valid checksum, so the payload decoders see them), every
//! truncation of a valid file, and every single-bit flip of one. Files
//! whose payload a checksum covers end differently: a cut or flipped
//! snapshot is always an error, while a cut WAL is its complete frames
//! (a torn tail) and a flipped one is an error or, when the flip lands in
//! a length field, a clean stop before the frame it damaged. The valid
//! WAL holds matches frames, so a cut or a stop between a record frame
//! and its matches frame leaves that record without logged matches.
//!
//! A matches frame that checksums fine but breaks the payload's order,
//! names a partner at or above its arrival's id, or sits apart from its
//! record frame (missing, repeated, in another shard's WAL) is a typed
//! [`StoreError::Corrupt`], from the scan or from `Store::open`.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::{raw_frames, ScratchDir};
use proptest::prelude::*;
use yv_adt::AdTree;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, RankedMatch};
use yv_records::{
    Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, Record, RecordBuilder, RecordId,
    Source, SourceId,
};
use yv_store::codec::{self, Writer};
use yv_store::snapshot::{self, from_bytes};
use yv_store::wal::{self, scan, Wal, WalEntry};
use yv_store::{framed, shard_of_record, wal_file_name, Store, StoreError};

fn records() -> Vec<Record> {
    vec![
        RecordBuilder::new(1, SourceId(0))
            .first_name("Guido")
            .last_name("Foa")
            .gender(Gender::Male)
            .birth(DateParts::full(18, 11, 1920))
            .place(
                PlaceType::Birth,
                Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build(),
        RecordBuilder::new(2, SourceId(1)).first_name("Sara").last_name("Levi").build(),
    ]
}

/// Ranked matches of arrival `arrival` against `partners`, grouped by
/// score as a matches frame groups them: two groups, the first of two.
fn ranked(arrival: u32, partners: [u32; 3]) -> Vec<RankedMatch> {
    let [p, q, r] = partners.map(RecordId);
    let arrival = RecordId(arrival);
    vec![
        RankedMatch::new(p, arrival, 1.5),
        RankedMatch::new(q, arrival, 1.5),
        RankedMatch::new(r, arrival, -0.25),
    ]
}

/// A valid WAL: a source frame, two record frames, and the matches
/// frames of both records, one after its record and one after both, as a
/// `BATCH_ADD` leaves them.
fn valid_wal() -> Vec<u8> {
    let dir = ScratchDir::new("decoders-wal");
    let path = dir.join("wal.0.yvl");
    let mut log = Wal::create(&path).unwrap();
    log.append_source(0, &Source::list(SourceId(1), "late list")).unwrap();
    let [first, second] = <[Record; 2]>::try_from(records()).unwrap();
    log.append_record(1, &first).unwrap();
    log.append_matches(1, &ranked(9, [2, 5, 0])).unwrap();
    log.append_record_nosync(2, &second).unwrap();
    log.append_matches(2, &ranked(10, [1, 3, 9])).unwrap();
    std::fs::read(&path).unwrap()
}

/// What a scan of the first `len` bytes of `log` must return: the entries
/// of `full` whose record or source frame ends within them, a record
/// keeping its matches only when its matches frame ends within them too.
fn entries_within(log: &[u8], full: &[(u64, WalEntry)], len: usize) -> Vec<(u64, WalEntry)> {
    let kept: Vec<_> = raw_frames(log).into_iter().filter(|f| f.span.end <= len).collect();
    let has =
        |seq: u64, matches: bool| kept.iter().any(|f| f.seq == seq && (f.tag == 3) == matches);
    full.iter()
        .filter(|(seq, _)| has(*seq, false))
        .map(|(seq, entry)| {
            let mut entry = entry.clone();
            if let WalEntry::Record(_, logged) = &mut entry {
                if !has(*seq, true) {
                    *logged = None;
                }
            }
            (*seq, entry)
        })
        .collect()
}

/// The resolver behind [`valid_snapshot`].
fn snapshot_resolver() -> IncrementalResolver {
    let mut ds = Dataset::new();
    ds.add_source(Source::list(SourceId(0), "list"));
    ds.add_source(Source::testimony(SourceId(0), "Massimo", "Foa", "Cuorgne"));
    for record in records() {
        ds.add_record(record);
    }
    IncrementalResolver::bootstrap(
        ds,
        Pipeline::with_model(AdTree::prior(0.5)),
        PipelineConfig::default(),
        IncrementalConfig::default(),
    )
}

/// A valid snapshot file holding two records.
fn valid_snapshot() -> Vec<u8> {
    snapshot::to_bytes(&snapshot_resolver(), 3).unwrap()
}

/// `payload` framed as a snapshot file: right magic, right version, right
/// length, right checksum.
fn framed_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut bytes = framed::header(snapshot::MAGIC, snapshot::VERSION).to_vec();
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&codec::fnv1a64(payload).to_le_bytes());
    bytes
}

/// `payload` as one WAL frame with a valid checksum, behind a valid header.
fn framed_wal(tag: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let frame = framed::encode(tag, &seq.to_le_bytes(), payload).unwrap();
    [&framed::header(wal::MAGIC, wal::VERSION)[..], &frame].concat()
}

/// Every decoder over `bytes`; each returns, whatever it returns.
fn decode_all(bytes: &[u8]) -> [bool; 2] {
    [scan(bytes).is_ok(), from_bytes(bytes).is_ok()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        raw in proptest::collection::vec(0u8..=255, 0..300),
        tag in 0u8..4,
        seq in 0u64..4,
    ) {
        decode_all(&raw);
        decode_all(&[&framed::header(snapshot::MAGIC, snapshot::VERSION)[..], &raw].concat());
        decode_all(&[&framed::header(wal::MAGIC, wal::VERSION)[..], &raw].concat());
        // Behind a valid frame the payload decoders themselves see the
        // bytes: record and source codecs, the model text, the config.
        let _ = scan(&framed_wal(tag, seq, &raw));
        let _ = from_bytes(&framed_snapshot(&raw));
    }
}

#[test]
fn every_truncation_of_a_valid_file_is_a_prefix_or_an_error() {
    let log = valid_wal();
    let full = scan(&log).unwrap();
    assert_eq!((full.entries.len(), full.torn_bytes), (3, 0));
    assert!(full.entries.iter().all(|(_, e)| !matches!(e, WalEntry::Record(_, None))));
    let boundaries: Vec<usize> = raw_frames(&log).iter().map(|f| f.span.end).collect();
    assert_eq!(boundaries.len(), 5);
    for cut in 0..log.len() {
        match scan(&log[..cut]) {
            Ok(prefix) => {
                let last = boundaries.iter().copied().filter(|&b| b <= cut).max().unwrap_or(12);
                assert_eq!(prefix.valid_len, last, "cut {cut}");
                assert_eq!(prefix.entries, entries_within(&log, &full.entries, cut), "cut {cut}");
                assert_eq!(prefix.valid_len + prefix.torn_bytes, cut, "cut {cut}");
            }
            Err(e) => assert!(cut < 12, "cut {cut} past the header: {e}"),
        }
    }
    let file = valid_snapshot();
    from_bytes(&file).unwrap();
    for cut in 0..file.len() {
        assert!(from_bytes(&file[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn every_bit_flip_of_a_valid_file_is_caught_or_a_clean_stop() {
    let log = valid_wal();
    let full = scan(&log).unwrap();
    for bit in 0..log.len() * 8 {
        let mut flipped = log.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match scan(&flipped) {
            // Only a length field can turn a frame into a torn tail.
            Ok(stopped) => {
                assert!(stopped.torn_bytes > 0, "bit {bit} went unnoticed");
                let kept = entries_within(&log, &full.entries, stopped.valid_len);
                assert_eq!(stopped.entries, kept, "bit {bit}");
            }
            Err(
                StoreError::BadMagic
                | StoreError::UnsupportedVersion { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Corrupt(_),
            ) => {}
            Err(e) => panic!("bit {bit}: unexpected error {e}"),
        }
    }
    let file = valid_snapshot();
    for bit in 0..file.len() * 8 {
        let mut flipped = file.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(from_bytes(&flipped).is_err(), "bit {bit} of the snapshot file went unnoticed");
    }
}

/// A payload that checksums fine but lists its records out of id order
/// is refused: the decoder requires record ids 0..n in order.
#[test]
fn a_forged_snapshot_with_out_of_order_record_ids_is_corrupt() {
    let resolver = snapshot_resolver();
    let state = snapshot::state_bytes(&resolver).unwrap();
    // `state_bytes` ends with `u32 id ‖ record` per record; swap the two.
    let encode = |rid: u32, record: &Record| {
        let mut w = Writer::new();
        w.u32(rid);
        codec::write_record(&mut w, record).unwrap();
        w.into_bytes()
    };
    let ds = resolver.dataset();
    let [first, second] = [0, 1].map(|i| encode(i, &ds.records()[i as usize]));
    let head = &state[..state.len() - first.len() - second.len()];
    assert_eq!([head, &first, &second].concat(), state);
    let swapped = [head, &encode(1, &ds.records()[1]), &encode(0, &ds.records()[0])].concat();
    let mut payload = 3u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&swapped);
    match from_bytes(&framed_snapshot(&payload)) {
        Err(StoreError::Corrupt(what)) => assert!(what.contains("out of order"), "{what}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A matches payload that `Wal::append_matches` would not write is
/// refused by the scan.
#[test]
fn a_matches_payload_out_of_order_is_corrupt() {
    // Groups as `(score, gaps)`: a group's first gap is its first partner.
    let payload = |groups: &[(f64, &[u32])]| {
        let mut w = Writer::new();
        w.u32(groups.len() as u32);
        for &(score, gaps) in groups {
            w.f64(score);
            w.varint(gaps.len() as u32);
            for &gap in gaps {
                w.varint(gap);
            }
        }
        w.into_bytes()
    };
    let mut record = Writer::new();
    codec::write_record(&mut record, &records()[0]).unwrap();
    let record = framed::encode(1, &4u64.to_le_bytes(), &record.into_bytes()).unwrap();
    let valid = payload(&[(2.5, &[1, 3]), (0.5, &[2])]);
    let mut cases = vec![
        ("scores not descending", payload(&[(0.5, &[1]), (0.75, &[2])])),
        ("scores repeated", payload(&[(0.5, &[1]), (0.5, &[2])])),
        ("partners repeated (a zero gap)", payload(&[(0.5, &[2, 0])])),
        ("partners past u32", payload(&[(0.5, &[2, u32::MAX])])),
        ("a partner in two groups", payload(&[(2.5, &[1, 3]), (0.5, &[2, 2])])),
        ("an empty group", payload(&[(0.5, &[])])),
        ("a group past the payload", valid[..valid.len() - 1].to_vec()),
    ];
    // A varint with a redundant zero byte: partner 1 as `0x81 0x00`.
    let mut overlong = payload(&[(0.5, &[1])]);
    overlong.truncate(overlong.len() - 1);
    overlong.extend_from_slice(&[0x81, 0x00]);
    cases.push(("an overlong varint", overlong));
    let log = |payload: &[u8]| {
        let matches = framed::encode(3, &4u64.to_le_bytes(), payload).unwrap();
        [&framed::header(wal::MAGIC, wal::VERSION)[..], &record, &matches].concat()
    };
    assert!(scan(&log(&valid)).is_ok());
    for (what, payload) in cases {
        match scan(&log(&payload)) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A 2-shard store over [`snapshot_resolver`] (record ids 0 and 1) whose
/// WALs are replaced by the frames `frames(shard of the arrival)` writes
/// into each; returns what `Store::open` says.
fn open_with_wals(
    label: &str,
    frames: impl Fn(usize, &mut Wal, usize),
) -> Result<Store, StoreError> {
    let dir = ScratchDir::new(label);
    drop(Store::create(&dir, snapshot_resolver(), 2).unwrap());
    let home = shard_of_record(&arrival(), 2);
    for s in 0..2 {
        let mut log = Wal::create(&dir.join(wal_file_name(s))).unwrap();
        frames(s, &mut log, home);
    }
    Store::open(&dir)
}

/// The arrival [`open_with_wals`] logs: record id 2 once filed.
fn arrival() -> Record {
    RecordBuilder::new(3, SourceId(0)).first_name("Sara").last_name("Levi").build()
}

fn expect_corrupt(what: &str, opened: Result<Store, StoreError>, says: &str) {
    match opened {
        Err(StoreError::Corrupt(message)) => assert!(message.contains(says), "{what}: {message}"),
        Err(e) => panic!("{what}: expected Corrupt, got {e}"),
        Ok(_) => panic!("{what}: the store opened"),
    }
}

/// Matches frames that decode but cannot belong where they sit: a partner
/// at or above the arrival's id, a frame without its record frame, a
/// second frame for one arrival, a frame in another shard's WAL.
#[test]
fn misplaced_matches_frames_refuse_to_open() {
    let good = open_with_wals("matches-good", |s, log, home| {
        if s == home {
            log.append_record(0, &arrival()).unwrap();
            log.append_matches(0, &[RankedMatch::new(RecordId(1), RecordId(2), 0.5)]).unwrap();
        }
    });
    let good = good.unwrap();
    assert_eq!(good.open_report().rescored, 0);
    assert_eq!(good.stats().matches, 1 + snapshot_resolver().matches().len());

    for (what, partner) in [("partner is the arrival", 2), ("partner after it", 7)] {
        let opened = open_with_wals("matches-partner", |s, log, home| {
            if s == home {
                log.append_record(0, &arrival()).unwrap();
                let m = RankedMatch { a: RecordId(partner), b: RecordId(2), score: 0.5 };
                log.append_matches(0, &[m]).unwrap();
            }
        });
        expect_corrupt(what, opened, "at or above");
    }
    let opened = open_with_wals("matches-orphan", |s, log, home| {
        if s == home {
            log.append_matches(0, &[]).unwrap();
            log.append_record(0, &arrival()).unwrap();
        }
    });
    expect_corrupt("matches before its record", opened, "without its record frame");
    let opened = open_with_wals("matches-twice", |s, log, home| {
        if s == home {
            log.append_record(0, &arrival()).unwrap();
            log.append_matches(0, &[]).unwrap();
            log.append_matches(0, &[]).unwrap();
        }
    });
    expect_corrupt("a second matches frame", opened, "second matches frame");
    let opened = open_with_wals("matches-elsewhere", |s, log, home| {
        if s == home {
            log.append_record(0, &arrival()).unwrap();
        } else {
            log.append_matches(0, &[]).unwrap();
        }
    });
    expect_corrupt("matches in another shard", opened, "without its record frame");
}
