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
//! a length field, a clean stop before the frame it damaged.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use proptest::prelude::*;
use yv_adt::AdTree;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig};
use yv_records::{
    Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, Record, RecordBuilder, Source,
    SourceId,
};
use yv_store::framed;
use yv_store::codec::{self, Writer};
use yv_store::snapshot::{self, from_bytes};
use yv_store::wal::{self, scan, Wal};
use yv_store::StoreError;

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

/// A valid WAL: a source frame and two record frames.
fn valid_wal() -> Vec<u8> {
    let dir = ScratchDir::new("decoders-wal");
    let path = dir.join("wal.0.yvl");
    let mut log = Wal::create(&path).unwrap();
    log.append_source(0, &Source::list(SourceId(1), "late list")).unwrap();
    for (seq, record) in (1..).zip(records()) {
        log.append_record(seq, &record).unwrap();
    }
    std::fs::read(&path).unwrap()
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
    for cut in 0..log.len() {
        match scan(&log[..cut]) {
            Ok(prefix) => {
                assert!(prefix.entries.len() < 3, "cut {cut}");
                assert_eq!(prefix.entries, full.entries[..prefix.entries.len()], "cut {cut}");
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
                assert_eq!(stopped.entries, full.entries[..stopped.entries.len()], "bit {bit}");
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
