//! Snapshot format guarantees: lossless round-trips, byte-identical
//! re-snapshots (base file and every per-shard segment), and typed
//! rejection of damaged or incompatible files.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use proptest::prelude::*;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_store::{segment_file_name, snapshot, Store, StoreError, SNAPSHOT_FILE};

/// A small trained resolver over a synthetic dataset.
fn resolver(n_records: usize, seed: u64) -> IncrementalResolver {
    let gen = GenConfig::random(n_records, seed).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
    IncrementalResolver::bootstrap(gen.dataset, pipeline, config, IncrementalConfig::default())
}

/// Read the base file plus every shard segment.
fn snapshot_files(dir: &std::path::Path, shards: usize) -> Vec<Vec<u8>> {
    let mut files = vec![std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap()];
    for s in 0..shards {
        files.push(std::fs::read(dir.join(segment_file_name(s))).unwrap());
    }
    files
}

#[test]
fn save_load_save_is_byte_identical() {
    let dir = ScratchDir::new("save-load-save");
    let original = resolver(300, 11);
    let expected_state = snapshot::state_bytes(&original).unwrap();
    let store = Store::create(&dir, original, 3).unwrap();
    let first = snapshot_files(&dir, 3);
    drop(store);

    // Reload from disk and snapshot again: every file must be
    // byte-identical (sources, matches, model, config, and each shard's
    // records in ascending-rid order).
    let reloaded = Store::open(&dir).unwrap();
    reloaded.snapshot().unwrap();
    let second = snapshot_files(&dir, 3);
    assert_eq!(first, second, "save(load(save(x))) must equal save(x)");

    // The reloaded store serves identical logical state.
    assert_eq!(reloaded.state_bytes().unwrap(), expected_state);
}

#[test]
fn reloaded_store_keeps_resolving_incrementally() {
    let dir = ScratchDir::new("keeps-resolving");
    let original = resolver(300, 13);
    let probe = original.dataset().record(yv_records::RecordId(0)).clone();
    drop(Store::create(&dir, original, 2).unwrap());
    let reloaded = Store::open(&dir).unwrap();
    // The rebuilt postings index must find the copy's original, like a
    // resolver that never left memory.
    let matches = reloaded.add_record(probe).unwrap();
    assert!(
        matches.iter().any(|m| m.a == yv_records::RecordId(0)
            || m.b == yv_records::RecordId(0)),
        "reloaded store must match the re-inserted copy; got {matches:?}"
    );
}

#[test]
fn segment_bytes_round_trip() {
    let r = resolver(80, 7);
    let ds = r.dataset();
    let entries: Vec<_> = ds.record_ids().map(|rid| (rid, ds.record(rid))).collect();
    let bytes = snapshot::segment_to_bytes(5, &entries).unwrap();
    let (shard, decoded) = snapshot::segment_from_bytes(&bytes).unwrap();
    assert_eq!(shard, 5, "the segment remembers which shard it belongs to");
    assert_eq!(decoded.len(), entries.len());
    for ((rid, record), (drid, drecord)) in entries.iter().zip(&decoded) {
        assert_eq!(rid, drid);
        assert_eq!(*record, drecord);
    }
}

#[test]
fn corrupt_checksum_is_a_typed_error() {
    let bytes = snapshot::base_to_bytes(&resolver(120, 5)).unwrap();
    // Flip one payload byte (after the 20-byte header).
    let mut damaged = bytes.clone();
    damaged[60] ^= 0x01;
    assert!(matches!(
        snapshot::base_from_bytes(&damaged),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    // Flip a trailer byte instead.
    let mut damaged = bytes;
    let last = damaged.len() - 1;
    damaged[last] ^= 0xff;
    assert!(matches!(
        snapshot::base_from_bytes(&damaged),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn wrong_version_and_magic_are_typed_errors() {
    let bytes = snapshot::base_to_bytes(&resolver(120, 5)).unwrap();
    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(
        snapshot::base_from_bytes(&wrong_version),
        Err(StoreError::UnsupportedVersion { found: 999, .. })
    ));
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(snapshot::base_from_bytes(&wrong_magic), Err(StoreError::BadMagic)));
    // A segment is not a base file and vice versa: the magics differ on
    // purpose, so misfiled bytes surface as BadMagic, not garbage parses.
    assert!(matches!(snapshot::segment_from_bytes(&bytes), Err(StoreError::BadMagic)));
}

#[test]
fn truncations_never_panic() {
    let bytes = snapshot::base_to_bytes(&resolver(120, 5)).unwrap();
    for cut in [0, 7, 8, 12, 19, 20, 21, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            snapshot::base_from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must be an error"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any single corrupted byte in the payload or trailer is rejected;
    /// header corruption is rejected as magic/version/corrupt errors. No
    /// input panics.
    #[test]
    fn single_byte_corruption_is_always_rejected(seed in 0u64..1000, pos_frac in 0.0f64..1.0) {
        let bytes = snapshot::base_to_bytes(&resolver(60, seed)).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x5a;
        // Skip positions where the flip lands in the (unchecksummed)
        // declared-length field yet still parses — it cannot: length
        // changes either truncate (error) or leave trailing bytes (error).
        prop_assert!(snapshot::base_from_bytes(&damaged).is_err());
    }
}
