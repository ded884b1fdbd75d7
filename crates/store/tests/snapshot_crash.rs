//! `SNAPSHOT` under a crash: whichever step a crash interrupts, reopening
//! gives back the acknowledged state — no record lost, none replayed
//! twice — and a store directory of the old per-shard-segment layout is
//! refused by version, not misread.
//!
//! A crash is simulated by putting back on disk what the interrupted
//! `SNAPSHOT` had not yet replaced.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use std::collections::BTreeMap;
use std::path::Path;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{Dataset, Record};
use yv_store::{framed, snapshot, wal_file_name, Store, StoreError, SNAPSHOT_FILE};

/// A resolver trained on 240 generated reports and bootstrapped on the
/// first 200; the other 40 come back as arrivals.
fn trained_split() -> (IncrementalResolver, Vec<Record>) {
    let gen = GenConfig::random(240, 29).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> = tags
        .iter()
        .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
        .collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
    let mut ds = Dataset::new();
    for source in gen.dataset.sources() {
        ds.add_source(source.clone());
    }
    for record in &gen.dataset.records()[..200] {
        ds.add_record(record.clone());
    }
    let resolver =
        IncrementalResolver::bootstrap(ds, pipeline, config, IncrementalConfig::default());
    (resolver, gen.dataset.records()[200..].to_vec())
}

/// Every file in a store directory, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// A 2-shard store of 200 records plus 20 `ADD`s, the directory as it
/// stood before a `SNAPSHOT` of it, and the state both hold.
fn store_before_snapshot(dir: &Path) -> (Store, BTreeMap<String, Vec<u8>>, Vec<u8>, Vec<Record>) {
    let (resolver, arrivals) = trained_split();
    let store = Store::create(dir, resolver, 2).unwrap();
    for record in &arrivals[..20] {
        store.add_record(record.clone()).unwrap();
    }
    let state = store.state_bytes().unwrap();
    (store, files(dir), state, arrivals[20..].to_vec())
}

/// A crash after the snapshot's rename but before its WAL truncation:
/// the new snapshot sits beside the old WALs. Their frames are folded
/// already, so reopening replays none of them, and the store keeps going.
#[test]
fn a_crash_between_the_rename_and_the_wal_truncation_replays_nothing_twice() {
    let dir = ScratchDir::new("crash-after-rename");
    let (store, before, state, later) = store_before_snapshot(&dir);
    store.snapshot().unwrap();
    drop(store);
    for s in 0..2 {
        let name = wal_file_name(s);
        std::fs::write(dir.join(&name), &before[&name]).unwrap();
    }

    let reopened = Store::open(&dir).unwrap();
    assert_eq!(
        reopened.stats().records,
        220,
        "every folded arrival replayed once more"
    );
    assert!(
        reopened.state_bytes().unwrap() == state,
        "reopened state differs"
    );
    assert_eq!(reopened.open_report().frames, 0);
    assert_eq!(reopened.stats().wal_entries, 0);
    let header_only = 2 * framed::HEADER_LEN as u64;
    assert_eq!(
        reopened.stats().wal_bytes,
        header_only,
        "open finishes the truncation"
    );

    for record in later {
        reopened.add_record(record).unwrap();
    }
    let state = reopened.state_bytes().unwrap();
    drop(reopened);
    let again = Store::open(&dir).unwrap();
    assert!(
        again.state_bytes().unwrap() == state,
        "second reopen differs"
    );
    assert_eq!(again.open_report().frames, 20);
}

/// A crash before the snapshot's commit rename: every file `SNAPSHOT`
/// had already put in place stays, the snapshot file and the WALs are the
/// old ones, and a partial `snapshot.tmp` lies beside them. Reopening
/// replays the WALs onto the old snapshot; the next `SNAPSHOT` writes over
/// the temp file.
#[test]
fn a_crash_before_the_commit_rename_replays_onto_the_old_snapshot() {
    let dir = ScratchDir::new("crash-before-rename");
    let (store, before, state, _) = store_before_snapshot(&dir);
    store.snapshot().unwrap();
    drop(store);
    let after = files(&dir);
    for name in after.keys() {
        if name == SNAPSHOT_FILE || name.starts_with("wal.") {
            std::fs::write(dir.join(name), &before[name]).unwrap();
        }
    }
    let new = &after[SNAPSHOT_FILE];
    std::fs::write(dir.join("snapshot.tmp"), &new[..new.len() / 2]).unwrap();

    let reopened = Store::open(&dir).unwrap();
    assert!(
        reopened.state_bytes().unwrap() == state,
        "reopened state differs"
    );
    assert_eq!(reopened.open_report().frames, 20);
    reopened.snapshot().unwrap();
    drop(reopened);
    assert!(
        !dir.join("snapshot.tmp").exists(),
        "the next snapshot renames the temp file"
    );
    let reopened = Store::open(&dir).unwrap();
    assert!(
        reopened.state_bytes().unwrap() == state,
        "state differs after the next snapshot"
    );
    assert_eq!(reopened.open_report().frames, 0);
}

/// A version-2 store directory — base snapshot plus one segment per
/// shard — is refused by its version. There is no migration.
#[test]
fn a_version_2_store_directory_is_refused() {
    let dir = ScratchDir::new("v2-layout");
    let (resolver, _) = trained_split();
    drop(Store::create(&dir, resolver, 2).unwrap());
    let v2 = |magic: &[u8; 8]| {
        let payload = [0u8; 8];
        let mut bytes = framed::header(*magic, 2).to_vec();
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&yv_store::codec::fnv1a64(&payload).to_le_bytes());
        bytes
    };
    std::fs::write(dir.join(SNAPSHOT_FILE), v2(&snapshot::MAGIC)).unwrap();
    for s in 0..2 {
        std::fs::write(dir.join(format!("snapshot.{s}.yvs")), v2(b"YVSTSEG\0")).unwrap();
    }
    match Store::open(&dir) {
        Err(StoreError::UnsupportedVersion {
            found: 2,
            supported: 3,
        }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 2, supported: 3 }}, got {other:?}"),
    }
}
