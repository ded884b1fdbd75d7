//! Sharding invariants: a store's logical state is independent of its
//! shard count (and of the thread interleaving that filled it), restart
//! replays the per-shard WALs back into exactly the pre-crash state, and
//! a hole in the merged arrival sequence is a typed, shard-naming error
//! — never a silently renumbered dataset.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use std::path::Path;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{Record, RecordBuilder, SourceId};
use yv_store::wal::{self, WalEntry};
use yv_store::{shard_of_record, wal_file_name, Store, StoreError};

/// Deterministic: two calls with the same arguments build
/// byte-for-byte identical resolvers (datagen is seeded, training is
/// deterministic), which is how the two stores under comparison start
/// from the same base.
fn trained_resolver(n_records: usize, seed: u64) -> IncrementalResolver {
    let gen = GenConfig::random(n_records, seed).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
    IncrementalResolver::bootstrap(gen.dataset, pipeline, config, IncrementalConfig::default())
}

/// A pool of arrivals with enough last-name variety to touch every
/// shard of a 4-way store.
fn arrivals(n: usize) -> Vec<Record> {
    const FIRST: [&str; 6] = ["Guido", "Sara", "Moshe", "Rivka", "David", "Chana"];
    const LAST: [&str; 11] = [
        "Foa", "Levi", "Postel", "Roth", "Katz", "Blum", "Stern", "Weiss", "Adler", "Braun",
        "Segal",
    ];
    (0..n)
        .map(|i| {
            RecordBuilder::new(800_000 + i as u64, SourceId(0))
                .first_name(FIRST[i % FIRST.len()])
                .last_name(LAST[(i * 7) % LAST.len()])
                .build()
        })
        .collect()
}

/// Read back the global arrival order from the per-shard WALs: collect
/// every frame, sort by the sequence number it carries.
fn merged_wal_order(dir: &Path, shards: usize) -> Vec<(u64, WalEntry)> {
    let mut merged = Vec::new();
    for s in 0..shards {
        merged.extend(wal::replay(&dir.join(wal_file_name(s))).unwrap());
    }
    merged.sort_by_key(|(seq, _)| *seq);
    merged
}

/// The tentpole property, run at several thread interleavings: however a
/// multi-threaded fill scatters arrivals across 4 shards, the resulting
/// store is byte-identical (canonical `state_bytes` encoding) to a
/// single-shard store fed the same arrivals serially in the order the
/// sequencer actually applied them — and to itself after a WAL-replay
/// restart and after a snapshot/reopen cycle.
#[test]
fn multi_shard_concurrent_fill_is_byte_identical_to_single_shard() {
    for round in 0..5 {
        let multi_dir = ScratchDir::new(&format!("identity-multi-{round}"));
        let single_dir = ScratchDir::new(&format!("identity-single-{round}"));
        let multi = Store::create(&multi_dir, trained_resolver(100, 17), 4).unwrap();
        let single = Store::create(&single_dir, trained_resolver(100, 17), 1).unwrap();
        assert_eq!(
            multi.state_bytes().unwrap(),
            single.state_bytes().unwrap(),
            "identical resolvers create identical logical state"
        );

        // 4 writer threads, arrival-to-thread assignment varied per round
        // so each round exercises a different interleaving.
        let pool = arrivals(40);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let multi = &multi;
                let pool = &pool;
                scope.spawn(move || {
                    for (i, record) in pool.iter().enumerate() {
                        if (i + round) % 4 == t {
                            multi.add_record(record.clone()).unwrap();
                        }
                    }
                });
            }
        });
        let multi_state = multi.state_bytes().unwrap();
        let stats = multi.stats();
        assert_eq!(stats.wal_entries, 40);
        assert_eq!(stats.shard_rows_records_sum(), stats.records);

        // Feed the single-shard store the same arrivals serially, in the
        // order the sequencer applied them (recovered from the WAL seqs).
        drop(multi);
        let order = merged_wal_order(&multi_dir, 4);
        assert_eq!(order.len(), 40);
        for (i, (seq, entry)) in order.into_iter().enumerate() {
            assert_eq!(seq, i as u64, "seqs are contiguous from 0");
            match entry {
                WalEntry::Record(record) => {
                    single.add_record(*record).unwrap();
                }
                WalEntry::Source(_) => panic!("no sources were added"),
            }
        }
        assert_eq!(
            single.state_bytes().unwrap(),
            multi_state,
            "round {round}: shard count must not leak into logical state"
        );
        let of = |s: &yv_store::StoreStats| {
            (s.vocabulary, s.postings, s.fuzzy_names, s.fuzzy_grams, s.fuzzy_postings)
        };
        assert_eq!(of(&single.stats()), of(&stats), "round {round}: nor into STATS");

        // Restart identity: replaying the 4 WALs reproduces the state...
        let reopened = Store::open(&multi_dir).unwrap();
        assert_eq!(reopened.state_bytes().unwrap(), multi_state, "round {round}: replay");
        // ...and so does folding them into a snapshot and reopening.
        reopened.snapshot().unwrap();
        drop(reopened);
        let reopened = Store::open(&multi_dir).unwrap();
        assert_eq!(reopened.state_bytes().unwrap(), multi_state, "round {round}: snapshot");
        assert_eq!(reopened.stats().wal_entries, 0);
    }
}

/// Helper so the identity test reads naturally.
trait ShardRowSum {
    fn shard_rows_records_sum(&self) -> usize;
}

impl ShardRowSum for yv_store::StoreStats {
    fn shard_rows_records_sum(&self) -> usize {
        self.shards.iter().map(|s| s.records).sum()
    }
}

/// Two arrivals routed to two *different* shards of a 3-shard store, in
/// a guaranteed order: the returned records route to distinct shards, so
/// seq 0 lands in one WAL and seq 1 in another.
fn two_cross_shard_records() -> (Record, Record, usize, usize) {
    let pool = arrivals(40);
    let a = pool[0].clone();
    let shard_a = shard_of_record(&a, 3);
    let b = pool
        .iter()
        .find(|r| shard_of_record(r, 3) != shard_a)
        .expect("the name pool spans shards")
        .clone();
    let shard_b = shard_of_record(&b, 3);
    (a, b, shard_a, shard_b)
}

/// Chop bytes off the end of one shard's WAL, landing mid-frame.
fn tear_wal_tail(dir: &Path, shard: usize, cut: u64) {
    let path = dir.join(wal_file_name(shard));
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - cut).unwrap();
}

#[test]
fn losing_one_shards_tail_under_later_survivors_is_a_shard_naming_error() {
    let dir = ScratchDir::new("gap");
    let store = Store::create(&dir, trained_resolver(80, 23), 3).unwrap();
    let (a, b, shard_a, shard_b) = two_cross_shard_records();
    store.add_record(a).unwrap(); // seq 0 → shard_a's WAL
    store.add_record(b).unwrap(); // seq 1 → shard_b's WAL
    drop(store);

    // Tear shard_a's tail mid-record: seq 0 is gone, but seq 1 survives
    // on shard_b. Replaying past the hole would renumber record ids, so
    // open must refuse — with an error naming the shard that lost data.
    tear_wal_tail(&dir, shard_a, 3);
    match Store::open(&dir) {
        Err(StoreError::ShardWalGap { shard, missing_seq }) => {
            assert_eq!(shard, shard_a, "the error names the torn shard");
            assert_eq!(missing_seq, 0);
        }
        other => panic!("expected ShardWalGap, got {other:?}"),
    }
    // The error message carries the shard for operators too.
    let msg = Store::open(&dir).unwrap_err().to_string();
    assert!(msg.contains(&format!("shard {shard_a}")), "{msg}");
    let _ = shard_b;
}

#[test]
fn torn_tail_on_the_globally_last_arrival_recovers_cleanly() {
    let dir = ScratchDir::new("torn-last");
    let store = Store::create(&dir, trained_resolver(80, 23), 3).unwrap();
    let base_records = store.stats().records;
    let (a, b, _, shard_b) = two_cross_shard_records();
    store.add_record(a).unwrap(); // seq 0
    store.add_record(b).unwrap(); // seq 1 → shard_b's WAL
    drop(store);

    // Tear shard_b's tail: the lost frame is the globally *last* arrival,
    // so the surviving prefix is contiguous — an ordinary crash-before-
    // fsync, recovered by truncating the torn tail.
    tear_wal_tail(&dir, shard_b, 3);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().records, base_records + 1, "seq 0 replayed, seq 1 dropped");
    assert_eq!(store.stats().wal_entries, 1);
}
