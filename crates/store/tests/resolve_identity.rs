//! Fuzzy-resolution invariants: the ranked candidate list a `RESOLVE`
//! serves is a pure function of the store's logical state — independent
//! of the shard count, of the thread interleaving that filled the store,
//! and of whether the store was just built, replayed from its WALs, or
//! folded into a snapshot and reopened. Rankings are compared through
//! [`yv_store::protocol::format_candidates`], the exact bytes a server
//! would put on the wire, so "identical" means byte-identical.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]
#![allow(clippy::disallowed_methods, reason = "client threads drive the store; they split no work")]

mod common;

use common::ScratchDir;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{Record, RecordBuilder, SourceId};
use yv_store::protocol::format_candidates;
use yv_store::{ResolveOptions, Store};

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

/// Arrivals spanning every shard of a 4-way store (same pool as the
/// shard-identity test, so the routing variety is already proven there).
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

/// Misspelled probes of names the arrival pool plants: substitutions,
/// deletions and a duplication, plus one exact name and one miss.
const PROBES: [&str; 10] =
    ["Lewi", "Fao", "Postl", "Rot", "Kats", "Gvido", "Sarra", "Mosh", "Levi", "Zzzzz"];

/// Render the full probe battery as wire bytes, one formatted response
/// per probe, under both default and tightened options.
fn battery(store: &Store) -> Vec<String> {
    let defaults = ResolveOptions::default();
    let tight = ResolveOptions { k: 3, min_score: 0.2, ..ResolveOptions::default() };
    PROBES
        .iter()
        .flat_map(|probe| {
            [
                format_candidates(&store.resolve(probe, &defaults).hits),
                format_candidates(&store.resolve(probe, &tight).hits),
            ]
        })
        .collect()
}

/// The headline property: a 4-shard store filled by 4 racing writers
/// ranks every probe byte-identically to a 1-shard store holding the
/// same records — and to itself after a WAL-replay restart and after a
/// snapshot/reopen cycle.
#[test]
fn resolve_rankings_survive_restart_and_ignore_shard_count() {
    let multi_dir = ScratchDir::new("rankings-multi");
    let single_dir = ScratchDir::new("rankings-single");
    let multi = Store::create(&multi_dir, trained_resolver(100, 17), 4).unwrap();
    let single = Store::create(&single_dir, trained_resolver(100, 17), 1).unwrap();

    // 4 writer threads scatter the arrivals across the shards.
    let pool = arrivals(40);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let multi = &multi;
            let pool = &pool;
            scope.spawn(move || {
                for (i, record) in pool.iter().enumerate() {
                    if i % 4 == t {
                        multi.add_record(record.clone()).unwrap();
                    }
                }
            });
        }
    });
    // The single-shard store gets the same arrivals serially. RESOLVE
    // rankings don't depend on arrival order (record ids do, but the
    // pool is one record per (first, last) pairing per index, and the
    // comparison below is against the multi store's own restart — the
    // cross-store comparison uses the sequencer-applied order).
    let order = {
        use yv_store::wal::{self, WalEntry};
        let mut merged = Vec::new();
        for s in 0..4 {
            merged.extend(wal::replay(&multi_dir.join(yv_store::wal_file_name(s))).unwrap());
        }
        merged.sort_by_key(|(seq, _)| *seq);
        merged.into_iter().map(|(_, entry)| match entry {
            WalEntry::Record(record, _) => *record,
            WalEntry::Source(_) => panic!("no sources were added"),
        })
    };
    for record in order {
        single.add_record(record).unwrap();
    }

    let before = battery(&multi);
    assert_eq!(before.len(), PROBES.len() * 2);
    // Sanity: the battery is not vacuous — misspellings really hit.
    assert!(before[0].contains("name=levi"), "Lewi finds levi: {:?}", before[0]);
    assert!(before.last().unwrap().starts_with("OK 0\n"), "Zzzzz finds nothing");

    assert_eq!(battery(&single), before, "shard count must not leak into rankings");

    // Restart via WAL replay...
    drop(multi);
    let replayed = Store::open(&multi_dir).unwrap();
    assert!(replayed.stats().wal_entries > 0, "arrivals came back via replay");
    assert_eq!(battery(&replayed), before, "replayed rankings are byte-identical");

    // ...and via snapshot + reopen.
    replayed.snapshot().unwrap();
    drop(replayed);
    let reopened = Store::open(&multi_dir).unwrap();
    assert_eq!(reopened.stats().wal_entries, 0);
    assert_eq!(battery(&reopened), before, "snapshot rankings are byte-identical");
}

/// Options shape the ranking the way the protocol promises: `k`
/// truncates a prefix of the default ranking, and `min_score` is an
/// inclusive floor.
#[test]
fn resolve_options_truncate_and_floor_the_default_ranking() {
    let dir = ScratchDir::new("options");
    let store = Store::create(&dir, trained_resolver(120, 29), 2).unwrap();
    for record in arrivals(20) {
        store.add_record(record).unwrap();
    }

    let full = store.resolve("Lewi", &ResolveOptions { k: usize::MAX, ..Default::default() });
    assert!(full.hits.len() >= 2, "need at least two candidates: {:?}", full.hits);
    for k in 1..full.hits.len() {
        let truncated = store.resolve("Lewi", &ResolveOptions { k, ..Default::default() });
        assert_eq!(truncated.hits, full.hits[..k], "k={k} is a prefix");
    }
    let floor = full.hits[0].score;
    let floored =
        store.resolve("Lewi", &ResolveOptions { min_score: floor, ..Default::default() });
    assert!(floored.hits.iter().all(|h| h.score >= floor));
    assert!(floored.hits.contains(&full.hits[0]), "the floor is inclusive");
}
