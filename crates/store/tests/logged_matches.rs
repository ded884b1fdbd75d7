//! Logged matches: every arrival's ranked matches follow its record frame
//! into the WAL as a matches frame, and a reopen files the arrival with
//! them instead of scoring it again.
//!
//! Two properties. Replaying from logged matches is invisible: stripping
//! any subset of the matches frames (a torn final one included) reopens
//! to the same `state_bytes`, and exactly the stripped arrivals are
//! scored again. And a reopen keeps what clients were told: with the
//! candidate rule changed under a crashed store, the WAL-resident
//! arrivals keep their acknowledged matches — unless their matches frames
//! are gone, in which case the documented fallback scores them under the
//! new rule.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::{raw_frames, ScratchDir};
use std::collections::HashMap;
use std::path::Path;
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, RankedMatch};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{Dataset, Record, RecordId};
use yv_store::{snapshot, wal_file_name, Store, MANIFEST_FILE, SNAPSHOT_FILE};

const SHARDS: usize = 2;
const TAG_MATCHES: u8 = 3;

/// A resolver trained on 240 generated reports and bootstrapped on the
/// first 180; the other 60 come back as arrivals, many of them reports of
/// people already filed.
fn trained_split() -> (IncrementalResolver, Vec<Record>) {
    let gen = GenConfig::random(240, 41).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
    let resolver = IncrementalResolver::bootstrap(
        copy_records(&gen.dataset, &gen.dataset.records()[..180]),
        pipeline,
        config,
        IncrementalConfig::default(),
    );
    (resolver, gen.dataset.records()[180..].to_vec())
}

/// A dataset with `ds`'s sources and the given records.
fn copy_records(ds: &Dataset, records: &[Record]) -> Dataset {
    let mut out = Dataset::new();
    for source in ds.sources() {
        out.add_source(source.clone());
    }
    for record in records {
        out.add_record(record.clone());
    }
    out
}

/// A 2-shard store filled without a `SNAPSHOT`: a `BATCH_ADD` of 40, then
/// 20 single `ADD`s, so the last frame of the last `ADD`'s shard is its
/// matches frame. Returns the acknowledged matches in arrival (record id)
/// order and the id of the first arrival.
fn filled_store(dir: &Path) -> (Vec<Vec<RankedMatch>>, RecordId) {
    let (resolver, arrivals) = trained_split();
    let first = RecordId(u32::try_from(resolver.len()).unwrap());
    let store = Store::create(dir, resolver, SHARDS).unwrap();
    let (batch, singles) = arrivals.split_at(40);
    let mut acked: HashMap<u64, Vec<RankedMatch>> = HashMap::new();
    for (record, outcome) in batch.iter().zip(store.add_records(batch.to_vec())) {
        acked.insert(record.book_id, outcome.unwrap());
    }
    for record in singles {
        acked.insert(record.book_id, store.add_record(record.clone()).unwrap());
    }
    assert_eq!(acked.len(), arrivals.len(), "book ids are unique");
    // A batch files its records in (shard, submission) order: read the
    // order back from the ids they got.
    let order: Vec<u64> = store
        .with_dataset(|ds| ds.records()[first.0 as usize..].iter().map(|r| r.book_id).collect());
    (order.iter().map(|book| acked.remove(book).unwrap()).collect(), first)
}

/// The matches each arrival from `first` on was filed with, in arrival
/// order: those naming it as the larger id, in match-list order.
fn filed_matches(store: &Store, first: RecordId, n: usize) -> Vec<Vec<RankedMatch>> {
    store.with_resolver(|r| {
        (first.0..)
            .take(n)
            .map(|rid| r.matches().iter().filter(|m| m.b == RecordId(rid)).copied().collect())
            .collect()
    })
}

/// Copy a store directory, dropping the matches frames `strip` picks
/// (given each one's seq) and cutting `tear` bytes off the end of the
/// shard WAL whose last frame is a matches frame, mid-frame. Returns the
/// matches frames removed.
fn copy_stripped(
    from: &Path,
    to: &Path,
    mut strip: impl FnMut(u64) -> bool,
    tear: Option<usize>,
) -> u64 {
    for name in [MANIFEST_FILE, SNAPSHOT_FILE] {
        std::fs::copy(from.join(name), to.join(name)).unwrap();
    }
    let mut removed = 0;
    for s in 0..SHARDS {
        let bytes = std::fs::read(from.join(wal_file_name(s))).unwrap();
        let frames = raw_frames(&bytes);
        assert_eq!(frames.last().map_or(bytes.len(), |f| f.span.end), bytes.len());
        let mut out = bytes[..12].to_vec();
        for (i, frame) in frames.iter().enumerate() {
            let torn = tear.filter(|_| frame.tag == TAG_MATCHES && i + 1 == frames.len());
            if let Some(cut) = torn {
                out.extend_from_slice(&bytes[frame.span.start..frame.span.end - cut]);
                removed += 1;
            } else if frame.tag == TAG_MATCHES && strip(frame.seq) {
                removed += 1;
            } else {
                out.extend_from_slice(&bytes[frame.span.clone()]);
            }
        }
        std::fs::write(to.join(wal_file_name(s)), out).unwrap();
    }
    removed
}

/// Whatever subset of matches frames is lost, the reopen rebuilds the same
/// state by scoring exactly the arrivals that lost theirs.
#[test]
fn stripped_matches_frames_are_rescored_to_the_same_state() {
    let dir = ScratchDir::new("logged-source");
    filled_store(&dir);
    let full = Store::open(&dir).unwrap();
    let state = full.state_bytes().unwrap();
    let report = full.open_report();
    assert_eq!((report.frames, report.rescored, report.torn_bytes), (60, 0, 0));
    drop(full);

    // A seeded xorshift picks which frames go, round by round.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for round in 0..8 {
        let copy = ScratchDir::new(&format!("logged-stripped-{round}"));
        let keep_one_in = [1, 2, 3, 5, 60, 1, 2, 4][round];
        let tear = (round % 2 == 1).then_some(5 + round);
        let removed = copy_stripped(
            &dir,
            &copy,
            |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                !x.is_multiple_of(keep_one_in)
            },
            tear,
        );
        if keep_one_in == 1 && tear.is_none() {
            assert_eq!(removed, 0);
        }
        let reopened = Store::open(&copy).unwrap();
        let report = reopened.open_report();
        assert_eq!(report.frames, 60, "round {round}");
        assert_eq!(report.rescored, removed, "round {round}: stripped {removed}");
        assert_eq!(report.torn_bytes > 0, tear.is_some(), "round {round}");
        assert_eq!(reopened.state_bytes().unwrap(), state, "round {round}");
    }
}

/// Rewrite `snapshot.yvs` with the same state under another candidate
/// rule, as an upgrade would bring one.
fn change_the_candidate_rule(dir: &Path, inc: IncrementalConfig) {
    let path = dir.join(SNAPSHOT_FILE);
    let snapshot::Snapshot { folded_seq, resolver } = snapshot::read_file(&path).unwrap();
    let changed = IncrementalResolver::from_parts(
        copy_records(resolver.dataset(), resolver.dataset().records()),
        resolver.pipeline().clone(),
        resolver.config().clone(),
        inc,
        resolver.matches().to_vec(),
    );
    snapshot::write_atomically(&path, &snapshot::to_bytes(&changed, folded_seq).unwrap()).unwrap();
}

/// A crash, then a build whose candidate rule differs: the arrivals still
/// in the WAL keep exactly the matches they were acknowledged with.
/// Scoring them again — what a reopen did before matches frames — gives
/// other matches under the new rule; the second leg shows that is what
/// the fallback does once the matches frames are gone.
#[test]
fn a_changed_candidate_rule_keeps_the_acknowledged_matches() {
    let dir = ScratchDir::new("logged-rule");
    let (acked, first) = filled_store(&dir);
    let stricter = IncrementalConfig { min_shared_items: 3, ..IncrementalConfig::default() };

    // The fallback's expectation: the arrivals scored under the new rule.
    let (base, arrivals) = {
        let snapshot::Snapshot { resolver, .. } =
            snapshot::read_file(&dir.join(SNAPSHOT_FILE)).unwrap();
        let reopened = Store::open(&dir).unwrap();
        let arrivals = reopened.with_dataset(|ds| ds.records()[first.0 as usize..].to_vec());
        (resolver, arrivals)
    };
    let mut rescored = IncrementalResolver::from_parts(
        copy_records(base.dataset(), base.dataset().records()),
        base.pipeline().clone(),
        base.config().clone(),
        stricter,
        base.matches().to_vec(),
    );
    let under_new_rule = rescored.insert_batch(arrivals);
    assert_ne!(under_new_rule, acked, "the stricter rule must change some arrival's matches");

    let logged = ScratchDir::new("logged-rule-kept");
    assert_eq!(copy_stripped(&dir, &logged, |_| false, None), 0);
    change_the_candidate_rule(&logged, stricter);
    let reopened = Store::open(&logged).unwrap();
    assert_eq!(reopened.open_report().rescored, 0);
    assert_eq!(filed_matches(&reopened, first, acked.len()), acked);

    let stripped = ScratchDir::new("logged-rule-stripped");
    assert_eq!(copy_stripped(&dir, &stripped, |_| true, None), acked.len() as u64);
    change_the_candidate_rule(&stripped, stricter);
    let reopened = Store::open(&stripped).unwrap();
    assert_eq!(reopened.open_report().rescored, acked.len() as u64);
    assert_eq!(filed_matches(&reopened, first, acked.len()), under_new_rule);
}

/// A version-2 WAL with frames in it is refused; one `SNAPSHOT` emptied
/// (a bare version-2 header) opens, and is rewritten as version 3.
#[test]
fn a_version_2_wal_opens_only_once_emptied() {
    let dir = ScratchDir::new("logged-v2");
    let (resolver, arrivals) = trained_split();
    let store = Store::create(&dir, resolver, SHARDS).unwrap();
    store.snapshot().unwrap();
    let state = store.state_bytes().unwrap();
    drop(store);
    let v2 = yv_store::framed::header(yv_store::wal::MAGIC, 2);
    for s in 0..SHARDS {
        std::fs::write(dir.join(wal_file_name(s)), v2).unwrap();
    }
    let reopened = Store::open(&dir).unwrap();
    assert_eq!(reopened.state_bytes().unwrap(), state);
    let v3 = yv_store::framed::header(yv_store::wal::MAGIC, yv_store::wal::VERSION);
    for s in 0..SHARDS {
        assert_eq!(std::fs::read(dir.join(wal_file_name(s))).unwrap(), v3);
    }
    reopened.add_record(arrivals[0].clone()).unwrap();
    drop(reopened);
    assert_eq!(Store::open(&dir).unwrap().open_report().frames, 1);

    // A version-2 log that still holds an arrival is refused.
    let path = (0..SHARDS)
        .map(|s| dir.join(wal_file_name(s)))
        .find(|path| !raw_frames(&std::fs::read(path).unwrap()).is_empty())
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..12].copy_from_slice(&v2);
    std::fs::write(&path, bytes).unwrap();
    match Store::open(&dir) {
        Err(yv_store::StoreError::UnsupportedVersion { found: 2, supported: 3 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
