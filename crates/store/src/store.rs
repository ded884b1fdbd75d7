//! The persistent resolution store: an [`IncrementalResolver`] wrapped
//! with durability (snapshot + WAL), serving-speed lookups (name
//! postings; entities come straight from the resolver's match graph),
//! and name-hash sharding so concurrent writers on distinct shards never
//! contend on the durability path.
//!
//! Sharding: the store's *files* are partitioned into N shards fixed at
//! `create` time (see [`crate::shard::Manifest`]). Each shard owns its
//! WAL file and snapshot segment behind a per-shard lock. A record
//! belongs to the shard of its first last name
//! ([`crate::shard::shard_of_record`]); sources — global, shard-less
//! state — are logged to shard 0 by convention. Memory is not
//! partitioned: the resolver and the one name table sit behind one lock
//! (`State`), since applies are serial anyway and no lookup carries the
//! routing key. Reads take that lock, shared, and never a shard's, so
//! they wait on nobody's fsync. Lock order: shards (ascending) → state.
//!
//! Durability protocol: `create` writes a full snapshot (base + one
//! segment per shard) and empty WALs. Every arrival takes a global
//! arrival sequence number *under its shard's write lock*, is appended
//! (and fsynced) to that shard's WAL — fsyncs on distinct shards run in
//! parallel — and is then applied to the shared resolver strictly in
//! sequence order (a condvar sequencer hands applies out in ticket
//! order). `open` reads the shard segments and scans the shard WALs in
//! parallel, then replays the frames merged by sequence number (arrival
//! order), and refuses to open if the merge has a hole
//! ([`StoreError::ShardWalGap`]): record ids are assigned in apply
//! order, so replaying past a hole would renumber every later record. A
//! torn tail on the globally *last* arrival is the ordinary
//! crash-mid-append case and recovers cleanly; the truncation reuses the
//! length the scan found, so each WAL is read and decoded once.
//! [`Store::open_report`] says what the replay did. `snapshot` quiesces
//! all shards, folds the WALs into fresh snapshot files and truncates
//! them.
//!
//! Applies run in slices: up to [`APPLY_SLICE`] consecutive arrivals go
//! through [`IncrementalResolver::insert_batch`] under one hold of the
//! state write lock — a `BATCH_ADD`'s shard group after its fsync, and a
//! replay's run of record frames between source frames. Inside a slice
//! the candidate pairs are scored on every core (`Pipeline::score_pairs`),
//! the store's one use of threads after `open`'s shard loads. A read
//! therefore waits on at most one slice, whatever size of batch a client
//! sends.

use crate::error::StoreError;
use crate::index::QueryIndex;
use crate::shard::{self, Manifest, ShardStats};
use crate::snapshot;
use crate::sync::{Mutex, RwLock};
use crate::wal::{Wal, WalEntry, WalScan};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use yv_core::{IncrementalResolver, PersonQuery, QueryHit, RankedMatch, Resolution};
use yv_fuzzy::{rank_entities, RankedEntity, ScoreBlend, DEFAULT_QGRAM_BOUND};
use yv_obs::{Clock, Counter, MonotonicClock, TraceCtx};
use yv_records::{Dataset, Record, RecordId, Source, SourceId};

/// Base snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.yvs";

/// Per-shard WAL file name inside a store directory.
#[must_use]
pub fn wal_file_name(shard: usize) -> String {
    format!("wal.{shard}.yvl")
}

/// Per-shard snapshot segment file name inside a store directory.
#[must_use]
pub fn segment_file_name(shard: usize) -> String {
    format!("snapshot.{shard}.yvs")
}

/// Point-in-time counters for `STATS`: store-wide totals plus one
/// [`ShardStats`] row per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    pub records: usize,
    pub sources: usize,
    pub matches: usize,
    /// Arrivals applied since the last snapshot (pending WAL entries,
    /// summed over shards).
    pub wal_entries: usize,
    /// On-disk WAL size in bytes, summed over shards.
    pub wal_bytes: u64,
    /// Distinct lowercased first names + distinct last names indexed.
    pub vocabulary: usize,
    /// Record postings by role (first, last) in the name table.
    pub postings: usize,
    /// Distinct non-empty names in the name table.
    pub fuzzy_names: usize,
    /// Distinct q-grams in the name table's inverted index.
    pub fuzzy_grams: usize,
    /// Gram → name posting entries in the name table's inverted index.
    pub fuzzy_postings: usize,
    /// Lifetime candidate names examined by `RESOLVE` scans.
    pub fuzzy_examined: u64,
    /// Lifetime candidate names pruned by the `RESOLVE` filters.
    pub fuzzy_pruned: u64,
    /// Per-shard breakdown, ascending by shard index.
    pub shards: Vec<ShardStats>,
}

/// Tuning knobs for [`Store::resolve`]. The defaults serve the protocol
/// command; the blend and bound are exposed for the eval sweep and for
/// callers embedding the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolveOptions {
    /// Maximum candidates returned.
    pub k: usize,
    /// Drop candidates scoring below this (inclusive bound).
    pub min_score: f64,
    /// Q-gram Jaccard bound for the candidate scan.
    pub bound: f64,
    /// Signal weights for the ranked scorer.
    pub blend: ScoreBlend,
}

impl Default for ResolveOptions {
    fn default() -> ResolveOptions {
        ResolveOptions {
            k: DEFAULT_RESOLVE_K,
            min_score: f64::NEG_INFINITY,
            bound: DEFAULT_QGRAM_BOUND,
            blend: ScoreBlend::default(),
        }
    }
}

/// Default `k` when a `RESOLVE` query does not name one.
pub const DEFAULT_RESOLVE_K: usize = 10;

/// The answer to one fuzzy resolution: ranked entities plus the filter
/// telemetry for this scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveOutcome {
    /// Ranked candidates, best first — score `total_cmp` descending,
    /// ties toward the smaller entity id.
    pub hits: Vec<RankedEntity>,
    /// Candidate names sharing at least one gram with the query.
    pub examined: u64,
    /// Candidate names the length/Jaccard filters pruned.
    pub pruned: u64,
}

/// Hands the global arrival order out as tickets and serializes the
/// in-memory applies behind it.
///
/// A writer takes its ticket *while holding its shard's write lock* (so
/// sequence numbers within one WAL file are strictly increasing), does
/// its WAL fsync — the part that parallelizes across shards — and then
/// waits its turn to apply to the shared resolver. Because a shard's
/// write lock admits one writer at a time, at most one ticket per shard
/// is ever in flight, and the ticket a writer waits on is always held by
/// a writer on a *different* shard that needs no lock the waiter holds:
/// no deadlock. An errored writer must still consume its ticket
/// ([`Sequencer::finish`]) or every later arrival stalls forever.
///
/// Poisoning is recovered (the protected state is a bare counter, always
/// valid).
#[derive(Debug)]
struct Sequencer {
    /// Next ticket to hand out.
    next: AtomicU64,
    /// Next ticket allowed to apply.
    turn: Mutex<u64>,
    cv: Condvar,
}

impl Sequencer {
    fn new(start: u64) -> Sequencer {
        Sequencer { next: AtomicU64::new(start), turn: Mutex::new(start), cv: Condvar::new() }
    }

    fn ticket(&self) -> u64 {
        self.next.fetch_add(1, Ordering::SeqCst)
    }

    fn wait_turn(&self, ticket: u64) {
        let mut turn = self.turn.lock();
        while *turn != ticket {
            turn = self.cv.wait(turn).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Retire the `tickets` tickets whose turn began at the current one.
    fn finish(&self, tickets: u64) {
        let mut turn = self.turn.lock();
        *turn += tickets;
        self.cv.notify_all();
    }

    /// Rewind after a snapshot truncated the WALs. Only sound while every
    /// shard is quiesced (no ticket in flight).
    fn reset(&self, to: u64) {
        let mut turn = self.turn.lock();
        self.next.store(to, Ordering::SeqCst);
        *turn = to;
    }
}

/// What one shard owns on disk, behind its per-shard lock.
#[derive(Debug)]
struct ShardState {
    wal: Wal,
    /// Arrivals logged to this shard since the last snapshot.
    wal_entries: usize,
    /// Records routed to this shard (segment + WAL).
    records: usize,
}

/// Everything a read is answered from — the match graph and the one name
/// table over its records — behind the one lock that serialises applies.
#[derive(Debug)]
struct State {
    resolver: IncrementalResolver,
    index: QueryIndex,
}

impl State {
    /// Index every record the resolver holds (`create`; `open`, pre-replay).
    fn build(resolver: IncrementalResolver) -> State {
        let index = QueryIndex::build(resolver.dataset());
        State { resolver, index }
    }

    /// Apply consecutive arrivals to both, in order; returns each one's
    /// new ranked matches.
    fn apply_batch(&mut self, records: Vec<Record>) -> Vec<Vec<RankedMatch>> {
        let first = self.resolver.len();
        let matches = self.resolver.insert_batch(records);
        let ds = self.resolver.dataset();
        for rid in ds.record_ids().skip(first) {
            self.index.add_record(rid, ds.record(rid));
        }
        matches
    }
}

/// Most arrivals applied under one hold of the state write lock. Scoring a
/// slice's candidates (≈ 200 an arrival) is what spreads over the cores,
/// so a slice must hold thousands of pairs; a read issued meanwhile waits
/// for the whole slice, so it must stay a few milliseconds. Without the
/// cap a read would wait on a whole `BATCH_ADD` shard group, whose size
/// the client picks — up to ≈ 170 k records in one 32 MiB frame.
const APPLY_SLICE: usize = 32;

/// What [`Store::open`] found in the WALs and how long replaying them
/// took. All zero for a store that was created, not opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// WAL frames replayed, records and sources, summed over shards.
    pub frames: u64,
    /// Torn-tail bytes dropped: file length minus the valid prefix,
    /// summed over shards.
    pub torn_bytes: u64,
    /// Wall time of the merge and replay, on the `yv_obs` monotonic clock.
    pub replay_ns: u64,
}

/// A durable, queryable, sharded resolution store rooted at a directory.
///
/// All methods take `&self`: interior locks (per-shard + state) replace
/// the old whole-store `RwLock<Store>`, so the server's workers share a
/// plain reference and `ADD`s on distinct shards overlap their WAL
/// fsyncs.
#[derive(Debug)]
pub struct Store {
    state: RwLock<State>,
    shards: Vec<RwLock<ShardState>>,
    seq: Sequencer,
    dir: PathBuf,
    /// Lifetime candidate names examined by `RESOLVE` scans.
    fuzzy_examined: Counter,
    /// Lifetime candidate names pruned by the `RESOLVE` filters.
    fuzzy_pruned: Counter,
    open_report: OpenReport,
}

/// Partition a dataset's records by shard, ascending rid within each.
fn partition(ds: &Dataset, n_shards: usize) -> Vec<Vec<(RecordId, &Record)>> {
    let mut parts: Vec<Vec<(RecordId, &Record)>> = vec![Vec::new(); n_shards];
    for rid in ds.record_ids() {
        let record = ds.record(rid);
        parts[shard::shard_of_record(record, n_shards)].push((rid, record));
    }
    parts
}

/// Write the full snapshot file set: per-shard segments first, base
/// last, each atomically. The base file doubles as the commit marker —
/// `open` validates segment coverage against its record count, so a
/// crash mid-way leaves a detectably inconsistent (not silently wrong)
/// directory.
fn write_snapshot_files(
    dir: &Path,
    resolver: &IncrementalResolver,
    n_shards: usize,
) -> Result<(), StoreError> {
    for (s, entries) in partition(resolver.dataset(), n_shards).iter().enumerate() {
        let bytes = snapshot::segment_to_bytes(s, entries)?;
        snapshot::write_atomically(&dir.join(segment_file_name(s)), &bytes)?;
    }
    let base = snapshot::base_to_bytes(resolver)?;
    snapshot::write_atomically(&dir.join(SNAPSHOT_FILE), &base)?;
    Ok(())
}

/// What one shard contributes to `open`, loaded in parallel.
struct ShardLoad {
    records: Vec<(RecordId, Record)>,
    scan: WalScan,
}

/// Load one shard's segment and WAL (the parallel part of `open`).
fn load_shard(dir: &Path, s: usize) -> Result<ShardLoad, StoreError> {
    let (claimed, records) = snapshot::read_segment_file(&dir.join(segment_file_name(s)))?;
    if claimed != s {
        return Err(StoreError::Corrupt(format!(
            "segment file {} claims shard {claimed}",
            segment_file_name(s)
        )));
    }
    if let Some(pair) = records.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
        return Err(StoreError::Corrupt(format!(
            "shard {s} segment records out of order at rid {}",
            pair[1].0 .0
        )));
    }
    let wal_path = dir.join(wal_file_name(s));
    if !wal_path.exists() {
        return Err(StoreError::Corrupt(format!(
            "shard {s} WAL ({}) is missing",
            wal_file_name(s)
        )));
    }
    let scan = crate::wal::scan_file(&wal_path)?;
    Ok(ShardLoad { records, scan })
}

impl Store {
    /// Initialize a store directory from a bootstrapped resolver: writes
    /// the manifest, the initial snapshot (base + `shards` segments) and
    /// one empty WAL per shard.
    pub fn create(
        dir: &Path,
        resolver: IncrementalResolver,
        shards: usize,
    ) -> Result<Store, StoreError> {
        let manifest = Manifest::new(shards)?;
        std::fs::create_dir_all(dir)?;
        write_snapshot_files(dir, &resolver, shards)?;
        manifest.write(dir)?;
        let mut shard_states = Vec::with_capacity(shards);
        for (s, entries) in partition(resolver.dataset(), shards).iter().enumerate() {
            let wal = Wal::create(&dir.join(wal_file_name(s)))?;
            shard_states.push(RwLock::new(ShardState {
                wal,
                wal_entries: 0,
                records: entries.len(),
            }));
        }
        Ok(Store {
            state: RwLock::new(State::build(resolver)),
            shards: shard_states,
            seq: Sequencer::new(0),
            dir: dir.to_path_buf(),
            fuzzy_examined: Counter::new(),
            fuzzy_pruned: Counter::new(),
            open_report: OpenReport::default(),
        })
    }

    /// Open an existing store directory: load the manifest and base
    /// snapshot, load every shard's segment and WAL in parallel, merge
    /// the WAL frames back into global arrival order, replay them, and
    /// position the WALs for further appends.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if !snap_path.exists() {
            return Err(StoreError::MissingSnapshot(dir.to_path_buf()));
        }
        let manifest = Manifest::read(dir)?;
        let n_shards = manifest.shards;
        let base = snapshot::read_base_file(&snap_path)?;

        // Parallel phase: segment read + WAL scan per shard.
        let mut loads: Vec<Option<Result<ShardLoad, StoreError>>> =
            (0..n_shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (s, slot) in loads.iter_mut().enumerate() {
                scope.spawn(move || {
                    *slot = Some(load_shard(dir, s));
                });
            }
        });
        // Surface errors in shard order, so a multi-shard failure reports
        // deterministically.
        let mut shard_loads = Vec::with_capacity(n_shards);
        for (s, slot) in loads.into_iter().enumerate() {
            match slot {
                Some(Ok(load)) => shard_loads.push(load),
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(StoreError::Corrupt(format!("shard {s} loader panicked")))
                }
            }
        }

        // Reassemble the dataset: segments must cover 0..n_records
        // exactly, each record in the shard its name routes to.
        let mut slots: Vec<Option<Record>> = (0..base.n_records).map(|_| None).collect();
        let mut records_per_shard: Vec<usize> =
            shard_loads.iter().map(|l| l.records.len()).collect();
        for (s, load) in shard_loads.iter_mut().enumerate() {
            for (rid, record) in load.records.drain(..) {
                if shard::shard_of_record(&record, n_shards) != s {
                    return Err(StoreError::Corrupt(format!(
                        "record {} (rid {}) found in shard {s} segment but routes elsewhere",
                        record.book_id, rid.0
                    )));
                }
                let slot = slots.get_mut(rid.index()).ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "segment record id {} beyond declared count {}",
                        rid.0, base.n_records
                    ))
                })?;
                if slot.replace(record).is_some() {
                    return Err(StoreError::Corrupt(format!(
                        "record id {} appears in more than one segment",
                        rid.0
                    )));
                }
            }
        }
        let mut ds = Dataset::new();
        for source in base.sources {
            ds.add_source(source);
        }
        let n_sources = ds.sources().len();
        for (i, slot) in slots.into_iter().enumerate() {
            let record = slot.ok_or_else(|| {
                StoreError::Corrupt(format!("no segment carries record id {i}"))
            })?;
            if record.source.index() >= n_sources {
                return Err(StoreError::Corrupt(format!(
                    "record {} references unknown source {}",
                    record.book_id, record.source.0
                )));
            }
            ds.add_record(record);
        }
        let resolver =
            IncrementalResolver::from_parts(ds, base.pipeline, base.config, base.inc, base.matches);
        let mut state = State::build(resolver);

        let clock = MonotonicClock::new();
        let replay_started = clock.now_nanos();
        // Merge the shard WALs back into global arrival order and demand
        // the sequence is gapless from 0 — see [`StoreError::ShardWalGap`].
        let mut merged: Vec<(u64, usize, WalEntry)> = Vec::new();
        for (s, load) in shard_loads.iter_mut().enumerate() {
            for (seq, entry) in load.scan.entries.drain(..) {
                merged.push((seq, s, entry));
            }
        }
        merged.sort_by_key(|(seq, _, _)| *seq);
        for (expected, (seq, _, _)) in merged.iter().enumerate() {
            let expected = expected as u64;
            match seq.cmp(&expected) {
                std::cmp::Ordering::Equal => {}
                std::cmp::Ordering::Less => {
                    return Err(StoreError::Corrupt(format!(
                        "arrival seq {seq} appears in more than one WAL frame"
                    )))
                }
                std::cmp::Ordering::Greater => {
                    // A hole. Blame the shard that demonstrably lost its
                    // tail; without one, the loss is unattributable.
                    let torn =
                        shard_loads.iter().position(|l| l.scan.torn_bytes > 0).ok_or_else(|| {
                            StoreError::Corrupt(format!(
                                "WAL merge is missing arrival seq {expected} and no shard \
                                 has a torn tail"
                            ))
                        })?;
                    return Err(StoreError::ShardWalGap {
                        shard: torn,
                        missing_seq: expected,
                    });
                }
            }
        }

        // Replay in arrival order, re-deriving each record's id exactly
        // as the original apply did: record frames collect into slices,
        // and a source frame or a full slice applies what has collected.
        let wal_entries_total = merged.len() as u64;
        let mut wal_entries_per_shard = vec![0usize; n_shards];
        let mut slice = Vec::with_capacity(APPLY_SLICE);
        for (_, s, entry) in merged {
            wal_entries_per_shard[s] += 1;
            match entry {
                WalEntry::Source(source) => {
                    if s != 0 {
                        return Err(StoreError::Corrupt(format!(
                            "source frame in shard {s} WAL; sources are logged to shard 0"
                        )));
                    }
                    state.apply_batch(std::mem::take(&mut slice));
                    state.resolver.add_source(source);
                }
                WalEntry::Record(record) => {
                    if shard::shard_of_record(&record, n_shards) != s {
                        return Err(StoreError::Corrupt(format!(
                            "WAL record {} found in shard {s} but routes elsewhere",
                            record.book_id
                        )));
                    }
                    if record.source.index() >= state.resolver.dataset().sources().len() {
                        return Err(StoreError::Corrupt(format!(
                            "WAL record {} references unknown source {}",
                            record.book_id, record.source.0
                        )));
                    }
                    records_per_shard[s] += 1;
                    slice.push(*record);
                    if slice.len() == APPLY_SLICE {
                        state.apply_batch(std::mem::take(&mut slice));
                    }
                }
            }
        }
        state.apply_batch(slice);
        let open_report = OpenReport {
            frames: wal_entries_total,
            torn_bytes: shard_loads.iter().map(|l| l.scan.torn_bytes as u64).sum(),
            replay_ns: clock.now_nanos().saturating_sub(replay_started),
        };

        let mut shard_states = Vec::with_capacity(n_shards);
        for (s, load) in shard_loads.iter().enumerate() {
            // Truncating to the scan's valid prefix drops any torn tail,
            // so the next append lands after the last complete frame.
            let wal = Wal::open(&dir.join(wal_file_name(s)), load.scan.valid_len)?;
            shard_states.push(RwLock::new(ShardState {
                wal,
                wal_entries: wal_entries_per_shard[s],
                records: records_per_shard[s],
            }));
        }
        Ok(Store {
            state: RwLock::new(state),
            shards: shard_states,
            seq: Sequencer::new(wal_entries_total),
            dir: dir.to_path_buf(),
            fuzzy_examined: Counter::new(),
            fuzzy_pruned: Counter::new(),
            open_report,
        })
    }

    /// What the [`Store::open`] that produced this store replayed.
    #[must_use]
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Number of shards, fixed at `create` time.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Run `f` against the growing dataset, under the state read lock.
    /// (References cannot escape the lock, hence the closure.)
    pub fn with_dataset<R>(&self, f: impl FnOnce(&Dataset) -> R) -> R {
        f(self.state.read().resolver.dataset())
    }

    /// Run `f` against the underlying resolver, under the read lock.
    pub fn with_resolver<R>(&self, f: impl FnOnce(&IncrementalResolver) -> R) -> R {
        f(&self.state.read().resolver)
    }

    #[must_use]
    pub fn stats(&self) -> StoreStats {
        // Shards first, one guard at a time and none kept: the state
        // lock is never held while waiting for a shard's.
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard, s) in self.shards.iter().enumerate() {
            let s = s.read();
            shards.push(ShardStats {
                shard,
                records: s.records,
                wal_entries: s.wal_entries,
                wal_bytes: s.wal.bytes(),
            });
        }
        let state = self.state.read();
        StoreStats {
            records: state.resolver.len(),
            sources: state.resolver.dataset().sources().len(),
            matches: state.resolver.matches().len(),
            wal_entries: shards.iter().map(|s| s.wal_entries).sum(),
            wal_bytes: shards.iter().map(|s| s.wal_bytes).sum(),
            vocabulary: state.index.vocabulary_size(),
            postings: state.index.postings(),
            fuzzy_names: state.index.fuzzy().names(),
            fuzzy_grams: state.index.fuzzy().grams(),
            fuzzy_postings: state.index.fuzzy().postings(),
            fuzzy_examined: self.fuzzy_examined.get(),
            fuzzy_pruned: self.fuzzy_pruned.get(),
            shards,
        }
    }

    /// Register an arriving source, durably (WAL first). Sources are
    /// global state and serialize through shard 0's lock and WAL.
    pub fn add_source(&self, source: Source) -> Result<SourceId, StoreError> {
        let mut shard = self.shards[0].write();
        let ticket = self.seq.ticket();
        // The WAL fsync under the shard lock is the arrival-ordering
        // invariant: the lock spans ticket to apply.
        let logged = shard.wal.append_source(ticket, &source);
        self.seq.wait_turn(ticket);
        let outcome = match logged {
            Err(e) => Err(e),
            Ok(()) => {
                shard.wal_entries += 1;
                Ok(self.state.write().resolver.add_source(source))
            }
        };
        self.seq.finish(1);
        outcome
    }

    /// Apply one arriving record, durably (WAL first); returns the new
    /// ranked matches it produced. Unknown sources are a typed error, not
    /// a panic, because arrivals come over the wire.
    ///
    /// Concurrency: only the owning shard's write lock is held across
    /// the WAL fsync, so arrivals routed to distinct shards overlap
    /// their disk waits; the in-memory applies then run one at a time in
    /// ticket order, keeping record-id assignment identical to a
    /// single-threaded arrival stream.
    pub fn add_record(&self, record: Record) -> Result<Vec<RankedMatch>, StoreError> {
        if record.source.index() >= self.state.read().resolver.dataset().sources().len() {
            return Err(StoreError::Corrupt(format!(
                "record {} references unknown source {}",
                record.book_id, record.source.0
            )));
        }
        let s = shard::shard_of_record(&record, self.shards.len());
        let mut shard = self.shards[s].write();
        let ticket = self.seq.ticket();
        // The WAL fsync under the shard lock is the arrival-ordering
        // invariant: the lock spans ticket to apply.
        let logged = shard.wal.append_record(ticket, &record);
        self.seq.wait_turn(ticket);
        // Even a failed append must consume its ticket, or every later
        // arrival waits forever.
        let outcome = match logged {
            Err(e) => Err(e),
            Ok(()) => {
                shard.wal_entries += 1;
                shard.records += 1;
                Ok(self.state.write().apply_batch(vec![record]).pop().unwrap_or_default())
            }
        };
        self.seq.finish(1);
        outcome
    }

    /// Apply a batch of arriving records with **group commit**: one WAL
    /// fsync per dirty shard instead of one per record. Returns one
    /// outcome per submitted record, in submission order.
    ///
    /// Durability: a record's `Ok` outcome is only produced after its
    /// shard's WAL has been synced, so acknowledgements derived from
    /// these outcomes never precede durability.
    ///
    /// Crash safety vs the gapless-sequence replay invariant (restart
    /// refuses to open on a hole in the merged arrival sequence): the
    /// batch holds *every* shard's write lock — taken in ascending
    /// order, the same quiesce order as [`Store::snapshot`] — so no
    /// concurrent arrival can interleave a ticket into the batch's run
    /// of the global sequence. Records are then processed grouped by
    /// shard, and shard `i` is synced before shard `i+1`'s frames are
    /// even written, so at any crash point the unsynced frames are
    /// exactly a suffix of the global sequence: replay sees a torn or
    /// short tail, never a gap.
    ///
    /// Record ids are assigned in (shard, batch) order rather than
    /// submission order; replay reproduces the same order from the
    /// sequence stamps.
    ///
    /// Each shard group is applied after its fsync in slices of at most
    /// [`APPLY_SLICE`] arrivals, one state write-lock hold each, so reads
    /// interleave with a batch of any size.
    pub fn add_records(
        &self,
        records: Vec<Record>,
    ) -> Vec<Result<Vec<RankedMatch>, StoreError>> {
        self.add_records_sliced(records, || {})
    }

    /// [`Store::add_records`], calling `between_slices` after each applied
    /// slice, while every shard lock is held and the state lock is not.
    fn add_records_sliced(
        &self,
        records: Vec<Record>,
        mut between_slices: impl FnMut(),
    ) -> Vec<Result<Vec<RankedMatch>, StoreError>> {
        let mut statuses: Vec<Option<Result<Vec<RankedMatch>, StoreError>>> =
            records.iter().map(|_| None).collect();
        let sources = self.state.read().resolver.dataset().sources().len();
        let shard_count = self.shards.len();
        let mut groups: Vec<Vec<(usize, Record)>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        for (i, record) in records.into_iter().enumerate() {
            if record.source.index() >= sources {
                statuses[i] = Some(Err(StoreError::Corrupt(format!(
                    "record {} references unknown source {}",
                    record.book_id, record.source.0
                ))));
            } else {
                let s = shard::shard_of_record(&record, shard_count);
                groups[s].push((i, record));
            }
        }
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for (s, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &mut guards[s];
            let mut appended: Vec<(usize, Record, u64, Result<(), StoreError>)> =
                Vec::with_capacity(group.len());
            for (i, record) in group {
                let ticket = self.seq.ticket();
                // The WAL append under every shard lock is the group-commit
                // invariant: the locks pin the batch's run of the sequence.
                let logged = shard.wal.append_record_nosync(ticket, &record);
                appended.push((i, record, ticket, logged));
            }
            // One fsync per dirty shard, under its lock: the group-commit
            // payoff.
            let sync_err = shard.wal.sync().err().map(|e| e.to_string());
            let mut pending = appended.into_iter().peekable();
            // The group's tickets are consecutive (every shard lock is
            // held), so a slice's turn is its first ticket's.
            while let Some(&(_, _, first_ticket, _)) = pending.peek() {
                let mut filed = Vec::with_capacity(APPLY_SLICE);
                let mut applied = Vec::with_capacity(APPLY_SLICE);
                let mut tickets = 0;
                for (i, record, _, logged) in pending.by_ref().take(APPLY_SLICE) {
                    tickets += 1;
                    statuses[i] = match (&sync_err, logged) {
                        (Some(e), _) => {
                            Some(Err(StoreError::Corrupt(format!("batch WAL sync failed: {e}"))))
                        }
                        (None, Err(e)) => Some(Err(e)),
                        (None, Ok(())) => {
                            filed.push(i);
                            applied.push(record);
                            None
                        }
                    };
                }
                self.seq.wait_turn(first_ticket);
                shard.wal_entries += applied.len();
                shard.records += applied.len();
                if !applied.is_empty() {
                    let outcomes = self.state.write().apply_batch(applied);
                    for (i, matches) in filed.into_iter().zip(outcomes) {
                        statuses[i] = Some(Ok(matches));
                    }
                }
                // Even a failed append must consume its ticket, or every
                // later arrival waits forever.
                self.seq.finish(tickets);
                between_slices();
            }
        }
        drop(guards);
        statuses
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    Err(StoreError::Corrupt("batch bookkeeping lost a record".into()))
                })
            })
            .collect()
    }

    /// The current resolution as a batch [`Resolution`]: a copy of every
    /// match, re-sorted. The serving paths never need it — they ask the
    /// resolver's match graph directly — so nothing is kept.
    #[must_use]
    pub fn resolution(&self) -> Resolution {
        self.state.read().resolver.resolution()
    }

    /// Answer a person query: look the seed records up in the name
    /// index, then expand each seed into its entity at the query's
    /// certainty ([`IncrementalResolver::entity_of`]) — same hits, same
    /// order, as `PersonQuery::run` over the full dataset.
    #[must_use]
    pub fn query(&self, query: &PersonQuery) -> Vec<QueryHit> {
        self.query_traced(query, &mut TraceCtx::disabled())
    }

    /// [`Store::query`] with request-scoped tracing: a `seed` span (lock
    /// wait included, annotated with the seed count and the vocabulary
    /// scan's `names` / `admitted` / `matched` counts) and an `expand` span
    /// under one read guard, so every hit sees one state of index and match
    /// graph. A [`TraceCtx::disabled`] context makes every trace call a no-op.
    #[must_use]
    pub fn query_traced(&self, query: &PersonQuery, trace: &mut TraceCtx) -> Vec<QueryHit> {
        trace.enter("seed");
        let state = self.state.read();
        let resolver = &state.resolver;
        let (seeds, counts) = state.index.seeds_counted(query);
        trace.arg("seeds", seeds.len() as u64);
        trace.arg("names", counts.names);
        trace.arg("admitted", counts.admitted);
        trace.arg("matched", counts.matched);
        trace.exit();
        trace.enter("expand");
        let hits = seeds
            .into_iter()
            .map(|seed| QueryHit { seed, entity: resolver.entity_of(seed, query.certainty) })
            .collect();
        trace.exit();
        hits
    }

    /// Fuzzily resolve a (possibly misspelled) name into ranked entities:
    /// scan the q-gram index for candidate names within `options.bound`,
    /// then rank them with [`yv_fuzzy::rank_entities`] against the current
    /// resolution. The answer depends only on the store's logical state —
    /// one index whatever the shard count, interleaving or restart history.
    #[must_use]
    pub fn resolve(&self, name: &str, options: &ResolveOptions) -> ResolveOutcome {
        self.resolve_traced(name, options, &mut TraceCtx::disabled())
    }

    /// [`Store::resolve`] with request-scoped tracing: a `candidates` span
    /// (lock wait included, annotated with the candidates surfaced and the
    /// names examined) and a `rank` span, both under one read guard. Only
    /// counts enter the trace — names stay out, as in the slow log.
    #[must_use]
    pub fn resolve_traced(
        &self,
        name: &str,
        options: &ResolveOptions,
        trace: &mut TraceCtx,
    ) -> ResolveOutcome {
        let query = name.to_lowercase();
        trace.enter("candidates");
        let state = self.state.read();
        let (candidates, stats) = state.index.fuzzy().candidates(&query, options.bound);
        let examined = stats.examined;
        let pruned = stats.pruned_length + stats.pruned_jaccard;
        trace.arg("cands", candidates.len() as u64);
        trace.arg("examined", examined);
        trace.exit();
        self.fuzzy_examined.add(examined);
        self.fuzzy_pruned.add(pruned);

        trace.enter("rank");
        let hits = rank_entities(
            &query,
            candidates.iter().map(|c| (c.name, c.jaccard, c.records)),
            |rid| state.resolver.entity_of(rid, 0.0),
            |rid| state.resolver.best_score(rid),
            &options.blend,
            options.k,
            options.min_score,
        );
        trace.exit();
        ResolveOutcome { hits, examined, pruned }
    }

    /// Fold the WALs into a fresh snapshot file set and truncate them.
    ///
    /// Quiesce protocol: take every shard's write lock in ascending
    /// order (writers hold their shard lock from ticket to apply, so
    /// once all locks are held no arrival is in flight anywhere), write
    /// segments + base, truncate each WAL, rewind the sequencer. The state
    /// lock is only shared here: reads are answered throughout, arrivals wait.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        {
            let state = self.state.read();
            // The quiesce protocol writes the segment files while every
            // shard (and, shared, the state) is pinned — this hold is the
            // point.
            write_snapshot_files(&self.dir, &state.resolver, guards.len())?;
        }
        for (s, guard) in guards.iter_mut().enumerate() {
            guard.wal = Wal::create(&self.dir.join(wal_file_name(s)))?;
            guard.wal_entries = 0;
        }
        self.seq.reset(0);
        Ok(())
    }

    /// One canonical byte string covering the store's entire logical
    /// state — see [`snapshot::state_bytes`]. Two stores are
    /// byte-identical here exactly when they hold the same records (in
    /// the same arrival order), matches, model and configuration,
    /// *regardless of shard count*.
    pub fn state_bytes(&self) -> Result<Vec<u8>, StoreError> {
        snapshot::state_bytes(&self.state.read().resolver)
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_adt::AdTree;
    use yv_core::{IncrementalConfig, Pipeline, PipelineConfig};
    use yv_records::RecordBuilder;

    /// A resolver trained on 240 generated reports and bootstrapped on the
    /// first `base`; the rest come back as arrivals, many of them reports
    /// of people already filed, so arrivals score real candidates.
    /// Deterministic: two calls build identical resolvers.
    fn trained_split(base: usize) -> (IncrementalResolver, Vec<Record>) {
        let gen = yv_datagen::GenConfig::random(240, 5).generate();
        let config = PipelineConfig::default();
        let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
        let tags = yv_datagen::tag_pairs(&gen, &blocked.candidate_pairs, 3);
        let labelled: Vec<_> =
            tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
        let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
        let mut ds = Dataset::new();
        for source in gen.dataset.sources() {
            ds.add_source(source.clone());
        }
        for record in &gen.dataset.records()[..base] {
            ds.add_record(record.clone());
        }
        let resolver =
            IncrementalResolver::bootstrap(ds, pipeline, config, IncrementalConfig::default());
        (resolver, gen.dataset.records()[base..].to_vec())
    }

    fn resolver_of(names: &[(&str, &str)]) -> IncrementalResolver {
        let mut ds = Dataset::new();
        let source = ds.add_source(Source::list(SourceId(0), "list"));
        for (i, &(first, last)) in names.iter().enumerate() {
            let record = RecordBuilder::new(i as u64 + 1, source).first_name(first).last_name(last);
            ds.add_record(record.build());
        }
        let pipeline = Pipeline::with_model(AdTree::prior(0.0));
        let (config, inc) = (PipelineConfig::default(), IncrementalConfig::default());
        IncrementalResolver::bootstrap(ds, pipeline, config, inc)
    }

    /// The `seed` span counts what the vocabulary scan did — and only
    /// counts: last names scanned, passed by the sketch, matched.
    #[test]
    fn the_seed_span_counts_the_vocabulary_scan() {
        let names = [("Sara", "Levi"), ("Moshe", "Lvei"), ("Sara", "Roth"), ("Levi", "Cohen")];
        let dir = crate::scratch::ScratchDir::new("seed-span-counts");
        let store = Store::create(&dir, resolver_of(&names), 1).expect("create");
        let clock = std::sync::Arc::new(yv_obs::ManualClock::new());
        let mut trace = TraceCtx::start(1, 1, clock);
        let query = PersonQuery { last_name: Some("Levi".into()), ..PersonQuery::default() };
        let hits = store.query_traced(&query, &mut trace);
        let trace = trace.finish(true).expect("an enabled trace");
        let seed = trace.spans().iter().find(|s| s.name == "seed").expect("a seed span");
        let args = seed.args();
        assert_eq!(args[0], ("seeds", hits.len() as u64));
        assert_eq!(&args[1..], &[("names", 4), ("admitted", 2), ("matched", 2)]);
    }

    /// An in-flight `BATCH_ADD` or `SNAPSHOT` holds every shard's write
    /// lock across its fsyncs; reads must be answered regardless.
    #[test]
    fn reads_never_wait_on_a_shard_lock() {
        let resolver = resolver_of(&[("Sara", "Levi")]);
        let dir = crate::scratch::ScratchDir::new("reads-vs-shard-locks");
        let store = &Store::create(&dir, resolver, 4).expect("create");
        let (answer, answered) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let guards: Vec<_> = store.shards.iter().map(|s| s.write()).collect();
            scope.spawn(move || {
                let hits = store.query(&PersonQuery::default()).len();
                let ranked = store.resolve("Lewi", &ResolveOptions::default()).hits.len();
                let _ = answer.send((hits, ranked, store.with_dataset(Dataset::len)));
            });
            let got = answered.recv_timeout(std::time::Duration::from_secs(10));
            drop(guards);
            assert_eq!(got.expect("a read waited on a shard lock"), (1, 1, 1));
        });
    }

    /// A `BATCH_ADD` of more than two slices leaves the state that filing
    /// the same records one `add_record` at a time — in the batch's
    /// (shard, submission) order — leaves, answers each record with the
    /// same matches, and both survive a WAL-replay reopen byte for byte.
    #[test]
    fn a_batch_of_slices_equals_one_record_at_a_time() {
        for shards in [1, 4] {
            let (resolver, arrivals) = trained_split(160);
            assert!(arrivals.len() > 2 * APPLY_SLICE);
            let dir = crate::scratch::ScratchDir::new(&format!("batch-slices-{shards}"));
            let batched = Store::create(&dir, resolver, shards).expect("create");
            let matches_before = batched.stats().matches;
            let outcomes = batched.add_records(arrivals.clone());

            let mut order: Vec<usize> = (0..arrivals.len()).collect();
            order.sort_by_key(|&i| shard::shard_of_record(&arrivals[i], shards));
            let control_dir = crate::scratch::ScratchDir::new(&format!("one-at-a-time-{shards}"));
            let control =
                Store::create(&control_dir, trained_split(160).0, shards).expect("create");
            for &i in &order {
                let filed = control.add_record(arrivals[i].clone()).expect("add_record");
                let batch = outcomes[i].as_ref().expect("a batch record failed");
                assert_eq!(batch, &filed, "arrival {i} on {shards} shards");
            }
            assert!(batched.stats().matches > matches_before, "the arrivals must match something");

            let state = batched.state_bytes().expect("state bytes");
            assert_eq!(state, control.state_bytes().expect("state bytes"), "{shards} shards");
            drop((batched, control));
            for dir in [&dir, &control_dir] {
                let reopened = Store::open(dir).expect("reopen");
                assert_eq!(reopened.state_bytes().expect("state bytes"), state);
                assert_eq!(reopened.open_report().frames, arrivals.len() as u64);
            }
        }
    }

    /// A read issued while a `BATCH_ADD` is between slices is answered
    /// there, from the slices applied so far: the batch holds every shard
    /// lock, but the state lock only per slice.
    #[test]
    fn reads_are_answered_between_slices() {
        let (resolver, arrivals) = trained_split(160);
        let dir = crate::scratch::ScratchDir::new("reads-between-slices");
        let store = &Store::create(&dir, resolver, 1).expect("create");
        let before = store.with_dataset(Dataset::len);
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            let outcomes = store.add_records_sliced(arrivals.clone(), || {
                let (answer, answered) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    let hits = store.query(&PersonQuery::default()).len();
                    let _ = answer.send((hits, store.with_dataset(Dataset::len)));
                });
                let got = answered.recv_timeout(std::time::Duration::from_secs(10));
                seen.push(got.expect("a read waited on the batch"));
            });
            assert!(outcomes.iter().all(Result::is_ok));
        });
        let filed: Vec<usize> = (1..=arrivals.len().div_ceil(APPLY_SLICE))
            .map(|slices| before + (slices * APPLY_SLICE).min(arrivals.len()))
            .collect();
        assert_eq!(seen, filed.iter().map(|&n| (n, n)).collect::<Vec<_>>());
    }

    /// `open_report` counts the frames replayed and the torn tail dropped:
    /// of n frames, keeping only k bytes of the last replays n − 1 and
    /// reports the k bytes dropped.
    #[test]
    fn open_reports_frames_replayed_and_torn_bytes() {
        let dir = crate::scratch::ScratchDir::new("open-report");
        let store = Store::create(&dir, resolver_of(&[("Sara", "Levi")]), 1).expect("create");
        assert_eq!(store.open_report(), OpenReport::default());
        let n: u64 = 5;
        let mut last_frame_at = 0;
        for book in 0..n {
            last_frame_at = store.stats().wal_bytes;
            let record = RecordBuilder::new(100 + book, SourceId(0))
                .first_name("Moshe")
                .last_name("Katz")
                .build();
            store.add_record(record).expect("add_record");
        }
        drop(store);
        let wal = dir.join(wal_file_name(0));
        let full = std::fs::read(&wal).expect("read WAL");
        let clean = Store::open(&dir).expect("reopen").open_report();
        assert_eq!((clean.frames, clean.torn_bytes), (n, 0));
        for k in [1, 9, 20] {
            let cut = usize::try_from(last_frame_at).expect("WAL length") + k;
            assert!(cut < full.len());
            std::fs::write(&wal, &full[..cut]).expect("cut WAL");
            let reopened = Store::open(&dir).expect("reopen a torn WAL");
            let report = reopened.open_report();
            assert_eq!((report.frames, report.torn_bytes), (n - 1, k as u64), "kept {k}");
            assert_eq!(reopened.stats().records, n as usize);
            assert_eq!(reopened.stats().wal_bytes, last_frame_at, "the torn tail is dropped");
            assert_eq!(std::fs::metadata(&wal).expect("WAL").len(), last_frame_at);
        }
    }
}
