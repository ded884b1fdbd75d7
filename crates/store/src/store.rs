//! The persistent resolution store: an [`IncrementalResolver`] wrapped
//! with durability (snapshot + WAL), serving-speed lookups (name
//! postings; entities come straight from the resolver's match graph),
//! and name-hash sharding so concurrent writers on distinct shards never
//! contend on the durability path.
//!
//! Sharding: the store's WALs are partitioned into N shards fixed at
//! `create` time (see [`crate::shard::Manifest`]). Each shard owns its
//! WAL file behind a per-shard lock, and nothing else. A record belongs
//! to the shard of its first last name
//! ([`crate::shard::shard_of_record`]); sources — global, shard-less
//! state — are logged to shard 0 by convention. Memory is not
//! partitioned: the resolver and the one name table sit behind one lock
//! (`State`), since applies are serial anyway and no lookup carries the
//! routing key. Reads take that lock, shared, and never a shard's, so
//! they wait on nobody's fsync. Lock order: shards (ascending) → state.
//!
//! Durability protocol: `create` writes one snapshot file and empty WALs.
//! Every arrival takes a global arrival sequence number *under its
//! shard's write lock*, is appended (and fsynced) to that shard's WAL —
//! fsyncs on distinct shards run in parallel — and is then applied to the
//! shared resolver strictly in sequence order (a condvar sequencer hands
//! applies out in ticket order). Still under its shard lock, the arrival's
//! ranked matches then follow into the same WAL as an unsynced matches
//! frame: the record frame's fsync stays the one commit point, and the
//! matches frame rides along with the next one. Sequence numbers never
//! rewind. `open` loads the snapshot, scans the shard WALs, skips the
//! frames below the snapshot's `folded_seq` (already folded into it) and
//! replays the rest merged by sequence number (arrival order), refusing
//! to open if the merge is not gapless from `folded_seq`
//! ([`StoreError::ShardWalGap`]): record ids are assigned in apply order,
//! so replaying past a hole would renumber every later record. An arrival
//! with a matches frame is filed with the matches it was acknowledged
//! with ([`IncrementalResolver::insert_logged`]); only one without (a torn
//! tail, a failed append) is scored again. A torn tail on the globally
//! *last* arrival is the ordinary crash-mid-append case and recovers
//! cleanly; the truncation reuses the length the scan found, so each WAL
//! is read and decoded once. [`Store::open_report`] says what the replay
//! did.
//! `snapshot` quiesces all shards, writes a fresh snapshot whose durable
//! rename is the commit point, and only then truncates the WALs — a crash
//! anywhere in between reopens to the acknowledged state.
//!
//! Applies run in slices: up to 32 (`APPLY_SLICE`) consecutive arrivals go
//! through [`IncrementalResolver::insert_batch`] under one hold of the
//! state write lock — a `BATCH_ADD`'s shard group after its fsync, and a
//! replay's run of re-scored record frames. Inside a slice
//! the candidate pairs are scored on every core (`Pipeline::score_pairs`),
//! the store's one use of threads. A read therefore waits on at most one
//! slice, whatever size of batch a client sends.

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

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.yvs";

/// Per-shard WAL file name inside a store directory.
#[must_use]
pub fn wal_file_name(shard: usize) -> String {
    format!("wal.{shard}.yvl")
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
    /// WAL `sync_data` calls since open, summed over shards.
    pub wal_syncs: u64,
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

    /// The next ticket to hand out: while every shard is quiesced, the
    /// first arrival not yet applied.
    fn next(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }
}

/// What one shard owns on disk, behind its per-shard lock.
#[derive(Debug)]
struct ShardState {
    wal: Wal,
    /// Arrivals logged to this shard since the last snapshot.
    wal_entries: usize,
    /// Records routed to this shard, snapshot and WAL alike.
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

    /// File one arrival with the matches its matches frame logged.
    fn apply_logged(&mut self, record: Record, matches: &[RankedMatch]) {
        let rid = self.resolver.insert_logged(record, matches);
        self.index.add_record(rid, self.resolver.dataset().record(rid));
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
    /// Arrivals replayed — record and source frames — summed over shards.
    pub frames: u64,
    /// Record frames replayed without a matches frame, hence scored again.
    pub rescored: u64,
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

/// Records per shard, counted by routing every record of `ds`.
fn records_per_shard(ds: &Dataset, n_shards: usize) -> Vec<usize> {
    let mut counts = vec![0; n_shards];
    for record in ds.records() {
        counts[shard::shard_of_record(record, n_shards)] += 1;
    }
    counts
}

impl Store {
    /// Initialize a store directory from a bootstrapped resolver: writes
    /// one empty WAL per shard, the initial snapshot and the manifest.
    pub fn create(
        dir: &Path,
        resolver: IncrementalResolver,
        shards: usize,
    ) -> Result<Store, StoreError> {
        let manifest = Manifest::new(shards)?;
        std::fs::create_dir_all(dir)?;
        let mut shard_states = Vec::with_capacity(shards);
        for (s, records) in records_per_shard(resolver.dataset(), shards).into_iter().enumerate() {
            let wal = Wal::create(&dir.join(wal_file_name(s)))?;
            shard_states.push(RwLock::new(ShardState { wal, wal_entries: 0, records }));
        }
        // WALs first: the directory sync after each rename below makes
        // their entries durable too.
        let bytes = snapshot::to_bytes(&resolver, 0)?;
        snapshot::write_atomically(&dir.join(SNAPSHOT_FILE), &bytes)?;
        manifest.write(dir)?;
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

    /// Open an existing store directory: load the manifest and the
    /// snapshot, scan every shard's WAL, merge the frames the snapshot
    /// does not hold back into global arrival order, replay them, and
    /// position the WALs for further appends.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if !snap_path.exists() {
            return Err(StoreError::MissingSnapshot(dir.to_path_buf()));
        }
        let n_shards = Manifest::read(dir)?.shards;
        let snapshot::Snapshot { folded_seq, resolver } = snapshot::read_file(&snap_path)?;
        let mut state = State::build(resolver);
        let mut scans = Vec::with_capacity(n_shards);
        // WALs to rewrite empty instead of appending to.
        let mut rewrite = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let path = dir.join(wal_file_name(s));
            if !path.exists() {
                return Err(StoreError::Corrupt(format!(
                    "shard {s} WAL ({}) is missing",
                    wal_file_name(s)
                )));
            }
            let bytes = std::fs::read(&path)?;
            // A version-2 log holding only its header — what `SNAPSHOT`
            // left with the previous build — has nothing to replay.
            let emptied_v2 = bytes == crate::framed::header(crate::wal::MAGIC, 2);
            let scan = if emptied_v2 {
                WalScan { entries: Vec::new(), valid_len: bytes.len(), torn_bytes: 0 }
            } else {
                crate::wal::scan(&bytes)?
            };
            // A WAL whose frames all sit below `folded_seq` (seqs increase
            // within a WAL, so its last frame decides) outlived a crash
            // between `snapshot`'s rename and its truncation.
            let folded = scan.entries.last().is_some_and(|(seq, _)| *seq < folded_seq);
            rewrite.push(emptied_v2 || folded);
            scans.push(scan);
        }

        let clock = MonotonicClock::new();
        let replay_started = clock.now_nanos();
        // Merge the frames the snapshot does not hold back into global
        // arrival order and demand the sequence is gapless from
        // `folded_seq` — see [`StoreError::ShardWalGap`].
        let mut merged: Vec<(u64, usize, WalEntry)> = Vec::new();
        for (s, scan) in scans.iter_mut().enumerate() {
            let fresh = scan.entries.drain(..).filter(|(seq, _)| *seq >= folded_seq);
            merged.extend(fresh.map(|(seq, entry)| (seq, s, entry)));
        }
        merged.sort_by_key(|(seq, _, _)| *seq);
        for (expected, (seq, _, _)) in (folded_seq..).zip(&merged) {
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
                        scans.iter().position(|scan| scan.torn_bytes > 0).ok_or_else(|| {
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
        // as the original apply did. An arrival with logged matches is
        // filed with them; record frames without collect into slices to
        // be scored, and any other frame or a full slice applies what has
        // collected.
        let wal_entries_total = merged.len() as u64;
        let mut wal_entries_per_shard = vec![0usize; n_shards];
        let mut rescored = 0;
        let mut slice = Vec::with_capacity(APPLY_SLICE);
        for (seq, s, entry) in merged {
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
                WalEntry::Record(record, logged) => {
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
                    let Some(logged) = logged else {
                        rescored += 1;
                        slice.push(*record);
                        if slice.len() == APPLY_SLICE {
                            state.apply_batch(std::mem::take(&mut slice));
                        }
                        continue;
                    };
                    state.apply_batch(std::mem::take(&mut slice));
                    let arrival = RecordId(u32::try_from(state.resolver.len()).map_err(|_| {
                        StoreError::LimitExceeded { what: "record ids", len: state.resolver.len() }
                    })?);
                    if let Some(&(partner, _)) = logged.iter().find(|(p, _)| *p >= arrival) {
                        return Err(StoreError::Corrupt(format!(
                            "matches frame for seq {seq} names partner {} at or above its \
                             arrival's id {}",
                            partner.0, arrival.0
                        )));
                    }
                    let matches: Vec<RankedMatch> = logged
                        .into_iter()
                        .map(|(partner, score)| RankedMatch::new(partner, arrival, score))
                        .collect();
                    state.apply_logged(*record, &matches);
                }
            }
        }
        state.apply_batch(slice);
        let open_report = OpenReport {
            frames: wal_entries_total,
            rescored,
            torn_bytes: scans.iter().map(|scan| scan.torn_bytes as u64).sum(),
            replay_ns: clock.now_nanos().saturating_sub(replay_started),
        };

        let records = records_per_shard(state.resolver.dataset(), n_shards);
        let mut shard_states = Vec::with_capacity(n_shards);
        for (s, (scan, records)) in scans.iter().zip(records).enumerate() {
            let path = dir.join(wal_file_name(s));
            // A folded WAL is truncated to its header, finishing the
            // interrupted snapshot, and an emptied version-2 one gets this
            // version's header; any other is truncated to the scan's valid
            // prefix, which drops a torn tail, so the next append lands
            // after the last complete frame.
            let wal =
                if rewrite[s] { Wal::create(&path)? } else { Wal::open(&path, scan.valid_len)? };
            shard_states.push(RwLock::new(ShardState {
                wal,
                wal_entries: wal_entries_per_shard[s],
                records,
            }));
        }
        Ok(Store {
            state: RwLock::new(state),
            shards: shard_states,
            seq: Sequencer::new(folded_seq + wal_entries_total),
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
        let mut wal_syncs = 0;
        for (shard, s) in self.shards.iter().enumerate() {
            let s = s.read();
            wal_syncs += s.wal.syncs();
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
            wal_syncs,
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
    /// ranked matches it produced, which then follow the record into the
    /// WAL as its unsynced matches frame. Unknown sources are a typed
    /// error, not a panic, because arrivals come over the wire.
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
        if let Ok(matches) = &outcome {
            // Unsynced, and allowed to fail: without it a reopen scores
            // the arrival again.
            let _ = shard.wal.append_matches(ticket, matches);
        }
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
    /// 32 (`APPLY_SLICE`) arrivals, one state write-lock hold each, so reads
    /// interleave with a batch of any size; each slice's matches frames
    /// follow, unsynced, once its state lock is released.
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
                for (i, record, ticket, logged) in pending.by_ref().take(APPLY_SLICE) {
                    tickets += 1;
                    statuses[i] = match (&sync_err, logged) {
                        (Some(e), _) => {
                            Some(Err(StoreError::Corrupt(format!("batch WAL sync failed: {e}"))))
                        }
                        (None, Err(e)) => Some(Err(e)),
                        (None, Ok(())) => {
                            filed.push((i, ticket));
                            applied.push(record);
                            None
                        }
                    };
                }
                self.seq.wait_turn(first_ticket);
                shard.wal_entries += applied.len();
                shard.records += applied.len();
                let outcomes = if applied.is_empty() {
                    Vec::new()
                } else {
                    self.state.write().apply_batch(applied)
                };
                // Even a failed append must consume its ticket, or every
                // later arrival waits forever.
                self.seq.finish(tickets);
                for ((i, ticket), matches) in filed.into_iter().zip(outcomes) {
                    // As in `add_record`: unsynced, allowed to fail.
                    let _ = shard.wal.append_matches(ticket, &matches);
                    statuses[i] = Some(Ok(matches));
                }
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

    /// Fold the WALs into a fresh snapshot file and truncate them.
    ///
    /// Quiesce protocol: take every shard's write lock in ascending
    /// order (writers hold their shard lock from ticket to apply, so
    /// once all locks are held no arrival is in flight anywhere), encode
    /// the state under a shared state lock — reads are answered
    /// throughout, arrivals wait — and write it atomically. The durable
    /// rename is the commit point: only then is each WAL truncated, and
    /// `folded_seq` (the next ticket) lets `open` skip the frames a crash
    /// before or during the truncation leaves behind.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let bytes = snapshot::to_bytes(&self.state.read().resolver, self.seq.next())?;
        snapshot::write_atomically(&self.dir.join(SNAPSHOT_FILE), &bytes)?;
        for guard in &mut guards {
            guard.wal.clear()?;
            guard.wal_entries = 0;
        }
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
                assert_eq!(reopened.open_report().rescored, 0, "replayed from logged matches");
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
        assert_eq!((clean.frames, clean.rescored, clean.torn_bytes), (n, 0, 0));
        // Torn inside the last matches frame: every arrival replays, the
        // last one scored again.
        let last_record_end = (0..full.len())
            .rev()
            .find(|&len| crate::wal::scan(&full[..len]).expect("scan").torn_bytes == 0)
            .expect("a frame boundary");
        std::fs::write(&wal, &full[..last_record_end + 7]).expect("cut WAL");
        let report = Store::open(&dir).expect("reopen a torn WAL").open_report();
        assert_eq!((report.frames, report.rescored, report.torn_bytes), (n, 1, 7));
        for k in [1, 9, 20] {
            let cut = usize::try_from(last_frame_at).expect("WAL length") + k;
            assert!(cut < full.len());
            std::fs::write(&wal, &full[..cut]).expect("cut WAL");
            let reopened = Store::open(&dir).expect("reopen a torn WAL");
            let report = reopened.open_report();
            let counts = (report.frames, report.rescored, report.torn_bytes);
            assert_eq!(counts, (n - 1, 0, k as u64), "kept {k}");
            assert_eq!(reopened.stats().records, n as usize);
            assert_eq!(reopened.stats().wal_bytes, last_frame_at, "the torn tail is dropped");
            assert_eq!(std::fs::metadata(&wal).expect("WAL").len(), last_frame_at);
        }
    }

    /// `wal_syncs` counts one `sync_data` per `ADD` and one per dirty
    /// shard per `BATCH_ADD`; the matches frames every arrival adds cost
    /// none, and `SNAPSHOT` does not reset the count.
    #[test]
    fn wal_syncs_count_one_per_add_and_one_per_dirty_shard_per_batch() {
        let (resolver, arrivals) = trained_split(160);
        let dir = crate::scratch::ScratchDir::new("wal-syncs");
        let store = Store::create(&dir, resolver, 4).expect("create");
        assert_eq!(store.stats().wal_syncs, 0);
        for record in &arrivals[..5] {
            store.add_record(record.clone()).expect("add_record");
        }
        assert_eq!(store.stats().wal_syncs, 5);
        let batch = arrivals[5..].to_vec();
        let dirty: std::collections::BTreeSet<usize> =
            batch.iter().map(|r| shard::shard_of_record(r, 4)).collect();
        assert!(store.add_records(batch).iter().all(Result::is_ok));
        assert_eq!(store.stats().wal_syncs, 5 + dirty.len() as u64);
        // Every arrival logged a record frame and a matches frame.
        let frames: usize = (0..4)
            .map(|s| {
                let bytes = std::fs::read(dir.join(wal_file_name(s))).expect("WAL");
                crate::wal::scan(&bytes).expect("scan").entries.len()
            })
            .sum();
        assert_eq!(frames, arrivals.len());
        store.snapshot().expect("snapshot");
        assert_eq!(store.stats().wal_syncs, 5 + dirty.len() as u64);
    }
}
