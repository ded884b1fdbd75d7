//! Write-ahead log of incremental arrivals — one log per shard.
//!
//! Every `ADD` is appended (and flushed) here *before* it is applied to
//! the in-memory resolver, so a crash between append and apply replays
//! the arrival on restart instead of losing it. After the apply, the
//! arrival's ranked matches follow in an unsynced *matches frame*, so a
//! reopen files the arrival with the matches it was acknowledged with
//! instead of scoring it again. `SNAPSHOT` folds the logs into a fresh
//! snapshot and truncates them.
//!
//! Since the store is sharded, arrivals scatter across N WAL files
//! (`wal.<shard>.yvl`), so each frame carries the arrival's *global
//! sequence number*: the position the arrival held in the store-wide
//! apply order; seqs never rewind, not even at `SNAPSHOT`. Replaying a
//! sharded store skips the frames below the snapshot's `folded_seq`,
//! merges every shard's other frames back into that order by sorting on
//! `seq` — and because record ids are assigned in apply order, the merge
//! must be gapless from `folded_seq` (see
//! [`crate::StoreError::ShardWalGap`]). Only record and source frames
//! take part in the merge; a matches frame rides on its record frame.
//!
//! Layout: the [`crate::framed`] file header and frames, with the
//! arrival's seq as the frame's `extra`:
//!
//! ```text
//! 8 bytes   magic  "YVWAL\0\0\0"
//! u32       format version (currently 3)
//! frames:
//!   u8      entry tag (1 = record, 2 = source, 3 = matches)
//!   u64     global arrival sequence number
//!   u32     payload length
//!   bytes   payload (codec-encoded record / source, or matches)
//!   u64     FNV-1a 64 checksum of tag + seq + payload
//! matches payload:
//!   u32 groups ‖ (f64 score ‖ varint n ‖ n × varint gap)*
//! ```
//!
//! A matches frame holds its arrival's ranked matches grouped by score:
//! scores strictly descending (`f64::total_cmp`), each group's partner
//! ids strictly ascending — the ranked order `insert_batch` produced. A
//! group's first gap is its first partner id, each later one the
//! difference to the partner before (≥ 1); varints are LEB128
//! ([`crate::codec::Writer::varint`]), so a gap below 128 takes a byte. It
//! must come after the record frame with the same seq, in the same file,
//! and at most once; anything else is [`StoreError::Corrupt`]. Whether
//! each partner sits below the arrival's own id only the replay can tell,
//! and does.
//!
//! A *truncated* final frame is how a crash mid-append looks; replay
//! treats it as a clean stop (surfaced via [`WalScan::torn_bytes`] so the store
//! can tell a harmless torn tail from a cross-shard sequence gap) and the
//! next append overwrites it. A frame that is complete but fails its
//! checksum is real corruption and surfaces as a typed error.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{self, Reader, Writer};
use crate::error::StoreError;
use crate::framed::{self, LogFile};
use std::collections::HashMap;
use std::path::Path;
use yv_core::RankedMatch;
use yv_records::{Record, RecordId, Source};

/// File magic: identifies a yv-store write-ahead log.
pub const MAGIC: [u8; 8] = *b"YVWAL\0\0\0";
/// The WAL format version this build reads and writes. Version 1 frames
/// carried no sequence number and cannot be merged across shards;
/// version 2 logs had no matches frames.
pub const VERSION: u32 = 3;

const TAG_RECORD: u8 = 1;
const TAG_SOURCE: u8 = 2;
const TAG_MATCHES: u8 = 3;

/// An arrival's logged matches: `(partner, score)` in ranked order —
/// score descending, then partner ascending.
pub type LoggedMatches = Vec<(RecordId, f64)>;

/// One replayed WAL entry: an arrival. A record carries the matches its
/// matches frame logged, or `None` when the frame is missing (a torn
/// tail, a failed append) and the replay has to score the record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    Record(Box<Record>, Option<LoggedMatches>),
    Source(Source),
}

/// Result of scanning one WAL file: the arrivals its complete frames hold
/// (with their global sequence numbers, in file order), the byte length
/// of the valid prefix, and the bytes of a torn (incomplete) final frame
/// after it.
#[derive(Debug)]
pub struct WalScan {
    pub entries: Vec<(u64, WalEntry)>,
    pub valid_len: usize,
    /// File length minus `valid_len`: zero unless a crash tore the tail.
    pub torn_bytes: usize,
}

/// Append handle over a WAL file.
#[derive(Debug)]
pub struct Wal {
    log: LogFile,
}

impl Wal {
    /// Create a fresh (empty) log, truncating any existing file.
    pub fn create(path: &Path) -> Result<Wal, StoreError> {
        Ok(Wal { log: LogFile::create(path, MAGIC, VERSION)? })
    }

    /// Open an existing log for appending, truncated to `valid_len` —
    /// the [`WalScan::valid_len`] its scan found — and positioned there,
    /// so a torn tail from a crash is dropped and overwritten.
    pub fn open(path: &Path, valid_len: usize) -> Result<Wal, StoreError> {
        Ok(Wal { log: LogFile::open(path, valid_len)? })
    }

    /// Current on-disk byte length: header plus every complete frame.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Append a record frame stamped with its global arrival sequence.
    pub fn append_record(&mut self, seq: u64, record: &Record) -> Result<(), StoreError> {
        self.append(TAG_RECORD, seq, |w| codec::write_record(w, record), true)
    }

    /// Append a record frame without forcing it to disk — group-commit
    /// building block. The frame is not durable until [`Wal::sync`]
    /// returns; callers must not acknowledge the record before then.
    pub fn append_record_nosync(
        &mut self,
        seq: u64,
        record: &Record,
    ) -> Result<(), StoreError> {
        self.append(TAG_RECORD, seq, |w| codec::write_record(w, record), false)
    }

    /// Append the matches frame of the arrival logged at `seq`, without
    /// forcing it to disk: its ranked matches, each pairing an earlier
    /// record (`a`) with the arrival (`b`), in the order `insert_batch`
    /// returned them. The record frame's fsync is the commit point; this
    /// frame only spares a reopen the scoring, so losing it to a crash
    /// costs time, not data. A failed append is cut back off the log.
    pub fn append_matches(&mut self, seq: u64, matches: &[RankedMatch]) -> Result<(), StoreError> {
        self.append(TAG_MATCHES, seq, |w| write_matches(w, matches), false)
    }

    /// Append a source frame stamped with its global arrival sequence.
    pub fn append_source(&mut self, seq: u64, source: &Source) -> Result<(), StoreError> {
        self.append(TAG_SOURCE, seq, |w| codec::write_source(w, source), true)
    }

    /// Force every appended frame to disk. One call per batch is the
    /// whole point of group commit: a 256-record `BATCH_ADD` pays one
    /// `sync_data` where per-record appends would pay 256.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }

    /// `sync_data` calls since this handle was opened or created;
    /// [`Wal::clear`] neither adds to nor resets the count.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.log.syncs()
    }

    /// Truncate the log back to its header, durably — `SNAPSHOT`'s
    /// truncation.
    pub fn clear(&mut self) -> Result<(), StoreError> {
        self.log.clear()
    }

    fn append(
        &mut self,
        tag: u8,
        seq: u64,
        write: impl FnOnce(&mut Writer) -> Result<(), StoreError>,
        sync: bool,
    ) -> Result<(), StoreError> {
        self.log.append(&framed::encode_with(tag, &seq.to_le_bytes(), 0, write)?, sync)
    }
}

/// Replay a WAL file into `(seq, entry)` pairs, in file order. A
/// truncated tail is tolerated; checksum failures on complete frames are
/// errors.
pub fn replay(path: &Path) -> Result<Vec<(u64, WalEntry)>, StoreError> {
    Ok(scan_file(path)?.entries)
}

/// Scan a WAL file: entries, valid prefix length, torn-tail flag.
pub fn scan_file(path: &Path) -> Result<WalScan, StoreError> {
    scan(&std::fs::read(path)?)
}

/// Parse the log bytes. Any input yields a scan or a typed error, never a
/// panic.
pub fn scan(bytes: &[u8]) -> Result<WalScan, StoreError> {
    enum Frame {
        Arrival(WalEntry),
        Matches(LoggedMatches),
    }
    let (frames, valid_len) = framed::scan(bytes, MAGIC, VERSION, |tag, seq, payload| {
        let mut r = Reader::new(payload);
        let frame = match tag {
            TAG_RECORD => {
                Frame::Arrival(WalEntry::Record(Box::new(codec::read_record(&mut r)?), None))
            }
            TAG_SOURCE => Frame::Arrival(WalEntry::Source(codec::read_source(&mut r)?)),
            TAG_MATCHES => Frame::Matches(read_matches(&mut r)?),
            t => return Err(StoreError::Corrupt(format!("unknown WAL entry tag {t}"))),
        };
        r.finish("WAL frame")?;
        Ok((seq, frame))
    })?;
    let mut entries = Vec::with_capacity(frames.len());
    // Where each record frame's entry sits, by seq.
    let mut records: HashMap<u64, usize> = HashMap::new();
    for (seq, frame) in frames {
        match frame {
            Frame::Arrival(entry) => {
                if matches!(entry, WalEntry::Record(..)) {
                    records.insert(seq, entries.len());
                }
                entries.push((seq, entry));
            }
            Frame::Matches(logged) => {
                let Some(&at) = records.get(&seq) else {
                    return Err(StoreError::Corrupt(format!(
                        "matches frame for seq {seq} without its record frame"
                    )));
                };
                if let (_, WalEntry::Record(_, slot @ None)) = &mut entries[at] {
                    *slot = Some(logged);
                } else {
                    return Err(StoreError::Corrupt(format!(
                        "a second matches frame for seq {seq}"
                    )));
                }
            }
        }
    }
    Ok(WalScan { entries, valid_len, torn_bytes: bytes.len() - valid_len })
}

/// Encode ranked matches as the matches payload: runs of equal score
/// become one group, whose ascending partners are written as gaps. Matches
/// out of ranked order are refused.
fn write_matches(w: &mut Writer, matches: &[RankedMatch]) -> Result<(), StoreError> {
    let groups: Vec<&[RankedMatch]> =
        matches.chunk_by(|x, y| x.score.to_bits() == y.score.to_bits()).collect();
    w.len(groups.len(), "match groups")?;
    for group in groups {
        w.f64(group[0].score);
        w.varint(u32::try_from(group.len()).map_err(|_| StoreError::LimitExceeded {
            what: "match group",
            len: group.len(),
        })?);
        let mut last = None;
        for m in group {
            let partner = m.a.0;
            let gap = match last {
                None => Some(partner),
                Some(last) => partner.checked_sub(last).filter(|&gap| gap > 0),
            };
            let gap = gap.ok_or_else(|| {
                StoreError::Corrupt(format!("match partner {partner} out of ranked order"))
            })?;
            w.varint(gap);
            last = Some(partner);
        }
    }
    Ok(())
}

/// Decode a matches payload, refusing any that `write_matches` would not
/// have written: an empty group, scores not strictly descending, partners
/// not strictly ascending within a group (a zero gap), a partner in two
/// groups.
fn read_matches(r: &mut Reader<'_>) -> Result<LoggedMatches, StoreError> {
    let groups = r.u32("match groups")?;
    let mut out = Vec::new();
    let mut last_score: Option<f64> = None;
    for _ in 0..groups {
        let score = r.f64("match score")?;
        if last_score.is_some_and(|last| last.total_cmp(&score).is_le()) {
            return Err(StoreError::Corrupt(format!(
                "match scores not strictly descending at {score}"
            )));
        }
        last_score = Some(score);
        let n = r.varint("match group")?;
        if n == 0 {
            return Err(StoreError::Corrupt("empty match group".into()));
        }
        let mut partner: Option<u32> = None;
        for _ in 0..n {
            let gap = r.varint("match partner")?;
            let next = match partner {
                None => Some(gap),
                Some(last) => last.checked_add(gap).filter(|_| gap > 0),
            };
            let next = next.ok_or_else(|| {
                StoreError::Corrupt(format!("match partner gap {gap} after {partner:?}"))
            })?;
            partner = Some(next);
            out.push((RecordId(next), score));
        }
    }
    let mut partners: Vec<RecordId> = out.iter().map(|&(partner, _)| partner).collect();
    partners.sort_unstable();
    if let Some(twice) = partners.windows(2).find(|w| w[0] == w[1]) {
        return Err(StoreError::Corrupt(format!("match partner {} listed twice", twice[0].0)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use yv_records::{RecordBuilder, SourceId};

    fn sample_entries() -> (Source, Record, Record) {
        (
            Source::list(SourceId(0), "late list"),
            RecordBuilder::new(1, SourceId(0)).first_name("Guido").last_name("Foa").build(),
            RecordBuilder::new(2, SourceId(0)).first_name("Sara").last_name("Levi").build(),
        )
    }

    #[test]
    fn append_then_replay_round_trips_with_seqs() {
        let dir = ScratchDir::new("wal-roundtrip");
        let path = dir.join("log.wal");
        let (src, r1, r2) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        // Shard WALs hold a sparse subset of the global sequence: gaps
        // within one file are normal (the missing seqs live elsewhere).
        wal.append_record(7, &r2).unwrap();
        // A matches frame rides on its record frame, wherever it follows.
        let ranked = [
            RankedMatch::new(RecordId(4), RecordId(9), 2.5),
            RankedMatch::new(RecordId(1), RecordId(9), 0.5),
            RankedMatch::new(RecordId(3), RecordId(9), 0.5),
            RankedMatch::new(RecordId(2), RecordId(9), -1.0),
        ];
        wal.append_matches(1, &ranked).unwrap();
        wal.append_matches(7, &[]).unwrap();
        let entries = replay(&path).unwrap();
        let logged = ranked.iter().map(|m| (m.a, m.score)).collect();
        assert_eq!(
            entries,
            vec![
                (0, WalEntry::Source(src)),
                (1, WalEntry::Record(Box::new(r1), Some(logged))),
                (7, WalEntry::Record(Box::new(r2), Some(vec![])))
            ]
        );
    }

    /// Equal scores share one group, and partners are gaps: 4 matches at
    /// 3 scores are `u32 3 ‖ 3 × (f64 ‖ varint n) ‖ 4 × varint`, one byte
    /// each here.
    #[test]
    fn matches_are_grouped_by_score() {
        let ranked = [
            RankedMatch::new(RecordId(4), RecordId(9), 2.5),
            RankedMatch::new(RecordId(1), RecordId(9), 0.5),
            RankedMatch::new(RecordId(3), RecordId(9), 0.5),
            RankedMatch::new(RecordId(2), RecordId(9), -1.0),
        ];
        let mut w = Writer::new();
        write_matches(&mut w, &ranked).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 4 + 3 * 9 + 4);
        let mut r = Reader::new(&bytes);
        let decoded = read_matches(&mut r).unwrap();
        r.finish("matches").unwrap();
        assert_eq!(decoded, ranked.iter().map(|m| (m.a, m.score)).collect::<Vec<_>>());
    }

    #[test]
    fn byte_tracking_matches_the_file() {
        let dir = ScratchDir::new("wal-bytes");
        let path = dir.join("log.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        assert_eq!(wal.bytes(), 12, "fresh log is just the header");
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
        drop(wal);
        // Re-opening recovers the length from the valid prefix.
        let wal = Wal::open(&path, scan_file(&path).unwrap().valid_len).unwrap();
        assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_a_clean_stop_and_flagged() {
        let dir = ScratchDir::new("wal-torn");
        let path = dir.join("log.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut into the middle of the last frame.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.entries, vec![(0, WalEntry::Source(src.clone()))]);
        assert_eq!(scan.torn_bytes, full.len() - 7 - scan.valid_len, "the torn frame's bytes");
        assert!(scan.torn_bytes > 0, "the incomplete final frame must be flagged");
        // Re-opening for append truncates the torn tail and continues.
        let mut wal = Wal::open(&path, scan.valid_len).unwrap();
        wal.append_record(1, &r1).unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn bitflip_in_complete_frame_is_checksum_error() {
        let dir = ScratchDir::new("wal-bitflip");
        let path = dir.join("log.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first frame's payload.
        bytes[28] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bitflip_in_seq_field_is_checksum_error() {
        let dir = ScratchDir::new("wal-seqflip");
        let path = dir.join("log.wal");
        let (src, _, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(3, &src).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Byte 13 is inside the first frame's seq field (12 header + tag).
        bytes[13] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(replay(&path), Err(StoreError::ChecksumMismatch { .. })),
            "a corrupted sequence number must not replay as a different position"
        );
    }

    #[test]
    fn pathological_inputs_are_errors_or_clean_stops_never_panics() {
        let dir = ScratchDir::new("wal-pathological");
        let path = dir.join("log.wal");
        let (src, r1, _) = sample_entries();
        let mut wal = Wal::create(&path).unwrap();
        wal.append_source(0, &src).unwrap();
        wal.append_record(1, &r1).unwrap();
        drop(wal);
        let good = std::fs::read(&path).unwrap();

        // A frame header declaring a gigantic payload is a torn tail: the
        // declared bytes are not there, so replay stops cleanly.
        let mut huge = good[..12].to_vec();
        huge.push(1); // TAG_RECORD
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0xab; 64]);
        std::fs::write(&path, &huge).unwrap();
        assert_eq!(replay(&path).unwrap(), vec![]);
        // And re-opening for append truncates it back to the header.
        let mut wal = Wal::open(&path, scan_file(&path).unwrap().valid_len).unwrap();
        wal.append_source(0, &src).unwrap();
        assert_eq!(replay(&path).unwrap().len(), 1);

        // A complete frame with an unknown tag is typed corruption.
        let mut payload_frame = good[..12].to_vec();
        payload_frame.extend(framed::encode(9, &0u64.to_le_bytes(), b"junk").unwrap());
        std::fs::write(&path, &payload_frame).unwrap();
        assert!(matches!(replay(&path), Err(StoreError::Corrupt(_))));

        // Truncations at every byte boundary of a real log: each must
        // yield Ok (torn tail) or a typed error, never a panic.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            match replay(&path) {
                Ok(entries) => assert!(entries.len() <= 2),
                Err(
                    StoreError::BadMagic
                    | StoreError::Corrupt(_)
                    | StoreError::ChecksumMismatch { .. },
                ) => {}
                Err(e) => panic!("cut {cut}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let dir = ScratchDir::new("wal-magic");
        let path = dir.join("log.wal");
        std::fs::write(&path, b"NOTAWAL\0rest").unwrap();
        assert!(matches!(replay(&path), Err(StoreError::BadMagic)));
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            replay(&path),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        // Version 1 logs (no seq field) and version 2 logs (no matches
        // frames) are explicitly unsupported.
        for old in [1, 2] {
            std::fs::write(&path, framed::header(MAGIC, old)).unwrap();
            assert!(matches!(
                replay(&path),
                Err(StoreError::UnsupportedVersion { found, supported: 3 }) if found == old
            ));
        }
    }
}
