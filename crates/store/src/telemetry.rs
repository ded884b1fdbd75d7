//! On-disk telemetry history — one compact frame per closed window bucket.
//!
//! `yv serve --telemetry-dir DIR` appends every non-empty bucket closed by
//! the windowed rollups ([`yv_obs::WindowedHistogram`]) to
//! `DIR/telemetry.yvt`, so `HISTORY` survives a restart: on startup the
//! log is replayed into the in-memory rings before the server listens.
//!
//! The file shares the WAL's byte layer ([`crate::framed`]: header,
//! frames with no `extra`, one append handle, one scan) but is
//! deliberately *fsync-light*: telemetry is best-effort history, not
//! durability-critical state, so frames are written without a per-frame
//! `sync_data` and the file is only synced when a segment rotates.
//!
//! Layout:
//!
//! ```text
//! 8 bytes   magic  "YVTELEM1"
//! u32       format version (currently 1)
//! frames:
//!   u8      frame tag (1 = closed bucket)
//!   u32     payload length
//!   bytes   payload:
//!             str   metric (command kind, e.g. "query" — never a name)
//!             u8    tier code (0 = seconds, 1 = minutes)
//!             u64   bucket epoch
//!             u8    non-empty bucket count N, then N × (u8 index, u64 count)
//!             u64   sum_ns, u64 max_ns, u64 min_ns
//!   u64     FNV-1a 64 checksum of tag + payload
//! ```
//!
//! A truncated final frame (crash or power loss mid-append) is a clean
//! stop on replay; a complete frame failing its checksum is typed
//! corruption. When the active segment grows past the size cap it is
//! renamed to `telemetry.old.yvt` (replacing any previous generation) and
//! a fresh segment is started — replay reads the old generation first, so
//! at most `2 × cap` bytes of history are ever kept.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{Reader, Writer};
use crate::error::StoreError;
use crate::framed::{self, LogFile};
use std::path::{Path, PathBuf};
use yv_obs::{ClosedBucket, HistogramSnapshot, Tier, BUCKET_COUNT};

/// File magic: identifies a yv-store telemetry history segment.
pub const MAGIC: [u8; 8] = *b"YVTELEM1";
/// Telemetry format version this build reads and writes.
pub const VERSION: u32 = 1;
/// Default per-segment size cap (two segments are kept).
pub const DEFAULT_CAP_BYTES: u64 = 4 * 1024 * 1024;

/// Active segment file name inside `--telemetry-dir`.
pub const SEGMENT: &str = "telemetry.yvt";
/// Rotated previous generation.
pub const OLD_SEGMENT: &str = "telemetry.old.yvt";

const TAG_BUCKET: u8 = 1;

/// Append handle over the active telemetry segment.
#[derive(Debug)]
pub struct TelemetryLog {
    path: PathBuf,
    old_path: PathBuf,
    log: LogFile,
    cap: u64,
    rotations: u64,
    frames: u64,
}

impl TelemetryLog {
    /// Open (or create) the active segment in `dir` for appending,
    /// positioned after the last complete frame.
    pub fn open(dir: &Path, cap: u64) -> Result<TelemetryLog, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(SEGMENT);
        let old_path = dir.join(OLD_SEGMENT);
        let log = if path.exists() {
            LogFile::open(&path, scan(&std::fs::read(&path)?)?.1)?
        } else {
            LogFile::create(&path, MAGIC, VERSION)?
        };
        let cap = cap.max(framed::HEADER_LEN as u64 + 64);
        Ok(TelemetryLog { path, old_path, log, cap, rotations: 0, frames: 0 })
    }

    /// Bytes in the active segment (header plus complete frames).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.log.bytes()
    }

    /// Segment rotations performed by this handle.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Frames appended by this handle.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Append one closed bucket for `metric`. Empty buckets are skipped
    /// (the rings never emit them, but the log enforces it too).
    pub fn append(&mut self, metric: &str, bucket: &ClosedBucket) -> Result<(), StoreError> {
        if bucket.delta.count() == 0 {
            return Ok(());
        }
        let frame = framed::encode(TAG_BUCKET, &[], &encode_bucket(metric, bucket)?)?;
        self.log.append(&frame, false)?;
        self.frames += 1;
        if self.log.bytes() > self.cap {
            self.rotate()?;
        }
        Ok(())
    }

    /// Retire the full active segment to `telemetry.old.yvt` and start a
    /// fresh one. The only fsync point in the log's life.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.log.sync()?;
        std::fs::rename(&self.path, &self.old_path)?;
        self.log = LogFile::create(&self.path, MAGIC, VERSION)?;
        self.rotations += 1;
        Ok(())
    }
}

fn encode_bucket(metric: &str, bucket: &ClosedBucket) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.str(metric)?;
    w.u8(bucket.tier.code());
    w.u64(bucket.epoch);
    let nonzero: Vec<(usize, u64)> = bucket
        .delta
        .counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    let small = |len: usize| {
        u8::try_from(len).map_err(|_| StoreError::LimitExceeded { what: "telemetry bucket", len })
    };
    w.u8(small(nonzero.len())?);
    for (i, n) in nonzero {
        w.u8(small(i)?);
        w.u64(n);
    }
    w.u64(bucket.delta.sum_ns);
    w.u64(bucket.delta.max_ns);
    w.u64(bucket.delta.min_ns);
    Ok(w.into_bytes())
}

fn decode_bucket(payload: &[u8]) -> Result<(String, ClosedBucket), StoreError> {
    let mut r = Reader::new(payload);
    let metric = r.str("telemetry metric")?;
    let tier_code = r.u8("telemetry tier")?;
    let tier = Tier::from_code(tier_code)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown telemetry tier code {tier_code}")))?;
    let epoch = r.u64("telemetry epoch")?;
    let n = r.u8("telemetry bucket count")? as usize;
    let mut delta = HistogramSnapshot::default();
    for _ in 0..n {
        let idx = r.u8("telemetry bucket index")? as usize;
        if idx >= BUCKET_COUNT {
            return Err(StoreError::Corrupt(format!("telemetry bucket index {idx} out of range")));
        }
        delta.counts[idx] = r.u64("telemetry bucket value")?;
    }
    delta.sum_ns = r.u64("telemetry sum_ns")?;
    delta.max_ns = r.u64("telemetry max_ns")?;
    delta.min_ns = r.u64("telemetry min_ns")?;
    r.finish("telemetry frame")?;
    Ok((metric, ClosedBucket { tier, epoch, delta }))
}

/// One segment's buckets in file order, and its valid prefix length.
fn scan(bytes: &[u8]) -> Result<(Vec<(String, ClosedBucket)>, usize), StoreError> {
    framed::scan(bytes, MAGIC, VERSION, |tag, [], payload| match tag {
        TAG_BUCKET => decode_bucket(payload),
        t => Err(StoreError::Corrupt(format!("unknown telemetry frame tag {t}"))),
    })
}

/// Replay both generations (old first) into `(metric, bucket)` pairs in
/// append order. Missing files are simply empty history.
pub fn replay(dir: &Path) -> Result<Vec<(String, ClosedBucket)>, StoreError> {
    let mut out = Vec::new();
    for name in [OLD_SEGMENT, SEGMENT] {
        let path = dir.join(name);
        if path.exists() {
            out.extend(scan(&std::fs::read(&path)?)?.0);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::scratch::ScratchDir;
    use std::sync::Arc;
    use yv_obs::{Histogram, ManualClock, WindowedHistogram};

    fn sample_bucket(epoch: u64, micros: &[u64]) -> ClosedBucket {
        let h = Histogram::new();
        for &us in micros {
            h.record_ns(us * 1_000);
        }
        ClosedBucket { tier: Tier::Seconds, epoch, delta: h.snapshot() }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = ScratchDir::new("telemetry-roundtrip");
        let b1 = sample_bucket(3, &[10, 20, 4000]);
        let b2 = sample_bucket(4, &[7]);
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b1).unwrap();
        log.append("resolve", &b2).unwrap();
        assert_eq!(log.frames(), 2);
        drop(log);
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed, vec![("query".into(), b1), ("resolve".into(), b2)]);
    }

    #[test]
    fn empty_buckets_are_never_written() {
        let dir = ScratchDir::new("telemetry-empty");
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        let empty = ClosedBucket { tier: Tier::Minutes, epoch: 9, delta: HistogramSnapshot::default() };
        log.append("query", &empty).unwrap();
        assert_eq!(log.frames(), 0);
        assert_eq!(log.bytes(), framed::HEADER_LEN as u64);
        assert_eq!(replay(&dir).unwrap(), vec![]);
    }

    #[test]
    fn size_cap_rotates_to_one_old_generation() {
        let dir = ScratchDir::new("telemetry-rotate");
        // A cap just above the floor forces a rotation every few frames.
        let mut log = TelemetryLog::open(&dir, 1).unwrap();
        for epoch in 0..64 {
            log.append("query", &sample_bucket(epoch, &[5, 50, 500])).unwrap();
        }
        assert!(log.rotations() > 0, "cap must force segment rotation");
        assert!(dir.join(OLD_SEGMENT).exists());
        // Replay sees the retained suffix, in order, ending at the newest
        // epoch — older epochs were aged out with their segments.
        let replayed = replay(&dir).unwrap();
        assert!(!replayed.is_empty());
        let epochs: Vec<u64> = replayed.iter().map(|(_, b)| b.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted, "replay preserves append order");
        assert_eq!(*epochs.last().unwrap(), 63);
    }

    #[test]
    fn torn_tail_is_a_clean_stop_and_reopen_truncates() {
        let dir = ScratchDir::new("telemetry-torn");
        let b1 = sample_bucket(1, &[10]);
        let b2 = sample_bucket(2, &[20]);
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b1).unwrap();
        log.append("query", &b2).unwrap();
        drop(log);
        let path = dir.join(SEGMENT);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(replay(&dir).unwrap(), vec![("query".into(), b1)]);
        // Re-opening truncates the torn tail and appends cleanly after it.
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &b2).unwrap();
        drop(log);
        assert_eq!(replay(&dir).unwrap().len(), 2);
    }

    #[test]
    fn bitflip_is_a_typed_checksum_error() {
        let dir = ScratchDir::new("telemetry-bitflip");
        let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
        log.append("query", &sample_bucket(1, &[10, 20])).unwrap();
        drop(log);
        let path = dir.join(SEGMENT);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&dir), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn replayed_buckets_restore_a_windowed_histogram() {
        let dir = ScratchDir::new("telemetry-restore");
        let clock = Arc::new(ManualClock::at(0));
        let w = WindowedHistogram::new(Arc::new(Histogram::new()), clock.clone());
        w.source().record_ns(40_000);
        w.source().record_ns(80_000);
        clock.advance(1_000_000_000);
        for b in w.rotate() {
            let mut log = TelemetryLog::open(&dir, DEFAULT_CAP_BYTES).unwrap();
            log.append("query", &b).unwrap();
        }
        // A fresh process: new windows, same clock origin, replayed log.
        let clock2 = Arc::new(ManualClock::at(1_000_000_000));
        let w2 = WindowedHistogram::new(Arc::new(Histogram::new()), clock2);
        for (metric, bucket) in replay(&dir).unwrap() {
            assert_eq!(metric, "query");
            w2.restore(bucket);
        }
        let before = w.window(yv_obs::Tier::Seconds, 60);
        let after = w2.window(yv_obs::Tier::Seconds, 60);
        assert_eq!(before.merged, after.merged);
        assert_eq!(before.buckets, after.buckets);
    }
}
