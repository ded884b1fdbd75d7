//! On-disk telemetry history — one compact frame per closed window bucket.
//!
//! `yv serve --telemetry-dir DIR` appends every non-empty bucket closed by
//! the windowed rollups ([`yv_obs::WindowedHistogram`]) to
//! `DIR/telemetry.yvt`, so `HISTORY` survives a restart: on startup the
//! log is replayed into the in-memory rings before the server listens.
//!
//! The file reuses the WAL codec discipline (see [`crate::wal`]) but is
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

use crate::codec::{self, Reader, Writer};
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
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
const HEADER_LEN: u64 = 12;

/// Append handle over the active telemetry segment.
#[derive(Debug)]
pub struct TelemetryLog {
    path: PathBuf,
    old_path: PathBuf,
    file: File,
    bytes: u64,
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
        let (file, bytes) = if path.exists() {
            let bytes = std::fs::read(&path)?;
            let valid = scan(&bytes)?.valid_len;
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(valid as u64)?;
            let mut file = file;
            use std::io::Seek as _;
            file.seek(std::io::SeekFrom::End(0))?;
            (file, valid as u64)
        } else {
            (fresh_segment(&path)?, HEADER_LEN)
        };
        Ok(TelemetryLog { path, old_path, file, bytes, cap: cap.max(HEADER_LEN + 64), rotations: 0, frames: 0 })
    }

    /// Bytes in the active segment (header plus complete frames).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
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
        let payload = encode_bucket(metric, bucket)?;
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::LimitExceeded {
            what: "telemetry frame payload",
            len: payload.len(),
        })?;
        let mut frame = Vec::with_capacity(payload.len() + 13);
        frame.push(TAG_BUCKET);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&payload);
        // The checksum covers the tag and the payload.
        let checksum = codec::fnv1a64_parts(&[&[TAG_BUCKET], &payload]);
        frame.extend_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.frames += 1;
        if self.bytes > self.cap {
            self.rotate()?;
        }
        Ok(())
    }

    /// Retire the full active segment to `telemetry.old.yvt` and start a
    /// fresh one. The only fsync point in the log's life.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        std::fs::rename(&self.path, &self.old_path)?;
        self.file = fresh_segment(&self.path)?;
        self.bytes = HEADER_LEN;
        self.rotations += 1;
        Ok(())
    }
}

fn fresh_segment(path: &Path) -> Result<File, StoreError> {
    let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
    file.write_all(&MAGIC)?;
    file.write_all(&VERSION.to_le_bytes())?;
    file.sync_all()?;
    Ok(file)
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
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes in telemetry frame",
            r.remaining()
        )));
    }
    Ok((metric, ClosedBucket { tier, epoch, delta }))
}

/// Result of scanning one segment: decoded frames in file order plus the
/// byte length of the valid prefix (a torn tail is a clean stop).
#[derive(Debug)]
struct Scan {
    frames: Vec<(String, ClosedBucket)>,
    valid_len: usize,
}

fn scan(bytes: &[u8]) -> Result<Scan, StoreError> {
    if bytes.len() < 12 || bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(
        bytes[8..12].try_into().map_err(|_| StoreError::Corrupt("truncated version".into()))?,
    );
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let mut frames = Vec::new();
    let mut pos = 12;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 5 {
            break; // end of file, or a torn frame header
        }
        let tag = rest[0];
        let len = u32::from_le_bytes(
            rest[1..5].try_into().map_err(|_| StoreError::Corrupt("truncated frame length".into()))?,
        ) as usize;
        let Some(frame_rest) = rest.get(5..5 + len + 8) else {
            break; // torn tail: payload or checksum incomplete
        };
        let payload = &frame_rest[..len];
        let expected = u64::from_le_bytes(
            frame_rest[len..]
                .try_into()
                .map_err(|_| StoreError::Corrupt("truncated frame checksum".into()))?,
        );
        let actual = codec::fnv1a64_parts(&[&[tag], payload]);
        if expected != actual {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        if tag != TAG_BUCKET {
            return Err(StoreError::Corrupt(format!("unknown telemetry frame tag {tag}")));
        }
        frames.push(decode_bucket(payload)?);
        pos += 5 + len + 8;
    }
    Ok(Scan { frames, valid_len: pos })
}

/// Replay both generations (old first) into `(metric, bucket)` pairs in
/// append order. Missing files are simply empty history.
pub fn replay(dir: &Path) -> Result<Vec<(String, ClosedBucket)>, StoreError> {
    let mut out = Vec::new();
    for name in [OLD_SEGMENT, SEGMENT] {
        let path = dir.join(name);
        if !path.exists() {
            continue;
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        out.extend(scan(&bytes)?.frames);
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
        assert_eq!(log.bytes(), HEADER_LEN);
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
