//! Versioned on-disk snapshot of the full serving state: one file,
//! `snapshot.yvs`, written by one atomic rename.
//!
//! The file opens with the [`crate::framed`] file header; what follows it
//! is one length-prefixed, checksummed payload (not a log of frames).
//! Layout, all integers little-endian:
//!
//! ```text
//! 8 bytes   magic  "YVSTORE\0"
//! u32       format version (currently 3)
//! u64       payload length in bytes
//! payload   u64 folded_seq ‖ state_bytes(resolver)
//! u64       FNV-1a 64 checksum of the payload
//! ```
//!
//! [`state_bytes`] is sources, record count, ranked matches, ADT model
//! text, pipeline + incremental configuration, then every record behind
//! its u32 record id, ids 0..n in order — so the file on disk and the
//! canonical identity encoding are one encoder, and one decoder reads
//! them back: the payload's head, then its records a chunk at a time.
//! [`from_bytes`] files each chunk as it comes; `Store::open` on a large
//! snapshot streams the chunks to a second thread that files them.
//!
//! `folded_seq` is the first arrival sequence number the snapshot does
//! *not* hold: `open` skips WAL frames below it (a crash between
//! `SNAPSHOT`'s rename and its WAL truncation leaves them behind) and
//! replays the rest.
//!
//! The encoding is deterministic (floats as IEEE bits, insertion-ordered
//! collections), so re-snapshotting a loaded store reproduces the file
//! byte for byte — and [`state_bytes`] exposes the same determinism as a
//! single canonical byte string, which is how the shard-identity tests
//! compare an N-shard store against a 1-shard control.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{self, Reader, Writer};
use crate::error::StoreError;
use crate::framed;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use yv_adt::AdTree;
use yv_blocking::{MfiBlocksConfig, ScoreFunction};
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, RankedMatch};
use yv_records::{Dataset, Record, RecordId, Source};

/// File magic: identifies a yv-store snapshot.
pub const MAGIC: [u8; 8] = *b"YVSTORE\0";
/// The snapshot format version this build reads and writes. Earlier
/// versions — 2 is a base file plus per-shard segment files — are
/// refused, not migrated.
pub const VERSION: u32 = 3;

/// A decoded snapshot: the resolver it holds and the first arrival
/// sequence number not folded into it.
#[derive(Debug)]
pub struct Snapshot {
    pub folded_seq: u64,
    pub resolver: IncrementalResolver,
}

/// Serialize the resolver, folded up to (not including) arrival
/// `folded_seq`, to snapshot-file bytes.
pub fn to_bytes(resolver: &IncrementalResolver, folded_seq: u64) -> Result<Vec<u8>, StoreError> {
    let mut p = Writer::new();
    p.u64(folded_seq);
    write_state(&mut p, resolver)?;
    let payload = p.into_bytes();
    let header = framed::header(MAGIC, VERSION);
    let len = (payload.len() as u64).to_le_bytes();
    Ok([&header[..], &len, &payload, &codec::fnv1a64(&payload).to_le_bytes()].concat())
}

/// One canonical byte string covering the resolver's *entire* state:
/// two stores hold identical logical state exactly when their
/// `state_bytes` agree — regardless of how many shards each logged its
/// arrivals to. The snapshot payload is this behind `folded_seq`.
pub fn state_bytes(resolver: &IncrementalResolver) -> Result<Vec<u8>, StoreError> {
    let mut p = Writer::new();
    write_state(&mut p, resolver)?;
    Ok(p.into_bytes())
}

fn write_state(p: &mut Writer, resolver: &IncrementalResolver) -> Result<(), StoreError> {
    let ds = resolver.dataset();
    let sources = ds.sources();
    p.len(sources.len(), "source count")?;
    for s in sources {
        codec::write_source(p, s)?;
    }
    p.len(ds.len(), "record count")?;
    let matches = resolver.matches();
    p.len(matches.len(), "match count")?;
    for m in matches {
        p.u32(m.a.0);
        p.u32(m.b.0);
        p.f64(m.score);
    }
    p.str(&yv_adt::to_text(&resolver.pipeline().model))?;
    write_pipeline_config(p, resolver.config());
    let inc = resolver.inc_config();
    p.u64(inc.min_shared_items as u64);
    p.f64(inc.common_fraction);
    for rid in ds.record_ids() {
        p.u32(rid.0);
        codec::write_record(p, ds.record(rid))?;
    }
    Ok(())
}

/// Deserialize snapshot-file bytes. Rejects bad magic, unsupported
/// versions, checksum mismatches, matches referencing records beyond the
/// declared count, record ids out of order and records of unknown
/// sources, all with typed errors.
pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let framed = Framed::parse(bytes)?;
    let payload = framed.payload;
    framed.verify()?;
    let (mut head, mut records) = decode_head(payload)?;
    let mut ds = Dataset::new();
    for source in std::mem::take(&mut head.sources) {
        ds.add_source(source);
    }
    while let Some(chunk) = records.next_chunk()? {
        for record in chunk {
            ds.add_record(record);
        }
    }
    Ok(Snapshot { folded_seq: head.folded_seq, resolver: head.resolver(ds) })
}

/// A snapshot file split at its frame: the payload, and the checksum and
/// end that [`Framed::verify`] holds it to. Only the header and the
/// lengths are read to split it, so the payload can be decoded while its
/// checksum is taken.
pub(crate) struct Framed<'a> {
    pub(crate) payload: &'a [u8],
    expected: u64,
    /// The bytes after the checksum: none, in a well-formed file.
    rest: Reader<'a>,
}

impl<'a> Framed<'a> {
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Framed<'a>, StoreError> {
        let mut r = Reader::new(framed::check_header(bytes, MAGIC, VERSION)?);
        let payload_len = usize::try_from(r.u64("payload length")?).map_err(|_| {
            StoreError::Corrupt("declared payload length overflows usize".to_owned())
        })?;
        let payload = r.take(payload_len, "payload")?;
        let expected = r.u64("checksum")?;
        Ok(Framed { payload, expected, rest: r })
    }

    /// The payload hashes to its checksum and nothing follows it.
    pub(crate) fn verify(self) -> Result<(), StoreError> {
        let actual = codec::fnv1a64(self.payload);
        if self.expected != actual {
            return Err(StoreError::ChecksumMismatch { expected: self.expected, actual });
        }
        self.rest.finish("snapshot checksum")
    }
}

/// Everything a snapshot payload holds before its records.
pub(crate) struct Head {
    pub(crate) folded_seq: u64,
    pub(crate) sources: Vec<Source>,
    matches: Vec<RankedMatch>,
    model: AdTree,
    config: PipelineConfig,
    inc: IncrementalConfig,
}

impl Head {
    /// The resolver the snapshot holds, over `ds`: its sources and
    /// records, added in payload order.
    pub(crate) fn resolver(self, ds: Dataset) -> IncrementalResolver {
        let pipeline = Pipeline::with_model(self.model);
        IncrementalResolver::from_parts(ds, pipeline, self.config, self.inc, self.matches)
    }
}

/// Records decoded in one chunk: enough that handing a chunk from one
/// thread to another costs nothing next to decoding it.
const RECORD_CHUNK: u32 = 256;

/// A payload's records, in id order, behind its [`Head`].
pub(crate) struct Records<'a> {
    p: Reader<'a>,
    sources: usize,
    next: u32,
    count: u32,
}

impl Records<'_> {
    /// The next records, at most [`RECORD_CHUNK`] of them; `None` once
    /// every record is read and nothing trails them.
    pub(crate) fn next_chunk(&mut self) -> Result<Option<Vec<Record>>, StoreError> {
        if self.next == self.count {
            std::mem::replace(&mut self.p, Reader::new(&[])).finish("snapshot")?;
            return Ok(None);
        }
        let end = self.count.min(self.next.saturating_add(RECORD_CHUNK));
        let mut chunk = Vec::with_capacity((end - self.next) as usize);
        for expected in self.next..end {
            let rid = self.p.u32("record id")?;
            if rid != expected {
                return Err(StoreError::Corrupt(format!(
                    "snapshot record id {rid} out of order; expected {expected}"
                )));
            }
            let record = codec::read_record(&mut self.p)?;
            if record.source.index() >= self.sources {
                return Err(StoreError::Corrupt(format!(
                    "record {} references unknown source {}",
                    record.book_id, record.source.0
                )));
            }
            chunk.push(record);
        }
        self.next = end;
        Ok(Some(chunk))
    }
}

/// Decode a payload up to its records, which the returned [`Records`]
/// then reads.
pub(crate) fn decode_head(payload: &[u8]) -> Result<(Head, Records<'_>), StoreError> {
    let mut p = Reader::new(payload);
    let folded_seq = p.u64("folded seq")?;
    let n_sources = p.u32("source count")?;
    let mut sources = Vec::new();
    for _ in 0..n_sources {
        sources.push(codec::read_source(&mut p)?);
    }
    let n_records = p.u32("record count")?;
    let n_matches = p.u32("match count")?;
    let mut matches = Vec::with_capacity((n_matches as usize).min(p.remaining()));
    for _ in 0..n_matches {
        let a = RecordId(p.u32("match a")?);
        let b = RecordId(p.u32("match b")?);
        let score = p.f64("match score")?;
        if a.0 >= n_records || b.0 >= n_records {
            return Err(StoreError::Corrupt(format!(
                "match ({}, {}) references records beyond the dataset",
                a.0, b.0
            )));
        }
        matches.push(RankedMatch { a, b, score });
    }
    let model = yv_adt::from_text(&p.str("model text")?)?;
    let config = read_pipeline_config(&mut p)?;
    let inc = IncrementalConfig {
        min_shared_items: usize::try_from(p.u64("min shared items")?)
            .map_err(|_| StoreError::Corrupt("min_shared_items overflows usize".into()))?,
        common_fraction: p.f64("common fraction")?,
    };
    let records = Records { p, sources: sources.len(), next: 0, count: n_records };
    Ok((Head { folded_seq, sources, matches, model, config, inc }, records))
}

fn write_pipeline_config(w: &mut Writer, c: &PipelineConfig) {
    let b = &c.blocking;
    w.u64(b.max_minsup);
    w.f64(b.ng);
    w.f64(b.p);
    match &b.score {
        ScoreFunction::Jaccard => w.u8(0),
        ScoreFunction::WeightedJaccard(weights) => {
            w.u8(1);
            codec::write_expert_weights(w, weights);
        }
        ScoreFunction::ExpertSim => w.u8(2),
    }
    w.opt(b.prune_frequent, Writer::f64);
    w.opt(b.prune_common, Writer::f64);
    // A retired block-scoring thread count: the knob is gone (every
    // store wrote 1), the slot stays so `state_bytes` does not move.
    w.u64(1);
    w.u8(u8::from(c.same_src_discard));
    w.u8(u8::from(c.classify));
    w.u64(c.train.rounds as u64);
    w.u64(c.train.max_thresholds as u64);
    w.f64(c.train.epsilon);
}

fn read_pipeline_config(r: &mut Reader<'_>) -> Result<PipelineConfig, StoreError> {
    let max_minsup = r.u64("max minsup")?;
    let ng = r.f64("ng")?;
    let p = r.f64("p")?;
    let score = match r.u8("score function tag")? {
        0 => ScoreFunction::Jaccard,
        1 => ScoreFunction::WeightedJaccard(codec::read_expert_weights(r)?),
        2 => ScoreFunction::ExpertSim,
        t => return Err(StoreError::Corrupt(format!("unknown score function tag {t}"))),
    };
    let prune_frequent = r.opt("prune frequent", Reader::f64)?;
    let prune_common = r.opt("prune common", Reader::f64)?;
    r.u64("retired scoring-threads slot")?;
    let same_src_discard = r.bool("same src discard")?;
    let classify = r.bool("classify")?;
    let rounds = usize::try_from(r.u64("train rounds")?)
        .map_err(|_| StoreError::Corrupt("rounds overflows usize".into()))?;
    let max_thresholds = usize::try_from(r.u64("max thresholds")?)
        .map_err(|_| StoreError::Corrupt("max_thresholds overflows usize".into()))?;
    let epsilon = r.f64("epsilon")?;
    Ok(PipelineConfig {
        blocking: MfiBlocksConfig {
            max_minsup,
            ng,
            p,
            score,
            prune_frequent,
            prune_common,
        },
        same_src_discard,
        classify,
        train: yv_adt::TrainConfig { rounds, max_thresholds, epsilon },
    })
}

/// Write bytes atomically and durably: to a sibling temp file, synced,
/// then renamed over the target, then the directory synced — so a crash
/// leaves the old file or the new one, never a torn one, and once this
/// returns the new one survives a power loss.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Load and decode a snapshot file.
pub fn read_file(path: &Path) -> Result<Snapshot, StoreError> {
    from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_declared_length_near_usize_max_is_corrupt_not_an_overflow() {
        for len in [u64::MAX, u64::MAX - 7] {
            let mut bytes = framed::header(MAGIC, VERSION).to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&[0; 16]);
            assert!(matches!(from_bytes(&bytes), Err(StoreError::Corrupt(_))), "{len}");
        }
    }

    #[test]
    fn a_file_shorter_than_its_header_is_bad_magic() {
        let header = framed::header(MAGIC, VERSION);
        for cut in 0..header.len() {
            assert!(matches!(from_bytes(&header[..cut]), Err(StoreError::BadMagic)), "{cut}");
        }
    }
}
