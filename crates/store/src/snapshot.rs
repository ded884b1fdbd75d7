//! Versioned on-disk snapshot of the full serving state, split for the
//! sharded store: one *base* file holding everything shard-independent
//! (sources, ranked matches, trained ADT model, pipeline configuration,
//! and the record count), plus one *segment* file per shard holding that
//! shard's records with their global record ids.
//!
//! Both files open with the [`crate::framed`] file header; what follows it
//! is one length-prefixed, checksummed payload (not a log of frames).
//!
//! Base file (`snapshot.yvs`) layout, all integers little-endian:
//!
//! ```text
//! 8 bytes   magic  "YVSTORE\0"
//! u32       format version (currently 2)
//! u64       payload length in bytes
//! payload   sources, record count, ranked matches, ADT model text,
//!           pipeline + incremental configuration
//! u64       FNV-1a 64 checksum of the payload
//! ```
//!
//! Segment file (`snapshot.<shard>.yvs`) layout:
//!
//! ```text
//! 8 bytes   magic  "YVSTSEG\0"
//! u32       format version (currently 2)
//! u64       payload length in bytes
//! payload   u32 shard index, u32 entry count, then per entry:
//!           u32 record id + codec-encoded record
//! u64       FNV-1a 64 checksum of the payload
//! ```
//!
//! The encoding is deterministic (floats as IEEE bits, insertion-ordered
//! collections), so re-snapshotting a loaded store reproduces every file
//! byte for byte — and [`state_bytes`] exposes the same determinism as a
//! single canonical byte string covering the *whole* store state, which
//! is how the shard-identity tests compare an N-shard store against a
//! 1-shard control without caring how the records were partitioned.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{self, Reader, Writer};
use crate::error::StoreError;
use crate::framed;
use std::path::Path;
use yv_blocking::{MfiBlocksConfig, ScoreFunction};
use yv_core::{IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig, RankedMatch};
use yv_records::{Record, RecordId, Source};

/// File magic: identifies a yv-store base snapshot.
pub const MAGIC: [u8; 8] = *b"YVSTORE\0";
/// File magic: identifies a per-shard snapshot segment.
pub const SEGMENT_MAGIC: [u8; 8] = *b"YVSTSEG\0";
/// The snapshot format version this build reads and writes. Version 1
/// was a single monolithic file with the records inline.
pub const VERSION: u32 = 2;

/// The shard-independent half of a snapshot, as read back from the base
/// file. Records live in the per-shard segments; `n_records` is recorded
/// here so reassembly can verify the segments cover the dataset exactly.
#[derive(Debug)]
pub struct BaseSnapshot {
    pub sources: Vec<Source>,
    pub n_records: usize,
    pub matches: Vec<RankedMatch>,
    pub pipeline: Pipeline,
    pub config: PipelineConfig,
    pub inc: IncrementalConfig,
}

/// Serialize the shard-independent state to base-file bytes.
pub fn base_to_bytes(resolver: &IncrementalResolver) -> Result<Vec<u8>, StoreError> {
    let mut p = Writer::new();
    write_base_payload(&mut p, resolver)?;
    Ok(frame(MAGIC, &p.into_bytes()))
}

fn write_base_payload(p: &mut Writer, resolver: &IncrementalResolver) -> Result<(), StoreError> {
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
    Ok(())
}

/// Serialize one shard's records (with their global record ids) to
/// segment-file bytes. Entries must already be in ascending-rid order —
/// that is the order the store iterates them in, and keeping the file in
/// that order makes re-snapshotting byte-stable.
pub fn segment_to_bytes(
    shard: usize,
    entries: &[(RecordId, &Record)],
) -> Result<Vec<u8>, StoreError> {
    let mut p = Writer::new();
    p.len(shard, "shard index")?;
    p.len(entries.len(), "segment entry count")?;
    for (rid, record) in entries {
        p.u32(rid.0);
        codec::write_record(&mut p, record)?;
    }
    Ok(frame(SEGMENT_MAGIC, &p.into_bytes()))
}

/// Wrap a payload in the header/length/checksum frame shared by the base
/// and segment formats.
fn frame(magic: [u8; 8], payload: &[u8]) -> Vec<u8> {
    let header = framed::header(magic, VERSION);
    let len = (payload.len() as u64).to_le_bytes();
    [&header[..], &len, payload, &codec::fnv1a64(payload).to_le_bytes()].concat()
}

/// Unwrap the header/length/checksum frame, returning the payload.
fn unframe(bytes: &[u8], magic: [u8; 8]) -> Result<&[u8], StoreError> {
    let mut r = Reader::new(framed::check_header(bytes, magic, VERSION)?);
    let payload_len = usize::try_from(r.u64("payload length")?)
        .map_err(|_| StoreError::Corrupt("declared payload length overflows usize".to_owned()))?;
    let payload = r.take(payload_len, "payload")?;
    let expected = r.u64("checksum")?;
    let actual = codec::fnv1a64(payload);
    if expected != actual {
        return Err(StoreError::ChecksumMismatch { expected, actual });
    }
    r.finish("snapshot checksum")?;
    Ok(payload)
}

/// Deserialize base-file bytes. Rejects bad magic, unsupported versions,
/// checksum mismatches and matches referencing records beyond the
/// declared count, all with typed errors.
pub fn base_from_bytes(bytes: &[u8]) -> Result<BaseSnapshot, StoreError> {
    let payload = unframe(bytes, MAGIC)?;
    let mut p = Reader::new(payload);
    let n_sources = p.u32("source count")?;
    let mut sources = Vec::with_capacity((n_sources as usize).min(p.remaining()));
    for _ in 0..n_sources {
        sources.push(codec::read_source(&mut p)?);
    }
    let n_records = p.u32("record count")? as usize;
    let n_matches = p.u32("match count")?;
    let mut matches = Vec::with_capacity((n_matches as usize).min(p.remaining()));
    for _ in 0..n_matches {
        let a = RecordId(p.u32("match a")?);
        let b = RecordId(p.u32("match b")?);
        let score = p.f64("match score")?;
        if a.index() >= n_records || b.index() >= n_records {
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
    p.finish("base snapshot")?;
    Ok(BaseSnapshot {
        sources,
        n_records,
        matches,
        pipeline: Pipeline::with_model(model),
        config,
        inc,
    })
}

/// Deserialize segment-file bytes into the shard index it claims and its
/// `(rid, record)` entries, in file order.
pub fn segment_from_bytes(
    bytes: &[u8],
) -> Result<(usize, Vec<(RecordId, Record)>), StoreError> {
    let payload = unframe(bytes, SEGMENT_MAGIC)?;
    let mut p = Reader::new(payload);
    let shard = p.u32("shard index")? as usize;
    let count = p.u32("segment entry count")?;
    let mut entries = Vec::with_capacity((count as usize).min(p.remaining()));
    for _ in 0..count {
        let rid = RecordId(p.u32("record id")?);
        let record = codec::read_record(&mut p)?;
        entries.push((rid, record));
    }
    p.finish("snapshot segment")?;
    Ok((shard, entries))
}

/// One canonical byte string covering the resolver's *entire* state:
/// the base payload plus every record in ascending-rid order. Two stores
/// hold identical logical state exactly when their `state_bytes` agree —
/// regardless of how many shards each scattered its records across. This
/// is the comparison the shard-identity property test and the ci smoke
/// test are built on.
pub fn state_bytes(resolver: &IncrementalResolver) -> Result<Vec<u8>, StoreError> {
    let mut p = Writer::new();
    write_base_payload(&mut p, resolver)?;
    let ds = resolver.dataset();
    for rid in ds.record_ids() {
        p.u32(rid.0);
        codec::write_record(&mut p, ds.record(rid))?;
    }
    Ok(p.into_bytes())
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
    // Format v2 carries a block-scoring thread count here; the knob is
    // gone (every store wrote 1), the slot stays so the bytes do not move.
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

/// Write bytes atomically: to a sibling temp file, then rename over the
/// target, so a crash mid-write never leaves a torn file behind.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load and parse a base snapshot file.
pub fn read_base_file(path: &Path) -> Result<BaseSnapshot, StoreError> {
    let bytes = std::fs::read(path)?;
    base_from_bytes(&bytes)
}

/// Load and parse a segment file.
pub fn read_segment_file(path: &Path) -> Result<(usize, Vec<(RecordId, Record)>), StoreError> {
    let bytes = std::fs::read(path)?;
    segment_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_declared_length_near_usize_max_is_corrupt_not_an_overflow() {
        for len in [u64::MAX, u64::MAX - 7] {
            let mut bytes = framed::header(SEGMENT_MAGIC, VERSION).to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&[0; 16]);
            assert!(matches!(segment_from_bytes(&bytes), Err(StoreError::Corrupt(_))), "{len}");
        }
    }

    #[test]
    fn a_file_shorter_than_its_header_is_bad_magic() {
        let header = framed::header(MAGIC, VERSION);
        for cut in 0..header.len() {
            assert!(matches!(base_from_bytes(&header[..cut]), Err(StoreError::BadMagic)), "{cut}");
        }
    }
}
