//! Versioned on-disk snapshot of the full serving state, split for the
//! sharded store: one *base* file holding everything shard-independent
//! (sources, ranked matches, trained ADT model, pipeline configuration,
//! and the record count), plus one *segment* file per shard holding that
//! shard's records with their global record ids.
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
    Ok(frame(MAGIC, p.into_bytes()))
}

fn write_base_payload(p: &mut Writer, resolver: &IncrementalResolver) -> Result<(), StoreError> {
    let ds = resolver.dataset();
    let sources = ds.sources();
    p.u32(len_u32(sources.len(), "source count")?);
    for s in sources {
        codec::write_source(p, s)?;
    }
    p.u32(len_u32(ds.len(), "record count")?);
    let matches = resolver.matches();
    p.u32(len_u32(matches.len(), "match count")?);
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
    p.u32(len_u32(shard, "shard index")?);
    p.u32(len_u32(entries.len(), "segment entry count")?);
    for (rid, record) in entries {
        p.u32(rid.0);
        codec::write_record(&mut p, record)?;
    }
    Ok(frame(SEGMENT_MAGIC, p.into_bytes()))
}

/// Wrap a payload in the magic/version/length/checksum frame shared by
/// the base and segment formats.
fn frame(magic: [u8; 8], payload: Vec<u8>) -> Vec<u8> {
    let mut out = Writer::new();
    for b in magic {
        out.u8(b);
    }
    out.u32(VERSION);
    out.u64(payload.len() as u64);
    let checksum = codec::fnv1a64(&payload);
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

fn len_u32(len: usize, what: &'static str) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::LimitExceeded { what, len })
}

/// Unwrap the magic/version/length/checksum frame, returning the payload.
fn unframe<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], StoreError> {
    let mut r = Reader::new(bytes);
    let mut found = [0u8; 8];
    for slot in &mut found {
        *slot = r.u8("magic")?;
    }
    if &found != magic {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let payload_len = usize::try_from(r.u64("payload length")?)
        .map_err(|_| StoreError::Corrupt("declared payload length overflows usize".to_owned()))?;
    if r.remaining() < payload_len + 8 {
        return Err(StoreError::Corrupt(format!(
            "file shorter than declared payload: need {} bytes, have {}",
            payload_len + 8,
            r.remaining()
        )));
    }
    let payload = &bytes[bytes.len() - r.remaining()..][..payload_len];
    let mut trailer = Reader::new(&bytes[bytes.len() - r.remaining() + payload_len..]);
    let expected = trailer.u64("checksum")?;
    let actual = codec::fnv1a64(payload);
    if expected != actual {
        return Err(StoreError::ChecksumMismatch { expected, actual });
    }
    if trailer.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after checksum",
            trailer.remaining()
        )));
    }
    Ok(payload)
}

/// Deserialize base-file bytes. Rejects bad magic, unsupported versions,
/// checksum mismatches and matches referencing records beyond the
/// declared count, all with typed errors.
pub fn base_from_bytes(bytes: &[u8]) -> Result<BaseSnapshot, StoreError> {
    let payload = unframe(bytes, &MAGIC)?;
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
    if p.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after payload",
            p.remaining()
        )));
    }
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
    let payload = unframe(bytes, &SEGMENT_MAGIC)?;
    let mut p = Reader::new(payload);
    let shard = p.u32("shard index")? as usize;
    let count = p.u32("segment entry count")?;
    let mut entries = Vec::with_capacity((count as usize).min(p.remaining()));
    for _ in 0..count {
        let rid = RecordId(p.u32("record id")?);
        let record = codec::read_record(&mut p)?;
        entries.push((rid, record));
    }
    if p.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after segment payload",
            p.remaining()
        )));
    }
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
    w.opt_f64(b.prune_frequent);
    w.opt_f64(b.prune_common);
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
    let prune_frequent = r.opt_f64("prune frequent")?;
    let prune_common = r.opt_f64("prune common")?;
    r.u64("retired scoring-threads slot")?;
    let same_src_discard = bool_flag(r.u8("same src discard")?, "same src discard")?;
    let classify = bool_flag(r.u8("classify")?, "classify")?;
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

fn bool_flag(v: u8, what: &str) -> Result<bool, StoreError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(StoreError::Corrupt(format!("bad bool {t} for {what}"))),
    }
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
