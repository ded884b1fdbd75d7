//! Name-hash sharding: routing, the store manifest, and per-shard stats.
//!
//! What shards partition is the store's *WALs*: each shard owns one WAL
//! and the lock around it, and nothing else, so writer threads whose
//! records route to distinct shards append and fsync in parallel. The
//! snapshot is one file for the whole store, and a shard's `records`
//! count is derived by routing at `create` / `open`. Nothing in memory is
//! partitioned — the name table and the match graph are one each (see
//! [`crate::store`]), because no lookup carries the routing key. The
//! routing function is part of the on-disk format: a record
//! lands in shard `fnv1a64(lowercase(last_names[0])) % shards` (the empty
//! string when it has no last name), and the shard count is fixed at
//! `create` time in the manifest. Changing either silently scatters
//! logged arrivals across the wrong WALs, which is why the
//! manifest records the routing rule verbatim and `open` refuses anything
//! it does not recognise.

use crate::codec::{fnv1a64, fnv1a64_bytes};
use crate::error::StoreError;
use std::path::Path;
use yv_records::Record;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.yvm";

/// The only routing rule this build reads and writes. Recorded verbatim
/// in the manifest so a foreign (or future) store with a different rule
/// is rejected instead of mis-routed.
pub const ROUTING_RULE: &str = "fnv1a64(lowercase(last_names[0]))%shards";

/// Hard ceiling on the shard count: each shard costs a WAL file handle,
/// and `BATCH_ADD` / `SNAPSHOT` lock all of them.
pub const MAX_SHARDS: usize = 1024;

/// The shard owning a last name: FNV-1a 64 of the lowercased name modulo
/// the shard count. FNV-1a is the workspace's deterministic hash (same
/// function as the WAL and snapshot checksums) — *never* substitute a
/// `RandomState`-seeded hasher here, or the same store directory routes
/// differently across processes.
///
/// An ASCII name is lowercased byte by byte as it is hashed — the bytes
/// `to_lowercase` gives, without the `String`; only a non-ASCII one goes
/// through `str::to_lowercase`.
#[must_use]
pub fn shard_of_name(last_name: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let hash = if last_name.is_ascii() {
        fnv1a64_bytes(last_name.bytes().map(|b| b.to_ascii_lowercase()))
    } else {
        fnv1a64(last_name.to_lowercase().as_bytes())
    };
    (hash % shards as u64) as usize
}

/// The shard owning a record: routed by its first reported last name,
/// or the empty string when it carries none.
#[must_use]
pub fn shard_of_record(record: &Record, shards: usize) -> usize {
    shard_of_name(record.last_names.first().map_or("", String::as_str), shards)
}

/// The store manifest: shard count and routing rule, fixed at `create`.
///
/// A three-line text file (`manifest.yvm`) rather than another binary
/// format: it is tiny, humans debugging a store directory should be able
/// to `cat` it, and ci greps it to pin the routing hash.
///
/// ```text
/// yv-store-manifest v1
/// shards=4
/// routing=fnv1a64(lowercase(last_names[0]))%shards
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    pub shards: usize,
}

impl Manifest {
    /// Validate a shard count and build the manifest for it.
    pub fn new(shards: usize) -> Result<Manifest, StoreError> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(StoreError::Corrupt(format!(
                "shard count {shards} out of range 1..={MAX_SHARDS}"
            )));
        }
        Ok(Manifest { shards })
    }

    /// Render the manifest text.
    #[must_use]
    pub fn to_text(self) -> String {
        format!("yv-store-manifest v1\nshards={}\nrouting={ROUTING_RULE}\n", self.shards)
    }

    /// Parse manifest text, rejecting unknown versions, shard counts out
    /// of range, and — critically — any routing rule other than the one
    /// this build implements.
    pub fn from_text(text: &str) -> Result<Manifest, StoreError> {
        let mut lines = text.lines();
        match lines.next() {
            Some("yv-store-manifest v1") => {}
            other => {
                return Err(StoreError::Corrupt(format!(
                    "bad manifest header {other:?}; expected \"yv-store-manifest v1\""
                )))
            }
        }
        let shards_line = lines
            .next()
            .ok_or_else(|| StoreError::Corrupt("manifest missing shards= line".into()))?;
        let shards = shards_line
            .strip_prefix("shards=")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| {
                StoreError::Corrupt(format!("bad manifest shards line {shards_line:?}"))
            })?;
        let routing_line = lines
            .next()
            .ok_or_else(|| StoreError::Corrupt("manifest missing routing= line".into()))?;
        match routing_line.strip_prefix("routing=") {
            Some(rule) if rule == ROUTING_RULE => {}
            Some(rule) => {
                return Err(StoreError::Corrupt(format!(
                    "unsupported shard routing rule {rule:?}; this build implements {ROUTING_RULE:?}"
                )))
            }
            None => {
                return Err(StoreError::Corrupt(format!(
                    "bad manifest routing line {routing_line:?}"
                )))
            }
        }
        if let Some(extra) = lines.next() {
            return Err(StoreError::Corrupt(format!("trailing manifest line {extra:?}")));
        }
        Manifest::new(shards)
    }

    /// Write the manifest into a store directory, atomically
    /// ([`crate::snapshot::write_atomically`]: temp file then rename).
    pub fn write(self, dir: &Path) -> Result<(), StoreError> {
        crate::snapshot::write_atomically(&dir.join(MANIFEST_FILE), self.to_text().as_bytes())
    }

    /// Read the manifest from a store directory.
    pub fn read(dir: &Path) -> Result<Manifest, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        if !path.exists() {
            return Err(StoreError::Corrupt(format!(
                "store directory {} has no manifest ({MANIFEST_FILE}); \
                 pre-sharding stores must be recreated",
                dir.display()
            )));
        }
        let text = std::fs::read_to_string(&path)?;
        Manifest::from_text(&text)
    }
}

/// Point-in-time counters for one shard, reported in `STATS` as `SHARD`
/// rows and in the metrics exposition as `yv_shard_<i>_*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    pub shard: usize,
    /// Records routed to this shard.
    pub records: usize,
    /// Arrivals pending in this shard's WAL since the last snapshot.
    pub wal_entries: usize,
    /// On-disk size of this shard's WAL in bytes.
    pub wal_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, SourceId};

    #[test]
    fn routing_is_case_folded_and_deterministic() {
        for shards in [1, 2, 4, 7] {
            assert_eq!(shard_of_name("Foa", shards), shard_of_name("foa", shards));
            assert_eq!(shard_of_name("FOA", shards), shard_of_name("foa", shards));
            assert!(shard_of_name("Foa", shards) < shards);
        }
        assert_eq!(shard_of_name("anything", 1), 0);
    }

    #[test]
    fn record_routes_by_first_last_name_or_empty() {
        let named = RecordBuilder::new(1, SourceId(0)).last_name("Foa").last_name("Foy").build();
        assert_eq!(shard_of_record(&named, 8), shard_of_name("Foa", 8));
        let nameless = RecordBuilder::new(2, SourceId(0)).first_name("Guido").build();
        assert_eq!(shard_of_record(&nameless, 8), shard_of_name("", 8));
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest::new(4).expect("4 shards");
        assert_eq!(Manifest::from_text(&m.to_text()).expect("parse"), m);
        let dir = crate::scratch::ScratchDir::new("manifest");
        m.write(&dir).expect("write");
        assert_eq!(Manifest::read(&dir).expect("read"), m);
    }

    #[test]
    fn manifest_rejects_bad_inputs() {
        assert!(Manifest::new(0).is_err());
        assert!(Manifest::new(MAX_SHARDS + 1).is_err());
        assert!(Manifest::from_text("yv-store-manifest v2\nshards=1\n").is_err());
        assert!(Manifest::from_text("yv-store-manifest v1\nshards=zero\n").is_err());
        assert!(Manifest::from_text(
            "yv-store-manifest v1\nshards=2\nrouting=siphash(last)%shards\n"
        )
        .is_err());
        let ok = format!("yv-store-manifest v1\nshards=2\nrouting={ROUTING_RULE}\n");
        assert!(Manifest::from_text(&ok).is_ok());
        assert!(Manifest::from_text(&format!("{ok}extra\n")).is_err());
    }
}
