//! Typed errors for the persistence layer. Corrupt or incompatible files
//! must surface as values, never panics — a serving process restarting
//! from disk has to degrade gracefully.

use std::fmt;

/// Everything that can go wrong opening, reading or writing store files.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot / WAL magic bytes.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The payload checksum does not match the trailer.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// Structurally invalid payload: truncated, bad UTF-8, out-of-range
    /// tag, dangling source reference. The string names the spot.
    Corrupt(String),
    /// The embedded ADT model failed to parse.
    Model(yv_adt::PersistError),
    /// A store directory operation was invalid (e.g. loading a directory
    /// with no snapshot).
    MissingSnapshot(std::path::PathBuf),
    /// A value to be encoded exceeds a format limit (e.g. a string or
    /// collection whose length does not fit the u32 prefix).
    LimitExceeded { what: &'static str, len: usize },
    /// Merging the per-shard WALs left a hole in the global arrival
    /// sequence: `missing_seq` was logged to `shard` (or lost with its
    /// torn tail) but never made it to disk intact, while *later*
    /// arrivals on other shards did. Record ids are assigned in sequence
    /// order, so replaying past the hole would renumber every subsequent
    /// record; the store refuses to open instead, naming the shard whose
    /// log needs attention.
    ShardWalGap { shard: usize, missing_seq: u64 },
    /// An `--slo` rule watches a metric that is not a command kind, so
    /// it could never be evaluated.
    UnknownSloMetric { metric: String },
    /// Two `--slo` rules watch one metric; they would overwrite each
    /// other's `yv_slo_<metric>_*` gauges.
    DuplicateSloMetric { metric: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "not a yv-store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads {supported})")
            }
            StoreError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}")
            }
            StoreError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            StoreError::Model(e) => write!(f, "embedded model: {e}"),
            StoreError::MissingSnapshot(dir) => {
                write!(f, "no snapshot in store directory {}", dir.display())
            }
            StoreError::LimitExceeded { what, len } => {
                write!(f, "{what} of length {len} exceeds the format's u32 limit")
            }
            StoreError::ShardWalGap { shard, missing_seq } => {
                write!(
                    f,
                    "shard {shard} WAL lost arrival seq {missing_seq} (torn or truncated \
                     tail) while later arrivals on other shards survived; refusing to \
                     replay past the hole"
                )
            }
            StoreError::UnknownSloMetric { metric } => write!(
                f,
                "--slo rule watches unknown metric {metric:?} (expected a command kind: {})",
                crate::protocol::command_kinds()
            ),
            StoreError::DuplicateSloMetric { metric } => write!(
                f,
                "two --slo rules watch metric {metric:?}; give each command kind at most one \
                 rule (expected a command kind: {})",
                crate::protocol::command_kinds()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<yv_adt::PersistError> for StoreError {
    fn from(e: yv_adt::PersistError) -> Self {
        StoreError::Model(e)
    }
}
