//! The one byte layer under every yv-store file and frame.
//!
//! Every file opens with one header, and the WAL and the wire carry
//! one frame:
//!
//! ```text
//! file header   magic[8] ‖ u32 version
//! frame         tag u8 ‖ extra ‖ u32 len ‖ payload ‖ fnv1a64(tag ‖ extra ‖ payload)
//! ```
//!
//! `extra` is the WAL's u64 arrival sequence number; the wire passes
//! none. Integers are little-endian. `encode_with` is the only
//! function that writes a frame ([`encode`] hands it a payload already
//! built), `check_header` the only one that reads
//! a header, `scan` the only one that reads a log (the wire's strict
//! streaming reader is [`crate::frame::read_raw_frame`]), and `LogFile`
//! the only append handle — the one place a fault injector has to wrap.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{fnv1a64_parts, Writer};
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Byte length of the file header: magic (8) + version (4).
pub const HEADER_LEN: usize = 12;

/// The `magic ‖ version` header every store file starts with.
#[must_use]
pub fn header(magic: [u8; 8], version: u32) -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..8].copy_from_slice(&magic);
    out[8..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Check a file's header and return the bytes after it. A file shorter
/// than the header, or with the wrong magic, is [`StoreError::BadMagic`].
pub(crate) fn check_header(
    bytes: &[u8],
    magic: [u8; 8],
    version: u32,
) -> Result<&[u8], StoreError> {
    let Some((head, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(StoreError::BadMagic);
    };
    if head[..8] != magic {
        return Err(StoreError::BadMagic);
    }
    match u32::from_le_bytes([head[8], head[9], head[10], head[11]]) {
        found if found == version => Ok(rest),
        found => Err(StoreError::UnsupportedVersion { found, supported: version }),
    }
}

/// The checksum a frame's trailer carries.
pub(crate) fn checksum(tag: u8, extra: &[u8], payload: &[u8]) -> u64 {
    fnv1a64_parts(&[&[tag], extra, payload])
}

/// Encode one complete frame. A payload whose length does not fit the
/// u32 prefix is [`StoreError::LimitExceeded`].
pub fn encode(tag: u8, extra: &[u8], payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    encode_with(tag, extra, payload.len(), |w| {
        w.raw(payload);
        Ok(())
    })
}

/// [`encode`] a payload that `write` puts straight into the frame's one
/// buffer, behind the header and with `capacity` payload bytes reserved:
/// the payload is never built apart and copied in.
pub(crate) fn encode_with(
    tag: u8,
    extra: &[u8],
    capacity: usize,
    write: impl FnOnce(&mut Writer) -> Result<(), StoreError>,
) -> Result<Vec<u8>, StoreError> {
    let head = 1 + extra.len() + 4;
    let mut frame = Vec::with_capacity(head + capacity + 8);
    frame.push(tag);
    frame.extend_from_slice(extra);
    frame.extend_from_slice(&[0; 4]);
    let mut w = Writer::behind(frame);
    write(&mut w)?;
    let mut frame = w.into_bytes();
    let payload_len = frame.len() - head;
    let len = u32::try_from(payload_len)
        .map_err(|_| StoreError::LimitExceeded { what: "frame payload", len: payload_len })?;
    frame[head - 4..head].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(tag, extra, &frame[head..]);
    frame.extend_from_slice(&sum.to_le_bytes());
    Ok(frame)
}

/// Scan a log file whose frames carry a u64 seq as their `extra`: check
/// its header, then hand every complete frame, checksum verified, to
/// `decode` as `(tag, seq, payload)`. Returns the decoded frames in file
/// order and the byte length of the valid prefix.
///
/// A frame cut short (a crash mid-append) ends the scan cleanly; a
/// complete frame failing its checksum is [`StoreError::ChecksumMismatch`].
/// Any input yields a scan or a typed error, never a panic.
pub(crate) fn scan<T>(
    bytes: &[u8],
    magic: [u8; 8],
    version: u32,
    mut decode: impl FnMut(u8, u64, &[u8]) -> Result<T, StoreError>,
) -> Result<(Vec<T>, usize), StoreError> {
    let mut rest = check_header(bytes, magic, version)?;
    let mut out = Vec::new();
    while let Some((&tag, tail)) = rest.split_first() {
        let Some((extra, tail)) = tail.split_first_chunk::<8>() else { break };
        let Some((len, tail)) = tail.split_first_chunk::<4>() else { break };
        let Some((payload, tail)) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)
        else {
            break;
        };
        let Some((expected, tail)) = tail.split_first_chunk::<8>() else { break };
        let (expected, actual) = (u64::from_le_bytes(*expected), checksum(tag, extra, payload));
        if expected != actual {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        out.push(decode(tag, u64::from_le_bytes(*extra), payload)?);
        rest = tail;
    }
    Ok((out, bytes.len() - rest.len()))
}

/// An append-only log file: header, then frames — the handle under each
/// shard's [`crate::wal::Wal`]. It tracks its own byte length and its
/// `sync_data` calls, so `STATS` and the metrics scrape read them without
/// a filesystem round trip.
#[derive(Debug)]
pub(crate) struct LogFile {
    file: File,
    bytes: u64,
    syncs: u64,
    /// A failed append could not be cut back off: the file may end in a
    /// partial frame, so no later frame may land behind it.
    broken: bool,
}

impl LogFile {
    /// Create a log holding only its header, truncating any existing file.
    pub(crate) fn create(path: &Path, magic: [u8; 8], version: u32) -> Result<LogFile, StoreError> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(&header(magic, version))?;
        file.sync_all()?;
        Ok(LogFile { file, bytes: HEADER_LEN as u64, syncs: 0, broken: false })
    }

    /// Open an existing log for appending, truncated to `valid_len` (what
    /// `scan` found) and positioned there, so a torn tail is dropped.
    pub(crate) fn open(path: &Path, valid_len: usize) -> Result<LogFile, StoreError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LogFile { file, bytes: valid_len as u64, syncs: 0, broken: false })
    }

    /// Append one encoded frame, forcing it to disk when `sync` is set. A
    /// frame that fails to write or sync is cut back off, so no later
    /// frame lands behind a partial one; should the cut fail too, the log
    /// refuses every later frame.
    pub(crate) fn append(&mut self, frame: &[u8], sync: bool) -> Result<(), StoreError> {
        if self.broken {
            return Err(StoreError::Io(std::io::Error::other(
                "a failed WAL append could not be cut back; reopen the store",
            )));
        }
        let mut written = self.file.write_all(frame);
        if written.is_ok() && sync {
            written = self.sync_data();
        }
        if let Err(e) = written {
            self.broken = true;
            self.truncate(self.bytes)?;
            self.broken = false;
            return Err(e.into());
        }
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Force every appended frame to disk.
    pub(crate) fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.sync_data()?)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.syncs += 1;
        self.file.sync_data()
    }

    /// `sync_data` calls since the handle was created or opened.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Truncate the log back to its header and force that to disk.
    pub(crate) fn clear(&mut self) -> Result<(), StoreError> {
        self.truncate(HEADER_LEN as u64)?;
        self.file.sync_all()?;
        self.broken = false;
        Ok(())
    }

    /// Cut the file to `len` bytes and append from there.
    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.bytes = len;
        Ok(())
    }

    /// Header plus every appended frame, in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}
