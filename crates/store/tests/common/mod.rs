//! Shared by the integration-test binaries: the crate's test-only
//! scratch-directory helper, compiled from the same file its unit tests use.

#[path = "../../src/scratch.rs"]
mod scratch;

pub use scratch::ScratchDir;

/// One complete frame of a WAL file, read without the crate's decoder:
/// its tag, its seq and the bytes it spans.
#[allow(dead_code, reason = "only the binaries doing WAL surgery use it")]
#[derive(Debug, Clone)]
pub struct RawFrame {
    pub tag: u8,
    pub seq: u64,
    pub span: std::ops::Range<usize>,
}

/// The complete frames of a WAL file's bytes, in file order: behind the
/// 12-byte header, `tag u8 ‖ seq u64 ‖ len u32 ‖ payload ‖ u64 checksum`.
#[allow(dead_code, reason = "only the binaries doing WAL surgery use it")]
pub fn raw_frames(bytes: &[u8]) -> Vec<RawFrame> {
    let mut frames = Vec::new();
    let mut pos = 12;
    while pos + 13 <= bytes.len() {
        let seq = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap()) as usize;
        let end = pos + 13 + len + 8;
        if end > bytes.len() {
            break;
        }
        frames.push(RawFrame { tag: bytes[pos], seq, span: pos..end });
        pos = end;
    }
    frames
}
