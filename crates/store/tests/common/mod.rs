//! Shared by the integration-test binaries: the crate's test-only
//! scratch-directory helper, compiled from the same file its unit tests use.

#[path = "../../src/scratch.rs"]
mod scratch;

pub use scratch::ScratchDir;
