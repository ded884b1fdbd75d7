//! Test-only scratch directories. Compiled into the crate's unit tests
//! and, through `tests/common/mod.rs`, into its integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir, unique per process, call and
/// label and removed on drop — so parallel tests, concurrent `cargo test`
/// processes and the leftovers of an aborted run never share files.
/// Dereferences to its path.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("yv-store-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
