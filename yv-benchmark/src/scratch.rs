//! Scratch directories that clean up after themselves.
//!
//! `yv bench` builds its stores under fixed `temp_dir()/yv-bench-store/*`
//! paths, so two concurrent runs (or one aborted run followed by another)
//! trample each other. Every directory handed out here is unique per
//! process, label and call, and is removed when its guard drops — on the
//! success path and while a panic unwinds alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes directories created by one process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// Where scratch directories go unless `--dir` says otherwise: inside
/// the build output directory, which the repository already ignores.
#[must_use]
pub fn default_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench-scratch")
}

/// An owned directory, deleted on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `root/<pid>-<label>-<n>`; `label` names the workload and
    /// repetition so a directory left by a killed run says what it was.
    pub fn new(root: &Path, label: &str) -> Result<ScratchDir, String> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Copy every regular file of `from` (store directories are flat)
    /// into a fresh scratch directory.
    pub fn copy_of(root: &Path, label: &str, from: &Path) -> Result<ScratchDir, String> {
        let dir = ScratchDir::new(root, label)?;
        let describe = |e: std::io::Error| format!("cannot copy {}: {e}", from.display());
        for entry in std::fs::read_dir(from).map_err(describe)? {
            let entry = entry.map_err(describe)?;
            if entry.file_type().map_err(describe)?.is_file() {
                std::fs::copy(entry.path(), dir.path.join(entry.file_name())).map_err(describe)?;
            }
        }
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Drop must not panic; a directory that cannot be removed is
        // left for the next `cargo clean`.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let describe = |e: std::io::Error| format!("cannot size {}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(describe)? {
        let meta = entry.map_err(describe)?.metadata().map_err(describe)?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        default_root().join("unit")
    }

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let a = ScratchDir::new(&root(), "same").expect("create a");
        let b = ScratchDir::new(&root(), "same").expect("create b");
        assert_ne!(a.path(), b.path());
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        assert!(pa.is_dir() && pb.is_dir());
        drop(a);
        assert!(!pa.exists());
        assert!(pb.is_dir(), "dropping one guard leaves the other alone");
    }

    #[test]
    fn a_panic_still_removes_the_directory() {
        let seen = std::sync::Mutex::new(None);
        let outcome = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new(&root(), "panic").expect("create");
            *seen.lock().expect("not poisoned yet") = Some(dir.path().to_path_buf());
            panic!("aborted run");
        });
        assert!(outcome.is_err());
        let path = seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert!(!path.expect("path recorded").exists());
    }

    #[test]
    fn copies_hold_the_same_bytes() {
        let from = ScratchDir::new(&root(), "from").expect("create");
        std::fs::write(from.path().join("a.bin"), [1u8; 100]).expect("write");
        std::fs::write(from.path().join("b.bin"), [2u8; 23]).expect("write");
        let copy = ScratchDir::copy_of(&root(), "to", from.path()).expect("copy");
        assert_eq!(dir_bytes(copy.path()), Ok(123));
        assert_eq!(
            std::fs::read(copy.path().join("b.bin")).expect("read"),
            vec![2u8; 23]
        );
    }
}
