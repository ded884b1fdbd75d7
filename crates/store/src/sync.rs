//! `Mutex` and `RwLock` over `std::sync` whose acquisitions return the
//! guard directly. A lock poisoned by a panicking holder is taken anyway:
//! one worker's panic must not turn every later request on that shard
//! into a second panic. Written once here so the ≈ 30 `.lock()` /
//! `.read()` / `.write()` sites in `store.rs` and `server.rs` stay bare
//! acquisitions.

use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
