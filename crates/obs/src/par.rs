//! The one work splitter: the host's worker count, asked once per process,
//! and [`for_each_run`], which hands a stage's output out in runs to that
//! many threads. Batch resolution's support lookup, block bounds, block
//! scoring and pair scoring all split through it.
//!
//! It lives here, the lowest crate that `yv-blocking` and `yv-core` both
//! already depend on, because the worker count is a fact about the
//! process, like the clock and the allocator this crate also owns.

use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Runs each worker takes on average: more than one, so a worker the
/// scheduler delays holds the others up by one short run, not by a whole
/// share of the stage.
const RUNS_PER_WORKER: usize = 8;

/// The host's parallelism, asked once per process (the query is a
/// syscall, and stages that split are many); 1 when it cannot be told.
#[must_use]
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Run `work` over `0..n` in consecutive runs on `workers` threads, the
/// calling thread included, each run with its own slice of `out`:
/// `out[cut(start)..cut(end)]` for the run `start..end`. `cut` must rise
/// from `cut(0) == 0` to `cut(n) == out.len()`; `|i| i` gives one output
/// per item.
///
/// Runs are about `n / (8 × workers)` items long, at most `max_run`, and
/// handed out as workers free up. No worker is spawned for fewer than two
/// runs, and none at all with `workers <= 1`: then `work(0..n, out)` runs
/// in place. The result cannot depend on the schedule as long as `work`
/// writes only the slice it is given.
pub fn for_each_run<T: Send>(
    out: &mut [T],
    n: usize,
    cut: impl Fn(usize) -> usize + Sync,
    max_run: usize,
    workers: usize,
    work: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert!(cut(0) == 0 && cut(n) == out.len());
    let run = n.div_ceil(RUNS_PER_WORKER * workers.max(1)).clamp(1, max_run.max(1));
    let threads = workers.min(n.div_ceil(run));
    if threads <= 1 {
        work(0..n, out);
        return;
    }
    // The next run's first item and the part of `out` not yet handed out.
    let rest = Mutex::new((0, out));
    let take = || {
        // Poisoned only by a panicking `cut`, whose panic the scope below
        // re-raises: the state need not be usable after it, and no run is
        // handed out twice in any case.
        let mut guard = rest.lock().unwrap_or_else(PoisonError::into_inner);
        let (start, tail) = &mut *guard;
        if *start == n {
            return None;
        }
        let end = (*start + run).min(n);
        let len = cut(end) - cut(*start);
        let (slice, after) = std::mem::take(tail).split_at_mut(len);
        *tail = after;
        Some((std::mem::replace(start, end)..end, slice))
    };
    // The guard drops inside `take`: runs are handed out under the lock,
    // worked on outside it.
    let worker = || {
        while let Some((items, slice)) = take() {
            work(items, slice);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_is_worked_once_into_its_own_slice() {
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 100, 1_000] {
                let mut out = vec![usize::MAX; n];
                for_each_run(&mut out, n, |i| i, 16, workers, |items, slice| {
                    assert_eq!(items.len(), slice.len());
                    assert!(workers == 1 || items.len() <= 16);
                    for (i, o) in items.zip(slice) {
                        *o = i * 3;
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &o)| o == i * 3), "{workers} workers, {n}");
            }
        }
    }

    #[test]
    fn a_cut_gives_each_run_its_items_outputs() {
        // Item i owns i outputs, all set to i.
        let n = 60;
        let offsets: Vec<usize> = (0..=n).map(|i| (0..i).sum()).collect();
        for workers in [1, 2, 3] {
            let mut out = vec![usize::MAX; offsets[n]];
            for_each_run(&mut out, n, |i| offsets[i], 4, workers, |items, slice| {
                let mut at = 0;
                for i in items {
                    slice[at..at + i].fill(i);
                    at += i;
                }
                assert_eq!(at, slice.len());
            });
            let expected: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, i)).collect();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn one_worker_or_one_run_stays_on_the_calling_thread() {
        let here = std::thread::current().id();
        let mut out = vec![0u8; 100];
        for_each_run(&mut out[..1], 1, |i| i, 256, 4, |items, _| {
            assert_eq!(items, 0..1, "a single run");
            assert_eq!(std::thread::current().id(), here);
        });
        for_each_run(&mut out, 100, |i| i, 1, 1, |items, _| {
            assert_eq!(items, 0..100, "one worker takes everything at once");
            assert_eq!(std::thread::current().id(), here);
        });
        for_each_run(&mut out[..0], 0, |i| i, 1, 4, |items, _| assert!(items.is_empty()));
    }

    #[test]
    fn the_worker_count_is_positive_and_stable() {
        assert!(workers() >= 1);
        assert_eq!(workers(), workers());
    }
}
