//! The one work splitter. [`Workers`] decides how many threads a stage of
//! a given size gets, from the host's count, asked once per process;
//! [`for_each_run`] and [`for_each_run_with`] hand the stage's items out in
//! runs to that many threads.
//!
//! Callers: the miner's top-level branches and both passes of its merge
//! (`yv_mfi::mine_maximal_on`); the support lookup, block bounds and block
//! scoring rounds of `yv_blocking`'s MFIBlocks loop; `yv_core`'s pair
//! scoring. `yv_store`'s open takes its thread count from [`Workers`] too,
//! for two legs that are a pipeline, not a split. The worker count is a
//! fact about the process, like the clock and the allocator this crate
//! owns, and this is the lowest crate all of them depend on.

use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::ScopedJoinHandle;

/// Runs each worker takes on average: more than one, so a worker the
/// scheduler delays holds the others up by one short run, not by a whole
/// share of the stage.
const RUNS_PER_WORKER: usize = 8;

/// The host's parallelism, asked once per process (the query is a
/// syscall, and stages that split are many); 1 when it cannot be told.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Threads a split stage may use.
#[derive(Debug, Clone, Copy)]
pub enum Workers {
    /// The host's, for a stage at least its size threshold; one below it.
    Auto,
    /// Exactly this many (at least one), whatever the stage's size.
    Exactly(usize),
}

impl Workers {
    /// The threads a stage of `size` gets when splitting it pays from
    /// `threshold` on.
    #[must_use]
    pub fn for_stage(self, size: usize, threshold: usize) -> usize {
        match self {
            Workers::Auto if size < threshold => 1,
            Workers::Auto => workers(),
            Workers::Exactly(workers) => workers.max(1),
        }
    }
}

/// Run `work` over `0..n` in consecutive runs on `workers` threads, the
/// calling thread included, each run with its own slice of `out`:
/// `out[cut(start)..cut(end)]` for the run `start..end`. `cut` must rise
/// from `cut(0) == 0` to `cut(n) == out.len()`; `|i| i` gives one output
/// per item.
///
/// Runs are about `n / (8 × workers)` items long, at most `max_run`, and
/// handed out in ascending order as workers free up, so the runs one
/// worker gets ascend too. No worker is spawned for fewer than two runs,
/// and none at all with `workers <= 1`: then `work(0..n, out)` runs in
/// place. The result cannot depend on the schedule as long as `work`
/// writes only the slice it is given. A worker's panic resumes here once
/// every worker has stopped.
pub fn for_each_run<T: Send>(
    out: &mut [T],
    n: usize,
    cut: impl Fn(usize) -> usize + Sync,
    max_run: usize,
    workers: usize,
    work: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    for_each_run_with(out, n, cut, max_run, workers, || (), |(), items, slice| work(items, slice));
}

/// [`for_each_run`] with a state of each worker's own: every worker that
/// starts makes one with `init`, hands it to `work` with each of its runs,
/// and gives it back. The states come back in worker order, the calling
/// thread's first: one in place, one per thread otherwise.
#[allow(clippy::disallowed_methods, reason = "the one work splitter spawns its workers here")]
pub fn for_each_run_with<T: Send, S: Send>(
    out: &mut [T],
    n: usize,
    cut: impl Fn(usize) -> usize + Sync,
    max_run: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>, &mut [T]) + Sync,
) -> Vec<S> {
    debug_assert!(cut(0) == 0 && cut(n) == out.len());
    let run = n.div_ceil(RUNS_PER_WORKER * workers.max(1)).clamp(1, max_run.max(1));
    let threads = workers.min(n.div_ceil(run));
    if threads <= 1 {
        let mut state = init();
        work(&mut state, 0..n, out);
        return vec![state];
    }
    // The next run's first item and the part of `out` not yet handed out.
    let rest = Mutex::new((0, out));
    let take = || {
        // Poisoned only by a panicking `cut`, whose panic is resumed
        // below: the state need not be usable after it, and no run is
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
        let mut state = init();
        while let Some((items, slice)) = take() {
            work(&mut state, items, slice);
        }
        state
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut states = vec![worker()];
        // Every worker is joined before the first one's panic resumes: the
        // scope would answer a handle left unjoined with a panic of its
        // own, "a scoped thread panicked", in place of the worker's.
        let joined: Vec<_> = spawned.into_iter().map(ScopedJoinHandle::join).collect();
        let joined: Result<Vec<S>, _> = joined.into_iter().collect();
        states.extend(joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        states
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Zero items, more workers than items, and enough for every worker:
    /// each worker that starts makes one state and hands it back, and the
    /// items it gets arrive in ascending order, each into its own slice.
    #[test]
    fn every_item_is_worked_once_into_its_own_slice() {
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 100, 1_000] {
                let mut out = vec![usize::MAX; n];
                let states = for_each_run_with(&mut out, n, |i| i, 16, workers, Vec::new, |seen, items, slice| {
                    assert_eq!(items.len(), slice.len());
                    assert!(workers == 1 || items.len() <= 16);
                    for (i, o) in items.zip(slice) {
                        *o = i * 3;
                        seen.push(i);
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &o)| o == i * 3), "{workers} workers, {n}");
                assert_eq!(states.len(), workers.min(n).max(1), "{workers} workers, {n}");
                assert!(states.iter().all(|seen| seen.is_sorted_by(|a, b| a < b)), "{states:?}");
                assert_eq!(states.concat().len(), n);
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
    }

    #[test]
    fn the_worker_count_is_positive_and_stable() {
        assert!(workers() >= 1);
        assert_eq!(workers(), workers());
    }

    #[test]
    fn a_stage_gets_the_hosts_workers_from_its_threshold_on_or_exactly_the_forced_count() {
        for (forced, size, expected) in [
            (Workers::Auto, 99, 1),
            (Workers::Auto, 100, workers()),
            (Workers::Exactly(0), 9, 1),
            (Workers::Exactly(3), 0, 3),
        ] {
            assert_eq!(forced.for_stage(size, 100), expected, "{forced:?} at size {size}");
        }
    }

    /// A spawned worker's panic reaches the caller as it was raised, not
    /// as the scope's "a scoped thread panicked", and only once the other
    /// workers have worked every other item.
    #[test]
    fn a_workers_panic_resumes_in_the_caller_after_every_worker_stops() {
        let here = std::thread::current().id();
        let (worked, failed) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let panic = std::panic::catch_unwind(|| {
            for_each_run(&mut [0u8; 64], 64, |i| i, 1, 3, |items, _| {
                if std::thread::current().id() != here {
                    failed.fetch_add(1, Ordering::Relaxed);
                    panic!("item {} failed on a spawned worker", items.start);
                }
                // The calling thread waits for a spawned worker to fail.
                while failed.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                worked.fetch_add(1, Ordering::Relaxed);
            });
        });
        let message = panic.expect_err("a spawned worker panicked").downcast::<String>();
        let message = message.expect("the worker's own payload");
        assert!(message.ends_with("failed on a spawned worker"), "{message}");
        assert_eq!(worked.into_inner() + failed.into_inner(), 64);
    }
}
