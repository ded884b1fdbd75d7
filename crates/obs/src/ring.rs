//! Capture store for completed request traces: one mutex over two
//! bounded windows.
//!
//! [`TraceSink`] is the one handle the server threads share for tracing.
//! It issues trace ids and keeps completed [`RequestTrace`]s in two
//! drop-oldest windows behind a single `Mutex`: *recent* holds the last
//! `capacity` traces, *slow* the last `max(capacity / 4, 16)` that ran at
//! or past `slow_ns` or answered ERR, so a burst of fast requests cannot
//! evict the evidence of an incident. Both grow on demand and never past
//! their bound; DESIGN §11 "Capture" has the memory bound and the
//! measured cost of a capture.

use crate::ctx::{RequestTrace, TraceIdGen};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Point-in-time counters describing a [`TraceSink`], for `TOP` and the
/// `yv_trace_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Most traces the recent window holds.
    pub capacity: u64,
    /// Traces currently in the recent window.
    pub occupancy: u64,
    /// Traces ever captured into the recent window.
    pub captured: u64,
    /// Traces evicted from the recent window (drop-oldest).
    pub evicted: u64,
    /// Traces the tail policy retained (slow or ERR), evicted ones included.
    pub sampled: u64,
    /// Trace id of the most recent tail-sampled capture (0 before one).
    pub last_slow: u64,
}

#[derive(Debug, Default)]
struct State {
    recent: VecDeque<RequestTrace>,
    slow: VecDeque<RequestTrace>,
    captured: u64,
    sampled: u64,
    last_slow: u64,
}

/// Append to a drop-oldest window of at most `capacity` traces. Storage
/// doubles as the window fills, clamped to `capacity`: the memory bound.
fn push_bounded(window: &mut VecDeque<RequestTrace>, capacity: usize, trace: RequestTrace) {
    if window.len() == capacity {
        window.pop_front();
    } else if window.len() == window.capacity() {
        window.reserve_exact(window.len().max(1).min(capacity - window.len()));
    }
    window.push_back(trace);
}

/// Everything the serve loop shares for tracing: the id generator and the
/// two capture windows. One instance per server.
#[derive(Debug)]
pub struct TraceSink {
    ids: TraceIdGen,
    capture: bool,
    capacity: usize,
    slow_ns: u64,
    state: Mutex<State>,
}

impl TraceSink {
    /// A sink whose recent window holds up to `capacity` traces (at least
    /// one) and whose slow window a quarter of that (at least 16), with
    /// trace ids seeded by `seed` and the tail policy keeping traces at or
    /// above `slow_ns`. Allocates nothing until the first capture.
    #[must_use]
    pub fn new(capacity: usize, slow_ns: u64, seed: u64, capture: bool) -> TraceSink {
        TraceSink {
            ids: TraceIdGen::new(seed),
            capture,
            capacity: capacity.max(1),
            slow_ns,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update below leaves both windows and the counters valid
        // at each step, so a holder's panic loses at most its own trace.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Next trace id (deterministic per seed, never 0).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.ids.next_id()
    }

    /// Retain a completed trace in the recent window and, if it ran at or
    /// past `slow_ns` or answered ERR, in the slow window too as the last
    /// slow trace. Returns whether the tail policy kept it.
    pub fn capture(&self, trace: RequestTrace) -> bool {
        if !self.capture {
            return false;
        }
        let sampled = trace.total_ns >= self.slow_ns || !trace.ok;
        let mut state = self.lock();
        if sampled {
            state.sampled += 1;
            state.last_slow = trace.id;
            push_bounded(&mut state.slow, (self.capacity / 4).max(16), trace);
        }
        state.captured += 1;
        push_bounded(&mut state.recent, self.capacity, trace);
        sampled
    }

    /// Look a trace up by id — the slow window first (slow/ERR traces
    /// live longest there), then the recent one; an O(capacity) scan.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<RequestTrace> {
        let state = self.lock();
        state.slow.iter().chain(&state.recent).find(|t| t.id == id).copied()
    }

    /// Up to `k` most recently retained slow/ERR traces, newest first.
    #[must_use]
    pub fn recent_slow(&self, k: usize) -> Vec<RequestTrace> {
        self.lock().slow.iter().rev().take(k).copied().collect()
    }

    /// Current counters. Every capture either grows the recent window or
    /// displaces one trace from it, so `evicted` is `captured − occupancy`.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        let state = self.lock();
        let occupancy = state.recent.len() as u64;
        RingStats {
            capacity: self.capacity as u64,
            occupancy,
            captured: state.captured,
            evicted: state.captured - occupancy,
            sampled: state.sampled,
            last_slow: state.last_slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn trace_with(id: u64, conn: u64, total_ns: u64, ok: bool) -> RequestTrace {
        let mut t = RequestTrace::empty();
        t.id = id;
        t.conn = conn;
        t.command = "QUERY";
        t.ok = ok;
        t.total_ns = total_ns;
        t
    }

    fn recent(sink: &TraceSink, k: usize) -> Vec<RequestTrace> {
        sink.lock().recent.iter().rev().take(k).copied().collect()
    }

    /// Slots allocated for the (recent, slow) windows.
    fn slots(sink: &TraceSink) -> (usize, usize) {
        let state = sink.lock();
        (state.recent.capacity(), state.slow.capacity())
    }

    #[test]
    fn capacity_is_what_was_asked() {
        assert_eq!(TraceSink::new(0, 1_000, 1, true).stats().capacity, 1);
        assert_eq!(TraceSink::new(512, 1_000, 1, true).stats().capacity, 512);
        // Not a power of two: holds that many, in that many slots.
        let sink = TraceSink::new(5, 1_000, 1, true);
        for i in 1..=9u64 {
            sink.capture(trace_with(i, i, i, true));
        }
        assert_eq!((sink.stats().capacity, sink.stats().occupancy), (5, 5));
        assert_eq!(slots(&sink), (5, 0));
    }

    #[test]
    fn windows_grow_on_demand_and_stop_at_their_bound() {
        // DESIGN §11 states the memory bound per trace; growing a span
        // or arg array past this must be a deliberate edit there too.
        assert!(std::mem::size_of::<RequestTrace>() <= 4096);
        let off = TraceSink::new(512, 0, 1, false);
        assert!(!off.capture(trace_with(off.next_id(), 1, 9_999, false)));
        assert_eq!(slots(&off), (0, 0), "capture off: no slot, ever");
        let on = TraceSink::new(512, 0, 1, true);
        assert_eq!(slots(&on), (0, 0), "capture on: no slot before the first trace");
        for i in 1..=600u64 {
            on.capture(trace_with(i, i, i, true));
        }
        assert_eq!(slots(&on), (512, 128));
        // The slow window is drop-oldest too: ids 473..=600 remain.
        assert_eq!(on.recent_slow(600).last().map(|t| t.id), Some(473));
    }

    #[test]
    fn push_get_and_recent_drop_oldest() {
        let ring = TraceSink::new(4, 1_000, 1, true);
        for i in 1..=10u64 {
            ring.capture(trace_with(i, i, i * 100, true));
        }
        let stats = ring.stats();
        assert_eq!(stats.captured, 10);
        assert_eq!(stats.evicted, 6);
        assert_eq!(stats.occupancy, 4);
        // Only the newest `capacity` survive.
        for id in 1..=6u64 {
            assert!(ring.find(id).is_none(), "id {id} should be evicted");
        }
        for id in 7..=10u64 {
            let t = ring.find(id).unwrap_or_else(|| panic!("id {id} resident"));
            assert_eq!(t.total_ns, id * 100);
        }
        let recent: Vec<u64> = recent(&ring, 3).iter().map(|t| t.id).collect();
        assert_eq!(recent, vec![10, 9, 8]);
        assert!(ring.find(0).is_none());
    }

    #[test]
    fn tail_sampler_keeps_slow_and_err_only() {
        let sampler = TraceSink::new(64, 1_000_000, 1, true);
        assert!(!sampler.capture(trace_with(1, 1, 500, true)));
        assert!(sampler.capture(trace_with(2, 1, 2_000_000, true)));
        assert!(sampler.capture(trace_with(3, 1, 10, false)));
        assert_eq!(sampler.stats().sampled, 2);
        let kept: Vec<u64> = sampler.recent_slow(8).iter().map(|t| t.id).collect();
        assert!(!kept.contains(&1));
        assert!(kept.contains(&2));
        assert_eq!(kept, vec![3, 2]);
    }

    #[test]
    fn slow_traces_outlive_the_recent_window_and_last_slow_names_the_newest() {
        let sink = TraceSink::new(4, 1_000, 1, true);
        sink.capture(trace_with(1, 1, 10, true));
        assert_eq!(sink.stats().last_slow, 0, "nothing slow or ERR yet");
        sink.capture(trace_with(2, 1, 5_000, true));
        assert_eq!(sink.stats().last_slow, 2);
        for id in 3..=12u64 {
            sink.capture(trace_with(id, 1, 10, true));
        }
        assert!(recent(&sink, 4).iter().all(|t| t.id != 2), "gone from the recent window");
        assert_eq!(sink.find(2).map(|t| t.total_ns), Some(5_000));
        sink.capture(trace_with(13, 1, 10, false));
        assert_eq!(sink.stats().last_slow, 13, "ERR counts as slow");
    }

    #[test]
    fn sink_routes_and_counts() {
        let sink = TraceSink::new(8, 1_000, 7, true);
        let id = sink.next_id();
        assert_ne!(id, 0);
        assert!(sink.capture(trace_with(id, 3, 5_000, true)), "slow trace tail-sampled");
        assert!(!sink.capture(trace_with(id + 1, 3, 10, true)), "fast ok trace not sampled");
        let stats = sink.stats();
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.captured, 2);
        assert_eq!(stats.occupancy, 2);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.sampled, 1);
        assert_eq!(sink.find(id).map(|t| t.total_ns), Some(5_000));
        assert_eq!(sink.recent_slow(4).len(), 1);
    }

    #[test]
    fn disabled_sink_still_issues_ids_but_drops_traces() {
        let sink = TraceSink::new(8, 0, 1, false);
        let id = sink.next_id();
        assert!(!sink.capture(trace_with(id, 1, 9_999, false)));
        assert!(sink.find(id).is_none());
        assert_eq!(sink.stats().captured, 0);
    }

    /// N producers capture traces whose fields are linked by an invariant
    /// while readers continuously scan: a reader must only ever see whole
    /// traces, and the eviction count must come out exact.
    #[test]
    #[allow(clippy::disallowed_methods, reason = "reader and producer threads race the ring")]
    fn contended_reads_are_never_torn_and_evictions_are_exact() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        let ring = TraceSink::new(16, 1_000, 1, true);
        let stop = AtomicBool::new(false);
        std::thread::scope(|readers| {
            for _ in 0..2 {
                readers.spawn(|| {
                    let mut seen = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        for t in recent(&ring, 16) {
                            assert_eq!(t.total_ns, t.id.wrapping_mul(3), "torn read");
                            assert_eq!(t.conn, t.id ^ 0x5a5a, "torn read");
                            seen += 1;
                        }
                        if done {
                            break;
                        }
                    }
                    assert!(seen > 0, "readers observed traces");
                });
            }
            // Join the producers, then release the readers for a last scan.
            std::thread::scope(|producers| {
                for p in 0..PRODUCERS {
                    let ring = &ring;
                    producers.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let id = (p << 32) | (i + 1);
                            // Invariant: total_ns == id * 3, conn == id ^ 0x5a5a.
                            ring.capture(trace_with(id, id ^ 0x5a5a, id.wrapping_mul(3), true));
                        }
                    });
                }
            });
            stop.store(true, Ordering::Relaxed);
        });
        let total = PRODUCERS * PER_PRODUCER;
        let stats = ring.stats();
        assert_eq!(stats.captured, total);
        assert_eq!(stats.evicted, total - stats.capacity);
        // Quiescent state: the window is full of valid traces.
        let resident = recent(&ring, 16);
        assert_eq!(resident.len(), 16);
        for t in &resident {
            assert_eq!(t.total_ns, t.id.wrapping_mul(3));
        }
    }
}
