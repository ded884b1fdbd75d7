//! Lock-free capture ring for completed request traces.
//!
//! [`TraceRing`] is a fixed-capacity, power-of-two, multi-producer ring
//! of [`RequestTrace`] values with drop-oldest semantics: producers
//! claim a slot with one `fetch_add` on the head and never wait — not
//! on readers, not on each other. Readers validate slots seqlock-style
//! (read the sequence word, copy the payload, re-read the sequence) and
//! simply discard anything a writer touched mid-copy. The payload is
//! `Copy` and heap-free by construction (see [`crate::ctx`]), so a torn
//! copy is garbage bytes that fail validation, never a dangling pointer
//! that gets dereferenced.
//!
//! Slot protocol, one `AtomicU64` per slot:
//!
//! * `0` — never written.
//! * odd (`2·pos + 1`) — writer for head position `pos` is mid-write.
//! * even nonzero (`2·pos + 2`) — slot holds the trace for position
//!   `pos`, readable.
//!
//! A writer `swap`s its odd marker in (anything previously there is an
//! eviction), writes the payload, then publishes with a compare-exchange
//! to its even marker. If the CAS fails, a lapping writer already
//! claimed the slot and this trace is simply lost — the slot stays in
//! the newer writer's hands. Encoding the position in the sequence word
//! means a reader that observes the same even value twice knows no
//! writer finished in between; a writer stalled for an entire lap while
//! a reader copies is the one (documented, astronomically unlikely at
//! ring sizes ≥ 2× thread count) hole in that argument, and it is
//! bounded by the CAS: the stalled writer fails to publish, so its
//! half-written bytes are never validated as position `pos`.
//!
//! [`TailSampler`] is a second, smaller ring that always retains the
//! traces worth keeping — slower than `slow_ns` or ending in ERR — so
//! a burst of fast requests cannot evict the evidence of an incident.
//! [`TraceSink`] bundles id generation, the main ring, and the sampler
//! behind the one handle the server threads share.

use crate::ctx::{RequestTrace, TraceIdGen};
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<RequestTrace>,
}

// SAFETY: concurrent access to `data` is mediated by the `seq` protocol
// above — writers mutually exclude via swap/CAS on `seq`, and readers
// never trust a copy unless `seq` was stable (even, same position)
// around it. `RequestTrace` is `Copy` with no heap indirection, so a
// discarded torn copy carries no ownership and frees nothing.
unsafe impl Sync for Slot {}

/// Fixed-capacity lock-free MPSC-style trace ring (multi-producer, any
/// number of snapshot readers). Capacity rounds up to a power of two.
pub struct TraceRing {
    mask: u64,
    head: AtomicU64,
    evicted: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.head.load(Ordering::Relaxed))
            .field("evicted", &self.evicted.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// A ring holding up to `capacity` traces (rounded up to a power of
    /// two, minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(RequestTrace::empty()),
            })
            .collect();
        TraceRing {
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Slot count (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Traces overwritten (or lost to a lapping writer) before anyone
    /// asked for them. Exact: every push past the first fill of a slot
    /// displaces exactly one earlier trace.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Readable traces currently resident, bounded by capacity.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                let seq = s.seq.load(Ordering::Relaxed);
                seq != 0 && seq & 1 == 0
            })
            .count()
    }

    /// Capture a completed trace. Wait-free for the producer: one
    /// `fetch_add`, one `swap`, a payload memcpy, one CAS — no locks,
    /// no retries, no interaction with readers.
    pub fn push(&self, trace: RequestTrace) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        let writing = pos.wrapping_mul(2).wrapping_add(1);
        let published = writing.wrapping_add(1);
        // Claim the slot. Whatever was here — a published trace or a
        // stalled older writer's claim — is one eviction.
        let prev = slot.seq.swap(writing, Ordering::Acquire);
        if prev != 0 {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the odd marker in `seq` excludes other writers until
        // they lap, and readers discard copies whose `seq` moved.
        unsafe {
            slot.data.get().write_volatile(trace);
        }
        // Publish — unless a lapping writer already reclaimed the slot,
        // in which case this trace is lost and counted by that writer.
        let _ = slot
            .seq
            .compare_exchange(writing, published, Ordering::Release, Ordering::Relaxed);
    }

    /// Seqlock read of one slot: returns the head position it held and
    /// the trace, or `None` if the slot was empty or a writer was (or
    /// got) in the way.
    fn read_slot(&self, index: usize) -> Option<(u64, RequestTrace)> {
        let slot = &self.slots[index];
        let before = slot.seq.load(Ordering::Acquire);
        if before == 0 || before & 1 == 1 {
            return None;
        }
        // SAFETY: the copy may race a writer; validation below discards
        // it then. `RequestTrace` is `Copy`, so garbage bytes are inert
        // — nothing is dereferenced or dropped before validation.
        let data = unsafe { slot.data.get().read_volatile() };
        fence(Ordering::Acquire);
        let after = slot.seq.load(Ordering::Relaxed);
        if before == after {
            Some(((before - 2) / 2, data))
        } else {
            None
        }
    }

    /// Find a trace by id. O(capacity) scan — `TRACE` is an operator
    /// command, not a hot path.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<RequestTrace> {
        if id == 0 {
            return None;
        }
        (0..self.slots.len())
            .filter_map(|i| self.read_slot(i))
            .find(|(_, t)| t.id == id)
            .map(|(_, t)| t)
    }

    /// Up to `k` most recent traces, newest first.
    #[must_use]
    pub fn recent(&self, k: usize) -> Vec<RequestTrace> {
        let mut entries: Vec<(u64, RequestTrace)> =
            (0..self.slots.len()).filter_map(|i| self.read_slot(i)).collect();
        entries.sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        entries.truncate(k);
        entries.into_iter().map(|(_, t)| t).collect()
    }
}

/// Tail-sampling reservoir: a bounded ring that keeps every trace that
/// ran slower than `slow_ns` or answered ERR, so incident evidence
/// survives even when the main ring churns through fast requests.
#[derive(Debug)]
pub struct TailSampler {
    slow_ns: u64,
    sampled: AtomicU64,
    ring: TraceRing,
}

impl TailSampler {
    /// A sampler retaining traces with `total_ns >= slow_ns` or
    /// `!ok` into a ring of `capacity` slots.
    #[must_use]
    pub fn new(slow_ns: u64, capacity: usize) -> TailSampler {
        TailSampler {
            slow_ns,
            sampled: AtomicU64::new(0),
            ring: TraceRing::new(capacity),
        }
    }

    /// Offer a completed trace; retains it iff it meets the tail
    /// policy. Returns whether it was retained.
    pub fn offer(&self, trace: &RequestTrace) -> bool {
        if trace.total_ns >= self.slow_ns || !trace.ok {
            self.sampled.fetch_add(1, Ordering::Relaxed);
            self.ring.push(*trace);
            true
        } else {
            false
        }
    }

    /// Traces retained so far (including any since evicted).
    #[must_use]
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Find a retained trace by id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<RequestTrace> {
        self.ring.get(id)
    }

    /// Up to `k` most recently retained traces, newest first.
    #[must_use]
    pub fn recent(&self, k: usize) -> Vec<RequestTrace> {
        self.ring.recent(k)
    }
}

/// Point-in-time counters describing a [`TraceSink`], for `TOP` and the
/// `yv_trace_ring_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Main-ring slot count.
    pub capacity: u64,
    /// Readable traces currently in the main ring.
    pub occupancy: u64,
    /// Traces ever captured into the main ring.
    pub captured: u64,
    /// Traces evicted from the main ring (drop-oldest).
    pub evicted: u64,
    /// Traces the tail-sampler retained (slow or ERR).
    pub sampled: u64,
}

/// Everything the serve loop shares for tracing: the id generator, the
/// main capture ring, and the tail-sampling reservoir. One instance per
/// server; all methods are lock-free.
#[derive(Debug)]
pub struct TraceSink {
    ids: TraceIdGen,
    ring: TraceRing,
    sampler: TailSampler,
    capture: bool,
}

impl TraceSink {
    /// A sink with a main ring of `capacity` slots, a tail reservoir a
    /// quarter that size (minimum 16), trace ids seeded by `seed`, and
    /// the tail policy keeping traces at or above `slow_ns`.
    #[must_use]
    pub fn new(capacity: usize, slow_ns: u64, seed: u64, capture: bool) -> TraceSink {
        TraceSink {
            ids: TraceIdGen::new(seed),
            ring: TraceRing::new(capacity),
            sampler: TailSampler::new(slow_ns, (capacity / 4).max(16)),
            capture,
        }
    }

    /// True when completed traces are being retained. When false,
    /// requests still get trace ids (the token stays on the wire) but
    /// `capture` is a no-op (`yv serve --no-trace`).
    #[must_use]
    pub fn capture_enabled(&self) -> bool {
        self.capture
    }

    /// Next trace id (deterministic per seed, never 0).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.ids.next_id()
    }

    /// Retain a completed trace in the main ring and, if it meets the
    /// tail policy, the reservoir. Lock-free; never blocks a producer.
    /// Returns whether the tail sampler retained it (the caller's cue to
    /// publish it as the last slow trace).
    pub fn capture(&self, trace: RequestTrace) -> bool {
        if !self.capture {
            return false;
        }
        let sampled = self.sampler.offer(&trace);
        self.ring.push(trace);
        sampled
    }

    /// Look a trace up by id — the reservoir first (slow/ERR traces
    /// live longest there), then the main ring.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<RequestTrace> {
        self.sampler.get(id).or_else(|| self.ring.get(id))
    }

    /// Up to `k` most recently retained slow/ERR traces, newest first.
    #[must_use]
    pub fn recent_slow(&self, k: usize) -> Vec<RequestTrace> {
        self.sampler.recent(k)
    }

    /// Current counters for `TOP` and metrics exposition.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        RingStats {
            capacity: self.ring.capacity() as u64,
            occupancy: self.ring.occupancy() as u64,
            captured: self.ring.pushed(),
            evicted: self.ring.evicted(),
            sampled: self.sampler.sampled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn trace_with(id: u64, conn: u64, total_ns: u64, ok: bool) -> RequestTrace {
        let mut t = RequestTrace::empty();
        t.id = id;
        t.conn = conn;
        t.command = "QUERY";
        t.ok = ok;
        t.total_ns = total_ns;
        t
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(TraceRing::new(0).capacity(), 2);
        assert_eq!(TraceRing::new(5).capacity(), 8);
        assert_eq!(TraceRing::new(512).capacity(), 512);
    }

    #[test]
    fn push_get_and_recent_drop_oldest() {
        let ring = TraceRing::new(4);
        for i in 1..=10u64 {
            ring.push(trace_with(i, i, i * 100, true));
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.evicted(), 6);
        assert_eq!(ring.occupancy(), 4);
        // Only the newest `capacity` survive.
        for id in 1..=6u64 {
            assert!(ring.get(id).is_none(), "id {id} should be evicted");
        }
        for id in 7..=10u64 {
            let t = ring.get(id).unwrap_or_else(|| panic!("id {id} resident"));
            assert_eq!(t.total_ns, id * 100);
        }
        let recent: Vec<u64> = ring.recent(3).iter().map(|t| t.id).collect();
        assert_eq!(recent, vec![10, 9, 8]);
        assert!(ring.get(0).is_none());
    }

    #[test]
    fn tail_sampler_keeps_slow_and_err_only() {
        let sampler = TailSampler::new(1_000_000, 16);
        assert!(!sampler.offer(&trace_with(1, 1, 500, true)));
        assert!(sampler.offer(&trace_with(2, 1, 2_000_000, true)));
        assert!(sampler.offer(&trace_with(3, 1, 10, false)));
        assert_eq!(sampler.sampled(), 2);
        assert!(sampler.get(1).is_none());
        assert!(sampler.get(2).is_some());
        let recent: Vec<u64> = sampler.recent(8).iter().map(|t| t.id).collect();
        assert_eq!(recent, vec![3, 2]);
    }

    #[test]
    fn sink_routes_and_counts() {
        let sink = TraceSink::new(8, 1_000, 7, true);
        assert!(sink.capture_enabled());
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
        assert!(!sink.capture_enabled());
        let id = sink.next_id();
        assert!(!sink.capture(trace_with(id, 1, 9_999, false)));
        assert!(sink.find(id).is_none());
        assert_eq!(sink.stats().captured, 0);
    }

    /// Seqlock soundness under contention: N producers push traces whose
    /// fields are linked by an invariant while readers continuously scan.
    /// Any torn read would surface as a trace violating the invariant.
    #[test]
    fn contended_reads_are_never_torn_and_evictions_are_exact() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2_000;
        let ring = TraceRing::new(16);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let id = (p << 32) | (i + 1);
                        // Invariant: total_ns == id * 3, conn == id ^ 0x5a5a.
                        ring.push(trace_with(id, id ^ 0x5a5a, id.wrapping_mul(3), true));
                    }
                });
            }
            for _ in 0..2 {
                let (ring, stop) = (&ring, &stop);
                scope.spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        for t in ring.recent(16) {
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
            // Producers finish, then readers are released.
            // (Scope join order: spawn handles joined at scope end; stop
            // flag flipped by a watcher thread once producers are done.)
            let ring_ref = &ring;
            let stop_ref = &stop;
            scope.spawn(move || {
                while ring_ref.pushed() < PRODUCERS * PER_PRODUCER {
                    std::thread::yield_now();
                }
                stop_ref.store(true, Ordering::Relaxed);
            });
        });
        let total = PRODUCERS * PER_PRODUCER;
        assert_eq!(ring.pushed(), total);
        // Exactness: every push after the first fill of each slot evicts
        // exactly one prior trace, even under contention.
        assert_eq!(ring.evicted(), total - ring.capacity() as u64);
        // Quiescent state: every slot holds a valid, untorn trace.
        let resident = ring.recent(16);
        assert_eq!(resident.len(), 16);
        for t in &resident {
            assert_eq!(t.total_ns, t.id.wrapping_mul(3));
        }
    }
}
