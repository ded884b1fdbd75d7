//! Allocation guard for the frame reader: it buffers the bytes that
//! arrived, not the length the header claimed, so a peer that sends a
//! header and goes quiet cannot pin `MAX_PAYLOAD` per worker.
//!
//! One test in a test binary of its own: the counting allocator (the
//! default `alloc-metrics` feature, as in the shipped `yv`) is
//! process-wide, so no other test may run beside the measured section.

use yv_store::frame::read_raw_frame;
use yv_store::{StoreError, MAX_PAYLOAD};

#[test]
fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
    if !yv_obs::alloc_stats().enabled {
        // Built with --no-default-features: nothing counts allocations.
        return;
    }
    let mut bytes = vec![1u8];
    bytes.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    bytes.extend_from_slice(&[0xab; 16]);
    let mut stream = std::io::Cursor::new(bytes);

    let live = yv_obs::alloc_stats().live_bytes;
    yv_obs::reset_peak();
    let outcome = read_raw_frame(&mut stream);
    let grown = yv_obs::alloc_stats().peak_bytes.saturating_sub(live);

    match outcome {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("torn frame") && msg.contains("mid-payload"), "{msg}");
        }
        other => panic!("expected a torn-frame error, got {other:?}"),
    }
    assert!(grown < 1024 * 1024, "a 16-byte body grew the heap by {grown} bytes");
}
