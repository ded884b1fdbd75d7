//! Allocation guard for blocking: mining, support, scoring and the NG
//! filter work on flat arrays and reused buffers, so a run's allocator
//! calls are bounded by what it returns (one itemset per MFI, two vectors
//! per kept block) plus buffer growth — not by blocks considered or record
//! pairs scored.
//!
//! One test in a test binary of its own: the counting allocator (the
//! default `alloc-metrics` feature, as in the shipped `yv`) is
//! process-wide, so no other test may run beside the measured section.

use yv_blocking::score::block_score;
use yv_blocking::{mfi_blocks, MfiBlocksConfig, ScoreFunction};
use yv_datagen::GenConfig;

/// Allocation calls made by `f`.
fn alloc_calls(f: impl FnOnce()) -> u64 {
    let before = yv_obs::alloc_stats().alloc_calls;
    f();
    yv_obs::alloc_stats().alloc_calls - before
}

#[test]
fn blocking_allocates_per_result_not_per_candidate() {
    if !yv_obs::alloc_stats().enabled {
        // Built with --no-default-features: nothing counts allocations.
        return;
    }
    let gen = GenConfig::random(2_000, 10).generate();
    let ds = &gen.dataset;

    let mut result = None;
    let blocking = alloc_calls(|| result = Some(mfi_blocks(ds, &MfiBlocksConfig::default())));
    let result = result.expect("the closure ran");
    // The pointer-based miner and per-block vectors made 207 711 calls
    // here (2 251 MFIs, 785 kept blocks, 4 709 pairs).
    assert!(blocking <= 40_000, "mfi_blocks made {blocking} allocator calls");

    let blocks: Vec<_> = result.blocks.iter().cycle().take(1_000).collect();
    let mut total = 0.0;
    let scoring = alloc_calls(|| {
        for block in &blocks {
            total += block_score(ds, &block.records, &ScoreFunction::Jaccard);
        }
    });
    assert!(total.is_finite());
    assert_eq!(scoring, 0, "block_score allocated {scoring} times over {} blocks", blocks.len());
}
