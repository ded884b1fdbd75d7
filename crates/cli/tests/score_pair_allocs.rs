//! Allocation guard for pair scoring: it must not touch the heap (the
//! generator's names are ASCII plus the odd Latin diacritic; only a
//! capital sigma or a name past 64 characters would).
//!
//! One test in a test binary of its own: the counting allocator (the
//! default `alloc-metrics` feature, as in the shipped `yv`) is
//! process-wide, so no other test may run beside the measured section.
//!
//! The query index's vocabulary scan is not guarded yet: `QueryIndex::seeds`
//! still runs the allocating Jaro-Winkler (see `crates/store/src/index.rs`).

use yv_blocking::mfi_blocks;
use yv_core::{Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};

/// Allocation calls made by `f`.
fn alloc_calls(f: impl FnOnce()) -> u64 {
    let before = yv_obs::alloc_stats().alloc_calls;
    f();
    yv_obs::alloc_stats().alloc_calls - before
}

#[test]
fn score_pair_does_not_allocate() {
    if !yv_obs::alloc_stats().enabled {
        // Built with --no-default-features: nothing counts allocations.
        return;
    }
    let gen = GenConfig::random(700, 41).generate();
    let ds = &gen.dataset;
    let config = PipelineConfig::default();
    let blocked = mfi_blocks(ds, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 5);
    let labelled: Vec<_> = tags
        .iter()
        .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
        .collect();
    let pipeline = Pipeline::train(ds, &labelled, &config);
    assert!(!pipeline.model.is_empty());

    let pairs = &blocked.candidate_pairs[..1_000];
    let mut total = 0.0;
    let scoring = alloc_calls(|| {
        for &(a, b) in pairs {
            total += pipeline.score_pair(ds, a, b);
        }
    });
    assert!(total.is_finite());
    assert_eq!(
        scoring,
        0,
        "score_pair allocated {scoring} times over {} pairs",
        pairs.len()
    );
}
