//! Property: merging histograms is exact. Because every [`Histogram`]
//! shares the same fixed power-of-two bucket boundaries, folding one
//! histogram into another produces bucket counts identical to a histogram
//! fed the concatenated sample stream — so merged quantiles equal the
//! quantiles of the concatenation (well within the issue's one-bucket
//! tolerance: the property holds exactly).

#![allow(clippy::unwrap_used)]

use proptest::collection::vec;
use proptest::prelude::*;
use yv_obs::Histogram;

fn fill(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &ns in samples {
        h.record_ns(ns);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles of `a.merge(&b)` equal quantiles of the concatenated
    /// stream `a ++ b`, for every quantile and any sample mix spanning
    /// sub-microsecond to multi-second latencies.
    fn merged_quantiles_equal_concatenated_stream(
        a in vec(0u64..5_000_000_000, 0..120),
        b in vec(0u64..5_000_000_000, 0..120),
    ) {
        let left = fill(&a);
        let right = fill(&b);
        left.merge(&right);

        let concatenated: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let reference = fill(&concatenated);

        // Bucket-exact merge: identical snapshots...
        prop_assert_eq!(left.snapshot(), reference.snapshot());
        // ...hence identical quantiles at every rank.
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(
                left.percentile_us(q),
                reference.percentile_us(q),
                "q={}", q
            );
        }
        prop_assert_eq!(left.summary(), reference.summary());
        // The merge source is untouched.
        prop_assert_eq!(right.snapshot(), fill(&b).snapshot());
    }

    /// Merge is commutative on the bucket level: a∪b == b∪a.
    fn merge_is_commutative(
        a in vec(0u64..5_000_000_000, 0..80),
        b in vec(0u64..5_000_000_000, 0..80),
    ) {
        let ab = fill(&a);
        ab.merge(&fill(&b));
        let ba = fill(&b);
        ba.merge(&fill(&a));
        prop_assert_eq!(ab.snapshot(), ba.snapshot());
    }

    /// `sub` then `merge` round-trips a snapshot: for any prefix/window
    /// split of one growing histogram, `later.sub(&earlier)` recovers the
    /// window and merging it back onto `earlier` reproduces `later`
    /// field-for-field (counts, sum, max, and the min bound) — the
    /// invariant the windowed rollups rely on.
    fn sub_then_merge_round_trips(
        prefix in vec(0u64..5_000_000_000, 0..100),
        window in vec(0u64..5_000_000_000, 0..100),
    ) {
        let h = fill(&prefix);
        let earlier = h.snapshot();
        for &ns in &window {
            h.record_ns(ns);
        }
        let later = h.snapshot();
        let delta = later.sub(&earlier).expect("later is a superset of earlier");
        prop_assert_eq!(delta.count(), window.len() as u64);
        prop_assert_eq!(delta.merge(&earlier), later);
        prop_assert_eq!(earlier.merge(&delta), later);
        // The delta's percentiles never undershoot its min bound.
        for q in [0.0, 0.5, 0.99, 1.0] {
            if delta.count() > 0 {
                prop_assert!(delta.percentile_interp_us(q) >= delta.min_ns / 1_000, "q={}", q);
            }
        }
        // Subtracting out of order is a typed refusal, not garbage.
        if delta.count() > 0 {
            prop_assert_eq!(earlier.sub(&later), None);
        }
    }
}
