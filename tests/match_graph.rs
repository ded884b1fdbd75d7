//! The one entity structure: `IncrementalResolver::entity_of` walks the
//! match graph cut at a certainty threshold and must agree, record for
//! record, with the batch reference — the connected components
//! `Resolution::entities` derives from the same matches — for any match
//! list, in any arrival order, at any threshold. `best_score` must agree
//! with a plain fold over the matches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use yad_vashem_er::adt::AdTree;
use yad_vashem_er::core::{IncrementalConfig, IncrementalResolver};
use yad_vashem_er::prelude::*;

/// Records the random matches draw their endpoints from.
const RECORDS: u32 = 24;

/// Thresholds every case is checked at, besides its random one: both
/// infinities, a negative, zero, and cuts that tie with generated scores
/// (scores are multiples of 0.5 in −2.0..=2.0).
const THRESHOLDS: [f64; 7] = [f64::NEG_INFINITY, -1.25, -0.5, 0.0, 0.5, 2.0, f64::INFINITY];

/// The first `n` matches of three parallel draws. Scores come from a
/// coarse grid so that ties between matches, and between a match and a
/// threshold, are the common case.
fn matches_from(a: &[u32], b: &[u32], halves: &[i32], n: usize) -> Vec<RankedMatch> {
    a.iter()
        .zip(b)
        .zip(halves)
        .take(n)
        .map(|((&a, &b), &half)| {
            RankedMatch::new(RecordId(a), RecordId(b), f64::from(half) * 0.5)
        })
        .collect()
}

/// A resolver holding `matches` in the given order over `RECORDS` blank
/// records (the model is never consulted: nothing is inserted).
fn resolver_over(matches: Vec<RankedMatch>) -> IncrementalResolver {
    let mut ds = Dataset::new();
    let source = ds.add_source(Source::list(SourceId(0), "list"));
    for book in 0..RECORDS {
        ds.add_record(RecordBuilder::new(u64::from(book), source).build());
    }
    IncrementalResolver::from_parts(
        ds,
        Pipeline::with_model(AdTree::prior(0.0)),
        PipelineConfig::default(),
        IncrementalConfig::default(),
        matches,
    )
}

/// What the store used to serve: the record's component in the batch
/// entity map, or the record alone.
fn reference_entity(resolution: &Resolution, rid: RecordId, threshold: f64) -> Vec<RecordId> {
    resolution
        .entity_map(threshold)
        .entity_of(rid)
        .map_or_else(|| vec![rid], <[RecordId]>::to_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn entity_of_equals_the_batch_components_in_any_order(
        a in proptest::collection::vec(0u32..RECORDS, 60..61),
        b in proptest::collection::vec(0u32..RECORDS, 60..61),
        halves in proptest::collection::vec(-4i32..5, 60..61),
        n in 0usize..61,
        order in 0u64..u64::MAX,
        threshold in -2.5f64..2.5,
    ) {
        let matches = matches_from(&a, &b, &halves, n);
        let resolution = Resolution::new(matches.clone(), vec![]);
        let mut shuffled = matches.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(order));
        let resolver = resolver_over(shuffled);

        for t in THRESHOLDS.into_iter().chain([threshold]) {
            for r in 0..RECORDS {
                let rid = RecordId(r);
                prop_assert_eq!(
                    resolver.entity_of(rid, t),
                    reference_entity(&resolution, rid, t),
                    "record {} at threshold {}", r, t
                );
            }
        }
        for r in 0..RECORDS {
            let rid = RecordId(r);
            let fold = matches
                .iter()
                .filter(|m| m.a == rid || m.b == rid)
                .fold(0.0_f64, |best, m| if m.score > best { m.score } else { best });
            prop_assert_eq!(resolver.best_score(rid), fold, "record {}", r);
        }
        // A record the matches never mention is its own entity.
        let stranger = RecordId(RECORDS + 7);
        prop_assert_eq!(resolver.entity_of(stranger, 0.0), vec![stranger]);
        prop_assert_eq!(resolver.best_score(stranger), 0.0);
    }

    /// Raising the certainty only ever splits entities: the partition at
    /// the stricter threshold refines the partition at the looser one.
    #[test]
    fn a_stricter_threshold_refines_the_partition(
        a in proptest::collection::vec(0u32..RECORDS, 60..61),
        b in proptest::collection::vec(0u32..RECORDS, 60..61),
        halves in proptest::collection::vec(-4i32..5, 60..61),
        n in 0usize..61,
        q1 in -10i32..11,
        q2 in -10i32..11,
    ) {
        let resolver = resolver_over(matches_from(&a, &b, &halves, n));
        // Quarter steps: every other threshold ties with a score.
        let (loose, strict) = (f64::from(q1.min(q2)) * 0.25, f64::from(q1.max(q2)) * 0.25);
        for r in 0..RECORDS {
            let rid = RecordId(r);
            let coarse = resolver.entity_of(rid, loose);
            let fine = resolver.entity_of(rid, strict);
            prop_assert!(
                fine.iter().all(|m| coarse.contains(m)),
                "entity of {} at {} must sit inside its entity at {}", r, strict, loose
            );
            // Both are partitions: every member names the same entity.
            for &m in &fine {
                prop_assert_eq!(resolver.entity_of(m, strict), fine.clone());
            }
        }
    }
}
