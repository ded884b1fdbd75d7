//! The sparse-neighborhood (NG) condition.
//!
//! Lines 9–15 of Algorithm 1: after candidate blocks are materialized, a
//! score threshold `minTh` is derived such that filtering blocks scoring at
//! or below it restores the sparse-neighborhood property — no record
//! accumulates more than `NG · minsup` distinct candidate neighbors. Higher
//! NG tolerates more overlap (higher recall, lower precision — Figure 16).

use crate::csr::{group_by_key, row};
use yv_records::RecordId;

/// Derive the NG score threshold for one minsup iteration from the blocks
/// listed in `blocks`. Block `i` holds `records[offsets[i]..offsets[i + 1]]`
/// and scored `scores[i]`.
///
/// For every record, blocks containing it are visited from highest to
/// lowest score, accumulating distinct neighbors; once the cap
/// `ceil(ng · minsup)` is exceeded, the record demands that all its lower-
/// scoring blocks be pruned, i.e. a per-record threshold equal to the score
/// of the first violating block. `minTh` is the maximum such demand
/// (blocks scoring strictly above survive).
///
/// Equivalently, `minTh` is the largest `t` at which some record gathers
/// more than the cap of distinct neighbors through blocks scoring `>= t`
/// (−∞ when none does). So it never falls when blocks are added, and
/// blocks scoring at or below it cannot raise it: [`crate::mfiblocks`]
/// scores blocks lazily on these two facts.
#[must_use]
pub fn ng_threshold(
    records: &[RecordId],
    offsets: &[u32],
    scores: &[f64],
    blocks: &[u32],
    ng: f64,
    minsup: u64,
) -> f64 {
    let cap = (ng * minsup as f64).ceil() as usize;
    let block = |bi: u32| row(records, offsets, bi as usize);
    // Record -> blocks containing it, in block order:
    // `member_of[starts[r]..starts[r + 1]]`.
    let members = blocks.iter().flat_map(|&bi| block(bi).iter().map(move |r| (r.index(), bi)));
    let n_records = members.clone().map(|(r, _)| r + 1).max().unwrap_or(0);
    let (starts, mut member_of) = group_by_key(n_records, members);
    let mut min_th = f64::NEG_INFINITY;
    // `seen[r] == record + 1` marks r as already counted for `record`.
    let mut seen = vec![0u32; n_records];
    for record in 0..n_records {
        let blocks = &mut member_of[starts[record] as usize..starts[record + 1] as usize];
        // Score-descending, ties in block order: the same visit order on
        // every run.
        blocks.sort_unstable_by(|&a, &b| {
            scores[b as usize].total_cmp(&scores[a as usize]).then(a.cmp(&b))
        });
        let stamp = record as u32 + 1;
        let mut neighbors = 0usize;
        for &bi in blocks.iter() {
            for r in block(bi) {
                if r.index() != record && seen[r.index()] != stamp {
                    seen[r.index()] = stamp;
                    neighbors += 1;
                }
            }
            if neighbors > cap {
                // Every block of this record scoring <= this one must go.
                if scores[bi as usize] > min_th {
                    min_th = scores[bi as usize];
                }
                break;
            }
        }
    }
    min_th
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use yv_records::RecordId;

    fn block(ids: &[u32], score: f64) -> (Vec<RecordId>, f64) {
        (ids.iter().map(|&i| RecordId(i)).collect(), score)
    }

    /// [`super::ng_threshold`] over blocks given one by one.
    fn ng_threshold(blocks: &[(Vec<RecordId>, f64)], ng: f64, minsup: u64) -> f64 {
        let records: Vec<RecordId> = blocks.iter().flat_map(|(r, _)| r.iter().copied()).collect();
        let mut offsets = vec![0u32];
        for (r, _) in blocks {
            offsets.push(offsets[offsets.len() - 1] + r.len() as u32);
        }
        let scores: Vec<f64> = blocks.iter().map(|&(_, s)| s).collect();
        let all: Vec<u32> = (0..blocks.len() as u32).collect();
        super::ng_threshold(&records, &offsets, &scores, &all, ng, minsup)
    }

    #[test]
    fn no_violation_means_no_threshold() {
        let blocks = vec![block(&[0, 1], 0.9), block(&[2, 3], 0.8)];
        let th = ng_threshold(&blocks, 3.0, 2);
        assert_eq!(th, f64::NEG_INFINITY);
        assert!(blocks.iter().all(|(_, s)| *s > th));
    }

    #[test]
    fn crowded_record_sets_threshold() {
        // Record 0 sits in four blocks, gaining 2 fresh neighbors each;
        // with cap = ceil(0.5 * 2) = 1 the second-best block already
        // violates.
        let blocks = vec![
            block(&[0, 1, 2], 0.9),
            block(&[0, 3, 4], 0.8),
            block(&[0, 5, 6], 0.7),
            block(&[0, 7, 8], 0.6),
        ];
        let th = ng_threshold(&blocks, 0.5, 2);
        assert!((th - 0.9).abs() < 1e-12, "got {th}");
        // Only blocks scoring above 0.9 survive: none here.
        assert_eq!(blocks.iter().filter(|(_, s)| *s > th).count(), 0);
    }

    #[test]
    fn looser_ng_keeps_more_blocks() {
        let blocks = vec![
            block(&[0, 1, 2], 0.9),
            block(&[0, 3, 4], 0.8),
            block(&[0, 5, 6], 0.7),
        ];
        let tight = ng_threshold(&blocks, 1.0, 2);
        let loose = ng_threshold(&blocks, 3.0, 2);
        let kept_tight = blocks.iter().filter(|(_, s)| *s > tight).count();
        let kept_loose = blocks.iter().filter(|(_, s)| *s > loose).count();
        assert!(kept_loose >= kept_tight);
        assert_eq!(kept_loose, 3, "cap 6 neighbors: all blocks fit");
    }

    #[test]
    fn threshold_is_monotone_in_ng() {
        let blocks = vec![
            block(&[0, 1, 2, 3], 0.9),
            block(&[0, 4, 5, 6], 0.8),
            block(&[0, 7, 8, 9], 0.7),
            block(&[0, 10, 11], 0.6),
        ];
        let mut last = f64::INFINITY;
        for ng in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let th = ng_threshold(&blocks, ng, 2);
            assert!(th <= last, "threshold should relax as NG grows");
            last = th;
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(ng_threshold(&[], 3.0, 2), f64::NEG_INFINITY);
    }

    /// The definition the lazy pass rests on: the largest block score `t`
    /// at which some record has more than `ceil(ng · minsup)` distinct
    /// neighbors through blocks scoring `>= t`.
    fn brute_force(blocks: &[(Vec<RecordId>, f64)], ng: f64, minsup: u64) -> f64 {
        let cap = (ng * minsup as f64).ceil() as usize;
        let crowded = |t: f64| {
            blocks.iter().flat_map(|(records, _)| records).any(|&record| {
                let neighbors: BTreeSet<RecordId> = blocks
                    .iter()
                    .filter(|(records, score)| *score >= t && records.contains(&record))
                    .flat_map(|(records, _)| records.iter().copied())
                    .filter(|&r| r != record)
                    .collect();
                neighbors.len() > cap
            })
        };
        let violating = blocks.iter().map(|&(_, t)| t).filter(|&t| crowded(t));
        violating.fold(f64::NEG_INFINITY, f64::max)
    }

    /// Up to 24 blocks of 2–5 of 12 records; scores are quarters, so ties
    /// are common. `picks` draws a sub-collection.
    fn blocks_from(raw: &[Vec<u32>], quarters: &[u32]) -> Vec<(Vec<RecordId>, f64)> {
        let cleaned = raw.iter().zip(quarters).map(|(ids, &q)| {
            let set: BTreeSet<u32> = ids.iter().copied().collect();
            block(&set.into_iter().collect::<Vec<_>>(), f64::from(q) / 4.0)
        });
        cleaned.filter(|(records, _)| records.len() >= 2).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn threshold_is_the_brute_force_maximum(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..12, 2..6), 0..25),
            quarters in proptest::collection::vec(0u32..5, 25..26),
            half_ng in 1u32..6,
        ) {
            let blocks = blocks_from(&raw, &quarters);
            let ng = f64::from(half_ng) / 2.0;
            prop_assert_eq!(
                ng_threshold(&blocks, ng, 2).to_bits(),
                brute_force(&blocks, ng, 2).to_bits()
            );
        }

        #[test]
        fn threshold_never_falls_when_blocks_are_added_and_ignores_blocks_at_or_below_it(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..12, 2..6), 0..25),
            quarters in proptest::collection::vec(0u32..5, 25..26),
            picks in proptest::collection::vec(0u32..2, 25..26),
            half_ng in 1u32..6,
        ) {
            let blocks = blocks_from(&raw, &quarters);
            let ng = f64::from(half_ng) / 2.0;
            let all = ng_threshold(&blocks, ng, 2);
            let (some, rest): (Vec<_>, Vec<_>) =
                blocks.iter().cloned().zip(&picks).partition(|(_, &pick)| pick == 1);
            let mut some: Vec<_> = some.into_iter().map(|(b, _)| b).collect();
            let of_some = ng_threshold(&some, ng, 2);
            prop_assert!(of_some <= all, "{of_some} over a subset, {all} over all");
            // Blocks at or below a collection's threshold do not move it.
            some.extend(rest.into_iter().map(|(b, _)| b).filter(|&(_, s)| s <= of_some));
            prop_assert_eq!(ng_threshold(&some, ng, 2).to_bits(), of_some.to_bits());
            // In particular the blocks strictly below the full threshold
            // can all go; the ones at it cannot (they carry the violation).
            let above: Vec<_> = blocks.iter().filter(|&&(_, s)| s >= all).cloned().collect();
            prop_assert_eq!(ng_threshold(&above, ng, 2).to_bits(), all.to_bits());
        }
    }
}
