//! Block scoring.
//!
//! A block's score measures the commonality of its records. The default is
//! the minimum pairwise Jaccard coefficient over the records' item bags —
//! a set-monotonic measure (adding a record can only lower the score),
//! which is what lets MFIBlocks prune by score safely. The expert-weighted
//! variant replaces set cardinalities with item-type weight sums; the
//! `ExpertSim` variant soft-matches items through Eq. 1 and loses
//! monotonicity (the paper's Table 9 shows the resulting quality drop).

use crate::config::ScoreFunction;
use yv_records::{Dataset, ItemId, RecordId};
use yv_similarity::fsim::item_similarity;
use yv_similarity::jaccard::jaccard_sorted;
use yv_similarity::ExpertWeights;

/// Score a block (its records' bags) under the configured function.
#[must_use]
pub fn block_score(ds: &Dataset, records: &[RecordId], score: &ScoreFunction) -> f64 {
    if records.len() < 2 {
        return 1.0;
    }
    let first = pair_score(ds, records[0], records[1], score);
    block_score_above(ds, records, score, first, f64::NEG_INFINITY)
}

/// Similarity of two records' bags. A block's score is the minimum of this
/// over its pairs — for all three functions, set-monotonic or not — so any
/// one pair bounds it from above.
pub(crate) fn pair_score(ds: &Dataset, a: RecordId, b: RecordId, score: &ScoreFunction) -> f64 {
    let (a, b) = (ds.bag(a), ds.bag(b));
    match score {
        ScoreFunction::Jaccard => jaccard_sorted(a, b),
        ScoreFunction::WeightedJaccard(w) => weighted_jaccard(ds, a, b, w),
        ScoreFunction::ExpertSim => soft_jaccard(ds, a, b),
    }
}

/// [`block_score`] given `first`, the score of the pair `records[..2]`,
/// giving up once the running minimum is at or below `bar`: a result above
/// `bar` is the exact score, any other only says the score is not above it.
pub(crate) fn block_score_above(
    ds: &Dataset,
    records: &[RecordId],
    score: &ScoreFunction,
    first: f64,
    bar: f64,
) -> f64 {
    let mut min = first;
    for i in 0..records.len() {
        // Every pair but (0, 1), which is `first`.
        for j in (i + 1).max(2)..records.len() {
            if min <= bar || min == 0.0 {
                return min;
            }
            min = min.min(pair_score(ds, records[i], records[j], score));
        }
    }
    min
}

/// Weighted Jaccard: intersection / union measured in item-type weights.
fn weighted_jaccard(ds: &Dataset, a: &[ItemId], b: &[ItemId], w: &ExpertWeights) -> f64 {
    let weight = |id: ItemId| w.weight(ds.interner().item_type(id));
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0.0;
    let mut union = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                union += weight(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += weight(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let x = weight(a[i]);
                inter += x;
                union += x;
                i += 1;
                j += 1;
            }
        }
    }
    union += a[i..].iter().map(|&id| weight(id)).sum::<f64>();
    union += b[j..].iter().map(|&id| weight(id)).sum::<f64>();
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Soft Jaccard through the expert item similarity (Eq. 1): each item of
/// the smaller bag matches its best same-typed counterpart; the sum of
/// match similarities replaces the crisp intersection.
fn soft_jaccard(ds: &Dataset, a: &[ItemId], b: &[ItemId], ) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut soft_inter = 0.0;
    for &x in small {
        let mut best = 0.0f64;
        for &y in large {
            best = best.max(item_similarity(ds.interner(), x, y));
            if best >= 1.0 {
                break;
            }
        }
        soft_inter += best;
    }
    let union = (a.len() + b.len()) as f64 - soft_inter;
    if union <= 0.0 {
        1.0
    } else {
        soft_inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{DateParts, Gender, RecordBuilder, Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        // r0 and r1 highly similar; r2 unrelated.
        ds.add_record(
            RecordBuilder::new(0, s)
                .first_name("Guido")
                .last_name("Foa")
                .gender(Gender::Male)
                .birth(DateParts::year_only(1920))
                .build(),
        );
        ds.add_record(
            RecordBuilder::new(1, s)
                .first_name("Guido")
                .last_name("Foa")
                .gender(Gender::Male)
                .birth(DateParts::year_only(1921))
                .build(),
        );
        ds.add_record(
            RecordBuilder::new(2, s)
                .first_name("Moshe")
                .last_name("Kesler")
                .gender(Gender::Male)
                .build(),
        );
        ds
    }

    fn rid(i: u32) -> RecordId {
        RecordId(i)
    }

    #[test]
    fn similar_records_score_higher() {
        let ds = dataset();
        let close = block_score(&ds, &[rid(0), rid(1)], &ScoreFunction::Jaccard);
        let far = block_score(&ds, &[rid(0), rid(2)], &ScoreFunction::Jaccard);
        assert!(close > far, "{close} vs {far}");
    }

    #[test]
    fn adding_a_record_never_raises_the_jaccard_score() {
        // Set monotonicity: the property [18] relies on.
        let ds = dataset();
        let two = block_score(&ds, &[rid(0), rid(1)], &ScoreFunction::Jaccard);
        let three = block_score(&ds, &[rid(0), rid(1), rid(2)], &ScoreFunction::Jaccard);
        assert!(three <= two);
    }

    #[test]
    fn singleton_blocks_score_one() {
        let ds = dataset();
        for f in [ScoreFunction::Jaccard, ScoreFunction::ExpertSim] {
            assert!((block_score(&ds, &[rid(0)], &f) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_jaccard_responds_to_weights() {
        let ds = dataset();
        // Down-weighting gender (the only shared item between r0 and r2)
        // should lower their weighted score relative to uniform.
        let uniform = block_score(
            &ds,
            &[rid(0), rid(2)],
            &ScoreFunction::WeightedJaccard(ExpertWeights::uniform()),
        );
        let expert = block_score(
            &ds,
            &[rid(0), rid(2)],
            &ScoreFunction::WeightedJaccard(ExpertWeights::default()),
        );
        assert!(expert < uniform, "{expert} vs {uniform}");
    }

    #[test]
    fn uniform_weighted_jaccard_equals_plain() {
        let ds = dataset();
        let plain = block_score(&ds, &[rid(0), rid(1)], &ScoreFunction::Jaccard);
        let weighted = block_score(
            &ds,
            &[rid(0), rid(1)],
            &ScoreFunction::WeightedJaccard(ExpertWeights::uniform()),
        );
        assert!((plain - weighted).abs() < 1e-12);
    }

    #[test]
    fn expert_sim_soft_matches_near_years() {
        let ds = dataset();
        // r0 (1920) and r1 (1921) differ in birth year; crisp Jaccard
        // counts the years as disjoint, fsim scores them 0.98.
        let crisp = block_score(&ds, &[rid(0), rid(1)], &ScoreFunction::Jaccard);
        let soft = block_score(&ds, &[rid(0), rid(1)], &ScoreFunction::ExpertSim);
        assert!(soft > crisp, "{soft} vs {crisp}");
    }
}
