//! The tagged gold standard, constructed the way the paper constructed it.
//!
//! Section 5.1: candidate pairs were collected from several MFIBlocks
//! configurations, bundled into a tagging application and labelled by Yad
//! Vashem archival experts on the five-level scale. The exhaustive pair
//! set was too large to review, so the standard has acknowledged false
//! negatives — quality numbers in Sections 6.4–6.6 are relative to this
//! standard, not to complete ground truth.

use std::collections::HashSet;
use yv_blocking::{mfi_blocks, MfiBlocksConfig};
use yv_datagen::{tag_pairs, ExpertTag, Generated, TaggedPair};
use yv_records::RecordId;

/// The tagged standard: expert-tagged pairs plus the derived matched-pair
/// set (Yes ∪ ProbablyYes after the Section 5.1 simplification).
#[derive(Debug, Clone)]
pub struct TaggedStandard {
    pub pairs: Vec<TaggedPair>,
    /// Simplified positive pairs.
    pub matched: HashSet<(RecordId, RecordId)>,
}

impl TaggedStandard {
    /// Count of pairs with a given tag.
    #[must_use]
    pub fn tag_count(&self, tag: ExpertTag) -> usize {
        self.pairs.iter().filter(|p| p.tag == tag).count()
    }

    /// Pairs involving any record of `records` removed (used by the
    /// MV-ablation of Table 6).
    #[must_use]
    pub fn without_records(&self, records: &HashSet<RecordId>) -> TaggedStandard {
        let pairs: Vec<TaggedPair> = self
            .pairs
            .iter()
            .filter(|p| !records.contains(&p.a) && !records.contains(&p.b))
            .copied()
            .collect();
        let matched = pairs
            .iter()
            .filter(|p| p.simplified() == Some(true))
            .map(|p| (p.a, p.b))
            .collect();
        TaggedStandard { pairs, matched }
    }
}

/// The configurations whose candidate unions form the standard ("MFIBlocks
/// was run several times and with several configurations").
#[must_use]
pub fn standard_configs() -> Vec<MfiBlocksConfig> {
    vec![
        MfiBlocksConfig::expert_weighting().with_max_minsup(5).with_ng(3.0),
        MfiBlocksConfig::expert_weighting().with_max_minsup(5).with_ng(4.0),
        MfiBlocksConfig::expert_weighting().with_max_minsup(6).with_ng(3.0),
        MfiBlocksConfig::base().with_max_minsup(4).with_ng(5.0),
    ]
}

/// Build the tagged standard for a generated dataset: union the candidate
/// pairs of [`standard_configs`], tag them with the expert oracle.
#[must_use]
pub fn build_tagged_standard(gen: &Generated, seed: u64) -> TaggedStandard {
    let mut union: HashSet<(RecordId, RecordId)> = HashSet::new();
    for config in standard_configs() {
        let result = mfi_blocks(&gen.dataset, &config);
        union.extend(result.candidate_pairs);
    }
    let mut pairs: Vec<(RecordId, RecordId)> = union.into_iter().collect();
    pairs.sort_unstable();
    let tagged = tag_pairs(gen, &pairs, seed);
    let matched = tagged
        .iter()
        .filter(|p| p.simplified() == Some(true))
        .map(|p| (p.a, p.b))
        .collect();
    TaggedStandard { pairs: tagged, matched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_datagen::GenConfig;

    fn standard() -> (Generated, TaggedStandard) {
        let gen = GenConfig::random(800, 3).generate();
        let std = build_tagged_standard(&gen, 17);
        (gen, std)
    }

    #[test]
    fn standard_is_nonempty_and_consistent() {
        let (_, std) = standard();
        assert!(!std.pairs.is_empty());
        assert!(!std.matched.is_empty());
        #[allow(
            clippy::iter_over_hash_type,
            reason = "asserts the same thing about every pair; nothing is emitted"
        )]
        for &(a, b) in &std.matched {
            assert!(a < b);
        }
        assert!(std.matched.len() <= std.pairs.len());
    }

    #[test]
    fn matched_pairs_are_mostly_true_matches() {
        let (gen, std) = standard();
        let correct =
            std.matched.iter().filter(|&&(a, b)| gen.is_match(a, b)).count();
        let frac = correct as f64 / std.matched.len() as f64;
        assert!(frac > 0.8, "oracle-tagged standard purity {frac}");
    }

    #[test]
    fn maybe_pairs_exist(){
        let (_, std) = standard();
        assert!(std.tag_count(ExpertTag::Maybe) > 0);
    }

    #[test]
    fn without_records_removes_pairs() {
        let (_, std) = standard();
        let victim = std.pairs[0].a;
        let removed = std.without_records(&HashSet::from([victim]));
        assert!(removed.pairs.iter().all(|p| p.a != victim && p.b != victim));
        assert!(removed.pairs.len() < std.pairs.len());
    }

    #[test]
    fn deterministic() {
        let gen = GenConfig::random(500, 9).generate();
        let a = build_tagged_standard(&gen, 1);
        let b = build_tagged_standard(&gen, 1);
        assert_eq!(a.pairs.len(), b.pairs.len());
        assert_eq!(a.matched, b.matched);
    }
}
