//! MFIBlocks configuration.

use yv_similarity::ExpertWeights;

/// How candidate blocks are scored (Section 6.5 conditions).
#[derive(Debug, Clone, Default)]
#[allow(clippy::large_enum_variant)] // the weight table is 28 f64s; configs are not hot
pub enum ScoreFunction {
    /// Minimum pairwise Jaccard of record item bags within the block —
    /// set-monotonic, the property MFIBlocks relies on (\[18\]). Uniform item
    /// weights: the `Base` condition.
    #[default]
    Jaccard,
    /// Weighted Jaccard with expert item-type weights (`Expert Weighting`).
    WeightedJaccard(ExpertWeights),
    /// The hand-crafted expert item similarity of Eq. 1 (`ExpertSim`).
    /// Soft-matches items of the same type; *not* set-monotonic, which the
    /// paper found detrimental (Table 9).
    ExpertSim,
}

/// MFIBlocks parameters.
#[derive(Debug, Clone)]
pub struct MfiBlocksConfig {
    /// `MaxMinSup`: the first (largest) minsup level; iteration proceeds
    /// down to 2. Matches the archival estimate of at most eight
    /// duplicates.
    pub max_minsup: u64,
    /// Neighborhood Growth: how much block overlap is tolerated per record
    /// (Section 6.5; swept over 1.5–5 in Figures 15–16).
    pub ng: f64,
    /// Block size cap factor: blocks with more than `minsup · p` records
    /// are pruned (line 8 of Algorithm 1).
    pub p: f64,
    /// Block scoring function.
    pub score: ScoreFunction,
    /// Prune this fraction of the most frequent items before mining
    /// (Section 6.3 uses 0.0003); `None` disables pruning.
    pub prune_frequent: Option<f64>,
    /// Additionally prune items occurring in more than this fraction of
    /// records (gender codes, country names). The paper's 0.03% vocabulary
    /// fraction presumes a 6.5M-record multilingual vocabulary; on small
    /// subsets this record-fraction cap is the scale-free equivalent.
    pub prune_common: Option<f64>,
}

impl Default for MfiBlocksConfig {
    fn default() -> Self {
        MfiBlocksConfig {
            max_minsup: 5,
            ng: 3.0,
            p: 2.0,
            score: ScoreFunction::default(),
            prune_frequent: Some(0.0003),
            prune_common: Some(0.05),
        }
    }
}

impl MfiBlocksConfig {
    /// The `Base` condition of Table 9: uniform weights, plain Jaccard.
    #[must_use]
    pub fn base() -> Self {
        Self::default()
    }

    /// The `Expert Weighting` condition of Table 9.
    #[must_use]
    pub fn expert_weighting() -> Self {
        MfiBlocksConfig { score: ScoreFunction::WeightedJaccard(ExpertWeights::default()), ..Self::default() }
    }

    /// The `ExpertSim` condition of Table 9.
    #[must_use]
    pub fn expert_sim() -> Self {
        MfiBlocksConfig { score: ScoreFunction::ExpertSim, ..Self::default() }
    }

    /// Builder-style override of `MaxMinSup`.
    #[must_use]
    pub fn with_max_minsup(mut self, max_minsup: u64) -> Self {
        self.max_minsup = max_minsup;
        self
    }

    /// Builder-style override of NG.
    #[must_use]
    pub fn with_ng(mut self, ng: f64) -> Self {
        self.ng = ng;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_recommended_settings() {
        let c = MfiBlocksConfig::default();
        // Section 6.5: MaxMinSup = 5 and NG in [3, 4] are the preferred
        // settings.
        assert_eq!(c.max_minsup, 5);
        assert!((3.0..=4.0).contains(&c.ng));
        assert!(c.prune_frequent.is_some());
    }

    #[test]
    fn builders_override() {
        let c = MfiBlocksConfig::base().with_max_minsup(6).with_ng(1.5);
        assert_eq!(c.max_minsup, 6);
        assert!((c.ng - 1.5).abs() < 1e-12);
    }

    #[test]
    fn condition_constructors_pick_score_functions() {
        assert!(matches!(MfiBlocksConfig::base().score, ScoreFunction::Jaccard));
        assert!(matches!(
            MfiBlocksConfig::expert_weighting().score,
            ScoreFunction::WeightedJaccard(_)
        ));
        assert!(matches!(MfiBlocksConfig::expert_sim().score, ScoreFunction::ExpertSim));
    }
}
