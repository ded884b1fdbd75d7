//! The blocking-metric vocabulary of the comparative-survey literature
//! (\[24\], Christen's survey \[9\]): reduction ratio, pairs completeness and
//! pairs quality. Table 10 reports recall/precision (≡ PC/PQ); these
//! helpers expose the standard names plus the reduction ratio the paper
//! cites in Section 3.1 ("blocking techniques manage to reduce the number
//! of pair-wise comparisons by 87–97%").

/// The three standard blocking metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingMetrics {
    /// `RR = 1 − |candidates| / |all pairs|`: how much of the Cartesian
    /// product the blocker avoided.
    pub reduction_ratio: f64,
    /// `PC = |candidates ∩ gold| / |gold|` — recall of the candidate set.
    pub pairs_completeness: f64,
    /// `PQ = |candidates ∩ gold| / |candidates|` — precision of the
    /// candidate set.
    pub pairs_quality: f64,
}

impl BlockingMetrics {
    /// Compute from counts. `n_records` determines the Cartesian product.
    #[must_use]
    pub fn from_counts(
        n_records: u64,
        candidates: u64,
        true_positives: u64,
        gold: u64,
    ) -> BlockingMetrics {
        let all_pairs = n_records * n_records.saturating_sub(1) / 2;
        BlockingMetrics {
            reduction_ratio: if all_pairs == 0 {
                1.0
            } else {
                1.0 - candidates as f64 / all_pairs as f64
            },
            pairs_completeness: if gold == 0 {
                1.0
            } else {
                true_positives as f64 / gold as f64
            },
            pairs_quality: if candidates == 0 {
                0.0
            } else {
                true_positives as f64 / candidates as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example() {
        // 100 records => 4,950 pairs; a blocker keeping 495 candidates of
        // which 40 are among the 50 gold pairs.
        let m = BlockingMetrics::from_counts(100, 495, 40, 50);
        assert!((m.reduction_ratio - 0.9).abs() < 1e-12);
        assert!((m.pairs_completeness - 0.8).abs() < 1e-12);
        assert!((m.pairs_quality - 40.0 / 495.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = BlockingMetrics::from_counts(0, 0, 0, 0);
        assert_eq!(empty.reduction_ratio, 1.0);
        assert_eq!(empty.pairs_completeness, 1.0);
        assert_eq!(empty.pairs_quality, 0.0);
        let one = BlockingMetrics::from_counts(1, 0, 0, 0);
        assert_eq!(one.reduction_ratio, 1.0);
    }

    #[test]
    fn mfiblocks_hits_the_survey_reduction_band() {
        // The paper cites 87–97% comparison reduction for blocking in
        // general; MFIBlocks on generated data exceeds even that.
        let gen = yv_datagen::GenConfig::random(1_000, 7).generate();
        let result =
            yv_blocking::mfi_blocks(&gen.dataset, &yv_blocking::MfiBlocksConfig::default());
        let gold: std::collections::HashSet<_> = gen.matching_pairs().into_iter().collect();
        let tp = result.candidate_pairs.iter().filter(|p| gold.contains(*p)).count();
        let m = BlockingMetrics::from_counts(
            gen.dataset.len() as u64,
            result.candidate_pairs.len() as u64,
            tp as u64,
            gold.len() as u64,
        );
        assert!(m.reduction_ratio > 0.87, "RR {}", m.reduction_ratio);
        assert!(m.pairs_completeness > 0.4);
    }
}
