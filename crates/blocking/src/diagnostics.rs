//! Compact-set / sparse-neighborhood diagnostics.
//!
//! MFIBlocks enforces the two cluster-quality properties of Chaudhuri et
//! al. \[7\] *constructively* (the size cap approximates compact sets, the
//! NG threshold enforces sparse neighborhoods). This module measures how
//! well a finished blocking actually satisfies them, so parameter choices
//! can be audited instead of trusted:
//!
//! * **compact set (CS)** — members of a block should be more similar to
//!   each other than to records outside it. We report, per block, the
//!   margin between the worst within-block pair similarity and the *mean*
//!   member-to-sampled-outsider similarity. (The mean, not the max: under
//!   soft clustering a member's other duplicates legitimately live outside
//!   this block and would dominate a max.)
//! * **sparse neighborhood (SN)** — no record should accumulate an
//!   outsized candidate neighborhood. We report the neighbor-count
//!   distribution against the `NG · minsup` cap.

use crate::mfiblocks::BlockingResult;
use std::collections::{HashMap, HashSet};
use yv_records::{Dataset, RecordId};
use yv_similarity::jaccard::jaccard_sorted;

/// Aggregated diagnostics over one blocking result.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingDiagnostics {
    /// Fraction of audited blocks whose worst internal similarity beats
    /// the mean sampled outsider similarity (the compact-set property).
    pub compact_fraction: f64,
    /// Mean margin `(worst internal) − (mean sampled outsider)` over the
    /// audited blocks; positive = compact on average.
    pub mean_compact_margin: f64,
    /// Maximum distinct-neighbor count of any record.
    pub max_neighbors: usize,
    /// Mean distinct-neighbor count over records that have any.
    pub mean_neighbors: f64,
    /// Fraction of records whose neighborhood stays within
    /// `ceil(ng · minsup)` for the *loosest* minsup used (the SN audit).
    pub sparse_fraction: f64,
    /// Number of blocks audited for compactness.
    pub audited_blocks: usize,
}

/// Audit a blocking result. `outsider_samples` caps how many outside
/// records are compared per block (deterministic stride sampling keeps the
/// audit linear).
#[must_use]
pub fn audit(
    ds: &Dataset,
    result: &BlockingResult,
    ng: f64,
    outsider_samples: usize,
) -> BlockingDiagnostics {
    let bags: Vec<Vec<u32>> =
        ds.bags().iter().map(|b| b.iter().map(|i| i.0).collect()).collect();
    let n = ds.len();

    // Compact-set audit.
    let mut compact_hits = 0usize;
    let mut margin_sum = 0.0;
    let mut audited = 0usize;
    for block in &result.blocks {
        if block.records.len() < 2 || n <= block.records.len() {
            continue;
        }
        let members: HashSet<RecordId> = block.records.iter().copied().collect();
        // Worst internal pair similarity.
        let mut worst_internal = f64::INFINITY;
        for (i, &a) in block.records.iter().enumerate() {
            for &b in &block.records[i + 1..] {
                worst_internal =
                    worst_internal.min(jaccard_sorted(&bags[a.index()], &bags[b.index()]));
            }
        }
        // Mean member-to-outsider similarity over a deterministic sample.
        let stride = (n / outsider_samples.max(1)).max(1);
        let mut outside_sum = 0.0f64;
        let mut outside_n = 0usize;
        for outsider in (0..n).step_by(stride) {
            let outsider = RecordId(outsider as u32);
            if members.contains(&outsider) {
                continue;
            }
            for &member in &block.records {
                outside_sum +=
                    jaccard_sorted(&bags[member.index()], &bags[outsider.index()]);
                outside_n += 1;
            }
        }
        audited += 1;
        let mean_outside = if outside_n == 0 { 0.0 } else { outside_sum / outside_n as f64 };
        let margin = worst_internal - mean_outside;
        margin_sum += margin;
        if margin > 0.0 {
            compact_hits += 1;
        }
    }

    // Sparse-neighborhood audit.
    let mut neighbors: HashMap<RecordId, HashSet<RecordId>> = HashMap::new();
    for &(a, b) in &result.candidate_pairs {
        neighbors.entry(a).or_default().insert(b);
        neighbors.entry(b).or_default().insert(a);
    }
    let loosest_minsup = result.blocks.iter().map(|b| b.minsup).max().unwrap_or(2);
    let cap = (ng * loosest_minsup as f64).ceil() as usize;
    let counts: Vec<usize> = neighbors.values().map(HashSet::len).collect();
    let within_cap = counts.iter().filter(|&&c| c <= cap).count();

    BlockingDiagnostics {
        compact_fraction: if audited == 0 {
            1.0
        } else {
            compact_hits as f64 / audited as f64
        },
        mean_compact_margin: if audited == 0 { 0.0 } else { margin_sum / audited as f64 },
        max_neighbors: counts.iter().copied().max().unwrap_or(0),
        mean_neighbors: if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<usize>() as f64 / counts.len() as f64
        },
        sparse_fraction: if counts.is_empty() {
            1.0
        } else {
            within_cap as f64 / counts.len() as f64
        },
        audited_blocks: audited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MfiBlocksConfig;
    use crate::mfiblocks::mfi_blocks;
    use yv_datagen::GenConfig;

    fn fixture() -> (yv_datagen::Generated, BlockingResult) {
        let gen = GenConfig::random(600, 21).generate();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        (gen, result)
    }

    #[test]
    fn blocks_are_mostly_compact() {
        let (gen, result) = fixture();
        let diag = audit(&gen.dataset, &result, 3.0, 64);
        assert!(diag.audited_blocks > 0);
        assert!(
            diag.compact_fraction > 0.5,
            "most surviving blocks should be compact: {diag:?}"
        );
    }

    #[test]
    fn tighter_ng_is_sparser() {
        let gen = GenConfig::random(600, 22).generate();
        let tight = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(1.5));
        let loose = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(5.0));
        let d_tight = audit(&gen.dataset, &tight, 1.5, 32);
        let d_loose = audit(&gen.dataset, &loose, 5.0, 32);
        assert!(
            d_tight.mean_neighbors <= d_loose.mean_neighbors + 1e-9,
            "tight {} vs loose {}",
            d_tight.mean_neighbors,
            d_loose.mean_neighbors
        );
    }

    #[test]
    fn empty_result_is_trivially_clean() {
        let ds = yv_records::Dataset::new();
        let result = mfi_blocks(&ds, &MfiBlocksConfig::default());
        let diag = audit(&ds, &result, 3.0, 16);
        assert_eq!(diag.audited_blocks, 0);
        assert_eq!(diag.compact_fraction, 1.0);
        assert_eq!(diag.sparse_fraction, 1.0);
        assert_eq!(diag.max_neighbors, 0);
    }

    #[test]
    fn neighbor_counts_match_candidate_pairs() {
        let (_, result) = fixture();
        let total_incidences: usize = result.candidate_pairs.len() * 2;
        let gen2 = GenConfig::random(600, 21).generate();
        let diag = audit(&gen2.dataset, &result, 3.0, 16);
        // Mean * count == total incidences (each pair adds one neighbor to
        // each endpoint; duplicates impossible since pairs are distinct).
        let records_with_neighbors =
            result.candidate_pairs.iter().flat_map(|&(a, b)| [a, b]).collect::<std::collections::HashSet<_>>().len();
        let reconstructed = diag.mean_neighbors * records_with_neighbors as f64;
        assert!((reconstructed - total_incidences as f64).abs() < 1e-6);
    }
}
