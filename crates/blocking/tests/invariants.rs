//! Blocking invariants over generated datasets: every surviving block is a
//! genuine support set of its itemset key, respects the size cap, and the
//! candidate pairs are exactly the blocks' pairs.

use std::collections::HashSet;
use yv_blocking::{mfi_blocks, MfiBlocksConfig};
use yv_datagen::GenConfig;

#[test]
fn blocks_are_support_sets_of_their_keys() {
    let gen = GenConfig::random(700, 3).generate();
    let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
    for block in &result.blocks {
        for &record in &block.records {
            let bag: HashSet<_> = gen.dataset.bag(record).iter().copied().collect();
            for item in &block.items {
                assert!(
                    bag.contains(item),
                    "record {record:?} lacks block key item {item:?}"
                );
            }
        }
    }
}

#[test]
fn candidate_pairs_equal_union_of_block_pairs() {
    let gen = GenConfig::random(700, 3).generate();
    let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
    let mut from_blocks: HashSet<_> = HashSet::new();
    for block in &result.blocks {
        from_blocks.extend(block.pairs());
    }
    let from_result: HashSet<_> = result.candidate_pairs.iter().copied().collect();
    assert_eq!(from_blocks, from_result);
}

#[test]
fn every_block_has_at_least_two_records_and_one_item() {
    let gen = GenConfig::random(700, 3).generate();
    let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
    for block in &result.blocks {
        assert!(block.records.len() >= 2);
        assert!(!block.items.is_empty());
        assert!(block.minsup >= 2);
        assert!(block.score.is_finite());
        assert!(block.score >= 0.0);
    }
}

#[test]
fn covered_records_statistic_is_consistent() {
    let gen = GenConfig::random(700, 3).generate();
    let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
    let covered: HashSet<_> = result
        .candidate_pairs
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect();
    assert_eq!(covered.len(), result.stats.records_covered);
}

#[test]
fn single_record_dataset_produces_nothing() {
    use yv_records::{Dataset, RecordBuilder, Source, SourceId};
    let mut ds = Dataset::new();
    let s = ds.add_source(Source::list(SourceId(0), "l"));
    ds.add_record(RecordBuilder::new(1, s).first_name("Solo").build());
    let result = mfi_blocks(&ds, &MfiBlocksConfig::default());
    assert!(result.blocks.is_empty());
    assert!(result.candidate_pairs.is_empty());
}

#[test]
fn max_minsup_one_is_clamped_to_two() {
    let gen = GenConfig::random(300, 5).generate();
    let config = MfiBlocksConfig { max_minsup: 1, ..MfiBlocksConfig::default() };
    let result = mfi_blocks(&gen.dataset, &config);
    // minsup is clamped to 2, the algorithm still runs one iteration.
    assert_eq!(result.stats.iterations, 1);
    for block in &result.blocks {
        assert_eq!(block.minsup, 2);
    }
}

/// Canonical byte serialization of a blocking outcome: every field that
/// `yv block` derives its cluster output from, floats as IEEE bits.
fn canonical_bytes(result: &yv_blocking::BlockingResult) -> Vec<u8> {
    let mut out = Vec::new();
    for block in &result.blocks {
        out.extend_from_slice(&block.minsup.to_le_bytes());
        out.extend_from_slice(&block.score.to_bits().to_le_bytes());
        for item in &block.items {
            out.extend_from_slice(&item.0.to_le_bytes());
        }
        for record in &block.records {
            out.extend_from_slice(&record.0.to_le_bytes());
        }
        out.push(b'\n');
    }
    for &(a, b) in &result.candidate_pairs {
        out.extend_from_slice(&a.0.to_le_bytes());
        out.extend_from_slice(&b.0.to_le_bytes());
    }
    out
}

#[test]
fn cluster_output_is_byte_identical_across_twenty_runs() {
    // Regression for the hash-order hazards ISSUE 2 flags (memberships
    // iteration in the NG threshold, block emission order): repeated runs
    // over the same dataset must agree byte for byte, including scores.
    let gen = GenConfig::random(500, 11).generate();
    let config = MfiBlocksConfig::default();
    let reference = canonical_bytes(&mfi_blocks(&gen.dataset, &config));
    assert!(!reference.is_empty(), "fixture dataset must produce blocks");
    for run in 1..20 {
        let bytes = canonical_bytes(&mfi_blocks(&gen.dataset, &config));
        assert_eq!(bytes, reference, "run {run} diverged from run 0");
    }
}
