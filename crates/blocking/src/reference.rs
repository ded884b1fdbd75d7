//! The eager MFIBlocks pass [`crate::mfiblocks`] replaced, kept as the
//! test oracle: every MFI's support is found by scanning the uncovered
//! bags, every block is scored over all its pairs, and only then is the NG
//! threshold taken over all of them — Algorithm 1 as printed. The lazy,
//! signature-filtered pass must return the same blocks, score bits and
//! pairs.

use crate::config::MfiBlocksConfig;
use crate::mfiblocks::Block;
use crate::neighborhood::ng_threshold;
use crate::score::pair_score;
use yv_mfi::maximal::is_subset;
use yv_mfi::{common_items, mine_maximal, top_frequent};
use yv_records::{Dataset, ItemId, RecordId};

/// Blocks in emission order and the sorted, deduplicated candidate pairs.
pub(crate) fn mfi_blocks_eager(
    ds: &Dataset,
    config: &MfiBlocksConfig,
) -> (Vec<Block>, Vec<(RecordId, RecordId)>) {
    let n = ds.len();
    let mut freq = vec![0u64; ds.interner().len()];
    for id in ds.bags().iter().flatten() {
        freq[id.index()] += 1;
    }
    let mut pruned = config.prune_frequent.map_or_else(Vec::new, |f| top_frequent(&freq, f));
    for &item in &pruned {
        freq[item as usize] = 0;
    }
    if let Some(fraction) = config.prune_common {
        pruned.extend(common_items(&freq, n, fraction));
    }
    for &item in &pruned {
        freq[item as usize] = 0;
    }
    let mining_bags: Vec<Vec<u32>> = ds
        .bags()
        .iter()
        .map(|bag| bag.iter().filter(|id| freq[id.index()] > 0).map(|id| id.0).collect())
        .collect();

    let mut covered = vec![false; n];
    let (mut blocks, mut pairs) = (Vec::new(), Vec::new());
    for minsup in (2..=config.max_minsup.max(2)).rev() {
        let uncovered: Vec<usize> = (0..n).filter(|&i| !covered[i]).collect();
        if uncovered.is_empty() {
            break;
        }
        let subset: Vec<&[u32]> = uncovered.iter().map(|&i| mining_bags[i].as_slice()).collect();
        let size_cap = ((minsup as f64 * config.p).floor() as u64).max(2);
        let (mut keys, mut members, mut offsets, mut scores) =
            (Vec::new(), Vec::new(), vec![0u32], Vec::new());
        for mfi in mine_maximal(&subset, minsup) {
            let support: Vec<RecordId> = uncovered
                .iter()
                .filter(|&&i| is_subset(&mfi.items, &mining_bags[i]))
                .map(|&i| RecordId(i as u32))
                .collect();
            assert_eq!(support.len() as u64, mfi.support);
            if mfi.support > size_cap {
                continue;
            }
            let mut score = f64::INFINITY;
            for (i, &a) in support.iter().enumerate() {
                for &b in &support[i + 1..] {
                    score = score.min(pair_score(ds, a, b, &config.score));
                }
            }
            keys.push(mfi.items);
            scores.push(score);
            members.extend(support);
            offsets.push(members.len() as u32);
        }
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        let min_th = ng_threshold(&members, &offsets, &scores, &all, config.ng, minsup);
        for (ci, items) in keys.into_iter().enumerate() {
            if scores[ci] <= min_th {
                continue;
            }
            let block = Block {
                items: items.into_iter().map(ItemId).collect(),
                records: members[offsets[ci] as usize..offsets[ci + 1] as usize].to_vec(),
                score: scores[ci],
                minsup,
            };
            for (a, b) in block.pairs() {
                pairs.push((a, b));
                covered[a.index()] = true;
                covered[b.index()] = true;
            }
            blocks.push(block);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    (blocks, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreFunction;
    use crate::mfiblocks::{mfi_blocks, mfi_blocks_on, BlockingResult};
    use proptest::prelude::*;
    use yv_records::{DateParts, Gender, RecordBuilder, Source, SourceId};
    use yv_similarity::ExpertWeights;

    const NAMES: [&str; 5] = ["Avraham", "Avram", "Yitzhak", "Moshe", "Guido"];
    const SURNAMES: [&str; 5] = ["Kesler", "Kessler", "Postel", "Foa", "Apoteker"];

    /// One record per row of five draws, each from a pool of five values
    /// (near-equal spellings and adjacent years, so `ExpertSim` soft-matches)
    /// with `0` leaving the field out: small pools make shared itemsets,
    /// crowded neighborhoods and tied block scores the rule.
    fn corpus(rows: &[Vec<u32>]) -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        for (book, row) in rows.iter().enumerate() {
            let pick = |field: usize, pool: &[&'static str; 5]| {
                (row[field] > 0).then(|| pool[row[field] as usize])
            };
            let mut b = RecordBuilder::new(book as u64, s);
            if let Some(name) = pick(0, &NAMES) {
                b = b.first_name(name);
            }
            if let Some(name) = pick(1, &SURNAMES) {
                b = b.last_name(name);
            }
            if let Some(name) = pick(2, &NAMES) {
                b = b.father_name(name);
            }
            if row[3] > 0 {
                b = b.birth(DateParts::year_only(1919 + row[3] as i32));
            }
            if row[4] > 0 {
                b = b.gender(if row[4] % 2 == 0 { Gender::Male } else { Gender::Female });
            }
            ds.add_record(b.build());
        }
        ds
    }

    fn assert_lazy_equals_eager(ds: &Dataset, config: &MfiBlocksConfig) {
        assert_equals_eager(ds, config, &mfi_blocks(ds, config));
    }

    fn assert_equals_eager(ds: &Dataset, config: &MfiBlocksConfig, lazy: &BlockingResult) {
        let (blocks, pairs) = mfi_blocks_eager(ds, config);
        let key = |b: &Block| (b.minsup, b.score.to_bits(), b.items.clone(), b.records.clone());
        assert_eq!(
            lazy.blocks.iter().map(key).collect::<Vec<_>>(),
            blocks.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(lazy.candidate_pairs, pairs);
        assert!(lazy.stats.blocks_scored >= lazy.stats.blocks_kept);
        assert!(lazy.stats.blocks_scored <= lazy.stats.blocks_considered);
    }

    fn configs() -> impl Iterator<Item = MfiBlocksConfig> {
        let scores = [
            ScoreFunction::Jaccard,
            ScoreFunction::WeightedJaccard(ExpertWeights::default()),
            ScoreFunction::ExpertSim,
        ];
        scores.into_iter().flat_map(|score| {
            [0.5, 1.5, 3.0, 50.0].into_iter().map(move |ng| MfiBlocksConfig {
                score: score.clone(),
                ng,
                prune_frequent: None,
                prune_common: None,
                ..MfiBlocksConfig::default()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn lazy_pass_equals_the_eager_one(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..5, 5..6), 0..200)
        ) {
            let ds = corpus(&rows);
            for config in configs() {
                assert_lazy_equals_eager(&ds, &config);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Every stage split over 1, 2 or 3 threads, whatever its size:
        /// the supports, bounds and rounds of scores come back in their
        /// places, so the blocks, score bits and pairs are the eager ones.
        #[test]
        fn lazy_pass_on_forced_workers_equals_the_eager_one(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..5, 5..6), 0..200)
        ) {
            let ds = corpus(&rows);
            for config in configs() {
                for workers in [1, 2, 3] {
                    let forced = yv_obs::par::Workers::Exactly(workers);
                    let lazy = mfi_blocks_on(&ds, &config, &yv_obs::Recorder::monotonic(), forced);
                    assert_equals_eager(&ds, &config, &lazy);
                }
            }
        }
    }

    #[test]
    fn identical_records_tie_every_score() {
        // 3 groups of identical records: every block scores 1.0, so the
        // threshold is either 1.0 (nothing survives) or absent.
        let rows: Vec<Vec<u32>> = (0..12).map(|i| vec![1 + i % 3; 5]).collect();
        let ds = corpus(&rows);
        for config in configs() {
            assert_lazy_equals_eager(&ds, &config);
        }
    }

    #[test]
    fn without_a_violation_every_block_is_scored() {
        let gen = yv_datagen::GenConfig::random(400, 5).generate();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(50.0));
        assert!(result.stats.blocks_considered > 0);
        assert_eq!(result.stats.blocks_scored, result.stats.blocks_considered);
        assert_eq!(result.stats.blocks_kept, result.stats.blocks_considered);
        let tight = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(0.5));
        assert!(tight.stats.blocks_scored < tight.stats.blocks_considered);
    }
}
