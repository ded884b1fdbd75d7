//! Algorithm 1: the MFIBlocks main loop.

use crate::config::MfiBlocksConfig;
use crate::csr::{group_by_key, row};
use crate::neighborhood::ng_threshold;
use crate::score::block_score;
use std::time::Duration;
use yv_mfi::{common_items, mine_maximal, top_frequent};
use yv_obs::Recorder;
use yv_records::{Dataset, ItemId, RecordId};

/// A surviving block: the maximal frequent itemset acting as its implicit
/// key, its supporting records and its score.
#[derive(Debug, Clone)]
pub struct Block {
    pub items: Vec<ItemId>,
    pub records: Vec<RecordId>,
    pub score: f64,
    /// The minsup level at which the block was mined.
    pub minsup: u64,
}

impl Block {
    /// All unordered record pairs of the block.
    pub fn pairs(&self) -> impl Iterator<Item = (RecordId, RecordId)> + '_ {
        self.records.iter().enumerate().flat_map(move |(i, &a)| {
            self.records[i + 1..].iter().map(move |&b| if a < b { (a, b) } else { (b, a) })
        })
    }
}

/// Counters and timings for the performance study (Figure 12).
#[derive(Debug, Clone, Default)]
pub struct BlockingStats {
    pub iterations: u32,
    pub mfis_mined: usize,
    pub blocks_considered: usize,
    pub blocks_kept: usize,
    pub records_covered: usize,
    /// Time spent inside the FP-Growth/FPMax miner — the bottleneck the
    /// paper measures (90% of runtime on their setup).
    pub mining_time: Duration,
    pub total_time: Duration,
    /// Items removed by frequent-item pruning.
    pub items_pruned: usize,
}

/// The blocking outcome: soft (possibly overlapping) blocks and the
/// deduplicated candidate-pair set.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    pub blocks: Vec<Block>,
    pub candidate_pairs: Vec<(RecordId, RecordId)>,
    pub stats: BlockingStats,
}

impl BlockingResult {
    /// Blocks containing a given record (soft clustering: may be several).
    #[must_use]
    pub fn blocks_of(&self, r: RecordId) -> Vec<&Block> {
        self.blocks.iter().filter(|b| b.records.contains(&r)).collect()
    }
}

/// Run MFIBlocks over a dataset.
///
/// Timings in [`BlockingStats`] come from an internal wall-clock
/// [`Recorder`]; use [`mfi_blocks_recorded`] to capture the full span
/// stream (per-iteration mining/scoring/filtering) as well.
#[must_use]
pub fn mfi_blocks(ds: &Dataset, config: &MfiBlocksConfig) -> BlockingResult {
    mfi_blocks_recorded(ds, config, &Recorder::monotonic())
}

/// Run MFIBlocks, recording the span taxonomy on `rec`:
///
/// ```text
/// blocking                     the whole run
/// ├── prune_items              frequent/common-item pruning before mining
/// └── iteration (minsup=k)     one pass of the minsup loop
///     ├── mine                 FP-Growth/FPMax maximal-itemset mining
///     ├── find_support         posting-list intersection + maximality/size pruning
///     ├── score_blocks         block scoring (parallel when configured)
///     └── ng_filter            sparse-neighborhood threshold + coverage update
/// ```
///
/// The clock is injected through the recorder, so this function never
/// reads the wall clock itself (the yv-audit S1 rule holds by
/// construction) and timing can never influence which blocks survive.
#[must_use]
pub fn mfi_blocks_recorded(
    ds: &Dataset,
    config: &MfiBlocksConfig,
    rec: &Recorder,
) -> BlockingResult {
    let blocking_span = rec.span("blocking");
    let n = ds.len();
    let n_items = ds.interner().len();
    let mut stats = BlockingStats::default();
    let mut mining_ns = 0u64;

    // Item bags as raw u32s, with ultra-frequent items pruned. One dense
    // frequency pass decides both prunings: items of a bag have frequency
    // >= 1, so a zeroed entry marks its item pruned (and hides it from
    // the common-item cap, as if it had already left the bags).
    let prune_span = rec.span("prune_items");
    let mut freq = vec![0u64; n_items];
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
    stats.items_pruned = pruned.len();
    let mining_bags: Vec<Vec<u32>> = ds
        .bags()
        .iter()
        .map(|bag| bag.iter().filter(|id| freq[id.index()] > 0).map(|id| id.0).collect())
        .collect();
    prune_span.finish();

    let mut covered = vec![false; n];
    let mut candidate_pairs: Vec<(RecordId, RecordId)> = Vec::new();
    let mut kept_blocks: Vec<Block> = Vec::new();
    let (mut support, mut spare) = (Vec::new(), Vec::new());

    let mut minsup = config.max_minsup.max(2);
    loop {
        let uncovered: Vec<usize> = (0..n).filter(|&i| !covered[i]).collect();
        if uncovered.is_empty() {
            break;
        }
        let iteration_span = rec.span_with("iteration", &[("minsup", minsup)]);
        // Mine MFIs from the uncovered records (line 6).
        let subset: Vec<&[u32]> = uncovered.iter().map(|&i| mining_bags[i].as_slice()).collect();
        let mine_span = rec.span_with("mine", &[("minsup", minsup)]);
        let mfis = mine_maximal(&subset, minsup);
        mining_ns += mine_span.finish();
        stats.mfis_mined += mfis.len();
        stats.iterations += 1;

        // FindSupport (line 7): inverted index over the uncovered subset.
        let support_span = rec.span_with("find_support", &[("minsup", minsup)]);
        let (starts, locals) = group_by_key(
            n_items,
            subset.iter().enumerate().flat_map(|(local, bag)| {
                bag.iter().map(move |&item| (item as usize, local as u32))
            }),
        );
        // Filter blocks larger than minsup * p (line 8). A block is its
        // MFI's support set, whose size the miner already counted, so
        // oversized ones are dropped without being materialized.
        let size_cap = ((minsup as f64 * config.p).floor() as u64).max(2);
        // Candidate blocks, flat: block `i` is keyed by `mfis[keys[i]]` and
        // holds `row(&members, &offsets, i)`.
        let (mut keys, mut members, mut offsets) = (Vec::new(), Vec::new(), vec![0u32]);
        for (mi, mfi) in mfis.iter().enumerate() {
            if mfi.support > size_cap
                || !intersect_postings(&starts, &locals, &mfi.items, &mut support, &mut spare)
            {
                continue;
            }
            debug_assert_eq!(support.len() as u64, mfi.support);
            keys.push(mi);
            members.extend(support.iter().map(|&l| RecordId(uncovered[l as usize] as u32)));
            offsets.push(members.len() as u32);
        }
        stats.blocks_considered += keys.len();
        support_span.finish();

        // Score blocks (parallel when configured).
        let score_span = rec.span_with("score_blocks", &[("minsup", minsup)]);
        let scores = score_blocks(ds, &members, &offsets, config);
        score_span.finish();

        // Sparse-neighborhood threshold (lines 9–14) and filtering
        // (lines 15–16).
        let filter_span = rec.span_with("ng_filter", &[("minsup", minsup)]);
        let min_th = ng_threshold(&members, &offsets, &scores, config.ng, minsup);
        for (ci, &score) in scores.iter().enumerate() {
            if score <= min_th {
                continue;
            }
            // Surviving block: emit pairs and mark coverage (lines 17–19).
            // Membership is canonical as it stands: the miner returns
            // sorted items, and records ascend with the posting lists.
            let items = mfis[keys[ci]].items.iter().map(|&i| ItemId(i)).collect();
            let records = row(&members, &offsets, ci).to_vec();
            let block = Block { items, records, score, minsup };
            for (a, b) in block.pairs() {
                candidate_pairs.push((a, b));
                covered[a.index()] = true;
                covered[b.index()] = true;
            }
            kept_blocks.push(block);
        }
        filter_span.finish();
        iteration_span.finish();

        if minsup == 2 {
            break;
        }
        minsup -= 1;
    }

    stats.blocks_kept = kept_blocks.len();
    stats.records_covered = covered.iter().filter(|&&c| c).count();
    stats.mining_time = Duration::from_nanos(mining_ns);

    candidate_pairs.sort_unstable();
    candidate_pairs.dedup(); // overlapping blocks repeat pairs

    rec.incr("mfis_mined", stats.mfis_mined as u64);
    rec.incr("blocks_considered", stats.blocks_considered as u64);
    rec.incr("blocks_kept", stats.blocks_kept as u64);
    rec.incr("candidate_pairs", candidate_pairs.len() as u64);
    rec.incr("items_pruned", stats.items_pruned as u64);
    stats.total_time = Duration::from_nanos(blocking_span.finish());

    BlockingResult { blocks: kept_blocks, candidate_pairs, stats }
}

/// Intersect the sorted posting lists (`row(locals, starts, item)`) of an
/// itemset into `acc`, rarest item first; `spare` is the merge buffer.
/// False when the itemset or the intersection is empty.
fn intersect_postings(
    starts: &[u32],
    locals: &[u32],
    items: &[u32],
    acc: &mut Vec<u32>,
    spare: &mut Vec<u32>,
) -> bool {
    let list = |item: u32| row(locals, starts, item as usize);
    let Some(rarest) = items.iter().copied().min_by_key(|&i| list(i).len()) else {
        return false;
    };
    acc.clear();
    acc.extend_from_slice(list(rarest));
    for &item in items.iter().filter(|&&i| i != rarest) {
        let other = list(item);
        spare.clear();
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < other.len() {
            match acc[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    spare.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        std::mem::swap(acc, spare);
    }
    !acc.is_empty()
}

/// Score candidate blocks, chunked over `config.threads` workers (the
/// paper distributes this stage over a Spark pseudo-cluster; scoped threads
/// are our substitution).
fn score_blocks(
    ds: &Dataset,
    members: &[RecordId],
    offsets: &[u32],
    config: &MfiBlocksConfig,
) -> Vec<f64> {
    let n = offsets.len() - 1;
    let score = |i: usize| block_score(ds, row(members, offsets, i), &config.score);
    if config.threads <= 1 || n < 64 {
        return (0..n).map(score).collect();
    }
    let chunk = n.div_ceil(config.threads);
    let mut scores = vec![0.0; n];
    // std scoped threads re-raise any worker panic on join — no Result to
    // unwrap, and a panicking worker cannot yield half-written scores.
    std::thread::scope(|scope| {
        for (c, slot) in scores.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (k, out) in slot.iter_mut().enumerate() {
                    *out = score(c * chunk + k);
                }
            });
        }
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use yv_datagen::GenConfig;

    fn generated() -> yv_datagen::Generated {
        GenConfig::random(600, 31).generate()
    }

    fn recall(gen: &yv_datagen::Generated, pairs: &[(RecordId, RecordId)]) -> f64 {
        let gold: HashSet<(RecordId, RecordId)> = gen.matching_pairs().into_iter().collect();
        if gold.is_empty() {
            return 1.0;
        }
        let hit = pairs.iter().filter(|p| gold.contains(p)).count();
        hit as f64 / gold.len() as f64
    }

    #[test]
    fn finds_most_duplicates() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let r = recall(&gen, &result.candidate_pairs);
        assert!(r > 0.5, "recall {r}");
        // And the candidate set is far smaller than the Cartesian product.
        let n = gen.dataset.len();
        assert!(result.candidate_pairs.len() < n * (n - 1) / 2 / 10);
    }

    #[test]
    fn higher_ng_never_reduces_pairs() {
        let gen = generated();
        let tight =
            mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(1.5));
        let loose =
            mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(5.0));
        assert!(loose.candidate_pairs.len() >= tight.candidate_pairs.len());
    }

    #[test]
    fn blocks_respect_size_cap() {
        let gen = generated();
        let config = MfiBlocksConfig::default();
        let result = mfi_blocks(&gen.dataset, &config);
        for block in &result.blocks {
            let cap = (block.minsup as f64 * config.p).floor() as usize;
            assert!(block.records.len() <= cap.max(2), "block of {}", block.records.len());
        }
    }

    #[test]
    fn soft_clustering_produces_overlap() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default().with_ng(5.0));
        let mut membership = std::collections::HashMap::new();
        for b in &result.blocks {
            for &r in &b.records {
                *membership.entry(r).or_insert(0usize) += 1;
            }
        }
        assert!(
            membership.values().any(|&c| c > 1),
            "some record should sit in several blocks"
        );
    }

    #[test]
    fn deterministic() {
        let gen = generated();
        let a = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let b = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        assert_eq!(a.candidate_pairs, b.candidate_pairs);
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let gen = generated();
        let seq = mfi_blocks(&gen.dataset, &MfiBlocksConfig { threads: 1, ..MfiBlocksConfig::default() });
        let par = mfi_blocks(&gen.dataset, &MfiBlocksConfig { threads: 4, ..MfiBlocksConfig::default() });
        assert_eq!(seq.candidate_pairs, par.candidate_pairs);
    }

    #[test]
    fn pruning_reduces_mining_vocabulary() {
        let gen = generated();
        let with = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let without = mfi_blocks(
            &gen.dataset,
            &MfiBlocksConfig {
                prune_frequent: None,
                prune_common: None,
                ..MfiBlocksConfig::default()
            },
        );
        assert!(with.stats.items_pruned > 0);
        assert_eq!(without.stats.items_pruned, 0);
    }

    #[test]
    fn stats_are_populated() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.mfis_mined > 0);
        assert!(result.stats.blocks_kept > 0);
        assert!(result.stats.records_covered > 0);
        assert!(result.stats.total_time >= result.stats.mining_time);
    }

    #[test]
    fn recorded_trace_is_deterministic_and_carries_the_taxonomy() {
        let gen = generated();
        let run = || {
            let (rec, _clock) = Recorder::manual();
            let result = mfi_blocks_recorded(&gen.dataset, &MfiBlocksConfig::default(), &rec);
            (yv_obs::chrome_trace(&rec), result.candidate_pairs)
        };
        let (trace_a, pairs_a) = run();
        let (trace_b, pairs_b) = run();
        assert_eq!(trace_a, trace_b, "manual-clock traces must be byte-identical");
        assert_eq!(pairs_a, pairs_b);
        for name in
            ["blocking", "prune_items", "iteration", "mine", "find_support", "score_blocks", "ng_filter"]
        {
            assert!(trace_a.contains(&format!("\"name\":\"{name}\"")), "{name} span missing");
        }
        assert!(trace_a.contains("\"minsup\":5"), "iteration spans carry their minsup level");
        assert!(trace_a.contains("\"name\":\"candidate_pairs\""), "counters are exported");
    }

    #[test]
    fn pairs_are_normalized_and_unique() {
        let gen = generated();
        let result = mfi_blocks(&gen.dataset, &MfiBlocksConfig::default());
        let mut seen = HashSet::new();
        for &(a, b) in &result.candidate_pairs {
            assert!(a < b);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn posting_lists_intersect_rarest_first_and_reject_the_empty_itemset() {
        // Item 0 is in records {0, 2}, item 1 in {1}, item 2 in all three.
        let pairs = [(0, 0), (2, 0), (1, 1), (2, 1), (0, 2), (2, 2)];
        let (starts, locals) = group_by_key(3, pairs.into_iter());
        assert_eq!(row(&locals, &starts, 2), [0, 1, 2]);
        let (mut acc, mut spare) = (Vec::new(), Vec::new());
        assert!(intersect_postings(&starts, &locals, &[2, 0], &mut acc, &mut spare));
        assert_eq!(acc, [0, 2]);
        assert!(!intersect_postings(&starts, &locals, &[0, 1, 2], &mut acc, &mut spare));
        assert!(!intersect_postings(&starts, &locals, &[], &mut acc, &mut spare));
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        let result = mfi_blocks(&ds, &MfiBlocksConfig::default());
        assert!(result.blocks.is_empty());
        assert!(result.candidate_pairs.is_empty());
    }
}
