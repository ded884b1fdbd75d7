//! Algorithm 1: the MFIBlocks main loop.

use crate::config::MfiBlocksConfig;
use crate::csr::{group_by_key, row};
use crate::neighborhood::ng_threshold;
use crate::score::{block_score_above, pair_score};
use std::time::Duration;
use yv_mfi::{common_items, mine_maximal_on, signature, top_frequent};
use yv_obs::par::{for_each_run, Workers};
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
    /// Blocks scored to the end, every pair compared: the lazy NG pass
    /// gives up on a block once it cannot survive the threshold.
    pub blocks_scored: usize,
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

/// Blocks scored before the first NG threshold of an iteration is taken;
/// the scored prefix doubles from there.
const FIRST_PREFIX: usize = 16;

/// Uncovered bags below which an iteration mines on the calling thread.
const PARALLEL_MIN_BAGS: usize = 4_096;

/// Candidate blocks below which the support lookup and block scoring stay
/// on the calling thread, and blocks below which one round of the lazy
/// scoring walk does.
const PARALLEL_MIN_BLOCKS: usize = 4_096;
const PARALLEL_MIN_ROUND: usize = 512;

/// The longest runs the stages hand out: candidate blocks whose supports
/// are looked up, blocks whose one-pair bound is taken, blocks scored.
const SUPPORT_RUN: usize = 256;
const BOUND_RUN: usize = 1_024;
const SCORE_RUN: usize = 64;

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
///     ├── find_support         signature-filtered support lookup + size pruning
///     ├── score_blocks         lazy block scoring against the running NG threshold
///     └── ng_filter            surviving blocks: pairs + coverage update
/// ```
///
/// `mine`, `find_support` and `score_blocks` carry a `workers` argument:
/// the threads [`Workers::for_stage`] gave the stage, 1 below its size
/// threshold (`PARALLEL_MIN_*`). The output does not depend on it.
///
/// The clock is injected through the recorder, so this function never
/// reads the wall clock itself (clippy's `disallowed-methods` would
/// refuse it) and timing can never influence which blocks survive.
#[must_use]
pub fn mfi_blocks_recorded(
    ds: &Dataset,
    config: &MfiBlocksConfig,
    rec: &Recorder,
) -> BlockingResult {
    mfi_blocks_on(ds, config, rec, Workers::Auto)
}

/// [`mfi_blocks_recorded`] with each stage's threads decided by `workers`:
/// [`Workers::Exactly`] puts every stage on that many, the calling thread
/// included, however small. The same blocks, scores and pairs, bit for
/// bit.
#[must_use]
pub fn mfi_blocks_on(
    ds: &Dataset,
    config: &MfiBlocksConfig,
    rec: &Recorder,
    workers: Workers,
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

    let mut minsup = config.max_minsup.max(2);
    loop {
        let uncovered: Vec<usize> = (0..n).filter(|&i| !covered[i]).collect();
        if uncovered.is_empty() {
            break;
        }
        let iteration_span = rec.span_with("iteration", &[("minsup", minsup)]);
        // Mine MFIs from the uncovered records (line 6).
        let subset: Vec<&[u32]> = uncovered.iter().map(|&i| mining_bags[i].as_slice()).collect();
        let mine_workers = workers.for_stage(subset.len(), PARALLEL_MIN_BAGS);
        let mine_span = rec.span_with("mine", &[("minsup", minsup), ("workers", mine_workers as u64)]);
        let mfis = mine_maximal_on(&subset, minsup, mine_workers);
        mining_ns += mine_span.finish();
        stats.mfis_mined += mfis.len();
        stats.iterations += 1;

        // Filter blocks larger than minsup * p (line 8). A block is its
        // MFI's support set, whose size the miner already counted, so
        // oversized ones are dropped without being materialized — and the
        // rest are laid out before any is looked up. Candidate block `i` is
        // keyed by `mfis[keys[i]]` and holds `row(&members, &offsets, i)`.
        let size_cap = ((minsup as f64 * config.p).floor() as u64).max(2);
        let keys: Vec<usize> = (0..mfis.len()).filter(|&mi| mfis[mi].support <= size_cap).collect();
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        offsets.push(0u32);
        for &mi in &keys {
            offsets.push(offsets[offsets.len() - 1] + mfis[mi].support as u32);
        }
        stats.blocks_considered += keys.len();

        // FindSupport (line 7): inverted index and item signatures over
        // the uncovered subset, then each run of keys fills its own slice
        // of `members`.
        let support_workers = workers.for_stage(keys.len(), PARALLEL_MIN_BLOCKS);
        let support_span = rec.span_with(
            "find_support",
            &[("minsup", minsup), ("workers", support_workers as u64)],
        );
        let (starts, locals) = group_by_key(
            n_items,
            subset.iter().enumerate().flat_map(|(local, bag)| {
                bag.iter().map(move |&item| (item as usize, local as u32))
            }),
        );
        let signatures: Vec<u64> = subset.iter().map(|bag| signature(bag)).collect();
        let mut members = vec![RecordId(0); offsets[keys.len()] as usize];
        let cut = |i: usize| offsets[i] as usize;
        for_each_run(&mut members, keys.len(), cut, SUPPORT_RUN, support_workers, |run, mut rest| {
            for &mi in &keys[run] {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(mfis[mi].support as usize);
                rest = tail;
                let support = support_of(&starts, &locals, &signatures, &subset, &mfis[mi].items);
                let mut filled = 0;
                for (slot, local) in block.iter_mut().zip(support) {
                    *slot = RecordId(uncovered[local as usize] as u32);
                    filled += 1;
                }
                debug_assert_eq!(filled, block.len(), "the miner counted the support");
            }
        });
        support_span.finish();

        // Score blocks, lazily: only a block scoring above minTh survives,
        // and minTh (lines 9–14) neither falls when blocks are added nor
        // sees blocks scoring at or below it (`ng_threshold`). So blocks
        // are taken by descending one-pair upper bound, each scored only
        // while its running minimum stays above the threshold of the blocks
        // scored before it, until no remaining bound is above that
        // threshold: every block left out scores at or below the final one,
        // which is therefore the threshold of all blocks. A round scores
        // its blocks against one fixed threshold, so they split over the
        // workers and are taken back in `order`.
        let score_workers = workers.for_stage(keys.len(), PARALLEL_MIN_BLOCKS);
        let score_span = rec.span_with(
            "score_blocks",
            &[("minsup", minsup), ("workers", score_workers as u64)],
        );
        let records_of = |ci: u32| row(&members, &offsets, ci as usize);
        let mut bounds = vec![0.0; keys.len()];
        for_each_run(&mut bounds, keys.len(), |i| i, BOUND_RUN, score_workers, |run, out| {
            for (ci, bound) in run.zip(out) {
                let records = records_of(ci as u32);
                *bound = pair_score(ds, records[0], records[1], &config.score);
            }
        });
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            bounds[b as usize].total_cmp(&bounds[a as usize]).then(a.cmp(&b))
        });
        // −∞ marks a block not scored to the end: it is at or below minTh.
        let mut scores = vec![f64::NEG_INFINITY; keys.len()];
        let mut scored: Vec<u32> = Vec::new();
        let mut round: Vec<f64> = Vec::new();
        let (mut min_th, mut next) = (f64::NEG_INFINITY, 0);
        while next < order.len() && bounds[order[next] as usize] > min_th {
            // A doubling prefix keeps the thresholds' total cost linear.
            let end = (2 * next).max(FIRST_PREFIX).min(order.len());
            let blocks = &order[next..end];
            let round_workers =
                workers.for_stage(blocks.len(), PARALLEL_MIN_ROUND).min(score_workers);
            round.clear();
            round.resize(blocks.len(), 0.0);
            for_each_run(&mut round, blocks.len(), |i| i, SCORE_RUN, round_workers, |run, out| {
                for (&ci, score) in blocks[run].iter().zip(out) {
                    let bound = bounds[ci as usize];
                    *score = block_score_above(ds, records_of(ci), &config.score, bound, min_th);
                }
            });
            for (&ci, &score) in blocks.iter().zip(&round) {
                if score > min_th {
                    scores[ci as usize] = score;
                    scored.push(ci);
                }
            }
            next = end;
            min_th = ng_threshold(&members, &offsets, &scores, &scored, config.ng, minsup);
        }
        stats.blocks_scored += scored.len();
        score_span.finish();

        // Filtering (lines 15–16), in block order.
        let filter_span = rec.span_with(
            "ng_filter",
            &[("minsup", minsup), ("blocks_scored", scored.len() as u64)],
        );
        for (ci, &score) in scores.iter().enumerate() {
            if score <= min_th {
                continue;
            }
            // Surviving block: emit pairs and mark coverage (lines 17–19).
            // Membership is canonical as it stands: the miner returns
            // sorted items, and records ascend with the posting lists.
            let items = mfis[keys[ci]].items.iter().map(|&i| ItemId(i)).collect();
            let records = records_of(ci as u32).to_vec();
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
    rec.incr("blocks_scored", stats.blocks_scored as u64);
    rec.incr("blocks_kept", stats.blocks_kept as u64);
    rec.incr("candidate_pairs", candidate_pairs.len() as u64);
    rec.incr("items_pruned", stats.items_pruned as u64);
    stats.total_time = Duration::from_nanos(blocking_span.finish());

    BlockingResult { blocks: kept_blocks, candidate_pairs, stats }
}

/// The bags containing every item of `items` (sorted), ascending: walk the
/// rarest item's posting list (`row(locals, starts, item)`), let through
/// the bags whose signature covers the itemset's, and verify those against
/// the sorted bag itself. Empty for the empty itemset.
fn support_of<'a>(
    starts: &[u32],
    locals: &'a [u32],
    signatures: &'a [u64],
    bags: &'a [&[u32]],
    items: &'a [u32],
) -> impl Iterator<Item = u32> + 'a {
    let lists = items.iter().map(|&item| row(locals, starts, item as usize));
    let rarest = lists.min_by_key(|list| list.len()).unwrap_or(&[]);
    let mask = signature(items);
    rarest.iter().copied().filter(move |&local| {
        mask & !signatures[local as usize] == 0
            && items.iter().all(|item| bags[local as usize].binary_search(item).is_ok())
    })
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

    /// The 2 000-record corpus a model is trained on (and the allocation
    /// guard's blocking run) sits below every size threshold: each split
    /// stage reports one worker, so nothing is spawned.
    #[test]
    fn a_training_size_corpus_stays_on_the_calling_thread() {
        let gen = GenConfig::random(2_000, 10).generate();
        let rec = Recorder::monotonic();
        let result = mfi_blocks_recorded(&gen.dataset, &MfiBlocksConfig::default(), &rec);
        assert!(!result.candidate_pairs.is_empty());
        let split = ["mine", "find_support", "score_blocks"];
        let spans: Vec<_> = rec.spans().into_iter().filter(|s| split.contains(&s.name.as_str())).collect();
        assert_eq!(spans.len(), 3 * result.stats.iterations as usize);
        for span in spans {
            assert!(span.args.contains(&("workers".to_owned(), 1)), "{span:?}");
        }
    }

    #[test]
    fn forced_workers_show_on_the_spans_and_change_no_pair() {
        let gen = generated();
        let config = MfiBlocksConfig::default();
        let serial = mfi_blocks(&gen.dataset, &config);
        let rec = Recorder::monotonic();
        let split = mfi_blocks_on(&gen.dataset, &config, &rec, Workers::Exactly(3));
        assert_eq!(split.candidate_pairs, serial.candidate_pairs);
        let scores = |r: &BlockingResult| r.blocks.iter().map(|b| b.score.to_bits()).collect::<Vec<_>>();
        assert_eq!(scores(&split), scores(&serial));
        for span in rec.spans().into_iter().filter(|s| s.name == "mine") {
            assert!(span.args.contains(&("workers".to_owned(), 3)), "{span:?}");
        }
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
    fn support_lookup_walks_the_rarest_postings_and_rejects_the_empty_itemset() {
        // Item 0 is in bags {0, 2}, item 1 in {1}, item 2 in all three.
        let bags: [&[u32]; 3] = [&[0, 2], &[1, 2], &[0, 2]];
        let pairs = [(0, 0), (2, 0), (1, 1), (2, 1), (0, 2), (2, 2)];
        let (starts, locals) = group_by_key(3, pairs.into_iter());
        assert_eq!(row(&locals, &starts, 2), [0, 1, 2]);
        let signatures: Vec<u64> = bags.iter().map(|bag| signature(bag)).collect();
        let support = |items: &[u32]| -> Vec<u32> {
            support_of(&starts, &locals, &signatures, &bags, items).collect()
        };
        assert_eq!(support(&[0, 2]), [0, 2]);
        assert_eq!(support(&[2]), [0, 1, 2]);
        assert!(support(&[0, 1, 2]).is_empty());
        assert!(support(&[]).is_empty());
    }

    #[test]
    fn support_lookup_verifies_what_the_signature_lets_through() {
        // `twin` shares item 1's signature bit: bag 1 holds {0, twin}, so
        // its signature covers the itemset {0, 1} although 1 is missing.
        let twin = (2..).find(|&i| signature(&[i]) == signature(&[1])).expect("64 bits, u32 ids");
        let bags: [&[u32]; 2] = [&[0, 1], &[0, twin]];
        let pairs = [(0, 0), (1, 0), (0, 1), (twin as usize, 1)];
        let (starts, locals) = group_by_key(twin as usize + 1, pairs.into_iter());
        let signatures: Vec<u64> = bags.iter().map(|bag| signature(bag)).collect();
        assert_eq!(signatures[0], signatures[1], "the filter alone cannot tell the bags apart");
        // Item 0 is the rarest-first walk's tie-break: both bags are visited.
        let support: Vec<u32> = support_of(&starts, &locals, &signatures, &bags, &[0, 1]).collect();
        assert_eq!(support, [0]);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        let result = mfi_blocks(&ds, &MfiBlocksConfig::default());
        assert!(result.blocks.is_empty());
        assert!(result.candidate_pairs.is_empty());
    }
}
