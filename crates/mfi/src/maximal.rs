//! Direct maximal frequent itemset mining (FPMax-style).
//!
//! An itemset is maximal when it is frequent and no frequent strict
//! superset exists. The miner follows the FP-Growth recursion but maintains
//! the running MFI set and applies two prunings:
//!
//! 1. **single-path shortcut** — a conditional tree that degenerates to one
//!    path contributes exactly one candidate per distinct count level, so
//!    identical duplicate records never cause subset enumeration;
//! 2. **head subsumption** — before descending into a conditional tree, the
//!    largest itemset that branch could produce (`prefix ∪ all items in the
//!    conditional tree`) is checked against the MFI set; subsumed branches
//!    are skipped wholesale.

use crate::fptree::{Forest, FpTree};
use yv_obs::par::{for_each_run, for_each_run_with};

/// A mined itemset: sorted item ids and the number of supporting
/// transactions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Itemset {
    pub items: Vec<u32>,
    pub support: u64,
}

/// Subset test over two sorted slices.
#[must_use]
pub fn is_subset(small: &[u32], big: &[u32]) -> bool {
    debug_assert!(small.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(big.windows(2).all(|w| w[0] < w[1]));
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j >= big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// 64-bit signature of an itemset: two bits per item, taken from a
/// Fibonacci hash of its id — a Bloom filter with k = 2 (in MFIBlocks'
/// support lookups 5 % of the non-member bags walked pass it, 10.5 % with
/// one bit per item). `a ⊆ b` implies `signature(a) & !signature(b) == 0`,
/// never the converse: a filter that can only over-accept, to be followed
/// by an exact test on what passes.
#[must_use]
pub fn signature(items: &[u32]) -> u64 {
    items.iter().fold(0, |sig, &item| {
        let hash = item.wrapping_mul(0x9E37_79B9);
        sig | 1 << (hash >> 26) | 1 << (hash >> 20 & 63)
    })
}

/// The running MFI collection with posting-list-indexed subsumption
/// checks: `postings[rank[item]]` lists the recorded sets containing
/// `item`, indexed by the item's rank in the top-level tree (ranks are
/// few, item ids many, and every miner holds its own postings), so
/// a subsumption test only inspects sets sharing the candidate's rarest
/// item instead of the whole collection (large minsup-2 runs record
/// hundreds of thousands of MFIs).
///
/// Recorded sets are never superseded. FPMax conditions on ranks from
/// least to most frequent, so a candidate from a later branch never
/// contains the item an earlier sibling branch (at this or any enclosing
/// level) was conditioned on, while every set recorded from that branch
/// does: no later candidate can be a superset of a recorded set. Each
/// miner of a parallel run keeps a collection of its own and takes its
/// top-level branches in that order too, so the argument holds within
/// each collection; across them, [`merge`] settles it.
#[derive(Debug)]
struct MfiSet<'t> {
    /// Rank of each item id in the top-level tree.
    rank: &'t [u32],
    sets: Vec<Itemset>,
    /// `signature` of each recorded set.
    signatures: Vec<u64>,
    /// Indexed by rank.
    postings: Vec<Vec<u32>>,
}

impl<'t> MfiSet<'t> {
    /// An empty collection of sets of items with ranks below `n_ranks`.
    fn new(rank: &'t [u32], n_ranks: usize) -> MfiSet<'t> {
        let postings = vec![Vec::new(); n_ranks];
        MfiSet { rank, sets: Vec::new(), signatures: Vec::new(), postings }
    }

    fn postings(&self, item: u32) -> &[u32] {
        &self.postings[self.rank[item as usize] as usize]
    }

    /// True when `candidate` (sorted) is a subset of an already-recorded
    /// MFI.
    fn subsumed(&self, candidate: &[u32]) -> bool {
        let lists = candidate.iter().map(|&i| self.postings(i));
        let mask = signature(candidate);
        // The empty set is never recorded.
        lists.min_by_key(|list| list.len()).is_some_and(|rarest| {
            rarest.iter().any(|&idx| {
                mask & !self.signatures[idx as usize] == 0
                    && is_subset(candidate, &self.sets[idx as usize].items)
            })
        })
    }

    /// Record a frequent candidate (sorted) no recorded set subsumes.
    fn record(&mut self, items: &[u32], support: u64) {
        debug_assert!(!self.subsumed(items));
        let mut sharing = items.iter().flat_map(|&i| self.postings(i));
        debug_assert!(
            !sharing.any(|&idx| is_subset(&self.sets[idx as usize].items, items)),
            "FPMax order: {items:?} contains an earlier MFI"
        );
        let idx = self.sets.len() as u32;
        for &item in items {
            self.postings[self.rank[item as usize] as usize].push(idx);
        }
        self.signatures.push(signature(items));
        self.sets.push(Itemset { items: items.to_vec(), support });
    }
}

/// Mine all maximal frequent itemsets with support ≥ `minsup` from the
/// given item bags. Items within each returned set are sorted; the result
/// is sorted for determinism. Singleton maximal itemsets are included
/// (they arise when a frequent item co-occurs with nothing frequently).
/// Working memory is linear in the largest item id (dense tables): pass
/// interner ids.
#[must_use]
pub fn mine_maximal<B: AsRef<[u32]>>(bags: &[B], minsup: u64) -> Vec<Itemset> {
    mine_maximal_on(bags, minsup, 1)
}

/// [`mine_maximal`] on `workers` threads, the calling thread included: the
/// same sets, whatever the count and the schedule.
///
/// The top-level tree is built once and read by every worker. Its ranks are
/// the items of a [`for_each_run_with`], one per run, item `i` being rank
/// `n_ranks - 1 - i`: the runs one worker gets ascend, so its ranks descend,
/// least frequent first as the serial loop takes them, and nothing it
/// records is superseded by its own later sets. Each worker's state is its
/// deeper trees, scratch, recursion buffers and MFI collection. A set one worker records may
/// be a strict subset of a set another worker mined from an earlier (less
/// frequent) branch at the same time, whose record would have pruned it in
/// a serial run; a final merge drops exactly those. The splitter's
/// hand-out is all the workers write in common, once per top-level branch.
#[must_use]
pub fn mine_maximal_on<B: AsRef<[u32]>>(bags: &[B], minsup: u64, workers: usize) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    let top = FpTree::from_bags(bags, minsup);
    let n_ranks = top.items().len();
    let miner = || {
        let mut forest = Forest::default();
        forest.fit(&top);
        (forest, Vec::new(), Vec::new(), MfiSet::new(top.item_ranks(), n_ranks))
    };
    let miners = for_each_run_with(&mut [], n_ranks, |_| 0, 1, workers, miner, |(forest, prefix, head, mfis), items, _: &mut [()]| {
        mine_branches(&top, forest, items.map(|i| n_ranks - 1 - i), prefix, head, minsup, mfis);
    });
    merge(miners.into_iter().map(|(.., mfis)| mfis).collect())
}

/// One worker's part of a run, as [`mine_maximal_on`]'s workers mine it:
/// the top-level branches of `ranks`, which must descend, mined under
/// `top` into a collection of their own, with a caller-owned forest whose
/// pooled trees and scratch a later run reuses.
#[cfg(test)]
fn mine_ranks<'t>(
    top: &'t FpTree,
    forest: &mut Forest,
    ranks: impl Iterator<Item = usize>,
    minsup: u64,
) -> MfiSet<'t> {
    forest.fit(top);
    let mut mfis = MfiSet::new(top.item_ranks(), top.items().len());
    mine_branches(top, forest, ranks, &mut Vec::new(), &mut Vec::new(), minsup, &mut mfis);
    mfis
}

/// The top-level branches of `ranks`, which must descend, mined under
/// `top` (which `forest` fits) into `mfis`, with the recursion's buffers.
fn mine_branches(
    top: &FpTree,
    forest: &mut Forest,
    ranks: impl Iterator<Item = usize>,
    prefix: &mut Vec<u32>,
    head: &mut Vec<u32>,
    minsup: u64,
    mfis: &mut MfiSet,
) {
    let mut last = usize::MAX;
    for rank in ranks {
        debug_assert!(rank < last, "a worker's top-level ranks descend");
        last = rank;
        branch(top, forest, 0, rank, prefix, head, minsup, mfis);
    }
}

/// The maximal elements of the union of the workers' collections: a set
/// another worker's collection subsumes is dropped (no set is in two
/// collections — a set's least frequent item names the one top-level
/// branch that can record it), and the rest come out sorted. Each
/// collection is filtered, then sorted, as one run of a [`for_each_run`]
/// on as many workers as there are collections, and the sorted runs are
/// merged.
///
/// Every frequent itemset is a subset of a set its own branch's worker
/// recorded (head pruning only skips what a recorded set covers), and
/// every recorded set is frequent, so these maximal elements are exactly
/// the MFIs, which are unique.
fn merge(groups: Vec<MfiSet>) -> Vec<Itemset> {
    let n = groups.len();
    let mut kept = vec![Vec::new(); n];
    for_each_run(&mut kept, n, |g| g, 1, n, |run, out| {
        for (g, kept) in run.zip(out) {
            let others = groups.iter().enumerate().filter(|&(h, _)| h != g).map(|(_, other)| other);
            let subsumed = |set: &Itemset| others.clone().any(|other| other.subsumed(&set.items));
            *kept = groups[g].sets.iter().map(|set| !subsumed(set)).collect();
        }
    });
    // The postings go before the runs are sorted.
    let mut runs: Vec<Vec<Itemset>> = groups.into_iter().map(|group| group.sets).collect();
    for_each_run(&mut runs, n, |g| g, 1, n, |run, out| {
        for (kept, sets) in kept[run].iter().zip(out) {
            let mut kept = kept.iter();
            sets.retain(|_| kept.next().copied().unwrap_or(false));
            sets.sort_unstable();
        }
    });
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    // Merged by hand: a stable sort of the concatenation would merge the
    // runs too, through a scratch copy of them at the mining peak.
    let mut sets = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(|run| run.into_iter().peekable()).collect();
    loop {
        let heads = runs.iter_mut().enumerate().filter_map(|(r, run)| Some((r, run.peek()?)));
        let Some((first, _)) = heads.min_by(|a, b| a.1.cmp(b.1)) else { break };
        sets.extend(runs[first].next());
    }
    sets
}

/// Mine the tree at `depth`, whose `head` — `prefix` plus all its items,
/// sorted: the largest set it can produce — the caller has checked is not
/// subsumed. The buffer is reused for the heads further down.
fn fpmax(
    top: &FpTree,
    forest: &mut Forest,
    depth: usize,
    prefix: &mut Vec<u32>,
    head: &mut Vec<u32>,
    minsup: u64,
    mfis: &mut MfiSet,
) {
    let tree = forest.tree(top, depth);
    let n_ranks = tree.items().len();
    if tree.is_single_path() {
        // Single path: the deepest level is the only candidate that can be
        // maximal for this branch (shallower levels are its subsets, and
        // all path nodes are ≥ minsup: infrequent items never enter the
        // tree) — and it is the head itself.
        if n_ranks > 0 {
            mfis.record(head, tree.rank_count(n_ranks - 1));
        }
        return;
    }
    // Least frequent rank first.
    for rank in (0..n_ranks).rev() {
        branch(top, forest, depth, rank, prefix, head, minsup, mfis);
    }
}

/// The branch of `rank` in the tree at `depth`: condition on it, and
/// unless the largest set the branch could produce is subsumed, record
/// that set (nothing is frequent beside the rank) or mine the conditional
/// tree.
#[allow(clippy::too_many_arguments, reason = "the recursion's state, threaded through")]
fn branch(
    top: &FpTree,
    forest: &mut Forest,
    depth: usize,
    rank: usize,
    prefix: &mut Vec<u32>,
    head: &mut Vec<u32>,
    minsup: u64,
    mfis: &mut MfiSet,
) {
    let tree = forest.tree(top, depth);
    let support = tree.rank_count(rank);
    prefix.push(tree.items()[rank]);
    let extends = forest.conditional_ranks(top, depth, rank, minsup);
    // Head pruning, before the conditional tree is built.
    head.clear();
    head.extend_from_slice(prefix);
    head.extend(forest.conditional_items(top, depth));
    head.sort_unstable();
    if !mfis.subsumed(head) {
        if extends {
            forest.build_conditional(top, depth, rank);
            fpmax(top, forest, depth + 1, prefix, head, minsup, mfis);
        } else {
            mfis.record(head, support);
        }
    }
    prefix.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mine_frequent;
    use std::collections::BTreeSet;

    /// Reference maximality filter over the complete FI list.
    fn maximal_reference(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
        let all = mine_frequent(bags, minsup);
        let sets: Vec<BTreeSet<u32>> =
            all.iter().map(|s| s.items.iter().copied().collect()).collect();
        let mut out: Vec<Itemset> = all
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let me: BTreeSet<u32> = s.items.iter().copied().collect();
                !sets.iter().enumerate().any(|(j, other)| *i != j && me.is_subset(other) && me != *other)
            })
            .map(|(_, s)| s.clone())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn doc_example() {
        let bags = vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![1, 6]];
        let mfis = mine_maximal(&bags, 2);
        assert_eq!(mfis, vec![Itemset { items: vec![1, 2, 3], support: 2 }]);
    }

    #[test]
    fn identical_bags_do_not_explode() {
        // 100 identical bags of 20 items: all-FI mining would enumerate
        // 2^20 sets; maximal mining must return exactly one.
        let bag: Vec<u32> = (0..20).collect();
        let bags = vec![bag.clone(); 100];
        let mfis = mine_maximal(&bags, 2);
        assert_eq!(mfis.len(), 1);
        assert_eq!(mfis[0].items, bag);
        assert_eq!(mfis[0].support, 100);
    }

    #[test]
    fn paper_table2_example() {
        // Records 3 and 4 of Table 2 share {F Yitzhak, L Postel, G 0};
        // encode items as ids.
        // r1: YB1927, P1 Lubaczow, ..., F Avraham, L Kesler
        // r2: P1 Lwow, ..., F Avraham, L Apoteker, G0
        // r3: P1 Antopol, ..., F Yitzhak, F Avram, L Postel, G0, P4 Poland
        // r4: P4 Poland, F Yitzhak, L Postel, G0
        let (f_yitzhak, l_postel, g0, p4_poland, f_avraham) = (1, 2, 3, 4, 5);
        let bags = vec![
            vec![f_avraham, 10, 11, 12, p4_poland],
            vec![f_avraham, 13, 14, g0, p4_poland],
            vec![f_yitzhak, 20, l_postel, g0, p4_poland],
            vec![f_yitzhak, l_postel, g0, p4_poland],
        ];
        let mfis = mine_maximal(&bags, 2);
        // {F Yitzhak, L Postel, G 0, P4 Poland} is maximal with support 2.
        assert!(mfis
            .iter()
            .any(|m| m.items == vec![f_yitzhak, l_postel, g0, p4_poland] && m.support == 2));
        // No mined set strictly contains another.
        for (i, a) in mfis.iter().enumerate() {
            for (j, b) in mfis.iter().enumerate() {
                if i != j {
                    assert!(!is_subset(&a.items, &b.items), "{a:?} subset of {b:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_fixed_inputs() {
        let bags = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![1, 3, 4],
            vec![2, 3, 4],
            vec![1, 2, 3, 4],
            vec![5, 6],
            vec![5, 6, 7],
        ];
        for minsup in 1..=4 {
            assert_eq!(
                mine_maximal(&bags, minsup),
                maximal_reference(&bags, minsup),
                "minsup={minsup}"
            );
        }
    }

    #[test]
    fn is_subset_basics() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1], &[]));
    }

    #[test]
    fn subsumption_verifies_what_the_signature_lets_through() {
        // `twin` has item 1's signature, so {0, twin} passes the filter
        // against the recorded {0, 1} and only the subset test rejects it.
        let twin = (2..).find(|&i| signature(&[i]) == signature(&[1])).expect("64 bits, u32 ids");
        let rank: Vec<u32> = (0..=twin).collect();
        let mut mfis = MfiSet::new(&rank, rank.len());
        mfis.record(&[0, 1], 2);
        mfis.record(&[2, twin], 2);
        assert_eq!(signature(&[0, twin]), mfis.signatures[0]);
        assert!(!mfis.subsumed(&[0, twin]));
        assert!(mfis.subsumed(&[0, 1]) && mfis.subsumed(&[twin]));
        assert!(!mfis.subsumed(&[0, 2]), "the filter alone rejects this one");
        assert_ne!(signature(&[0, 2]) & !mfis.signatures[0], 0);
    }

    #[test]
    fn pooled_trees_and_scratch_are_clean_between_runs() {
        // Two databases through one forest, the second shallower than the
        // first: stale nodes, ranks or counts from the first run would
        // show in the second.
        let deep: Vec<Vec<u32>> =
            (0..40u32).map(|i| (0..9).map(|j| (i * j + j) % 14).collect()).collect();
        let shallow = vec![vec![1, 2, 3], vec![1, 2, 4], vec![2, 3, 4], vec![1, 2, 3, 4]];
        let mut forest = Forest::default();
        for minsup in 1..=4 {
            for bags in [&deep, &shallow, &deep] {
                let top = FpTree::from_bags(bags, minsup);
                let pooled = merge(vec![mine_ranks(&top, &mut forest, (0..top.items().len()).rev(), minsup)]);
                assert!(forest.is_clean(), "scratch arrays dirty after a run");
                assert_eq!(pooled, mine_maximal(bags, minsup), "minsup={minsup}");
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Up to 40 bags of up to 9 draws from 14 items: repeated items
        /// within a bag and empty bags both occur.
        fn bags() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(proptest::collection::vec(0u32..14, 0..10), 0..41)
        }

        fn sorted_set(bag: &[u32]) -> Vec<u32> {
            let mut b = bag.to_vec();
            b.sort_unstable();
            b.dedup();
            b
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn agrees_with_reference(bags in bags(), minsup in 1u64..5) {
                prop_assert_eq!(
                    mine_maximal(&bags, minsup),
                    maximal_reference(&bags, minsup)
                );
            }

            #[test]
            fn a_subset_never_fails_the_signature_filter(bag in proptest::collection::vec(0u32..5000, 0..20), keep in 0u32..4) {
                let big = sorted_set(&bag);
                let small: Vec<u32> = big.iter().copied().filter(|i| i % 4 <= keep).collect();
                prop_assert_eq!(signature(&small) & !signature(&big), 0);
            }

            #[test]
            fn results_are_mutually_incomparable(bags in bags(), minsup in 1u64..5) {
                let mfis = mine_maximal(&bags, minsup);
                for (i, a) in mfis.iter().enumerate() {
                    for (j, b) in mfis.iter().enumerate() {
                        if i != j {
                            prop_assert!(!is_subset(&a.items, &b.items));
                        }
                    }
                }
            }

            #[test]
            fn supports_are_correct(bags in bags(), minsup in 1u64..5) {
                for mfi in mine_maximal(&bags, minsup) {
                    let true_support = bags
                        .iter()
                        .filter(|bag| is_subset(&mfi.items, &sorted_set(bag)))
                        .count() as u64;
                    prop_assert_eq!(mfi.support, true_support);
                    prop_assert!(mfi.support >= minsup);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Whatever top-level ranks each worker of a parallel run
            /// happens to claim, the merge gives the serial sets: each of
            /// 1–4 groups of an arbitrary partition is mined, descending,
            /// into a collection of its own, then the groups are merged.
            #[test]
            fn any_partition_of_the_top_level_ranks_merges_to_the_serial_sets(
                bags in bags(),
                minsup in 1u64..5,
                k in 1usize..5,
                owner in proptest::collection::vec(0usize..4, 14..15),
            ) {
                let top = FpTree::from_bags(&bags, minsup);
                let n_ranks = top.items().len();
                let groups: Vec<MfiSet> = (0..k)
                    .map(|g| {
                        let ranks = (0..n_ranks).rev().filter(|&r| owner[r] % k == g);
                        mine_ranks(&top, &mut Forest::default(), ranks, minsup)
                    })
                    .collect();
                let merged = merge(groups);
                prop_assert_eq!(&merged, &mine_maximal(&bags, minsup));
                prop_assert_eq!(&merged, &crate::reference::mine_maximal(&bags, minsup));
            }

            /// The same on real threads, whose claims the scheduler decides.
            #[test]
            fn threads_give_the_serial_sets(bags in bags(), minsup in 1u64..5) {
                let serial = mine_maximal(&bags, minsup);
                for workers in [2, 3, 4] {
                    prop_assert_eq!(&mine_maximal_on(&bags, minsup, workers), &serial);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]
            /// The array-based miner against the pointer-based one it
            /// replaced.
            #[test]
            fn agrees_with_the_pointer_miner(bags in bags(), minsup in 1u64..5) {
                prop_assert_eq!(
                    mine_maximal(&bags, minsup),
                    crate::reference::mine_maximal(&bags, minsup)
                );
            }
        }
    }
}
