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

use crate::fptree::Forest;

/// A mined itemset: sorted item ids and the number of supporting
/// transactions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Itemset {
    pub items: Vec<u32>,
    pub support: u64,
}

impl Itemset {
    /// True when `self.items ⊆ other` (both sorted).
    #[must_use]
    pub fn is_subset_of(&self, other: &[u32]) -> bool {
        is_subset(&self.items, other)
    }
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
/// checks: `postings[item]` lists the recorded sets containing `item`, so
/// a subsumption test only inspects sets sharing the candidate's rarest
/// item instead of the whole collection (large minsup-2 runs record
/// hundreds of thousands of MFIs).
///
/// Recorded sets are never superseded. FPMax conditions on ranks from
/// least to most frequent, so a candidate from a later branch never
/// contains the item an earlier sibling branch (at this or any enclosing
/// level) was conditioned on, while every set recorded from that branch
/// does: no later candidate can be a superset of a recorded set.
#[derive(Debug)]
struct MfiSet {
    sets: Vec<Itemset>,
    /// `signature` of each recorded set.
    signatures: Vec<u64>,
    /// Indexed by item id.
    postings: Vec<Vec<u32>>,
}

impl MfiSet {
    /// True when `candidate` (sorted) is a subset of an already-recorded
    /// MFI.
    fn subsumed(&self, candidate: &[u32]) -> bool {
        let lists = candidate.iter().map(|&i| &self.postings[i as usize]);
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
        let mut sharing = items.iter().flat_map(|&i| &self.postings[i as usize]);
        debug_assert!(
            !sharing.any(|&idx| self.sets[idx as usize].is_subset_of(items)),
            "FPMax order: {items:?} contains an earlier MFI"
        );
        let idx = self.sets.len() as u32;
        for &item in items {
            self.postings[item as usize].push(idx);
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
    mine_maximal_in(&mut Forest::default(), bags, minsup)
}

/// [`mine_maximal`] on a caller-owned forest, whose pooled trees and
/// scratch a later run reuses.
pub(crate) fn mine_maximal_in<B: AsRef<[u32]>>(
    forest: &mut Forest,
    bags: &[B],
    minsup: u64,
) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    forest.plant(bags, minsup);
    let mut head = forest.tree(0).items().to_vec();
    head.sort_unstable();
    let n_ids = head.last().map_or(0, |&max| max as usize + 1);
    let mut mfis =
        MfiSet { sets: Vec::new(), signatures: Vec::new(), postings: vec![Vec::new(); n_ids] };
    fpmax(forest, 0, &mut Vec::new(), &mut head, minsup, &mut mfis);
    mfis.sets.sort();
    mfis.sets
}

/// Mine the tree at `depth`, whose `head` — `prefix` plus all its items,
/// sorted: the largest set it can produce — the caller has checked is not
/// subsumed (trivially so at depth 0, where nothing is recorded yet). The
/// buffer is reused for the heads further down.
fn fpmax(
    forest: &mut Forest,
    depth: usize,
    prefix: &mut Vec<u32>,
    head: &mut Vec<u32>,
    minsup: u64,
    mfis: &mut MfiSet,
) {
    let tree = forest.tree(depth);
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
        let tree = forest.tree(depth);
        let support = tree.rank_count(rank);
        prefix.push(tree.items()[rank]);
        let extends = forest.conditional_ranks(depth, rank, minsup);
        // Head pruning, before the conditional tree is built.
        head.clear();
        head.extend_from_slice(prefix);
        head.extend(forest.conditional_items(depth));
        head.sort_unstable();
        if !mfis.subsumed(head) {
            if extends {
                forest.build_conditional(depth, rank);
                fpmax(forest, depth + 1, prefix, head, minsup, mfis);
            } else {
                mfis.record(head, support);
            }
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::mine_frequent;
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
        let postings = vec![Vec::new(); twin as usize + 1];
        let mut mfis = MfiSet { sets: Vec::new(), signatures: Vec::new(), postings };
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
                let pooled = mine_maximal_in(&mut forest, bags, minsup);
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
            #![proptest_config(ProptestConfig::with_cases(2000))]
            /// The array-based miners against the pointer-based ones they
            /// replaced.
            #[test]
            fn agrees_with_the_pointer_miner(bags in bags(), minsup in 1u64..5) {
                prop_assert_eq!(
                    mine_maximal(&bags, minsup),
                    crate::reference::mine_maximal(&bags, minsup)
                );
                // All-FI enumeration is exponential in the bag width: keep
                // it to the levels where most sets are already infrequent.
                if minsup >= 3 {
                    prop_assert_eq!(
                        mine_frequent(&bags, minsup),
                        crate::reference::mine_frequent(&bags, minsup)
                    );
                }
            }
        }
    }
}
