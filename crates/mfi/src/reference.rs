//! The pointer-based FP-tree and miners this crate shipped before the
//! array-based tree (`ab81357`), kept verbatim as the test oracle: the MFI
//! set of a transaction database is unique, so old and new must agree on
//! every input.

use crate::maximal::{is_subset, Itemset};
use std::collections::HashMap;

/// Sentinel for "no node" in parent/link fields.
const NIL: usize = usize::MAX;

/// One FP-tree node. `item` is a *rank* (position in the tree's
/// frequency-descending item order), not an original item id.
#[derive(Debug, Clone)]
struct Node {
    item: usize,
    count: u64,
    parent: usize,
    /// Next node carrying the same item (header chain).
    link: usize,
    /// Child nodes keyed by item rank. Linear scan — fan-out is small in
    /// practice because transactions are frequency-ordered.
    children: Vec<(usize, usize)>,
}

/// An FP-tree together with its header table and the mapping from ranks
/// back to original item ids.
#[derive(Debug)]
pub(crate) struct FpTree {
    nodes: Vec<Node>,
    /// First node of each item's header chain, indexed by rank.
    headers: Vec<usize>,
    /// Total count per rank (support of the single-item set).
    rank_counts: Vec<u64>,
    /// Original item id per rank, frequency-descending.
    rank_to_item: Vec<u32>,
}

impl FpTree {
    /// Build an FP-tree from weighted transactions, keeping only items with
    /// total weight ≥ `minsup`. Transactions may contain infrequent items;
    /// they are filtered out here.
    #[must_use]
    fn build<'a, I>(transactions: I, minsup: u64) -> FpTree
    where
        I: IntoIterator<Item = (&'a [u32], u64)> + Clone,
    {
        // Pass 1: item frequencies (set semantics — an item counts once per
        // transaction even when the bag repeats it).
        let mut freq: HashMap<u32, u64> = HashMap::new();
        let mut seen: Vec<u32> = Vec::new();
        for (items, weight) in transactions.clone() {
            seen.clear();
            seen.extend_from_slice(items);
            seen.sort_unstable();
            seen.dedup();
            for &item in &seen {
                *freq.entry(item).or_insert(0) += weight;
            }
        }
        let mut frequent: Vec<(u32, u64)> =
            freq.into_iter().filter(|&(_, c)| c >= minsup).collect();
        // Frequency-descending, ties by item id for determinism.
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank_to_item: Vec<u32> = frequent.iter().map(|&(i, _)| i).collect();
        let rank_counts: Vec<u64> = frequent.iter().map(|&(_, c)| c).collect();
        let item_to_rank: HashMap<u32, usize> =
            rank_to_item.iter().enumerate().map(|(r, &i)| (i, r)).collect();

        let mut tree = FpTree {
            nodes: vec![Node { item: NIL, count: 0, parent: NIL, link: NIL, children: Vec::new() }],
            headers: vec![NIL; rank_to_item.len()],
            rank_counts,
            rank_to_item,
        };

        // Pass 2: insert transactions with items mapped to ranks, ascending
        // (most frequent first).
        let mut ranked: Vec<usize> = Vec::new();
        for (items, weight) in transactions {
            ranked.clear();
            ranked.extend(items.iter().filter_map(|i| item_to_rank.get(i).copied()));
            ranked.sort_unstable();
            ranked.dedup();
            tree.insert(&ranked, weight);
        }
        tree
    }

    fn insert(&mut self, ranked: &[usize], weight: u64) {
        let mut cur = 0usize;
        for &rank in ranked {
            let existing = self.nodes[cur]
                .children
                .iter()
                .find(|&&(r, _)| r == rank)
                .map(|&(_, idx)| idx);
            let child = match existing {
                Some(idx) => idx,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        item: rank,
                        count: 0,
                        parent: cur,
                        link: self.headers[rank],
                        children: Vec::new(),
                    });
                    self.headers[rank] = idx;
                    self.nodes[cur].children.push((rank, idx));
                    idx
                }
            };
            self.nodes[child].count += weight;
            cur = child;
        }
    }

    /// Number of frequent items (ranks).
    #[must_use]
    fn n_ranks(&self) -> usize {
        self.rank_to_item.len()
    }

    /// Original item id of a rank.
    #[must_use]
    fn item_of(&self, rank: usize) -> u32 {
        self.rank_to_item[rank]
    }

    /// Support of a rank's single-item set.
    #[must_use]
    fn rank_count(&self, rank: usize) -> u64 {
        self.rank_counts[rank]
    }

    /// True when the tree is empty (no frequent items or no transactions).
    #[must_use]
    fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// If the tree consists of a single path from the root, return that
    /// path as `(rank, count)` pairs from top to bottom.
    #[must_use]
    fn single_path(&self) -> Option<Vec<(usize, u64)>> {
        let mut path = Vec::new();
        let mut cur = 0usize;
        loop {
            match self.nodes[cur].children.len() {
                0 => return Some(path),
                1 => {
                    let (_, idx) = self.nodes[cur].children[0];
                    let node = &self.nodes[idx];
                    path.push((node.item, node.count));
                    cur = idx;
                }
                _ => return None,
            }
        }
    }

    /// The conditional pattern base of a rank: for every node carrying the
    /// rank, the path of ranks from its parent up to the root, weighted by
    /// the node's count. Returned paths contain *original item ids*.
    #[must_use]
    fn conditional_base(&self, rank: usize) -> Vec<(Vec<u32>, u64)> {
        let mut base = Vec::new();
        let mut node_idx = self.headers[rank];
        while node_idx != NIL {
            let node = &self.nodes[node_idx];
            let mut path = Vec::new();
            let mut up = node.parent;
            while up != 0 && up != NIL {
                path.push(self.rank_to_item[self.nodes[up].item]);
                up = self.nodes[up].parent;
            }
            if !path.is_empty() {
                path.reverse();
                base.push((path, node.count));
            }
            node_idx = node.link;
        }
        base
    }

    /// Iterate ranks from least frequent to most frequent (the FP-Growth
    /// processing order).
    fn ranks_ascending_frequency(&self) -> impl Iterator<Item = usize> {
        (0..self.rank_to_item.len()).rev()
    }
}

/// The running MFI collection with posting-list-indexed subsumption
/// checks: `postings[item]` lists the recorded sets containing `item`, so
/// a subsumption test only inspects sets sharing the candidate's rarest
/// item instead of the whole collection (large minsup-2 runs record
/// hundreds of thousands of MFIs).
#[derive(Debug, Default)]
struct MfiSet {
    /// Tombstoned storage: superseded sets become `None`.
    slots: Vec<Option<Itemset>>,
    postings: std::collections::HashMap<u32, Vec<u32>>,
    live: usize,
}

impl MfiSet {
    /// True when `candidate` (sorted) is a subset of an already-recorded
    /// MFI.
    fn subsumed(&self, candidate: &[u32]) -> bool {
        let Some(rarest) = candidate
            .iter()
            .min_by_key(|i| self.postings.get(i).map_or(0, Vec::len))
        else {
            return false; // the empty set is never recorded
        };
        let Some(list) = self.postings.get(rarest) else {
            return false;
        };
        list.iter().any(|&idx| {
            self.slots[idx as usize]
                .as_ref()
                .is_some_and(|m| is_subset(candidate, &m.items))
        })
    }

    /// Insert a candidate known to be frequent; drops recorded sets it
    /// strictly contains. No-op when subsumed.
    fn insert(&mut self, items: Vec<u32>, support: u64) {
        if self.subsumed(&items) {
            return;
        }
        // Tombstone subsets of the new set: any such subset shares the new
        // set's first item or... every item of the subset is in `items`,
        // so scanning the postings of each new item finds them all.
        for &item in &items {
            if let Some(list) = self.postings.get(&item) {
                for &idx in list {
                    let slot = &mut self.slots[idx as usize];
                    if slot.as_ref().is_some_and(|m| is_subset(&m.items, &items)) {
                        *slot = None;
                        self.live -= 1;
                    }
                }
            }
        }
        let idx = self.slots.len() as u32;
        for &item in &items {
            self.postings.entry(item).or_default().push(idx);
        }
        self.slots.push(Some(Itemset { items, support }));
        self.live += 1;
    }

    fn into_sets(self) -> Vec<Itemset> {
        self.slots.into_iter().flatten().collect()
    }
}

/// Mine all maximal frequent itemsets with support ≥ `minsup` from the
/// given item bags. Items within each returned set are sorted; the result
/// is sorted for determinism. Singleton maximal itemsets are included
/// (they arise when a frequent item co-occurs with nothing frequently).
#[must_use]
pub(crate) fn mine_maximal(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), minsup);
    let mut mfis = MfiSet::default();
    fpmax(&tree, &mut Vec::new(), minsup, &mut mfis);
    let mut out = mfis.into_sets();
    out.sort();
    out
}

fn fpmax(tree: &FpTree, prefix: &mut Vec<u32>, minsup: u64, mfis: &mut MfiSet) {
    if tree.is_empty() {
        return;
    }
    if let Some(path) = tree.single_path() {
        // Single path: every count level yields one candidate — the prefix
        // plus the path items down to that level. Only the deepest frequent
        // level can be maximal for this branch, plus shallower levels are
        // subsets, so one candidate suffices: all path nodes are already
        // ≥ minsup (infrequent items never enter the tree).
        let mut items = prefix.clone();
        items.extend(path.iter().map(|&(rank, _)| tree.item_of(rank)));
        items.sort_unstable();
        let support = path.last().map_or(0, |&(_, c)| c);
        if !items.is_empty() {
            mfis.insert(items, support);
        }
        return;
    }
    for rank in tree.ranks_ascending_frequency() {
        let item = tree.item_of(rank);
        let support = tree.rank_count(rank);
        prefix.push(item);
        let base = tree.conditional_base(rank);
        if base.is_empty() {
            let mut items = prefix.clone();
            items.sort_unstable();
            mfis.insert(items, support);
        } else {
            let cond = FpTree::build(base.iter().map(|(p, w)| (p.as_slice(), *w)), minsup);
            if cond.is_empty() {
                let mut items = prefix.clone();
                items.sort_unstable();
                mfis.insert(items, support);
            } else {
                // Head pruning: the largest set this branch can produce.
                let mut head = prefix.clone();
                head.extend((0..cond.n_ranks()).map(|r| cond.item_of(r)));
                head.sort_unstable();
                head.dedup();
                if !mfis.subsumed(&head) {
                    fpmax(&cond, prefix, minsup, mfis);
                }
            }
        }
        prefix.pop();
    }
}

/// Mine all frequent itemsets (support ≥ `minsup`) from the given item
/// bags. Returns itemsets with sorted items; the empty itemset is not
/// reported.
#[must_use]
pub(crate) fn mine_frequent(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be at least 1");
    let tree = FpTree::build(bags.iter().map(|b| (b.as_slice(), 1)), minsup);
    let mut out = Vec::new();
    grow(&tree, &mut Vec::new(), minsup, &mut out);
    for set in &mut out {
        set.items.sort_unstable();
    }
    out.sort();
    out
}

fn grow(tree: &FpTree, prefix: &mut Vec<u32>, minsup: u64, out: &mut Vec<Itemset>) {
    for rank in tree.ranks_ascending_frequency() {
        let support = tree.rank_count(rank);
        debug_assert!(support >= minsup);
        prefix.push(tree.item_of(rank));
        out.push(Itemset { items: prefix.clone(), support });
        let base = tree.conditional_base(rank);
        if !base.is_empty() {
            let cond = FpTree::build(base.iter().map(|(p, w)| (p.as_slice(), *w)), minsup);
            if !cond.is_empty() {
                grow(&cond, prefix, minsup, out);
            }
        }
        prefix.pop();
    }
}
