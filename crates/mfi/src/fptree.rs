//! The FP-tree: a prefix tree over frequency-ordered transactions with
//! per-item node links, the core data structure of FP-Growth — laid out as
//! one struct-of-arrays arena, with conditional trees built directly from
//! the parent's header chains into a per-depth pool (DESIGN §6,
//! "Array-based mining and flat block stages").

/// Sentinel for "no node" / "no rank".
const NIL: u32 = u32::MAX;

/// An FP-tree together with its header table and the mapping from ranks
/// back to original item ids. Nodes live in parallel arrays; node 0 is the
/// root and `item` holds *ranks* (positions in the tree's
/// frequency-descending item order), not original item ids.
#[derive(Debug, Default)]
pub struct FpTree {
    item: Vec<u32>,
    count: Vec<u64>,
    parent: Vec<u32>,
    /// Next node carrying the same rank (header chain).
    link: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    /// First node of each rank's header chain.
    headers: Vec<u32>,
    /// Total count per rank (support of the single-item set).
    rank_counts: Vec<u64>,
    /// Original item id per rank, frequency-descending.
    rank_to_item: Vec<u32>,
    /// Set when some node receives a second child.
    branching: bool,
}

impl FpTree {
    /// Build an FP-tree over item bags, keeping only items contained in at
    /// least `minsup` bags (set semantics — an item counts once per bag
    /// even when the bag repeats it). Frequencies and the item→rank map
    /// are dense arrays, so memory is linear in the largest item id:
    /// callers pass interner ids.
    #[must_use]
    pub fn from_bags<B: AsRef<[u32]>>(bags: &[B], minsup: u64) -> FpTree {
        let n_ids =
            bags.iter().flat_map(|b| b.as_ref()).max().map_or(0, |&max| max as usize + 1);
        // Pass 1: frequencies; `last_bag` is the bag that last counted an item.
        let mut freq = vec![0u64; n_ids];
        let mut last_bag = vec![NIL; n_ids];
        for (t, bag) in bags.iter().enumerate() {
            for &item in bag.as_ref() {
                if std::mem::replace(&mut last_bag[item as usize], t as u32) != t as u32 {
                    freq[item as usize] += 1;
                }
            }
        }
        let mut frequent: Vec<u32> =
            (0..n_ids as u32).filter(|&i| freq[i as usize] >= minsup).collect();
        // Frequency-descending, ties by item id for determinism.
        frequent
            .sort_unstable_by(|&a, &b| freq[b as usize].cmp(&freq[a as usize]).then(a.cmp(&b)));
        let mut tree = FpTree::default();
        tree.reset();
        let mut item_to_rank = last_bag;
        item_to_rank.fill(NIL);
        for (rank, &item) in frequent.iter().enumerate() {
            item_to_rank[item as usize] = rank as u32;
            tree.push_rank(item, freq[item as usize]);
        }

        // Pass 2: bags as ascending, duplicate-free rank runs in one flat
        // array, sorted lexicographically. Each run then shares with the
        // tree exactly the prefix it shares with its predecessor, so it
        // extends the previous path and never searches a child list (the
        // root's is thousands wide).
        let (mut flat, mut runs, mut run) = (Vec::new(), Vec::new(), Vec::new());
        for bag in bags {
            run.clear();
            let ranks = bag.as_ref().iter().map(|&i| item_to_rank[i as usize]);
            run.extend(ranks.filter(|&r| r != NIL));
            run.sort_unstable();
            run.dedup();
            runs.push((flat.len(), flat.len() + run.len()));
            flat.extend_from_slice(&run);
        }
        runs.sort_unstable_by(|a: &(usize, usize), b| flat[a.0..a.1].cmp(&flat[b.0..b.1]));
        let mut path: Vec<u32> = Vec::new();
        let mut previous: &[u32] = &[];
        for &(start, end) in &runs {
            let run = &flat[start..end];
            let shared = previous.iter().zip(run).take_while(|(a, b)| a == b).count();
            path.truncate(shared);
            for &node in &path {
                tree.count[node as usize] += 1;
            }
            for &rank in &run[shared..] {
                let parent = path.last().copied().unwrap_or(0);
                path.push(tree.add_child(parent, rank, 1));
            }
            previous = run;
        }
        tree
    }

    /// Empty the tree down to a bare root, keeping the arrays' capacity.
    fn reset(&mut self) {
        self.item.clear();
        self.count.clear();
        self.parent.clear();
        self.link.clear();
        self.first_child.clear();
        self.next_sibling.clear();
        self.headers.clear();
        self.rank_counts.clear();
        self.rank_to_item.clear();
        self.branching = false;
        self.add_node(NIL, 0, NIL, NIL, NIL);
    }

    fn add_node(&mut self, rank: u32, count: u64, parent: u32, link: u32, sibling: u32) {
        self.item.push(rank);
        self.count.push(count);
        self.parent.push(parent);
        self.link.push(link);
        self.first_child.push(NIL);
        self.next_sibling.push(sibling);
    }

    /// Append the next (less frequent) rank.
    fn push_rank(&mut self, item: u32, count: u64) {
        self.headers.push(NIL);
        self.rank_counts.push(count);
        self.rank_to_item.push(item);
    }

    fn add_child(&mut self, parent: u32, rank: u32, count: u64) -> u32 {
        let node = self.item.len() as u32;
        let sibling = std::mem::replace(&mut self.first_child[parent as usize], node);
        self.branching |= sibling != NIL;
        let link = std::mem::replace(&mut self.headers[rank as usize], node);
        self.add_node(rank, count, parent, link, sibling);
        node
    }

    /// Insert one ascending rank path with a weight.
    fn insert(&mut self, ranked: &[u32], weight: u64) {
        let mut cur = 0u32;
        for &rank in ranked {
            let mut child = self.first_child[cur as usize];
            while child != NIL && self.item[child as usize] != rank {
                child = self.next_sibling[child as usize];
            }
            if child == NIL {
                child = self.add_child(cur, rank, 0);
            }
            self.count[child as usize] += weight;
            cur = child;
        }
    }

    /// The nodes of a rank's header chain.
    fn chain(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |node: u32| (node != NIL).then_some(node as usize);
        std::iter::successors(live(self.headers[rank]), move |&node| live(self.link[node]))
    }

    /// The ranks on the path from a node's parent up to the root.
    fn ancestors(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(self.parent[node]), |&up| Some(self.parent[up as usize]))
            .take_while(|&up| up != 0)
            .map(|up| self.item[up as usize])
    }

    /// Original item ids of the frequent items, one per rank, most
    /// frequent first.
    #[must_use]
    pub fn items(&self) -> &[u32] {
        &self.rank_to_item
    }

    /// Support of a rank's single-item set.
    #[must_use]
    pub fn rank_count(&self, rank: usize) -> u64 {
        self.rank_counts[rank]
    }

    /// True when the tree is a single path from the root (or empty). Every
    /// rank then sits on that path exactly once, in rank order, so the
    /// path's items are [`FpTree::items`] and its deepest count is the last
    /// rank's.
    #[must_use]
    pub fn is_single_path(&self) -> bool {
        !self.branching
    }
}

/// What one mining run works on: `trees[d]` is the tree at recursion depth
/// `d`, rebuilt in place for every conditional tree of that depth, and the
/// scratch of the conditional build, indexed by ranks of the tree being
/// conditioned (never more than the top-level tree's). Between calls
/// `counts` is all zero and `remap` all `NIL`.
#[derive(Debug, Default)]
pub(crate) struct Forest {
    trees: Vec<FpTree>,
    counts: Vec<u64>,
    remap: Vec<u32>,
    touched: Vec<u32>,
    /// Ranks frequent in the last conditional base with their counts, in
    /// the conditional tree's rank order.
    frequent: Vec<(u32, u64)>,
    path: Vec<u32>,
}

impl Forest {
    /// Make the tree over `bags` the top-level tree (depth 0).
    pub(crate) fn plant<B: AsRef<[u32]>>(&mut self, bags: &[B], minsup: u64) {
        let top = FpTree::from_bags(bags, minsup);
        self.counts.resize(self.counts.len().max(top.items().len()), 0);
        self.remap.resize(self.remap.len().max(top.items().len()), NIL);
        match self.trees.first_mut() {
            Some(slot) => *slot = top,
            None => self.trees.push(top),
        }
    }

    pub(crate) fn tree(&self, depth: usize) -> &FpTree {
        &self.trees[depth]
    }

    /// First half of the conditional build for `rank` of the tree at
    /// `depth`: one walk up the parent pointers from every node of the
    /// rank's header chain accumulates the conditional base's item counts;
    /// the ranks reaching `minsup` become `frequent`, ordered by (count
    /// descending, item id ascending). Returns whether there are any.
    pub(crate) fn conditional_ranks(&mut self, depth: usize, rank: usize, minsup: u64) -> bool {
        let tree = &self.trees[depth];
        self.touched.clear();
        for node in tree.chain(rank) {
            for r in tree.ancestors(node) {
                if self.counts[r as usize] == 0 {
                    self.touched.push(r);
                }
                self.counts[r as usize] += tree.count[node];
            }
        }
        self.frequent.clear();
        for &r in &self.touched {
            let count = std::mem::take(&mut self.counts[r as usize]);
            if count >= minsup {
                self.frequent.push((r, count));
            }
        }
        let item = |r: u32| tree.rank_to_item[r as usize];
        self.frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(item(a.0).cmp(&item(b.0))));
        !self.frequent.is_empty()
    }

    /// Item ids of the ranks the last [`Forest::conditional_ranks`], run
    /// at `depth`, found frequent.
    pub(crate) fn conditional_items(&self, depth: usize) -> impl Iterator<Item = u32> + '_ {
        self.frequent.iter().map(move |&(r, _)| self.trees[depth].rank_to_item[r as usize])
    }

    /// Second half: rebuild the pooled tree at `depth + 1` as the
    /// conditional tree over those ranks. A second walk over the header
    /// chain remaps every prefix path into the new rank space and inserts
    /// it with the chain node's count.
    pub(crate) fn build_conditional(&mut self, depth: usize, rank: usize) {
        if self.trees.len() == depth + 1 {
            self.trees.push(FpTree::default());
        }
        let (parents, pool) = self.trees.split_at_mut(depth + 1);
        let (tree, into) = (&parents[depth], &mut pool[0]);
        into.reset();
        for (new, &(old, count)) in self.frequent.iter().enumerate() {
            self.remap[old as usize] = new as u32;
            into.push_rank(tree.rank_to_item[old as usize], count);
        }
        for node in tree.chain(rank) {
            self.path.clear();
            let remapped = tree.ancestors(node).map(|r| self.remap[r as usize]);
            self.path.extend(remapped.filter(|&r| r != NIL));
            self.path.sort_unstable();
            into.insert(&self.path, tree.count[node]);
        }
        for &(old, _) in &self.frequent {
            self.remap[old as usize] = NIL;
        }
    }

    /// True when the scratch arrays are in their between-calls state.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.remap.iter().all(|&r| r == NIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Vec<u32>> {
        vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 5], vec![6]]
    }

    /// The conditional tree of `item` in the tree over `bags`, or `None`
    /// when nothing is frequent in its conditional base.
    fn conditional(bags: &[Vec<u32>], item: u32, minsup: u64) -> Option<FpTree> {
        let mut forest = Forest::default();
        forest.plant(bags, 1);
        let rank = forest.tree(0).items().iter().position(|&i| i == item).unwrap();
        forest.conditional_ranks(0, rank, minsup).then(|| {
            forest.build_conditional(0, rank);
            forest.trees.pop().unwrap()
        })
    }

    #[test]
    fn infrequent_items_are_dropped() {
        let tree = FpTree::from_bags(&tiny(), 2);
        // Frequent at minsup 2: item 1 (3x), item 2 (2x).
                assert_eq!(tree.items(), [1, 2]);
        assert_eq!(tree.rank_count(0), 3);
        assert_eq!(tree.rank_count(1), 2);
    }

    #[test]
    fn empty_when_nothing_frequent() {
        let tree = FpTree::from_bags(&tiny(), 10);
        assert!(tree.items().is_empty());
        assert_eq!(tree.item.len(), 1, "a bare root");
        assert!(tree.is_single_path());
        assert!(FpTree::from_bags::<Vec<u32>>(&[], 1).items().is_empty());
    }

    #[test]
    fn single_path_detection() {
        // All transactions identical => one path, one node per rank.
        let bags = vec![vec![1, 2, 3]; 3];
        let tree = FpTree::from_bags(&bags, 2);
        assert!(tree.is_single_path());
        assert_eq!(tree.item.len(), 4);
        assert!(tree.count[1..].iter().all(|&c| c == 3));

        // Diverging transactions => not a single path.
        let tree2 = FpTree::from_bags(&[vec![1, 2], vec![1, 3], vec![2, 3]], 2);
        assert!(!tree2.is_single_path());
    }

    #[test]
    fn sorted_build_shares_prefixes() {
        // Ranks: 1 (4x), 2 (3x), 3 (2x). Paths 1-2-3 (x2), 1-2, 1: four
        // bags, three nodes.
        let bags = [vec![3, 2, 1], vec![1], vec![1, 2], vec![2, 1, 3]];
        let tree = FpTree::from_bags(&bags, 1);
        assert_eq!(tree.items(), [1, 2, 3]);
        assert_eq!(tree.item.len(), 4);
        assert_eq!(tree.count[1..], [4, 3, 2]);
        assert!(tree.is_single_path());
    }

    #[test]
    fn conditional_tree_of_the_least_frequent_item() {
        let bags = vec![vec![1, 2, 3], vec![1, 2, 3], vec![2, 3]];
        // Item 1 (count 2) sits below {2, 3} on one path of weight 2.
        let cond = conditional(&bags, 1, 2).expect("2 and 3 are frequent beside 1");
        assert_eq!(cond.items(), [2, 3]);
        assert_eq!(cond.rank_count(0), 2);
        assert_eq!(cond.rank_count(1), 2);
        assert!(cond.is_single_path());
        // Nothing sits above the most frequent item.
        assert!(conditional(&bags, 2, 2).is_none());
    }

    #[test]
    fn conditional_paths_carry_their_weights() {
        // Item 9 (the least frequent) closes three identical bags and one
        // divergent one: its conditional base is {1,2} x3 and {1,3} x1.
        let mut bags = vec![vec![1, 2, 9]; 3];
        bags.push(vec![1, 3, 9]);
        bags.extend(vec![vec![1, 2]; 2]);
        bags.extend(vec![vec![3]; 4]);
        let tree = FpTree::from_bags(&bags, 1);
        assert_eq!(tree.items(), [1, 2, 3, 9]);
        let cond = conditional(&bags, 9, 3).expect("1 and 2 reach minsup 3");
        assert_eq!(cond.items(), [1, 2]);
        assert_eq!(cond.rank_count(0), 4);
        assert_eq!(cond.rank_count(1), 3);
        // The {1} remainder of the divergent path merged into the same node.
        assert_eq!(cond.count[1..], [4, 3]);
    }

    #[test]
    fn duplicate_items_in_transaction_count_once() {
        let bags = [vec![1, 1, 2], vec![1, 2]];
        // Both passes dedup per bag: the frequency pass counts item 1 once
        // for the first bag, and the inserted path carries it once.
        let tree = FpTree::from_bags(&bags, 2);
        assert_eq!(tree.items(), [1, 2]);
        assert_eq!(tree.rank_count(0), 2);
        assert!(tree.is_single_path());
    }
}
