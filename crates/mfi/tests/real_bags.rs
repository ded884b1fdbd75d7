//! The maximal miner on generated person records rather than toy bags:
//! thousands of items, a thousands-wide root, deep conditional recursion
//! on near-duplicate records. Checked against an inverted index, which
//! shares nothing with the FP-tree.

use yv_datagen::GenConfig;
use yv_mfi::{mine_maximal, prune_common_items, Itemset};

/// The mining bags the blocking pipeline sees: raw item ids with the items
/// of more than 5% of the records pruned.
fn bags() -> Vec<Vec<u32>> {
    let gen = GenConfig::random(2_000, 10).generate();
    let raw: Vec<Vec<u32>> =
        gen.dataset.bags().iter().map(|bag| bag.iter().map(|id| id.0).collect()).collect();
    prune_common_items(&raw, 0.05).0
}

/// `index[item]` = ascending positions of the rows containing `item`.
fn inverted_index(rows: impl Iterator<Item = Vec<u32>>) -> Vec<Vec<usize>> {
    let mut index: Vec<Vec<usize>> = Vec::new();
    for (position, row) in rows.enumerate() {
        for item in row {
            if index.len() <= item as usize {
                index.resize(item as usize + 1, Vec::new());
            }
            index[item as usize].push(position);
        }
    }
    index
}

/// Positions of the rows containing every item of `items`.
fn containing(index: &[Vec<usize>], items: &[u32]) -> Vec<usize> {
    let list = |item: u32| index.get(item as usize).map_or(&[][..], Vec::as_slice);
    let mut rows = list(items[0]).to_vec();
    for &item in &items[1..] {
        rows.retain(|row| list(item).binary_search(row).is_ok());
    }
    rows
}

fn check(bags: &[Vec<u32>], minsup: u64) -> Vec<Itemset> {
    let mfis = mine_maximal(bags, minsup);
    assert!(!mfis.is_empty());
    let by_bag = inverted_index(bags.iter().cloned());
    let by_mfi = inverted_index(mfis.iter().map(|m| m.items.clone()));
    for (i, mfi) in mfis.iter().enumerate() {
        assert!(mfi.support >= minsup);
        assert_eq!(
            containing(&by_bag, &mfi.items).len() as u64,
            mfi.support,
            "support of {:?} at minsup {minsup}",
            mfi.items
        );
        // Mutually incomparable: the only mined set containing all of this
        // one's items is itself.
        let supersets = containing(&by_mfi, &mfi.items);
        assert_eq!(supersets, [i], "{:?} is subsumed at minsup {minsup}", mfi.items);
    }
    mfis
}

#[test]
fn supports_are_correct_and_results_incomparable_on_generated_records() {
    let bags = bags();
    let at_2 = check(&bags, 2);
    let at_5 = check(&bags, 5);
    // Raising minsup can only merge or drop sets: every set maximal at 5 is
    // frequent at 2, hence inside some set maximal at 2.
    let by_mfi = inverted_index(at_2.iter().map(|m| m.items.clone()));
    for mfi in &at_5 {
        assert!(!containing(&by_mfi, &mfi.items).is_empty(), "{:?} lost at minsup 2", mfi.items);
    }
}
