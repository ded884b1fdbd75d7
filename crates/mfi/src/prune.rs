//! Frequent-item pruning (Section 6.3).
//!
//! The performance study prunes the 0.03% most frequent items before
//! mining, following \[18\]: ultra-frequent items (country names, genders)
//! generate enormous conditional trees while contributing no discriminative
//! power to blocks.

use std::collections::HashSet;

/// Occurrence count of every item across the bags, indexed by item id
/// (dense: pass interner ids).
#[must_use]
pub fn item_frequencies<B: AsRef<[u32]>>(bags: &[B]) -> Vec<u64> {
    let n_ids = bags.iter().flat_map(|b| b.as_ref()).max().map_or(0, |&max| max as usize + 1);
    let mut freq = vec![0u64; n_ids];
    for bag in bags {
        for &item in bag.as_ref() {
            freq[item as usize] += 1;
        }
    }
    freq
}

/// The `fraction` most frequent of the items occurring in a frequency
/// table (by distinct-item count, rounded up when the fraction selects a
/// positive number of items), ties by item id.
///
/// `fraction` is expressed as a proportion of the *distinct item
/// vocabulary* — the paper's ".03% most frequent items" is
/// `fraction = 0.0003`.
#[must_use]
pub fn top_frequent(freq: &[u64], fraction: f64) -> Vec<u32> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let mut by_freq: Vec<u32> = (0..freq.len() as u32).filter(|&i| freq[i as usize] > 0).collect();
    let k = ((by_freq.len() as f64) * fraction).ceil() as usize;
    let k = if fraction == 0.0 { 0 } else { k.max(1).min(by_freq.len()) };
    by_freq.sort_unstable_by(|&a, &b| freq[b as usize].cmp(&freq[a as usize]).then(a.cmp(&b)));
    by_freq.truncate(k);
    by_freq
}

/// The items of a frequency table occurring in more than `fraction` of
/// `n_bags` bags (e.g. 0.05 selects items present in over 5% of records).
/// Scale-free variant of [`top_frequent`]: gender codes and country names
/// explode mining cost while contributing nothing to block quality,
/// regardless of vocabulary size.
#[must_use]
pub fn common_items(freq: &[u64], n_bags: usize, fraction: f64) -> Vec<u32> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let cap = (n_bags as f64 * fraction).ceil() as u64;
    (0..freq.len() as u32).filter(|&i| freq[i as usize] > cap).collect()
}

/// Remove the [`common_items`] from every bag, returning the pruned bags
/// and the set of pruned items.
#[must_use]
pub fn prune_common_items(bags: &[Vec<u32>], fraction: f64) -> (Vec<Vec<u32>>, HashSet<u32>) {
    let pruned: HashSet<u32> =
        common_items(&item_frequencies(bags), bags.len(), fraction).into_iter().collect();
    let new_bags = bags
        .iter()
        .map(|bag| bag.iter().copied().filter(|i| !pruned.contains(i)).collect())
        .collect();
    (new_bags, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_items_pruned_by_record_fraction() {
        let bags: Vec<Vec<u32>> = (0..10).map(|i| vec![1, 100 + i]).collect();
        // Item 1 is in 100% of bags; cap at 50%.
        let (out, pruned) = prune_common_items(&bags, 0.5);
        assert_eq!(pruned, HashSet::from([1]));
        assert!(out.iter().all(|b| !b.contains(&1)));
        // Nothing pruned at 100%.
        let (_, none) = prune_common_items(&bags, 1.0);
        assert!(none.is_empty());
    }

    #[test]
    fn frequencies_count_occurrences() {
        let bags = vec![vec![1, 2], vec![1], vec![1, 3]];
        let f = item_frequencies(&bags);
        assert_eq!(f[1], 3);
        assert_eq!(f[2], 1);
        assert_eq!(f[0], 0);
        assert_eq!(f.get(9), None);
    }

    #[test]
    fn prunes_most_frequent() {
        let freq = item_frequencies(&[vec![1, 2], vec![1, 3], vec![1, 4], vec![1]]);
        // 4 distinct items; 25% => 1 item pruned: item 1.
        assert_eq!(top_frequent(&freq, 0.25), [1]);
        // Ties break by item id.
        assert_eq!(top_frequent(&freq, 0.5), [1, 2]);
    }

    #[test]
    fn tiny_fraction_still_prunes_one() {
        let freq = item_frequencies(&[vec![1, 2], vec![1, 3]]);
        assert_eq!(top_frequent(&freq, 0.0003), [1]);
    }

    #[test]
    fn zero_fraction_prunes_nothing() {
        let freq = item_frequencies(&[vec![1, 2], vec![1, 3]]);
        assert!(top_frequent(&freq, 0.0).is_empty());
    }

    #[test]
    fn full_fraction_prunes_everything() {
        // Three distinct items; the absent ids 0 and 3 are never selected.
        let freq = item_frequencies(&[vec![1, 2], vec![4]]);
        assert_eq!(top_frequent(&freq, 1.0), [1, 2, 4]);
    }

    #[test]
    fn empty_input_is_safe() {
        assert!(top_frequent(&item_frequencies::<Vec<u32>>(&[]), 0.5).is_empty());
        let (out, pruned) = prune_common_items(&[], 0.5);
        assert!(out.is_empty());
        assert!(pruned.is_empty());
    }
}
