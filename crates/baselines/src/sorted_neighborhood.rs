//! Extended Sorted Neighborhood \[9\]: sort the distinct blocking keys
//! alphabetically and slide a fixed window over the *key list*; all records
//! whose keys fall inside one window position form a block.

use crate::common::{record_tokens, Blocker};
use std::collections::HashMap;
use yv_records::{Dataset, RecordId};

/// `ESoNe` with window size `w` (survey default 3).
#[derive(Debug, Clone, Copy)]
pub struct ExtendedSortedNeighborhood {
    pub window: usize,
}

impl Default for ExtendedSortedNeighborhood {
    fn default() -> Self {
        ExtendedSortedNeighborhood { window: 3 }
    }
}

impl Blocker for ExtendedSortedNeighborhood {
    fn name(&self) -> &'static str {
        "ESoNe"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        assert!(self.window >= 1, "window must be positive");
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                map.entry(token).or_default().push(rid);
            }
        }
        let mut keys: Vec<String> = map.keys().cloned().collect();
        keys.sort_unstable();
        let mut blocks = Vec::new();
        if keys.is_empty() {
            return blocks;
        }
        let last_start = keys.len().saturating_sub(self.window);
        for start in 0..=last_start {
            let mut block: Vec<RecordId> = Vec::new();
            for key in &keys[start..(start + self.window).min(keys.len())] {
                block.extend(map[key].iter().copied());
            }
            block.sort_unstable();
            block.dedup();
            if block.len() >= 2 {
                blocks.push(block);
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        // Alphabetically adjacent misspellings end up in one window.
        ds.add_record(RecordBuilder::new(0, s).last_name("Foa").build());
        ds.add_record(RecordBuilder::new(1, s).last_name("Fob").build());
        ds.add_record(RecordBuilder::new(2, s).last_name("Zzz").build());
        ds
    }

    #[test]
    fn adjacent_keys_share_a_window() {
        let blocks = ExtendedSortedNeighborhood { window: 2 }.blocks(&dataset());
        assert!(blocks
            .iter()
            .any(|b| b.contains(&RecordId(0)) && b.contains(&RecordId(1))));
    }

    #[test]
    fn window_one_is_plain_key_blocking() {
        // With w = 1 only records sharing the exact key collide; the three
        // distinct surnames yield no blocks.
        let blocks = ExtendedSortedNeighborhood { window: 1 }.blocks(&dataset());
        assert!(blocks.is_empty());
    }

    #[test]
    fn larger_windows_never_reduce_pairs() {
        let ds = dataset();
        let p = |w: usize| {
            let blocks = ExtendedSortedNeighborhood { window: w }.blocks(&ds);
            crate::common::pair_stats(&blocks, ds.len(), &|_, _| false).candidates
        };
        assert!(p(3) >= p(2));
        assert!(p(2) >= p(1));
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        assert!(ExtendedSortedNeighborhood::default().blocks(&ds).is_empty());
    }
}
