//! Suffix Arrays blocking \[1\] and the extended all-substrings variant \[9\].

use crate::common::{keymap_to_blocks, record_tokens, Blocker};
use std::collections::HashMap;
use yv_records::{Dataset, RecordId};
use yv_similarity::strings::{substrings, suffixes};

/// `SuAr`: keys are token suffixes of length ≥ `min_len`; blocks larger
/// than `max_block` (overly common suffixes) are discarded — the
/// original technique's robustness lever.
#[derive(Debug, Clone, Copy)]
pub struct SuffixArrays {
    pub min_len: usize,
    pub max_block: usize,
}

impl Default for SuffixArrays {
    fn default() -> Self {
        // The survey's absolute cap (~53) presumes the real set's name
        // cardinality (1,495 distinct Italian surnames); our synthetic
        // pools are smaller, so common suffixes form larger blocks and an
        // equivalent cap must scale up to keep recall comparable.
        SuffixArrays { min_len: 4, max_block: 150 }
    }
}

impl Blocker for SuffixArrays {
    fn name(&self) -> &'static str {
        "SuAr"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                for suffix in suffixes(&token, self.min_len) {
                    map.entry(suffix).or_default().push(rid);
                }
            }
        }
        let mut blocks = keymap_to_blocks(map);
        blocks.retain(|b| b.len() <= self.max_block);
        blocks
    }
}

/// `ESuAr`: keys are *all substrings* of length ≥ `min_len`, trading more
/// comparisons for robustness to errors at token ends.
#[derive(Debug, Clone, Copy)]
pub struct ExtendedSuffixArrays {
    pub min_len: usize,
    pub max_block: usize,
}

impl Default for ExtendedSuffixArrays {
    fn default() -> Self {
        ExtendedSuffixArrays { min_len: 4, max_block: 150 }
    }
}

impl Blocker for ExtendedSuffixArrays {
    fn name(&self) -> &'static str {
        "ESuAr"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                for sub in substrings(&token, self.min_len) {
                    map.entry(sub).or_default().push(rid);
                }
            }
        }
        let mut blocks = keymap_to_blocks(map);
        blocks.retain(|b| b.len() <= self.max_block);
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
        // "Goldberg" and "Goldberger" share the suffix "berg"? No:
        // suffixes of goldberger include "berger", of goldberg "berg".
        // They do share substrings; and prefixes damage SuAr less than
        // suffixes.
        ds.add_record(RecordBuilder::new(0, s).last_name("Goldberg").build());
        ds.add_record(RecordBuilder::new(1, s).last_name("Holdberg").build());
        ds.add_record(RecordBuilder::new(2, s).last_name("Postel").build());
        ds
    }

    #[test]
    fn suffix_keys_tolerate_prefix_errors() {
        // Goldberg vs Holdberg share the suffix "oldberg".
        let blocks = SuffixArrays::default().blocks(&dataset());
        assert!(blocks
            .iter()
            .any(|b| b.contains(&RecordId(0)) && b.contains(&RecordId(1))));
    }

    #[test]
    fn extended_generates_at_least_as_many_pairs() {
        let ds = dataset();
        let count = |blocks: &[Vec<RecordId>]| {
            crate::common::pair_stats(blocks, ds.len(), &|_, _| false).candidates
        };
        let suar = SuffixArrays::default().blocks(&ds);
        let esuar = ExtendedSuffixArrays::default().blocks(&ds);
        assert!(count(&esuar) >= count(&suar));
    }

    #[test]
    fn oversized_blocks_are_purged() {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        for i in 0..10 {
            ds.add_record(RecordBuilder::new(i, s).last_name("Samename").build());
        }
        let blocks = SuffixArrays { min_len: 4, max_block: 5 }.blocks(&ds);
        assert!(blocks.is_empty(), "all keys exceed the cap");
    }
}
