//! Standard (token) blocking [9, 23] and Attribute Clustering \[23\].

use crate::common::{keymap_to_blocks, record_tokens, Blocker};
use std::collections::{HashMap, HashSet};
use yv_records::{Dataset, RecordId};

/// `StBl`: one block per token appearing in more than one record —
/// schema-agnostic token blocking, "a block for each attribute value
/// shared by more than one record".
#[derive(Debug, Default, Clone, Copy)]
pub struct StandardBlocking;

impl Blocker for StandardBlocking {
    fn name(&self) -> &'static str {
        "StBl"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                map.entry(token).or_default().push(rid);
            }
        }
        keymap_to_blocks(map)
    }
}

/// `ACl`: attributes whose value sets look alike (token-set Jaccard above
/// `threshold`) are clustered together; tokens then act as keys *within*
/// their attribute cluster, so `John` in a first-name column and `John` in
/// a spouse column only collide when the columns were clustered together.
#[derive(Debug, Clone, Copy)]
pub struct AttributeClustering {
    pub threshold: f64,
}

impl Default for AttributeClustering {
    fn default() -> Self {
        AttributeClustering { threshold: 0.1 }
    }
}

/// Logical attribute columns for clustering purposes.
const COLUMNS: usize = 10;

fn column_tokens(record: &yv_records::Record, column: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |s: &str| out.extend(s.split_whitespace().map(str::to_lowercase));
    match column {
        0 => record.first_names.iter().for_each(|n| push(n)),
        1 => record.last_names.iter().for_each(|n| push(n)),
        2 => {
            if let Some(n) = &record.maiden_name {
                push(n);
            }
        }
        3 => {
            if let Some(n) = &record.father_name {
                push(n);
            }
        }
        4 => {
            if let Some(n) = &record.mother_name {
                push(n);
            }
        }
        5 => {
            if let Some(n) = &record.spouse_name {
                push(n);
            }
        }
        6 => {
            if let Some(n) = &record.mothers_maiden {
                push(n);
            }
        }
        7 => {
            if let Some(y) = record.birth.year {
                out.push(y.to_string());
            }
        }
        8 => {
            for ty in yv_records::PlaceType::ALL {
                if let Some(p) = record.place(ty) {
                    if let Some(c) = &p.city {
                        push(c);
                    }
                }
            }
        }
        _ => {
            if let Some(p) = &record.profession {
                push(p);
            }
        }
    }
    out
}

impl Blocker for AttributeClustering {
    fn name(&self) -> &'static str {
        "ACl"
    }

    #[allow(clippy::needless_range_loop)] // col is a logical column id
    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        // Value set per column.
        let mut values: Vec<HashSet<String>> = vec![HashSet::new(); COLUMNS];
        for rid in ds.record_ids() {
            for col in 0..COLUMNS {
                values[col].extend(column_tokens(ds.record(rid), col));
            }
        }
        // Union-find over columns connected by value-set similarity.
        let mut parent: Vec<usize> = (0..COLUMNS).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for a in 0..COLUMNS {
            for b in a + 1..COLUMNS {
                let inter = values[a].intersection(&values[b]).count();
                let union = values[a].len() + values[b].len() - inter;
                let sim = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
                if sim > self.threshold {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    parent[ra] = rb;
                }
            }
        }
        // Keys are (cluster, token).
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for col in 0..COLUMNS {
                let cluster = find(&mut parent, col);
                for token in column_tokens(ds.record(rid), col) {
                    map.entry(format!("{cluster}#{token}")).or_default().push(rid);
                }
            }
        }
        keymap_to_blocks(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        ds.add_record(RecordBuilder::new(0, s).first_name("Guido").last_name("Foa").build());
        ds.add_record(RecordBuilder::new(1, s).first_name("Guido").last_name("Foa").build());
        ds.add_record(RecordBuilder::new(2, s).first_name("Moshe").last_name("Postel").build());
        ds.add_record(RecordBuilder::new(3, s).father_name("Guido").last_name("Levi").build());
        ds
    }

    #[test]
    fn stbl_blocks_by_shared_token() {
        let blocks = StandardBlocking.blocks(&dataset());
        // "guido" appears in records 0, 1 and 3 (as a father name —
        // schema-agnostic); "foa" in 0, 1.
        assert!(blocks.iter().any(|b| b.len() == 3));
        assert!(blocks.iter().any(|b| *b == vec![RecordId(0), RecordId(1)]));
        // No singleton blocks.
        assert!(blocks.iter().all(|b| b.len() >= 2));
    }

    #[test]
    fn acl_separates_unclustered_columns() {
        // With a threshold of ~1.0 nothing clusters, so "guido" as a first
        // name and as a father name live in different blocks.
        let blocks = AttributeClustering { threshold: 0.99 }.blocks(&dataset());
        assert!(!blocks.iter().any(|b| b.len() == 3), "no cross-column guido block");
        assert!(blocks.iter().any(|b| *b == vec![RecordId(0), RecordId(1)]));
    }

    #[test]
    fn acl_with_zero_threshold_acts_like_token_blocking() {
        // Threshold 0 clusters every pair of columns sharing any token.
        let loose = AttributeClustering { threshold: 0.0 }.blocks(&dataset());
        assert!(loose.iter().any(|b| b.len() == 3), "guido block should merge");
    }

    #[test]
    fn stbl_recall_is_total_on_identical_records() {
        // Identical records always share a token => recall 1 by
        // construction (the Table 10 property).
        let ds = dataset();
        let blocks = StandardBlocking.blocks(&ds);
        let stats = crate::common::pair_stats(&blocks, ds.len(), &|a, b| {
            (a, b) == (RecordId(0), RecordId(1))
        });
        assert_eq!(stats.true_positives, 1);
    }
}
