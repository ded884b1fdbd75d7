//! TYPiMatch \[20\]: type-specific unsupervised key learning.
//!
//! The original algorithm builds a token co-occurrence graph, extracts
//! maximal cliques as latent *types*, assigns records to types and then
//! standard-blocks within each type. Exact maximal-clique enumeration is
//! exponential; following common practice we approximate cliques with the
//! connected components of the thresholded co-occurrence graph (documented
//! deviation — the effect is coarser types, i.e. a more permissive
//! blocker, which matches the low precision Table 10 reports for it).

use crate::common::{keymap_to_blocks, record_tokens, Blocker};
use std::collections::HashMap;
use yv_records::{Dataset, RecordId};

/// `TYPiMatch` with a co-occurrence ratio threshold.
#[derive(Debug, Clone, Copy)]
pub struct TypiMatch {
    /// Tokens `a, b` are connected when
    /// `cooc(a,b) / min(freq(a), freq(b)) ≥ threshold`.
    pub threshold: f64,
}

impl Default for TypiMatch {
    fn default() -> Self {
        TypiMatch { threshold: 0.5 }
    }
}

impl Blocker for TypiMatch {
    fn name(&self) -> &'static str {
        "TYPiMatch"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        // Token vocabulary and frequencies.
        let mut token_ids: HashMap<String, u32> = HashMap::new();
        let mut record_token_lists: Vec<Vec<u32>> = Vec::with_capacity(ds.len());
        for rid in ds.record_ids() {
            let mut list = Vec::new();
            for token in record_tokens(ds.record(rid)) {
                let next = token_ids.len() as u32;
                let id = *token_ids.entry(token).or_insert(next);
                list.push(id);
            }
            list.sort_unstable();
            list.dedup();
            record_token_lists.push(list);
        }
        let n_tokens = token_ids.len();
        let mut freq = vec![0u32; n_tokens];
        for list in &record_token_lists {
            for &t in list {
                freq[t as usize] += 1;
            }
        }
        // Pairwise co-occurrence counts (sparse map). To bound cost on
        // records with many tokens, co-occurrence is only counted between
        // tokens appearing in at least two records.
        let mut cooc: HashMap<(u32, u32), u32> = HashMap::new();
        for list in &record_token_lists {
            let multi: Vec<u32> =
                list.iter().copied().filter(|&t| freq[t as usize] >= 2).collect();
            for i in 0..multi.len() {
                for j in i + 1..multi.len() {
                    *cooc.entry((multi[i], multi[j])).or_insert(0) += 1;
                }
            }
        }
        // Union-find over tokens: connected components approximate the
        // maximal cliques of the original algorithm.
        let mut parent: Vec<u32> = (0..n_tokens as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        #[allow(
            clippy::iter_over_hash_type,
            reason = "union-find: visit order picks a component's root, not its members; a key pairs root with token, so records group by token either way, and `keymap_to_blocks` sorts"
        )]
        for (&(a, b), &count) in &cooc {
            let denom = freq[a as usize].min(freq[b as usize]) as f64;
            if denom > 0.0 && count as f64 / denom >= self.threshold {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra as usize] = rb;
                }
            }
        }
        // A record belongs to the types of its tokens; blocking keys are
        // (type, token).
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for (ri, list) in record_token_lists.iter().enumerate() {
            for &t in list {
                let ty = find(&mut parent, t);
                map.entry(format!("{ty}#{t}")).or_default().push(RecordId(ri as u32));
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
        ds.add_record(RecordBuilder::new(2, s).first_name("Moshe").build());
        ds
    }

    #[test]
    fn shared_tokens_still_block_together() {
        let blocks = TypiMatch::default().blocks(&dataset());
        assert!(blocks
            .iter()
            .any(|b| b.contains(&RecordId(0)) && b.contains(&RecordId(1))));
    }

    #[test]
    fn singleton_tokens_produce_no_blocks() {
        let blocks = TypiMatch::default().blocks(&dataset());
        for b in &blocks {
            assert!(b.len() >= 2);
        }
    }

    #[test]
    fn threshold_one_is_most_conservative() {
        let ds = dataset();
        let loose = TypiMatch { threshold: 0.1 }.blocks(&ds);
        let strict = TypiMatch { threshold: 1.0 }.blocks(&ds);
        // Both find the guido/foa block; strict typing cannot create more
        // blocks than loose typing merges.
        assert!(!strict.is_empty());
        assert!(loose.len() <= strict.len() + 2);
    }
}
