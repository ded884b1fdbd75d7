//! Q-Grams blocking \[15\] and Extended Q-Grams blocking \[9\].

use crate::common::{keymap_to_blocks, record_tokens, Blocker};
use std::collections::HashMap;
use yv_records::{Dataset, RecordId};
use yv_similarity::strings::qgrams;

/// `QGBl`: every token is decomposed into its q-grams and each q-gram acts
/// as a blocking key, making the keys robust to single-character noise.
#[derive(Debug, Clone, Copy)]
pub struct QGramsBlocking {
    pub q: usize,
}

impl Default for QGramsBlocking {
    fn default() -> Self {
        QGramsBlocking { q: 3 }
    }
}

impl Blocker for QGramsBlocking {
    fn name(&self) -> &'static str {
        "QGBl"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                for gram in qgrams(&token, self.q) {
                    map.entry(gram).or_default().push(rid);
                }
            }
        }
        keymap_to_blocks(map)
    }
}

/// `EQGBl`: concatenates combinations of a token's q-grams into longer,
/// more discriminative keys. With `L` grams and threshold `t`, all
/// combinations of `k = max(1, ⌊L·t⌋)` grams become keys.
#[derive(Debug, Clone, Copy)]
pub struct ExtendedQGramsBlocking {
    pub q: usize,
    /// Fraction of a token's grams a key must contain (default 0.9 as in
    /// the survey).
    pub threshold: f64,
}

impl Default for ExtendedQGramsBlocking {
    fn default() -> Self {
        ExtendedQGramsBlocking { q: 3, threshold: 0.9 }
    }
}

impl ExtendedQGramsBlocking {
    fn keys_for(&self, token: &str) -> Vec<String> {
        let grams = qgrams(token, self.q);
        let l = grams.len();
        if l == 0 {
            return Vec::new();
        }
        let k = ((l as f64 * self.threshold).floor() as usize).max(1);
        if k >= l {
            return vec![grams.concat()];
        }
        // All combinations of k grams, order-preserving. For names L is
        // small (≤ ~12 grams), and k ≈ 0.9·L keeps the combination count at
        // "L choose L-1"-scale.
        let mut keys = Vec::new();
        let mut indices: Vec<usize> = (0..k).collect();
        loop {
            keys.push(indices.iter().map(|&i| grams[i].as_str()).collect::<String>());
            // Advance the combination.
            let mut i = k;
            loop {
                if i == 0 {
                    return keys;
                }
                i -= 1;
                if indices[i] != i + l - k {
                    break;
                }
            }
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
        }
    }
}

impl Blocker for ExtendedQGramsBlocking {
    fn name(&self) -> &'static str {
        "EQGBl"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        for rid in ds.record_ids() {
            for token in record_tokens(ds.record(rid)) {
                for key in self.keys_for(&token) {
                    map.entry(key).or_default().push(rid);
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
        ds.add_record(RecordBuilder::new(0, s).last_name("Bella").build());
        ds.add_record(RecordBuilder::new(1, s).last_name("Della").build());
        ds.add_record(RecordBuilder::new(2, s).last_name("Postel").build());
        ds
    }

    #[test]
    fn qgrams_survive_clerical_errors() {
        // Bella and Della share the grams "ell" and "lla" => same block.
        let blocks = QGramsBlocking::default().blocks(&dataset());
        assert!(blocks
            .iter()
            .any(|b| b.contains(&RecordId(0)) && b.contains(&RecordId(1))));
    }

    #[test]
    fn extended_keys_are_more_discriminative() {
        let ds = dataset();
        let plain = QGramsBlocking::default().blocks(&ds);
        let extended = ExtendedQGramsBlocking::default().blocks(&ds);
        let count_pairs = |blocks: &[Vec<RecordId>]| {
            crate::common::pair_stats(blocks, ds.len(), &|_, _| false).candidates
        };
        assert!(count_pairs(&extended) <= count_pairs(&plain));
    }

    #[test]
    fn combination_enumeration_is_correct() {
        let e = ExtendedQGramsBlocking { q: 2, threshold: 0.5 };
        // "abcd" has grams ab, bc, cd; k = 1 => three single-gram keys.
        let keys = e.keys_for("abcd");
        assert_eq!(keys.len(), 3);
        let e2 = ExtendedQGramsBlocking { q: 2, threshold: 0.7 };
        // k = floor(3 * 0.7) = 2 => C(3,2) = 3 keys.
        let keys2 = e2.keys_for("abcd");
        assert_eq!(keys2, vec!["abbc", "abcd", "bccd"]);
    }

    #[test]
    fn short_tokens_yield_whole_token_key() {
        let e = ExtendedQGramsBlocking::default();
        assert_eq!(e.keys_for("ab"), vec!["ab"]);
        assert!(e.keys_for("").is_empty());
    }
}
