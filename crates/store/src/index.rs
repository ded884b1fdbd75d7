//! The store's one name table, as `QUERY` reads it: lowercased name →
//! records reporting it as a first and as a last name.
//!
//! `PersonQuery::run` scans every record and runs Jaro-Winkler against
//! each of its names. At serving scale the same distinct names recur
//! thousands of times (the full Names Project has 6.5M records over a far
//! smaller name vocabulary), so the index keys postings by *distinct
//! lowercased name* and decides one similarity threshold per vocabulary
//! entry instead of one per record occurrence — most of them on a letter
//! sketch alone ([`JaroWinklerFilter`]).
//!
//! The table is the [`FuzzyIndex`] `RESOLVE` asks for q-gram candidates:
//! one entry per distinct name serves both commands.

use yv_core::PersonQuery;
use yv_fuzzy::{FuzzyIndex, NameEntry, Role};
use yv_records::{Dataset, Record, RecordId};
use yv_similarity::JaroWinklerFilter;

/// The name table over every record of the store — record ids `0..len` —
/// whatever its shard count: no lookup carries the shards' routing key,
/// so a partitioned index would be visited whole.
#[derive(Debug, Clone, Default)]
pub struct QueryIndex {
    names: FuzzyIndex,
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
        self.names.add_record(rid, record);
        self.len += 1;
    }

    /// The table itself, for `RESOLVE`'s candidate scan and its gauges.
    #[must_use]
    pub fn fuzzy(&self) -> &FuzzyIndex {
        &self.names
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

    /// Number of distinct lowercased first names plus distinct lowercased
    /// last names.
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        let roles =
            |e: &NameEntry| usize::from(!e.first.is_empty()) + usize::from(!e.last.is_empty());
        self.names.entries().iter().map(roles).sum()
    }

    /// Total posting entries across both roles — the index's memory-weight
    /// proxy (each entry is one record occurrence of a distinct name).
    #[must_use]
    pub fn postings(&self) -> usize {
        self.names.entries().iter().map(|e| e.first.len() + e.last.len()).sum()
    }

    /// Seed records matching the query's name constraints, ascending —
    /// the same set (and order) `PersonQuery::run` derives by scanning.
    #[must_use]
    pub fn seeds(&self, query: &PersonQuery) -> Vec<RecordId> {
        self.seeds_counted(query).0
    }

    /// [`QueryIndex::seeds`], plus what the vocabulary scans did, summed
    /// over both roles.
    #[must_use]
    pub(crate) fn seeds_counted(&self, query: &PersonQuery) -> (Vec<RecordId>, ScanCounts) {
        let s = query.name_similarity;
        let mut counts = ScanCounts::default();
        let mut scan = |name: Option<&str>, role| {
            name.map(|q| self.matching(&q.to_lowercase(), s, role, &mut counts))
        };
        let first = scan(query.first_name.as_deref(), Role::First);
        let last = scan(query.last_name.as_deref(), Role::Last);
        let seeds = match (first, last) {
            (None, None) => (0..self.len as u32).map(RecordId).collect(),
            (Some(one), None) | (None, Some(one)) => one,
            (Some(f), Some(l)) => {
                let (mut small, large) = if f.len() <= l.len() { (f, l) } else { (l, f) };
                small.retain(|r| large.binary_search(r).is_ok());
                small
            }
        };
        (seeds, counts)
    }

    /// Records with at least one name in `role` within `similarity` of the
    /// lowercased query, ascending and distinct.
    fn matching(
        &self,
        query: &str,
        similarity: f64,
        role: Role,
        counts: &mut ScanCounts,
    ) -> Vec<RecordId> {
        let filter = JaroWinklerFilter::new(query, similarity);
        let entries = self.names.entries();
        let mut out = Vec::new();
        for (entry, sketch) in entries.iter().zip(self.names.sketches()) {
            if !sketch.has(role) {
                continue;
            }
            counts.names += 1;
            if !filter.passes(sketch.letters, sketch.len) {
                continue;
            }
            counts.admitted += 1;
            if filter.verify(&entry.name) {
                counts.matched += 1;
                out.extend_from_slice(entry.postings(role));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// What one `QUERY`'s vocabulary scans did: names with postings in the
/// scanned role, names whose sketch passed, names that reached the
/// similarity. Counts only — no name leaves the index this way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScanCounts {
    pub(crate) names: u64,
    pub(crate) admitted: u64,
    pub(crate) matched: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{RecordBuilder, Source, SourceId};

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
