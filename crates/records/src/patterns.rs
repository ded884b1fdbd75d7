//! Data-pattern analysis (Section 6.2, Figure 11 and Tables 3–4).
//!
//! A *pattern* is the set of item types for which a record has values; two
//! records share a pattern when they have values for exactly the same item
//! types. The multi-source nature of the dataset shows up as extreme schema
//! variability: the paper counts 18,567 patterns shared by ≤10 records each,
//! while 96 patterns are shared by >10,000 records.

use crate::item::{AggregateType, ItemType};
use crate::schema::Dataset;
use std::collections::HashMap;

/// A pattern: a bitmask over the 28 item types ([`ItemType::index`] is the
/// bit position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern(pub u32);

impl Pattern {
    /// The pattern of a record: one bit per item type present in its bag.
    #[must_use]
    pub fn of_record(ds: &Dataset, rid: crate::RecordId) -> Pattern {
        let mut mask = 0u32;
        for &item in ds.bag(rid) {
            mask |= 1 << ds.interner().item_type(item).index();
        }
        Pattern(mask)
    }

    /// Whether the pattern contains a given item type.
    #[must_use]
    pub fn contains(self, ty: ItemType) -> bool {
        self.0 & (1 << ty.index()) != 0
    }

    /// Number of item types in the pattern.
    #[must_use]
    pub fn arity(self) -> u32 {
        self.0.count_ones()
    }

    /// The full-information pattern (all 28 item types).
    #[must_use]
    pub fn full() -> Pattern {
        Pattern((1u32 << ItemType::COUNT) - 1)
    }
}

/// Aggregated pattern statistics over a dataset.
#[derive(Debug, Clone)]
pub struct PatternStats {
    /// Records sharing each pattern.
    pub counts: HashMap<Pattern, u64>,
    /// Total records analyzed.
    pub total_records: u64,
}

/// One bucket of the Figure 11 histogram: patterns shared by at most
/// `upper` records (and more than the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternBucket {
    /// Upper bound on records-per-pattern; `u64::MAX` for the "more" bucket.
    pub upper: u64,
    /// Number of distinct patterns in this bucket.
    pub pattern_count: u64,
    /// Total records participating in the bucket's patterns.
    pub record_sum: u64,
}

impl PatternStats {
    /// Count the patterns of every record in the dataset.
    #[must_use]
    pub fn analyze(ds: &Dataset) -> PatternStats {
        let mut counts: HashMap<Pattern, u64> = HashMap::new();
        for rid in ds.record_ids() {
            *counts.entry(Pattern::of_record(ds, rid)).or_insert(0) += 1;
        }
        PatternStats { counts, total_records: ds.len() as u64 }
    }

    /// Number of distinct patterns.
    #[must_use]
    pub fn distinct_patterns(&self) -> usize {
        self.counts.len()
    }

    /// Records sharing the most prevalent pattern, with that pattern.
    #[must_use]
    pub fn most_prevalent(&self) -> Option<(Pattern, u64)> {
        self.counts.iter().map(|(&p, &c)| (p, c)).max_by_key(|&(_, c)| c)
    }

    /// Records carrying the full-information pattern.
    #[must_use]
    pub fn full_pattern_records(&self) -> u64 {
        self.counts.get(&Pattern::full()).copied().unwrap_or(0)
    }

    /// The Figure 11 histogram: bucket patterns by how many records share
    /// them, with bounds 10 / 100 / 1,000 / 10,000 / more.
    #[must_use]
    pub fn figure11_buckets(&self) -> Vec<PatternBucket> {
        let bounds: [u64; 5] = [10, 100, 1_000, 10_000, u64::MAX];
        let mut buckets: Vec<PatternBucket> = bounds
            .iter()
            .map(|&upper| PatternBucket { upper, pattern_count: 0, record_sum: 0 })
            .collect();
        #[allow(
            clippy::iter_over_hash_type,
            reason = "commutative accumulation: integer sums into fixed buckets"
        )]
        for &count in self.counts.values() {
            let slot = bounds.iter().position(|&b| count <= b).expect("MAX bound catches all");
            buckets[slot].pattern_count += 1;
            buckets[slot].record_sum += count;
        }
        buckets
    }
}

/// Prevalence of an aggregate attribute: records with a value and the
/// fraction of the dataset (columns of Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prevalence {
    pub agg: AggregateType,
    pub records: u64,
    pub fraction: f64,
}

/// Compute Table 3 rows for a dataset.
#[must_use]
pub fn prevalence(ds: &Dataset) -> Vec<Prevalence> {
    let n = ds.len() as u64;
    AggregateType::ALL
        .iter()
        .map(|&agg| {
            let records =
                ds.records().iter().filter(|r| r.has_aggregate(agg)).count() as u64;
            Prevalence {
                agg,
                records,
                fraction: if n == 0 { 0.0 } else { records as f64 / n as f64 },
            }
        })
        .collect()
}

/// Cardinality of an item type: distinct items and average records per item
/// (columns of Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cardinality {
    pub ty: ItemType,
    pub items: u64,
    pub records_per_item: f64,
}

/// Compute Table 4 rows for a dataset. `records_per_item` counts record
/// participations (bag entries) per distinct item, as in the paper.
#[must_use]
pub fn cardinality(ds: &Dataset) -> Vec<Cardinality> {
    let mut distinct = vec![0u64; ItemType::COUNT];
    let mut participations = vec![0u64; ItemType::COUNT];
    for id in ds.interner().ids() {
        let ty = ds.interner().item_type(id);
        distinct[ty.index()] += 1;
    }
    for bag in ds.bags() {
        for &item in bag {
            participations[ds.interner().item_type(item).index()] += 1;
        }
    }
    ItemType::all()
        .into_iter()
        .map(|ty| Cardinality {
            ty,
            items: distinct[ty.index()],
            records_per_item: if distinct[ty.index()] == 0 {
                0.0
            } else {
                participations[ty.index()] as f64 / distinct[ty.index()] as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{DateParts, Gender};
    use crate::record::RecordBuilder;
    use crate::source::{Source, SourceId};

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        // Two records with identical patterns, one with a different pattern.
        for book in 0..2 {
            ds.add_record(
                RecordBuilder::new(book, s)
                    .first_name("A")
                    .last_name("B")
                    .gender(Gender::Male)
                    .build(),
            );
        }
        ds.add_record(
            RecordBuilder::new(2, s)
                .first_name("C")
                .birth(DateParts::year_only(1920))
                .build(),
        );
        ds
    }

    #[test]
    fn identical_field_sets_share_a_pattern() {
        let ds = tiny_dataset();
        let stats = PatternStats::analyze(&ds);
        assert_eq!(stats.distinct_patterns(), 2);
        assert_eq!(stats.most_prevalent().unwrap().1, 2);
    }

    #[test]
    fn pattern_contains_expected_types() {
        let ds = tiny_dataset();
        let p = Pattern::of_record(&ds, crate::RecordId(2));
        assert!(p.contains(ItemType::FirstName));
        assert!(p.contains(ItemType::BirthYear));
        assert!(!p.contains(ItemType::BirthDay));
        assert!(!p.contains(ItemType::LastName));
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn full_pattern_has_all_bits() {
        assert_eq!(Pattern::full().arity() as usize, ItemType::COUNT);
    }

    #[test]
    fn figure11_buckets_partition_patterns() {
        let ds = tiny_dataset();
        let stats = PatternStats::analyze(&ds);
        let buckets = stats.figure11_buckets();
        assert_eq!(buckets.len(), 5);
        let patterns: u64 = buckets.iter().map(|b| b.pattern_count).sum();
        assert_eq!(patterns as usize, stats.distinct_patterns());
        let records: u64 = buckets.iter().map(|b| b.record_sum).sum();
        assert_eq!(records, ds.len() as u64);
        // All patterns here are shared by <=10 records.
        assert_eq!(buckets[0].pattern_count, 2);
    }

    #[test]
    fn prevalence_fractions() {
        let ds = tiny_dataset();
        let prev = prevalence(&ds);
        let first = prev.iter().find(|p| p.agg == AggregateType::FirstName).unwrap();
        assert_eq!(first.records, 3);
        assert!((first.fraction - 1.0).abs() < 1e-12);
        let gender = prev.iter().find(|p| p.agg == AggregateType::Gender).unwrap();
        assert_eq!(gender.records, 2);
    }

    #[test]
    fn cardinality_counts_items_and_participations() {
        let ds = tiny_dataset();
        let card = cardinality(&ds);
        let first = card.iter().find(|c| c.ty == ItemType::FirstName).unwrap();
        assert_eq!(first.items, 2); // "a" and "c"
        // "a" occurs in 2 records, "c" in 1 => 3 participations / 2 items.
        assert!((first.records_per_item - 1.5).abs() < 1e-12);
        let gender = card.iter().find(|c| c.ty == ItemType::Gender).unwrap();
        assert_eq!(gender.items, 1);
        assert!((gender.records_per_item - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let ds = Dataset::new();
        let stats = PatternStats::analyze(&ds);
        assert_eq!(stats.distinct_patterns(), 0);
        assert!(prevalence(&ds).iter().all(|p| p.records == 0));
    }
}
