//! The q-gram inverted index: gram → posting list of name ids, with
//! length and count filtering to prune candidates that cannot reach the
//! similarity bound.
//!
//! Names are the unit of indexing, not records: victim reports repeat a
//! small vocabulary of first and last names millions of times, so the
//! index stores each distinct lowercased name once, keyed by a dense
//! `u32` name id, and hangs the record posting lists off the name entry —
//! one for every report of the name, one per role (first, last). A fuzzy
//! query then runs entirely in name space — merge the posting lists of
//! the query's grams, filter by the q-gram Jaccard bound — and only the
//! surviving names fan out to records. The same entries are the
//! vocabulary `yv-store`'s `QueryIndex` scans with Jaro-Winkler, through a
//! letter sketch per name ([`NameSketch`]) kept in an array of its own.
//!
//! The filters are the standard q-gram containment bounds (see the
//! blocking-and-filtering survey in PAPERS.md): writing `gq`/`gc` for
//! the distinct padded-gram counts of query and candidate and `t` for
//! the bound,
//!
//! - **length filter**: `J(q,c) >= t` forces `t·gq <= gc <= gq/t`, so a
//!   candidate whose gram count falls outside that window is pruned
//!   before its intersection is even inspected;
//! - **count filter**: `J >= t` forces the intersection
//!   `inter >= t·(gq+gc)/(1+t)`, pruning before the final division.
//!
//! Both cheap filters are applied with a small epsilon of slack so a
//! candidate *exactly at* the bound is never lost to floating-point
//! rounding; the exact Jaccard (the same `inter/union` expression as
//! [`yv_similarity::jaccard::jaccard_sets`]) is the final arbiter.

use std::collections::HashMap;
use yv_records::interner::lowercased;
use yv_records::{Record, RecordId};
use yv_similarity::letter_sketch;
use yv_similarity::strings::padded_qgrams;

/// Gram width. Two is the sweet spot for short personal names: a name of
/// length L yields L+1 padded bigrams, so a single clerical error
/// disturbs at most 2 of them and a one-edit neighbour keeps a Jaccard
/// well above [`DEFAULT_QGRAM_BOUND`].
pub const QGRAM_Q: usize = 2;

/// Default candidate-generation bound. A single edit on a length-3 name
/// still scores about 0.33, so 0.3 keeps every one-edit neighbour while
/// pruning the long tail of unrelated vocabulary.
pub const DEFAULT_QGRAM_BOUND: f64 = 0.3;

/// Slack for the cheap integer-count filters only — the exact Jaccard
/// comparison runs without it.
const EPS: f64 = 1e-9;

/// One distinct lowercased name and the records that report it. Every
/// posting list is in arrival order, deduplicated against the tail (a
/// record listing the same name twice posts once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameEntry {
    /// The lowercased name.
    pub name: String,
    /// Distinct padded q-grams in the name (the `gc` of the filters).
    gram_count: u32,
    /// Records reporting this name in any role — what `RESOLVE` ranks.
    records: Vec<RecordId>,
    /// Records reporting this name as a first name.
    pub first: Vec<RecordId>,
    /// Records reporting this name as a last name.
    pub last: Vec<RecordId>,
}

impl NameEntry {
    /// Records reporting this name in `role`.
    #[must_use]
    pub fn postings(&self, role: Role) -> &[RecordId] {
        match role {
            Role::First => &self.first,
            Role::Last => &self.last,
        }
    }
}

/// The role a name plays in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    First,
    Last,
}

impl Role {
    const fn bit(self) -> u8 {
        match self {
            Role::First => 1,
            Role::Last => 2,
        }
    }
}

/// What `QUERY`'s vocabulary scan reads of one name, kept in a contiguous
/// array by name id so the scan streams through 32 bytes a name and touches
/// the name itself only for the few that pass
/// ([`yv_similarity::JaroWinklerFilter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameSketch {
    /// [`letter_sketch`] of the name.
    pub letters: u128,
    /// Symbols (`char`s) in the name.
    pub len: u32,
    /// [`Role::bit`]s of the roles with postings.
    roles: u8,
}

impl NameSketch {
    /// Whether some record reports the name in `role`.
    #[must_use]
    pub fn has(&self, role: Role) -> bool {
        self.roles & role.bit() != 0
    }
}

/// Filter telemetry for one candidate scan, surfaced as counters in
/// `STATS`/`METRICS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Distinct names sharing at least one gram with the query.
    pub examined: u64,
    /// Names pruned by the gram-count window before scoring.
    pub pruned_length: u64,
    /// Names pruned by the count filter or the exact Jaccard comparison.
    pub pruned_jaccard: u64,
}

/// One name that survived the filters, borrowed from the index.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateName<'a> {
    pub name: &'a str,
    /// Exact q-gram Jaccard between the query and this name.
    pub jaccard: f64,
    /// Records reporting this name.
    pub records: &'a [RecordId],
}

/// The store's name table: distinct names with record postings by role,
/// inverted by padded q-gram.
///
/// Rebuilt deterministically from the store's records on `create`,
/// `open` (snapshot load + WAL replay) and every `add`, so it needs no
/// on-disk format of its own — the snapshot and WALs already
/// carry everything.
#[derive(Debug, Clone, Default)]
pub struct FuzzyIndex {
    names: Vec<NameEntry>,
    /// One per name, same ids.
    sketches: Vec<NameSketch>,
    /// Lowercased name → dense name id.
    ids: HashMap<String, u32>,
    /// Padded q-gram → sorted-unique name ids containing it (ids are
    /// appended in allocation order, which is ascending).
    grams: HashMap<String, Vec<u32>>,
    /// Total gram → name posting entries, tracked for the size gauges.
    gram_postings: usize,
    /// Lowercasing buffer of [`FuzzyIndex::add_record`], reused across
    /// calls.
    scratch: String,
}

impl FuzzyIndex {
    #[must_use]
    pub fn new() -> FuzzyIndex {
        FuzzyIndex::default()
    }

    /// Index every first and last name of a record, each under its role.
    /// An empty name gets an entry too — `QUERY` can ask for it — but it
    /// has no grams, so no candidate scan ever reaches it. An ASCII name
    /// already indexed is looked up without an allocation.
    pub fn add_record(&mut self, rid: RecordId, record: &Record) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for (role, names) in [(Role::First, &record.first_names), (Role::Last, &record.last_names)]
        {
            for name in names {
                let id = self.intern(lowercased(name, &mut scratch));
                self.sketches[id].roles |= role.bit();
                let entry = &mut self.names[id];
                post(&mut entry.records, rid);
                post(
                    match role {
                        Role::First => &mut entry.first,
                        Role::Last => &mut entry.last,
                    },
                    rid,
                );
            }
        }
        self.scratch = scratch;
    }

    /// The id of a lowercased name, allocated on first sight.
    fn intern(&mut self, lower: &str) -> usize {
        if let Some(&id) = self.ids.get(lower) {
            return id as usize;
        }
        let id = self.names.len();
        let name_grams = distinct_grams(lower);
        for gram in &name_grams {
            self.grams.entry(gram.clone()).or_default().push(id as u32);
        }
        self.gram_postings += name_grams.len();
        self.names.push(NameEntry {
            name: lower.to_owned(),
            gram_count: name_grams.len() as u32,
            records: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
        });
        self.sketches.push(NameSketch {
            letters: letter_sketch(lower),
            len: u32::try_from(lower.chars().count()).unwrap_or(u32::MAX),
            roles: 0,
        });
        self.ids.insert(lower.to_owned(), id as u32);
        id
    }

    /// Every distinct lowercased name indexed, the empty one included, in
    /// the order they first arrived.
    #[must_use]
    pub fn entries(&self) -> &[NameEntry] {
        &self.names
    }

    /// [`Self::entries`]' sketches, same order.
    #[must_use]
    pub fn sketches(&self) -> &[NameSketch] {
        &self.sketches
    }

    /// Distinct non-empty lowercased names indexed.
    #[must_use]
    pub fn names(&self) -> usize {
        self.names.len() - usize::from(self.ids.contains_key(""))
    }

    /// Distinct q-grams in the inverted index.
    #[must_use]
    pub fn grams(&self) -> usize {
        self.grams.len()
    }

    /// Total gram → name posting entries (the inverted index's weight).
    #[must_use]
    pub fn postings(&self) -> usize {
        self.gram_postings
    }

    /// Every name whose q-gram Jaccard with `query` reaches `bound`,
    /// sorted by name ascending (so the output is independent of
    /// insertion order), plus the filter telemetry.
    #[must_use]
    pub fn candidates(&self, query: &str, bound: f64) -> (Vec<CandidateName<'_>>, CandidateStats) {
        let mut stats = CandidateStats::default();
        let query_grams = distinct_grams(&query.to_lowercase());
        let gq = query_grams.len();
        if gq == 0 {
            return (Vec::new(), stats);
        }

        // Merge posting lists into per-name intersection counts: one
        // counter per name, and the names touched, in first-touch order —
        // each name at most once, so neither buffer grows after this.
        let mut inter_counts = vec![0u32; self.names.len()];
        let mut hits: Vec<u32> = Vec::with_capacity(self.names.len());
        for gram in &query_grams {
            if let Some(ids) = self.grams.get(gram) {
                for &id in ids {
                    let count = &mut inter_counts[id as usize];
                    if *count == 0 {
                        hits.push(id);
                    }
                    *count += 1;
                }
            }
        }
        stats.examined = hits.len() as u64;

        let (lo, hi) = (gq as f64 * bound - EPS, gq as f64 / bound.max(f64::EPSILON) + EPS);
        let mut out = Vec::new();
        for id in hits {
            let inter = inter_counts[id as usize];
            let entry = &self.names[id as usize];
            let gc = entry.gram_count as usize;
            if (gc as f64) < lo || (gc as f64) > hi {
                stats.pruned_length += 1;
                continue;
            }
            // Cheap count filter, then the exact Jaccard — identical
            // arithmetic to `jaccard_sets`, so the filter pipeline and a
            // brute-force scan agree bit-for-bit.
            if f64::from(inter) * (1.0 + bound) + EPS < bound * (gq + gc) as f64 {
                stats.pruned_jaccard += 1;
                continue;
            }
            let union = (gq + gc - inter as usize) as f64;
            let jaccard = f64::from(inter) / union;
            if jaccard >= bound {
                out.push(CandidateName {
                    name: &entry.name,
                    jaccard,
                    records: &entry.records,
                });
            } else {
                stats.pruned_jaccard += 1;
            }
        }
        // Name ids are allocated in insertion order; sort by the name
        // itself so two indexes over the same record *set* (different
        // arrival orders) emit identical candidate lists.
        out.sort_unstable_by(|a, b| a.name.cmp(b.name));
        (out, stats)
    }
}

/// Append a record to a posting list unless it already ends it: a
/// record's names are posted one after another.
fn post(postings: &mut Vec<RecordId>, rid: RecordId) {
    if postings.last() != Some(&rid) {
        postings.push(rid);
    }
}

/// Sorted-unique padded q-grams of an already-lowercased name.
fn distinct_grams(lower: &str) -> Vec<String> {
    let mut grams = padded_qgrams(lower, QGRAM_Q);
    grams.sort_unstable();
    grams.dedup();
    grams
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use yv_records::{RecordBuilder, SourceId};
    use yv_similarity::jaccard::jaccard_sets;

    fn record(id: u32, first: &str, last: &str) -> Record {
        RecordBuilder::new(u64::from(id), SourceId(0)).first_name(first).last_name(last).build()
    }

    fn index_of(names: &[&str]) -> FuzzyIndex {
        let mut index = FuzzyIndex::new();
        for (i, name) in names.iter().enumerate() {
            index.add_record(RecordId(i as u32), &record(i as u32, "", name));
        }
        index
    }

    #[test]
    fn one_edit_neighbours_survive_the_default_bound() {
        let index = index_of(&["levi", "foa", "postel", "roth"]);
        // Substitutions, duplications and deletions — the clerical
        // errors datagen simulates. (A transposition disturbs four
        // bigrams at once and needs Jaro-Winkler at ranking time.)
        for typo in ["lewi", "levvi", "evi", "postl", "postell"] {
            let (cands, _) = index.candidates(typo, DEFAULT_QGRAM_BOUND);
            assert!(
                cands.iter().any(|c| c.name == "levi" || c.name == "postel"),
                "{typo} found no neighbour: {cands:?}"
            );
        }
    }

    #[test]
    fn length_filter_prunes_before_scoring() {
        // "fononono" shares grams with "fo" (both start with 'f', share
        // "fo") but its gram count falls outside the window for a 0.9
        // bound, so the length filter rejects it without scoring.
        let index = index_of(&["fo", "fononono", "foa"]);
        let (cands, stats) = index.candidates("fo", 0.9);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "fo");
        assert!(stats.pruned_length >= 1, "{stats:?}");
        assert_eq!(
            stats.examined,
            cands.len() as u64 + stats.pruned_length + stats.pruned_jaccard
        );
    }

    #[test]
    fn exact_name_scores_one_and_postings_dedupe() {
        let mut index = FuzzyIndex::new();
        index.add_record(RecordId(0), &record(0, "guido", "foa"));
        // Same record lists the name twice → one posting.
        let twice =
            RecordBuilder::new(1, SourceId(0)).last_name("Foa").last_name("foa").build();
        index.add_record(RecordId(1), &twice);
        let (cands, _) = index.candidates("Foa", 0.5);
        let foa = cands.iter().find(|c| c.name == "foa").expect("exact match");
        assert!((foa.jaccard - 1.0).abs() < 1e-12);
        assert_eq!(foa.records, &[RecordId(0), RecordId(1)]);
        assert_eq!(index.names(), 2, "guido and foa");
        assert!(index.grams() > 0 && index.postings() >= index.grams());
    }

    #[test]
    fn sketches_follow_the_entries_and_their_roles() {
        let mut index = FuzzyIndex::new();
        index.add_record(RecordId(0), &record(0, "Israel", "Levi"));
        index.add_record(RecordId(1), &record(1, "Sara", "Israel"));
        assert_eq!(index.sketches().len(), index.entries().len());
        for (entry, sketch) in index.entries().iter().zip(index.sketches()) {
            assert_eq!(sketch.letters, letter_sketch(&entry.name));
            assert_eq!(sketch.len as usize, entry.name.chars().count());
            for role in [Role::First, Role::Last] {
                assert_eq!(sketch.has(role), !entry.postings(role).is_empty(), "{}", entry.name);
            }
        }
        let israel = index.sketches()[0];
        assert!(israel.has(Role::First) && israel.has(Role::Last));
    }

    #[test]
    fn empty_names_and_empty_queries_are_inert() {
        let mut index = FuzzyIndex::new();
        index.add_record(RecordId(0), &RecordBuilder::new(1, SourceId(0)).build());
        // An empty first name is kept for QUERY's role postings only.
        index.add_record(RecordId(1), &RecordBuilder::new(2, SourceId(0)).first_name("").build());
        assert_eq!(index.names(), 0);
        assert_eq!((index.grams(), index.postings()), (0, 0));
        let empty = &index.entries()[0];
        assert_eq!((empty.name.as_str(), empty.first.as_slice()), ("", &[RecordId(1)][..]));
        let (cands, stats) = index.candidates("", 0.3);
        assert!(cands.is_empty());
        assert_eq!(stats, CandidateStats::default());
    }

    #[test]
    fn candidate_order_is_independent_of_insertion_order() {
        let forward = index_of(&["levi", "lepi", "lewi", "leui"]);
        let backward = index_of(&["leui", "lewi", "lepi", "levi"]);
        let (a, _) = forward.candidates("levi", 0.3);
        let (b, _) = backward.candidates("levi", 0.3);
        let names_a: Vec<&str> = a.iter().map(|c| c.name).collect();
        let names_b: Vec<&str> = b.iter().map(|c| c.name).collect();
        assert_eq!(names_a, names_b);
        assert!(names_a.windows(2).all(|w| w[0] < w[1]), "sorted ascending: {names_a:?}");
    }

    proptest! {
        /// The tentpole correctness property: against brute-force q-gram
        /// Jaccard over every indexed name, the filter pipeline never
        /// prunes a candidate at or above the bound, never admits one
        /// below it, and reports the exact brute-force score.
        #[test]
        fn filters_agree_with_brute_force(
            names in proptest::collection::vec("[a-z]{1,12}", 1..40),
            query in "[a-z]{1,12}",
            bound_pct in 5u32..96,
        ) {
            let bound = f64::from(bound_pct) / 100.0;
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let index = index_of(&refs);
            let (cands, stats) = index.candidates(&query, bound);
            let got: std::collections::HashMap<&str, f64> =
                cands.iter().map(|c| (c.name, c.jaccard)).collect();

            let distinct: BTreeSet<&str> = refs.iter().copied().collect();
            let query_grams = padded_qgrams(&query, QGRAM_Q);
            let mut expected = 0usize;
            for name in distinct {
                let brute = jaccard_sets(&query_grams, &padded_qgrams(name, QGRAM_Q));
                prop_assert_eq!(
                    got.contains_key(name),
                    brute >= bound,
                    "name {} brute {} bound {}", name, brute, bound
                );
                if brute >= bound {
                    expected += 1;
                    let reported = got[name];
                    prop_assert!(
                        (reported - brute).abs() == 0.0,
                        "reported {} != brute {}", reported, brute
                    );
                }
            }
            prop_assert_eq!(cands.len(), expected);
            // Telemetry is consistent: every examined name is either
            // returned or pruned by exactly one filter.
            prop_assert_eq!(
                stats.examined,
                cands.len() as u64 + stats.pruned_length + stats.pruned_jaccard
            );
        }
    }
}
