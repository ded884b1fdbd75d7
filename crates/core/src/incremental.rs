//! Incremental resolution — the deployment reality behind the paper: Yad
//! Vashem still receives Pages of Testimony (400,000 arrived during the
//! 1999–2000 campaign alone), and "Yad Vashem is actively engaged in
//! integrating the results of the project into its databases and
//! applications" (Section 7). Re-blocking 6.5M records per new page is not
//! an option; this resolver maintains an item-level inverted index and
//! scores each arriving record against the records it shares evidence
//! with.
//!
//! The candidate rule mirrors MFIBlocks' spirit without re-mining: a new
//! record pairs with every existing record sharing at least
//! `min_shared_items` non-ubiquitous items (items in more than
//! `common_fraction` of records — gender codes, country names — carry no
//! identity evidence and are skipped, exactly like the miner's
//! frequent-item pruning).

use crate::model::RankedMatch;
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::resolution::Resolution;
use std::collections::HashSet;
use yv_records::{Dataset, Record, RecordId};

/// Configuration of the incremental candidate rule.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Minimum shared informative items for a candidate pair.
    pub min_shared_items: usize,
    /// Items present in more than this fraction of records are ignored.
    pub common_fraction: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig { min_shared_items: 2, common_fraction: 0.05 }
    }
}

/// An online resolver: owns the growing dataset, its inverted index and
/// the accumulated ranked matches.
#[derive(Debug)]
pub struct IncrementalResolver {
    dataset: Dataset,
    pipeline: Pipeline,
    config: PipelineConfig,
    inc: IncrementalConfig,
    /// `postings[item] = records containing it`, kept in insertion order.
    postings: Vec<Vec<RecordId>>,
    matches: Vec<RankedMatch>,
    /// `incident[record] = indices into `matches` of the matches touching
    /// it` — the match graph's adjacency, an index rather than a second
    /// copy of the scores. Grown only where a match lands, so a record
    /// past its end has no matches.
    incident: Vec<Vec<u32>>,
    /// `best[record] = max(0, best incident match score)`, grown like
    /// `incident`.
    best: Vec<f64>,
    /// Scratch of [`IncrementalResolver::insert`], reused across arrivals:
    /// `shared[record]` counts the informative items the arriving record
    /// shares with `record` and is all zero between calls; `touched`
    /// lists the records counted, in first-touch order.
    shared: Vec<u16>,
    touched: Vec<RecordId>,
}

/// Entity size up to which [`IncrementalResolver::entity_of`] tests
/// membership by scanning the entity instead of hashing.
const LINEAR_SCAN_MAX: usize = 64;

impl IncrementalResolver {
    /// Bootstrap from an existing dataset: one batch resolution, then the
    /// index is ready for arrivals.
    #[must_use]
    pub fn bootstrap(
        dataset: Dataset,
        pipeline: Pipeline,
        config: PipelineConfig,
        inc: IncrementalConfig,
    ) -> IncrementalResolver {
        let matches = pipeline.resolve(&dataset, &config).matches;
        IncrementalResolver::from_parts(dataset, pipeline, config, inc, matches)
    }

    /// Number of records currently resolved.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// Read access to the growing dataset.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The accumulated ranked matches (insertion order, not re-sorted).
    #[must_use]
    pub fn matches(&self) -> &[RankedMatch] {
        &self.matches
    }

    /// The scoring pipeline (model) driving this resolver.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The batch-pipeline configuration in force.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The incremental candidate-rule configuration.
    #[must_use]
    pub fn inc_config(&self) -> IncrementalConfig {
        self.inc
    }

    /// Reassemble a resolver from persisted state — dataset, model and the
    /// already-accumulated matches — without re-running batch resolution.
    /// This is how a snapshot restores serving state: the postings index
    /// and the match-graph index are rebuilt (they are derived data), the
    /// matches are taken as-is.
    #[must_use]
    pub fn from_parts(
        dataset: Dataset,
        pipeline: Pipeline,
        config: PipelineConfig,
        inc: IncrementalConfig,
        matches: Vec<RankedMatch>,
    ) -> IncrementalResolver {
        let mut postings: Vec<Vec<RecordId>> = vec![Vec::new(); dataset.interner().len()];
        for rid in dataset.record_ids() {
            for &item in dataset.bag(rid) {
                postings[item.index()].push(rid);
            }
        }
        let mut resolver = IncrementalResolver {
            dataset,
            pipeline,
            config,
            inc,
            postings,
            matches,
            incident: Vec::new(),
            best: Vec::new(),
            shared: Vec::new(),
            touched: Vec::new(),
        };
        for i in 0..resolver.matches.len() {
            resolver.index_match(i);
        }
        resolver
    }

    /// Index `matches[i]` under both of its records.
    fn index_match(&mut self, i: usize) {
        let m = self.matches[i];
        for rid in [m.a, m.b] {
            let r = rid.index();
            if r >= self.incident.len() {
                self.incident.resize(r + 1, Vec::new());
                self.best.resize(r + 1, 0.0);
            }
            self.incident[r].push(i as u32);
            if m.score > self.best[r] {
                self.best[r] = m.score;
            }
        }
    }

    /// Insert one arriving record; returns the new ranked matches it
    /// produced (already folded into the resolver's state). The record's
    /// source must have been registered on the dataset before bootstrap,
    /// or be added through [`IncrementalResolver::add_source`].
    pub fn insert(&mut self, record: Record) -> Vec<RankedMatch> {
        let rid = self.dataset.add_record(record);
        // Extend postings for any newly interned items.
        self.postings.resize(self.dataset.interner().len(), Vec::new());
        let bag = self.dataset.bag(rid);
        let n = self.dataset.len();
        let cap = ((n as f64) * self.inc.common_fraction).ceil() as usize;

        // Candidate partners: records sharing enough informative items.
        self.shared.resize(n, 0);
        for &item in bag {
            let list = &self.postings[item.index()];
            if list.len() <= cap.max(8) {
                for &other in list {
                    let count = &mut self.shared[other.index()];
                    if *count == 0 {
                        self.touched.push(other);
                    }
                    *count = count.saturating_add(1);
                }
            }
        }
        let mut new_matches = Vec::new();
        for other in self.touched.drain(..) {
            let count = usize::from(std::mem::take(&mut self.shared[other.index()]));
            if count < self.inc.min_shared_items {
                continue;
            }
            if self.config.same_src_discard && self.dataset.same_source(rid, other) {
                continue;
            }
            let score = self.pipeline.score_pair(&self.dataset, rid, other);
            if self.config.classify && score <= 0.0 {
                continue;
            }
            new_matches.push(RankedMatch::new(rid, other, score));
        }
        // Index the new record *after* candidate search (no self-pairs).
        for &item in bag {
            self.postings[item.index()].push(rid);
        }
        // Ranked order: score descending, then pair ids — equal scores
        // are common (identical twins of a record).
        new_matches.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then_with(|| (a.a, a.b).cmp(&(b.a, b.b)))
        });
        // Grow the match list by an eighth when full, not by doubling: an
        // arrival that shares evidence with many records adds hundreds of
        // matches, this list is the resolver's largest once arrivals
        // accumulate, and doubling it leaves up to half of it unused —
        // room the incidence lists now need.
        let spare = self.matches.capacity() - self.matches.len();
        if spare < new_matches.len() {
            self.matches.reserve_exact(new_matches.len().max(self.matches.len() / 8));
        }
        for &m in &new_matches {
            self.matches.push(m);
            self.index_match(self.matches.len() - 1);
        }
        new_matches
    }

    /// Register a new source (a new victim list or submitter) so arriving
    /// records can reference it.
    pub fn add_source(&mut self, source: yv_records::Source) -> yv_records::SourceId {
        self.dataset.add_source(source)
    }

    /// The current resolution over everything seen so far.
    #[must_use]
    pub fn resolution(&self) -> Resolution {
        Resolution::new(self.matches.clone(), vec![])
    }

    /// The entity of `rid` at a certainty threshold: its connected
    /// component in the match graph restricted to scores ≥ `threshold`
    /// (Section 3's query-time disambiguation), ascending; `vec![rid]`
    /// when nothing survives the cut. Equal to the component
    /// `self.resolution().entities(threshold)` puts `rid` in, without
    /// materializing the other components: a breadth-first walk over
    /// incident matches.
    ///
    /// At any useful certainty an entity is person-sized, so "already
    /// reached" is a scan of the entity so far and the walk allocates
    /// nothing but its answer. A permissive threshold can chain thousands
    /// of records through negative-score matches; past
    /// [`LINEAR_SCAN_MAX`] records a hash set takes over, which keeps the
    /// walk linear in the matches it visits.
    #[must_use]
    pub fn entity_of(&self, rid: RecordId, threshold: f64) -> Vec<RecordId> {
        let mut entity = vec![rid];
        let mut reached: Option<HashSet<RecordId>> = None;
        let mut walked = 0;
        while let Some(&r) = entity.get(walked) {
            walked += 1;
            let Some(incident) = self.incident.get(r.index()) else { continue };
            for &i in incident {
                let m = self.matches[i as usize];
                let other = if m.a == r { m.b } else { m.a };
                let new = m.score >= threshold
                    && match &mut reached {
                        Some(set) => set.insert(other),
                        None => !entity.contains(&other),
                    };
                if new {
                    entity.push(other);
                    if reached.is_none() && entity.len() > LINEAR_SCAN_MAX {
                        reached = Some(entity.iter().copied().collect());
                    }
                }
            }
        }
        entity.sort_unstable();
        entity
    }

    /// The best score among the matches touching `rid`, floored at 0 —
    /// the resolver's own confidence that the record belongs to a
    /// multi-report person (0 meaning "no evidence").
    #[must_use]
    pub fn best_score(&self, rid: RecordId) -> f64 {
        self.best.get(rid.index()).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_train_set;
    use yv_adt::{train, TrainConfig};
    use yv_blocking::mfi_blocks;
    use yv_datagen::{tag_pairs, GenConfig};

    fn trained_fixture() -> (yv_datagen::Generated, Pipeline, PipelineConfig) {
        let gen = GenConfig::random(800, 61).generate();
        let config = PipelineConfig::default();
        let blocked = mfi_blocks(&gen.dataset, &config.blocking);
        let tags = tag_pairs(&gen, &blocked.candidate_pairs, 6);
        let labelled: Vec<_> =
            tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
        let ts = build_train_set(&gen.dataset, &labelled);
        let pipeline = Pipeline::with_model(train(&ts, &TrainConfig::default()));
        (gen, pipeline, config)
    }

    #[test]
    fn inserting_a_duplicate_finds_its_original() {
        let (gen, pipeline, config) = trained_fixture();
        // Hold out an existing record: re-inserting a copy must match it.
        let probe = gen.dataset.record(yv_records::RecordId(0)).clone();
        let mut resolver = IncrementalResolver::bootstrap(
            clone_dataset(&gen.dataset),
            pipeline,
            config,
            IncrementalConfig::default(),
        );
        let before = resolver.len();
        let matches = resolver.insert(probe);
        assert_eq!(resolver.len(), before + 1);
        assert!(
            matches.iter().any(|m| m.a == yv_records::RecordId(0)
                || m.b == yv_records::RecordId(0)),
            "the copy must match its original; got {matches:?}"
        );
        // The top match is strongly positive.
        assert!(matches[0].score > 0.0);
    }

    #[test]
    fn unrelated_record_produces_no_matches() {
        let (gen, pipeline, config) = trained_fixture();
        let mut resolver = IncrementalResolver::bootstrap(
            clone_dataset(&gen.dataset),
            pipeline,
            PipelineConfig { classify: true, ..config },
            IncrementalConfig::default(),
        );
        let source = resolver.add_source(yv_records::Source::list(
            yv_records::SourceId(0),
            "late-arriving list",
        ));
        let stranger = yv_records::RecordBuilder::new(9_999_999, source)
            .first_name("Zzyzx")
            .last_name("Qwortleberg")
            .build();
        let matches = resolver.insert(stranger);
        assert!(matches.is_empty(), "nothing shares evidence with the stranger");
    }

    #[test]
    fn incremental_matches_accumulate_into_the_resolution() {
        let (gen, pipeline, config) = trained_fixture();
        let mut resolver = IncrementalResolver::bootstrap(
            clone_dataset(&gen.dataset),
            pipeline,
            config,
            IncrementalConfig::default(),
        );
        let base_matches = resolver.resolution().matches.len();
        let probe = gen.dataset.record(yv_records::RecordId(1)).clone();
        let new = resolver.insert(probe);
        assert_eq!(
            resolver.resolution().matches.len(),
            base_matches + new.len()
        );
    }

    #[test]
    fn entities_and_best_scores_follow_inserts() {
        let (gen, pipeline, config) = trained_fixture();
        let mut resolver = IncrementalResolver::bootstrap(
            clone_dataset(&gen.dataset),
            pipeline,
            config,
            IncrementalConfig::default(),
        );
        for r in 0..40 {
            resolver.insert(gen.dataset.record(yv_records::RecordId(r * 7)).clone());
        }
        let resolution = resolver.resolution();
        let mut multi = 0;
        for threshold in [f64::NEG_INFINITY, -1.0, 0.0, 0.8, f64::INFINITY] {
            let map = resolution.entity_map(threshold);
            for rid in resolver.dataset().record_ids() {
                let entity = resolver.entity_of(rid, threshold);
                assert_eq!(entity, crate::query::expand(&map, rid), "{rid:?} at {threshold}");
                multi += usize::from(entity.len() > 1);
            }
        }
        assert!(multi > 0, "the fixture must resolve some multi-report entities");
        for rid in resolver.dataset().record_ids() {
            let best =
                resolution.matches_of(rid).first().map_or(0.0, |m| m.score.max(0.0));
            assert_eq!(resolver.best_score(rid), best, "{rid:?}");
        }
    }

    /// A chain far longer than [`LINEAR_SCAN_MAX`], with chords so that
    /// most records are reached more than once: the hash-set path must
    /// agree with the batch components like the scan path does.
    #[test]
    fn entities_larger_than_the_linear_scan_bound() {
        let n = 40 * LINEAR_SCAN_MAX as u32;
        let mut matches = Vec::new();
        for r in 0..n - 1 {
            let score = if r == n / 2 { -3.0 } else { -1.0 };
            matches.push(RankedMatch::new(RecordId(r), RecordId(r + 1), score));
            if r % 3 == 0 && r + 7 < n / 2 {
                matches.push(RankedMatch::new(RecordId(r), RecordId(r + 7), -0.5));
            }
        }
        let resolver = IncrementalResolver::from_parts(
            Dataset::new(),
            Pipeline::with_model(yv_adt::AdTree::prior(0.0)),
            PipelineConfig::default(),
            IncrementalConfig::default(),
            matches,
        );
        let resolution = resolver.resolution();
        for threshold in [f64::NEG_INFINITY, -1.0, -0.5] {
            let map = resolution.entity_map(threshold);
            for rid in [0, 1, n / 2, n / 2 + 1, n - 1].map(RecordId) {
                assert_eq!(
                    resolver.entity_of(rid, threshold),
                    crate::query::expand(&map, rid),
                    "{rid:?} at {threshold}"
                );
            }
        }
        assert_eq!(resolver.entity_of(RecordId(0), f64::NEG_INFINITY).len(), n as usize);
        assert_eq!(resolver.entity_of(RecordId(0), -1.0).len(), n as usize / 2 + 1);
    }

    fn clone_dataset(ds: &Dataset) -> Dataset {
        let mut out = Dataset::new();
        for source in ds.sources() {
            out.add_source(source.clone());
        }
        for rid in ds.record_ids() {
            out.add_record(ds.record(rid).clone());
        }
        out
    }
}
