//! The end-to-end uncertain-ER pipeline (Figure 9): preprocessing →
//! MFIBlocks → feature extraction → ADT scoring → ranked resolution.

use crate::model::RankedMatch;
use crate::resolution::Resolution;
use std::sync::{Mutex, OnceLock, PoisonError};
use yv_adt::{train, AdTree, TrainConfig, TrainSet};
use yv_blocking::{mfi_blocks_recorded, MfiBlocksConfig};
use yv_obs::Recorder;
use yv_records::{Dataset, RecordId};
use yv_similarity::{extract, feature, FeatureId, FEATURE_COUNT};

/// Pipeline configuration: blocking parameters plus the Section 6.5
/// filters and the trainer settings.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    pub blocking: MfiBlocksConfig,
    /// Discard candidate pairs sharing a source (`SameSrc`).
    pub same_src_discard: bool,
    /// Keep only matches the classifier accepts (`Cls`); otherwise every
    /// scored candidate stays in the ranked list.
    pub classify: bool,
    pub train: TrainConfig,
}

/// Assemble an ADT training set from labelled record pairs.
#[must_use]
pub fn build_train_set(ds: &Dataset, labelled: &[(RecordId, RecordId, bool)]) -> TrainSet {
    let mut ts = TrainSet::new(FEATURE_COUNT);
    for &(a, b, label) in labelled {
        let fv = extract(ds.record(a), ds.record(b));
        ts.push(fv.as_row().to_vec(), if label { 1 } else { -1 });
    }
    ts
}

/// Score one pair demand-driven: the tree asks for the features behind its
/// active anchors only (the paper's models keep 8–10 of the 48 and an
/// instance walks a few of those), and `compute` runs at most once per
/// feature — the memo is a stack array, so scoring allocates nothing.
fn score_on_demand(model: &AdTree, mut compute: impl FnMut(FeatureId) -> Option<f64>) -> f64 {
    let mut memo: [Option<Option<f64>>; FEATURE_COUNT] = [None; FEATURE_COUNT];
    // An id past the table names no feature: missing, like `feature` says.
    model.score_with(|f| *memo.get_mut(f)?.get_or_insert_with(|| compute(f)))
}

/// Pairs below which [`Pipeline::score_pairs`] stays on the calling thread.
/// A scoped worker costs tens of microseconds to spawn and join, and a pair
/// ≈ 1 µs to score: one arrival's ≈ 200 candidates are cheaper scored in
/// place, a replay's or a `BATCH_ADD` slice's thousands are not.
const PARALLEL_MIN_PAIRS: usize = 2_048;

/// Pairs a [`Pipeline::score_pairs`] worker takes at a time (≈ 0.3 ms of
/// scoring). Runs are handed out as workers free up rather than one fixed
/// share each, so a worker the scheduler delays holds the others up by one
/// run, not by its whole share.
const SCORE_RUN: usize = 256;

/// Workers for [`Pipeline::score_pairs`]: the host's parallelism, asked
/// once per process — the query is a syscall, and arrivals are many.
fn scoring_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A trained pipeline: the ADTree model ready to score candidate pairs.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub model: AdTree,
}

impl Pipeline {
    /// Train the ADT from labelled pairs (the simplified tag set of
    /// Section 5.1: Maybe pairs are resolved by the caller's policy before
    /// this point).
    #[must_use]
    pub fn train(
        ds: &Dataset,
        labelled: &[(RecordId, RecordId, bool)],
        config: &PipelineConfig,
    ) -> Pipeline {
        let ts = build_train_set(ds, labelled);
        Pipeline { model: train(&ts, &config.train) }
    }

    /// Wrap an externally trained model.
    #[must_use]
    pub fn with_model(model: AdTree) -> Pipeline {
        Pipeline { model }
    }

    /// Score one record pair.
    #[must_use]
    pub fn score_pair(&self, ds: &Dataset, a: RecordId, b: RecordId) -> f64 {
        let (a, b) = (ds.record(a), ds.record(b));
        score_on_demand(&self.model, |f| feature(f, a, b))
    }

    /// Score many pairs: `out[i]` is `score_pair(ds, pairs[i].0,
    /// pairs[i].1)`, bit for bit. A score is a pure function of its two
    /// records, so the pairs are cut into runs of 256 (`SCORE_RUN`) that the
    /// calling thread and its workers take in turn, each writing its run's
    /// own slice of the output — unless there are fewer than
    /// 2 048 (`PARALLEL_MIN_PAIRS`), which are scored in place.
    #[must_use]
    pub fn score_pairs(&self, ds: &Dataset, pairs: &[(RecordId, RecordId)]) -> Vec<f64> {
        let workers = if pairs.len() < PARALLEL_MIN_PAIRS { 1 } else { scoring_workers() };
        self.score_pairs_on(ds, pairs, workers)
    }

    /// [`Pipeline::score_pairs`] on exactly `workers` threads, the calling
    /// thread included.
    fn score_pairs_on(
        &self,
        ds: &Dataset,
        pairs: &[(RecordId, RecordId)],
        workers: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; pairs.len()];
        let runs = Mutex::new(pairs.chunks(SCORE_RUN).zip(out.chunks_mut(SCORE_RUN)));
        let work = || loop {
            // The guard drops at the end of this statement: runs are
            // handed out under the lock, scored outside it.
            let next = runs.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((pairs, out)) = next else { break };
            for (&(a, b), score) in pairs.iter().zip(out) {
                *score = self.score_pair(ds, a, b);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        out
    }

    /// Run the full pipeline over a dataset: block, filter, score, rank.
    #[must_use]
    pub fn resolve(&self, ds: &Dataset, config: &PipelineConfig) -> Resolution {
        self.resolve_recorded(ds, config, &Recorder::monotonic())
    }

    /// Run the full pipeline, recording stage spans (`blocking` with its
    /// per-iteration children, then `extract`, `score`, `resolve`) and
    /// counters (`candidate_pairs`, `pairs_discarded_same_src`,
    /// `pairs_scored`, `matches_kept`) on `rec`.
    ///
    /// Feature extraction and model scoring run fused per pair — the tree
    /// walk computes each feature it reaches, once (what
    /// [`Pipeline::score_pair`] does). Time spent computing features is
    /// charged to `extract`, the rest of the walk to `score`; both are
    /// accumulated against the recorder's clock and emitted as two
    /// adjacent sibling spans, so the stage split survives into traces
    /// without a per-pair span explosion.
    #[must_use]
    pub fn resolve_recorded(
        &self,
        ds: &Dataset,
        config: &PipelineConfig,
        rec: &Recorder,
    ) -> Resolution {
        let blocked = mfi_blocks_recorded(ds, &config.blocking, rec);

        let loop_start = rec.now_ns();
        let mut extract_ns = 0u64;
        let mut score_ns = 0u64;
        let mut discarded = 0u64;
        let mut matches = Vec::with_capacity(blocked.candidate_pairs.len());
        for &(a, b) in &blocked.candidate_pairs {
            if config.same_src_discard && ds.same_source(a, b) {
                discarded += 1;
                continue;
            }
            let (ra, rb) = (ds.record(a), ds.record(b));
            let t0 = rec.now_ns();
            let mut pair_extract_ns = 0u64;
            let score = score_on_demand(&self.model, |f| {
                let started = rec.now_ns();
                let value = feature(f, ra, rb);
                pair_extract_ns += rec.now_ns().saturating_sub(started);
                value
            });
            score_ns += rec.now_ns().saturating_sub(t0).saturating_sub(pair_extract_ns);
            extract_ns += pair_extract_ns;
            if config.classify && score <= 0.0 {
                continue;
            }
            matches.push(RankedMatch::new(a, b, score));
        }
        rec.record_span("extract", loop_start, extract_ns);
        rec.record_span("score", loop_start.saturating_add(extract_ns), score_ns);
        rec.incr("pairs_discarded_same_src", discarded);
        rec.incr("pairs_scored", blocked.candidate_pairs.len() as u64 - discarded);
        rec.incr("matches_kept", matches.len() as u64);

        let resolve_span = rec.span("resolve");
        let resolution = Resolution::new(matches);
        resolve_span.finish();
        resolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_blocking::mfi_blocks;
    use yv_datagen::{tag_pairs, GenConfig, Generated};

    fn fixture() -> (Generated, Pipeline, PipelineConfig) {
        let gen = GenConfig::random(700, 41).generate();
        let config = PipelineConfig::default();
        let blocked = mfi_blocks(&gen.dataset, &config.blocking);
        let tags = tag_pairs(&gen, &blocked.candidate_pairs, 5);
        let labelled: Vec<_> =
            tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
        let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
        (gen, pipeline, config)
    }

    #[test]
    fn trained_model_separates_matches() {
        let (gen, pipeline, config) = fixture();
        let resolution = pipeline.resolve(&gen.dataset, &config);
        assert!(!resolution.matches.is_empty());
        // Accuracy of the sign rule against ground truth on candidates.
        let correct = resolution
            .matches
            .iter()
            .filter(|m| m.is_match() == gen.is_match(m.a, m.b))
            .count();
        let acc = correct as f64 / resolution.matches.len() as f64;
        assert!(acc > 0.8, "pipeline accuracy {acc}");
    }

    #[test]
    fn model_uses_few_features_like_the_paper() {
        let (_, pipeline, _) = fixture();
        let used = pipeline.model.features_used().len();
        assert!(
            (1..=12).contains(&used),
            "the paper's models keep 8-10 of the 48 features; got {used}"
        );
    }

    #[test]
    fn same_src_discard_removes_same_source_pairs() {
        let (gen, pipeline, mut config) = fixture();
        config.same_src_discard = true;
        let resolution = pipeline.resolve(&gen.dataset, &config);
        for m in &resolution.matches {
            assert!(!gen.dataset.same_source(m.a, m.b));
        }
    }

    #[test]
    fn classify_filter_keeps_positive_scores_only() {
        let (gen, pipeline, mut config) = fixture();
        config.classify = true;
        let resolution = pipeline.resolve(&gen.dataset, &config);
        assert!(resolution.matches.iter().all(|m| m.score > 0.0));
    }

    #[test]
    fn filters_only_shrink_the_match_list() {
        let (gen, pipeline, config) = fixture();
        let base = pipeline.resolve(&gen.dataset, &config).matches.len();
        for (same_src, cls) in [(true, false), (false, true), (true, true)] {
            let c = PipelineConfig {
                same_src_discard: same_src,
                classify: cls,
                ..config.clone()
            };
            let n = pipeline.resolve(&gen.dataset, &c).matches.len();
            assert!(n <= base);
        }
    }

    #[test]
    fn resolve_recorded_emits_stage_spans_and_counters() {
        let (gen, pipeline, config) = fixture();
        let (rec, _clock) = Recorder::manual();
        let resolution = pipeline.resolve_recorded(&gen.dataset, &config, &rec);
        assert!(!resolution.matches.is_empty());
        let names: Vec<String> = rec.spans().into_iter().map(|s| s.name).collect();
        for stage in ["blocking", "extract", "score", "resolve"] {
            assert!(names.iter().any(|n| n == stage), "missing stage span {stage}");
        }
        assert!(rec.counter("pairs_scored") > 0);
        assert_eq!(rec.counter("matches_kept"), resolution.matches.len() as u64);
    }

    /// The parallel split is only taken past [`PARALLEL_MIN_PAIRS`], which
    /// small fixtures never reach, so drive it directly: every worker count
    /// (including more workers than there are runs) gives the serial scores
    /// bit for bit, in pair order.
    #[test]
    fn score_pairs_splits_without_changing_a_bit() {
        let (gen, pipeline, _) = fixture();
        let n = gen.dataset.len() as u32;
        let pairs: Vec<_> =
            (0..1_000).map(|i| (RecordId(i % n), RecordId((i * 7 + 1) % n))).collect();
        let bits = |scores: Vec<f64>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let serial =
            bits(pairs.iter().map(|&(a, b)| pipeline.score_pair(&gen.dataset, a, b)).collect());
        for workers in [1, 2, 3, 8] {
            let split = pipeline.score_pairs_on(&gen.dataset, &pairs, workers);
            assert_eq!(bits(split), serial, "{workers} workers");
            let short = pipeline.score_pairs_on(&gen.dataset, &pairs[..2], workers);
            assert_eq!(bits(short), serial[..2], "{workers} workers, 2 pairs");
            assert!(pipeline.score_pairs_on(&gen.dataset, &[], workers).is_empty());
        }
        assert_eq!(bits(pipeline.score_pairs(&gen.dataset, &pairs)), serial);
    }

    #[test]
    fn score_pair_matches_resolve_scores() {
        let (gen, pipeline, config) = fixture();
        let resolution = pipeline.resolve(&gen.dataset, &config);
        assert!(!resolution.matches.is_empty());
        for m in &resolution.matches {
            let direct = pipeline.score_pair(&gen.dataset, m.a, m.b);
            assert_eq!(direct.to_bits(), m.score.to_bits(), "{:?}-{:?}", m.a, m.b);
        }
    }
}
