//! Property tests for the incremental resolver: bootstrapping on a batch
//! and streaming the remainder must agree with one batch resolution over
//! the union wherever the two consider the same pair, and every
//! incremental score must be exactly what the pipeline's scorer says
//! about the union dataset.
//!
//! Exact match-set equality is *not* expected: MFIBlocks mines candidate
//! pairs globally while the incremental rule pairs on shared informative
//! items, so each may propose pairs the other skips. Where both propose a
//! pair, the scores must be identical — the model and features are the
//! same.

use proptest::prelude::*;
use std::collections::HashMap;
use yv_core::{
    build_train_set, IncrementalConfig, IncrementalResolver, Pipeline, PipelineConfig,
};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{Dataset, RecordId};

fn clone_prefix(ds: &Dataset, n: usize) -> Dataset {
    let mut out = Dataset::new();
    for source in ds.sources() {
        out.add_source(source.clone());
    }
    for rid in ds.record_ids().take(n) {
        out.add_record(ds.record(rid).clone());
    }
    out
}

fn trained(gen: &yv_datagen::Generated, config: &PipelineConfig) -> Pipeline {
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(gen, &blocked.candidate_pairs, 4);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let ts = build_train_set(&gen.dataset, &labelled);
    Pipeline::with_model(yv_adt::train(&ts, &config.train))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn bootstrap_plus_stream_agrees_with_batch_over_union(
        seed in 0u64..40,
        holdout in 1usize..6,
    ) {
        let gen = GenConfig::random(200, seed).generate();
        let config = PipelineConfig::default();
        let pipeline = trained(&gen, &config);
        let inc_config = IncrementalConfig::default();
        let n = gen.dataset.len();

        // Batch over the union.
        let full = IncrementalResolver::bootstrap(
            clone_prefix(&gen.dataset, n),
            pipeline.clone(),
            config.clone(),
            inc_config,
        );
        // Bootstrap on a prefix, stream the held-out suffix.
        let mut streamed = IncrementalResolver::bootstrap(
            clone_prefix(&gen.dataset, n - holdout),
            pipeline.clone(),
            config.clone(),
            inc_config,
        );
        for rid in gen.dataset.record_ids().skip(n - holdout) {
            streamed.insert(gen.dataset.record(rid).clone());
        }

        // Same union dataset, record for record.
        prop_assert_eq!(streamed.len(), full.len());
        for rid in gen.dataset.record_ids() {
            prop_assert_eq!(streamed.dataset().record(rid), full.dataset().record(rid));
        }

        // Every streamed match scores exactly as the pipeline scores that
        // pair on the union dataset — streaming changes candidate
        // generation, never scoring.
        for m in streamed.matches() {
            let direct = pipeline.score_pair(full.dataset(), m.a, m.b);
            prop_assert!(
                (direct - m.score).abs() < 1e-12,
                "pair ({:?}, {:?}): streamed {} vs direct {}",
                m.a, m.b, m.score, direct
            );
        }

        // Where batch and stream propose the same pair, they agree on the
        // score (and hence on the ranked order among shared pairs).
        let batch_scores: HashMap<(RecordId, RecordId), f64> =
            full.matches().iter().map(|m| ((m.a, m.b), m.score)).collect();
        let mut shared = 0usize;
        for m in streamed.matches() {
            if let Some(&batch_score) = batch_scores.get(&(m.a, m.b)) {
                shared += 1;
                prop_assert!((batch_score - m.score).abs() < 1e-12);
            }
        }
        // The suffix was part of the batch resolution too; the two
        // candidate rules overlap unless the suffix is all strangers.
        let _ = shared;

        // Streaming respects the normalized pair orientation.
        for m in streamed.matches() {
            prop_assert!(m.a < m.b, "pairs stay normalized: {m:?}");
        }
    }

    /// Streaming is deterministic, and batching does not change it: the
    /// held-out suffix filed one record at a time, and the same suffix cut
    /// into random slices filed through `insert_batch`, leave bit-identical
    /// matches in the same order, the same per-arrival matches, and the
    /// same entities and best scores for every record.
    #[test]
    fn streaming_is_deterministic(
        seed in 0u64..40,
        holdout in 3usize..40,
        cuts in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let gen = GenConfig::random(150, seed).generate();
        let config = PipelineConfig::default();
        let pipeline = trained(&gen, &config);
        let n = gen.dataset.len();
        let holdout = holdout.min(n - 1);
        let bootstrap = || {
            IncrementalResolver::bootstrap(
                clone_prefix(&gen.dataset, n - holdout),
                pipeline.clone(),
                config.clone(),
                IncrementalConfig::default(),
            )
        };
        let suffix: Vec<_> = gen.dataset.records()[n - holdout..].to_vec();
        let one_at_a_time = || {
            let mut r = bootstrap();
            let produced: Vec<_> = suffix.iter().map(|record| r.insert(record.clone())).collect();
            (r, produced)
        };
        let (serial, serial_produced) = one_at_a_time();
        prop_assert_eq!(one_at_a_time().1, serial_produced.clone());

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (holdout + 1)).collect();
        bounds.extend([0, holdout]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut batched = bootstrap();
        let mut batched_produced = Vec::new();
        for run in bounds.windows(2) {
            batched_produced.extend(batched.insert_batch(suffix[run[0]..run[1]].to_vec()));
        }

        let bits = |r: &IncrementalResolver| -> Vec<(RecordId, RecordId, u64)> {
            r.matches().iter().map(|m| (m.a, m.b, m.score.to_bits())).collect()
        };
        prop_assert_eq!(bits(&batched), bits(&serial), "slices {:?}", bounds);
        prop_assert_eq!(batched_produced, serial_produced);
        prop_assert_eq!(batched.len(), serial.len());
        for rid in serial.dataset().record_ids() {
            prop_assert_eq!(batched.best_score(rid).to_bits(), serial.best_score(rid).to_bits());
            for at in [f64::NEG_INFINITY, 0.0, 0.8] {
                prop_assert_eq!(batched.entity_of(rid, at), serial.entity_of(rid, at));
            }
        }
    }

    /// Filing an arrival with the matches it was once given leaves what
    /// scoring it left: the suffix filed through `insert_batch` at random
    /// slice cuts, then the same records filed through `insert_logged`
    /// with the matches `insert_batch` returned, give bit-identical
    /// matches in the same order, and the same entities and best scores.
    #[test]
    fn logged_matches_replay_what_scoring_produced(
        seed in 0u64..40,
        holdout in 3usize..40,
        cuts in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let gen = GenConfig::random(150, seed).generate();
        let config = PipelineConfig::default();
        let pipeline = trained(&gen, &config);
        let n = gen.dataset.len();
        let holdout = holdout.min(n - 1);
        let bootstrap = || {
            IncrementalResolver::bootstrap(
                clone_prefix(&gen.dataset, n - holdout),
                pipeline.clone(),
                config.clone(),
                IncrementalConfig::default(),
            )
        };
        let suffix: Vec<_> = gen.dataset.records()[n - holdout..].to_vec();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (holdout + 1)).collect();
        bounds.extend([0, holdout]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut scored = bootstrap();
        let mut produced = Vec::new();
        for run in bounds.windows(2) {
            produced.extend(scored.insert_batch(suffix[run[0]..run[1]].to_vec()));
        }
        prop_assert!(produced.iter().any(|m| !m.is_empty()), "the arrivals must match something");

        let mut logged = bootstrap();
        for (record, matches) in suffix.iter().zip(&produced) {
            logged.insert_logged(record.clone(), matches);
        }

        let bits = |r: &IncrementalResolver| -> Vec<(RecordId, RecordId, u64)> {
            r.matches().iter().map(|m| (m.a, m.b, m.score.to_bits())).collect()
        };
        prop_assert_eq!(bits(&logged), bits(&scored), "slices {:?}", bounds);
        prop_assert_eq!(logged.len(), scored.len());
        for rid in scored.dataset().record_ids() {
            prop_assert_eq!(logged.dataset().record(rid), scored.dataset().record(rid));
            prop_assert_eq!(logged.best_score(rid).to_bits(), scored.best_score(rid).to_bits());
            for at in [f64::NEG_INFINITY, 0.0, 0.8] {
                prop_assert_eq!(logged.entity_of(rid, at), scored.entity_of(rid, at));
            }
        }
        // Later arrivals see the logged ones as candidates exactly as they
        // see the scored ones: the postings are the same.
        let probe = gen.dataset.records()[n - holdout].clone();
        prop_assert_eq!(logged.insert(probe.clone()), scored.insert(probe));
    }
}
