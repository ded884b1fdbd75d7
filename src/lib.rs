//! # yad-vashem-er
//!
//! A Rust reproduction of **"Multi-Source Uncertain Entity Resolution:
//! Transforming Holocaust Victim Reports into People"** (Sagi, Gal, Barkol,
//! Bergman, Avram — SIGMOD 2016 / Information Systems 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`records`] | `yv-records` | record model, item bags, pattern analysis |
//! | [`similarity`] | `yv-similarity` | string/geo/date measures, 48-feature extractor |
//! | [`mfi`] | `yv-mfi` | FP-Growth, maximal frequent itemsets |
//! | [`obs`] | `yv-obs` | structured tracing, counters, latency histograms |
//! | [`adt`] | `yv-adt` | alternating decision trees |
//! | [`blocking`] | `yv-blocking` | the MFIBlocks algorithm |
//! | [`baselines`] | `yv-baselines` | ten comparison blockers (Table 10) |
//! | [`fuzzy`] | `yv-fuzzy` | q-gram candidate index + ranked fuzzy resolution |
//! | [`datagen`] | `yv-datagen` | synthetic Names-Project data + tagging oracle |
//! | [`core`] | `yv-core` | the uncertain-ER pipeline, conditions, queries |
//! | [`store`] | `yv-store` | persistent resolution store + `yv serve` query server |
//! | [`eval`] | `yv-eval` | metrics + per-table/figure experiment harness |
//!
//! ## Quickstart
//!
//! ```
//! use yad_vashem_er::prelude::*;
//!
//! // A small synthetic multi-source dataset with ground truth.
//! let generated = GenConfig::random(400, 7).generate();
//!
//! // Soft blocking: possibly-overlapping candidate clusters.
//! let blocked = mfi_blocks(&generated.dataset, &MfiBlocksConfig::default());
//!
//! // Label some pairs (here: the simulated expert oracle) and train.
//! let tags = tag_pairs(&generated, &blocked.candidate_pairs, 1);
//! let labelled: Vec<_> = tags
//!     .iter()
//!     .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
//!     .collect();
//! let config = PipelineConfig::default();
//! let pipeline = Pipeline::train(&generated.dataset, &labelled, &config);
//!
//! // Ranked, certainty-tunable resolution.
//! let resolution = pipeline.resolve(&generated.dataset, &config);
//! let confident = resolution.at_certainty(1.0).count();
//! let everything = resolution.at_certainty(f64::MIN).count();
//! assert!(confident <= everything);
//! ```

pub use yv_adt as adt;
pub use yv_baselines as baselines;
pub use yv_blocking as blocking;
pub use yv_core as core;
pub use yv_datagen as datagen;
pub use yv_eval as eval;
pub use yv_fuzzy as fuzzy;
pub use yv_mfi as mfi;
pub use yv_obs as obs;
pub use yv_records as records;
pub use yv_similarity as similarity;
pub use yv_store as store;

/// The most commonly used items in one import.
pub mod prelude {
    pub use yv_blocking::{mfi_blocks, MfiBlocksConfig, ScoreFunction};
    pub use yv_core::{
        Condition, Granularity, PersonQuery, Pipeline, PipelineConfig, RankedMatch, Resolution,
    };
    pub use yv_datagen::{
        full_set, italy_set, random_set, tag_pairs, ExpertTag, GenConfig, Generated,
    };
    pub use yv_records::{
        Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, Record, RecordBuilder, RecordId,
        Source, SourceId,
    };
    pub use yv_similarity::{
        extract, feature, jaro_winkler, FeatureVector, FEATURES, FEATURE_COUNT,
    };
    pub use yv_store::{Store, StoreError};
}
