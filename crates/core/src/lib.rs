//! # yv-core
//!
//! The paper's primary contribution: a model and pipeline for **uncertain
//! entity resolution** (Section 3) instantiated with MFIBlocks soft
//! clustering and ADTree ranked classification (Section 4), as deployed in
//! the Yad Vashem Names Project (Section 5).
//!
//! Uncertain ER differs from the classic pipeline in two ways:
//!
//! 1. **blocking doubles as clustering** -- the output is a set of possibly
//!    overlapping clusters, each representing one *possible* entity; and
//! 2. **no crisp decision is taken** -- the outcome is a ranked list of
//!    matches with confidence scores, and entities are disambiguated only
//!    at query time by a caller-chosen certainty threshold.
//!
//! ```no_run
//! use yv_core::{Pipeline, PipelineConfig};
//! use yv_datagen::{italy_set, tag_pairs};
//!
//! let gen = italy_set(7);
//! let config = PipelineConfig::default();
//! // Train on expert-tagged pairs, then resolve the whole dataset.
//! let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
//! let tags = tag_pairs(&gen, &blocked.candidate_pairs, 1);
//! let labelled: Vec<_> = tags
//!     .iter()
//!     .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
//!     .collect();
//! let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
//! let resolution = pipeline.resolve(&gen.dataset, &config);
//! for m in resolution.at_certainty(1.0).take(10) {
//!     println!("{:?} <-> {:?} with confidence {:.2}", m.a, m.b, m.score);
//! }
//! ```

// Library code behind `yv serve` propagates errors; it does not panic.
// (`unwrap_used` is denied workspace-wide; tests are exempt via clippy.toml.)
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod conditions;
pub mod granularity;
pub mod incremental;
pub mod model;
pub mod narrative;
pub mod pipeline;
pub mod probabilistic;
pub mod query;
pub mod submitters;
pub mod resolution;

pub use conditions::Condition;
pub use granularity::Granularity;
pub use incremental::{IncrementalConfig, IncrementalResolver};
pub use model::{RankedMatch, SoftCluster};
pub use narrative::{KnowledgeGraph, PersonProfile};
pub use pipeline::{build_train_set, Pipeline, PipelineConfig};
pub use probabilistic::{PlattCalibration, SameAsStore};
pub use query::{PersonQuery, QueryHit};
pub use submitters::{resolve_submitters, SubmitterCluster, SubmitterResolutionConfig};
pub use resolution::{EntityMap, Resolution};
