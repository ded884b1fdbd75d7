//! # yv-similarity
//!
//! Similarity measures and the pairwise feature extractor of the Yad Vashem
//! uncertain-ER pipeline (Section 5.1 of the paper):
//!
//! * string measures — Jaro, Jaro-Winkler, Levenshtein, token and q-gram
//!   Jaccard;
//! * geographic distance (haversine, km);
//! * date-component distances normalized by 31 / 12 / 100;
//! * the expert item-similarity function `fsim` of Eq. 1;
//! * the 48 similarity features computed over candidate record pairs and fed
//!   to the ADT classifier, with first-class missing-value support.

// Library code behind `yv serve` propagates errors; it does not panic.
// (`unwrap_used` is denied workspace-wide; tests are exempt via clippy.toml.)
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod dates;
pub mod features;
pub mod fsim;
pub mod geo;
pub mod jaccard;
pub mod jaro;
#[cfg(test)]
mod reference;
pub mod strings;
mod symbols;

pub use features::{
    extract, feature, FeatureDef, FeatureId, FeatureKind, FeatureVector, FEATURES, FEATURE_COUNT,
};
pub use fsim::{item_similarity, weighted_item_weight, ExpertWeights};
pub use geo::haversine_km;
pub use jaro::{jaro, jaro_winkler};
