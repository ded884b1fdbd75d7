//! # yv-baselines
//!
//! The ten baseline blocking techniques of the comparative study
//! (Section 6.6, Table 10), reimplemented with the default configurations
//! described by Papadakis et al. \[24\]:
//!
//! | Technique | Idea |
//! |---|---|
//! | `StBl` | standard/token blocking -- one block per token |
//! | `ACl` | attribute clustering, then token blocking per cluster |
//! | `CaCl` | canopy clustering from random seeds |
//! | `ECaCl` | canopies plus assignment of leftover records |
//! | `QGBl` | q-gram keys |
//! | `EQGBl` | concatenated q-gram keys |
//! | `ESoNe` | extended sorted neighborhood (sliding window over keys) |
//! | `SuAr` | suffix-array keys with block-size cap |
//! | `ESuAr` | all-substring keys with block-size cap |
//! | `TYPiMatch` | token co-occurrence types, then per-type blocking |
//!
//! All of them were designed for *high recall* under the assumption that
//! blocking is mere preprocessing; on the pre-cleaned, code-valued Yad
//! Vashem data they reach recall close to 1 at precision below 0.001, two
//! orders of magnitude under MFIBlocks (Table 10) -- the result
//! `yv reproduce` regenerates.

pub mod canopy;
pub mod common;
pub mod qgrams;
pub mod sorted_neighborhood;
pub mod stbl;
pub mod suffix_arrays;
pub mod typimatch;

pub use canopy::{CanopyClustering, ExtendedCanopyClustering};
pub use common::{all_baselines, pair_stats, Blocker, PairStats};
pub use qgrams::{ExtendedQGramsBlocking, QGramsBlocking};
pub use sorted_neighborhood::ExtendedSortedNeighborhood;
pub use stbl::{AttributeClustering, StandardBlocking};
pub use suffix_arrays::{ExtendedSuffixArrays, SuffixArrays};
pub use typimatch::TypiMatch;
