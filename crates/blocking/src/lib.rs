//! # yv-blocking
//!
//! The MFIBlocks soft-clustering blocking algorithm (Kenig & Gal [18],
//! Algorithm 1 of the paper).
//!
//! MFIBlocks makes the blocking step double as the final clustering step of
//! uncertain ER: blocks may overlap (a record can sit in several blocks
//! under different implicit keys), no blocking key is designed by hand
//! ("let the data talk" — any itemset the data supports can act as a key),
//! and block quality is enforced through the compact-set and
//! sparse-neighborhood (NG) conditions of Chaudhuri et al. [7].
//!
//! The algorithm iterates `minsup` from `MaxMinSup` down to 2; at each
//! level it mines maximal frequent itemsets from the still-uncovered
//! records, materializes their supports as candidate blocks, prunes blocks
//! larger than `minsup·p`, derives a score threshold from the NG condition,
//! and emits the candidate pairs of the surviving blocks.
//!
//! ```
//! use yv_blocking::{mfi_blocks, MfiBlocksConfig};
//! use yv_datagen::GenConfig;
//!
//! let generated = GenConfig::random(300, 7).generate();
//! let result = mfi_blocks(&generated.dataset, &MfiBlocksConfig::default());
//! assert!(!result.candidate_pairs.is_empty());
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

pub mod config;
mod csr;
pub mod diagnostics;
pub mod mfiblocks;
pub mod neighborhood;
#[cfg(test)]
mod reference;
pub mod score;

pub use config::{MfiBlocksConfig, ScoreFunction};
pub use diagnostics::{audit, BlockingDiagnostics};
pub use mfiblocks::{
    mfi_blocks, mfi_blocks_recorded, Block, BlockingResult, BlockingStats,
};
