//! # yv-mfi
//!
//! Maximal frequent-itemset mining for MFIBlocks: an FP-tree with direct
//! **maximal** frequent itemset extraction (FPMax-style pruning), plus the
//! frequent-item pruning used by the performance study of Section 6.3.
//! The crate mines maximal sets only; enumerating every frequent itemset is
//! left to the test oracle.
//!
//! The paper uses Borgelt's FP-Growth \[6\] to mine MFIs (maximal frequent
//! itemsets, Section 4.1.1): an itemset `I` is *frequent* when at least
//! `minsup` records contain it, and *maximal* when no frequent strict
//! superset exists. MFIBlocks mines MFIs from the still-uncovered records at
//! each `minsup` level and turns their supports into candidate blocks.
//!
//! Direct maximal mining matters here: duplicate records share most of
//! their items, so enumerating *all* frequent itemsets would blow up
//! exponentially in the shared-item count, while the set of maximal ones
//! stays small.
//!
//! ```
//! use yv_mfi::mine_maximal;
//!
//! // Two records share {1, 2, 3}; a third shares only {1}.
//! let bags = vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![1, 6]];
//! let mfis = mine_maximal(&bags, 2);
//! assert_eq!(mfis.len(), 1);
//! assert_eq!(mfis[0].items, vec![1, 2, 3]);
//! assert_eq!(mfis[0].support, 2);
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

pub mod fptree;
pub mod maximal;
pub mod prune;
#[cfg(test)]
mod reference;

pub use maximal::{mine_maximal, signature, Itemset};
pub use prune::{common_items, item_frequencies, prune_common_items, top_frequent};
