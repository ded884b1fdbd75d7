//! # yv-adt
//!
//! Alternating decision trees (Freund & Mason, ICML 1999) — the classifier
//! the paper uses to turn MFIBlocks candidate pairs into **ranked**
//! resolutions (Section 4.2).
//!
//! An ADTree alternates *prediction nodes* (real-valued confidence
//! contributions) with *splitter nodes* (threshold conditions). An
//! instance's score is the sum of the prediction values on **all** root
//! paths whose conditions it satisfies; classification is the sign of the
//! score, and the raw score serves as the ranking confidence. Three
//! properties make the ADTree the right fit for this dataset:
//!
//! * **missing values are handled gracefully** — a splitter whose feature
//!   is absent simply contributes nothing, so the schema-sparse multi-source
//!   records of the Names Project do not need imputation;
//! * **interpretability** — the boosted tree stays small (the paper's final
//!   models keep 8–10 of the 48 features; see Tables 7–8);
//! * **ranking** — dropping the sign yields the confidence score used for
//!   certainty-tunable querying.
//!
//! Training follows the boosting formulation: each round adds the
//! (precondition, condition) pair minimizing the Z-criterion
//! `2·(√(W₊(p∧c)W₋(p∧c)) + √(W₊(p∧¬c)W₋(p∧¬c))) + W(¬p)` and reweights
//! instances by `exp(-y·r(x))`.

// Library code behind `yv serve` propagates errors; it does not panic.
// (`unwrap_used` is denied workspace-wide; tests are exempt via clippy.toml.)
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod condition;
pub mod instance;
pub mod persist;
pub mod render;
pub mod train;
pub mod tree;

pub use condition::Condition;
pub use instance::TrainSet;
pub use persist::{from_text, to_text, PersistError};
pub use train::{train, TrainConfig};
pub use tree::{AdTree, Anchor, Splitter};
