//! # yv-fuzzy
//!
//! Fuzzy name resolution for the store's serve path: the paper's end
//! product is a *ranked* answer to "who is this partially remembered,
//! possibly misspelled person?", and this crate supplies both halves of
//! that answer.
//!
//! - [`index`] — a q-gram inverted index over distinct lowercased names
//!   (gram → name-id posting lists, record postings per name and role)
//!   with the classic length and count filters, so a scan touches only
//!   names that can possibly reach the similarity bound;
//! - [`rank`] — a deterministic entity ranker blending Jaro-Winkler,
//!   q-gram Jaccard, a log report-count prior, and the incremental
//!   resolver's own certainty.
//!
//! `yv-store` keeps one [`FuzzyIndex`] per store, whatever its shard
//! count, inside its `QueryIndex`: `RESOLVE` asks it for candidates, then
//! [`rank_entities`]; `QUERY` scans its [`FuzzyIndex::sketches`] by role and
//! holds the names that pass to an exact Jaro-Winkler threshold.
//!
//! ```
//! use yv_fuzzy::{FuzzyIndex, ScoreBlend, rank_entities, DEFAULT_QGRAM_BOUND};
//! use yv_records::{RecordBuilder, RecordId, SourceId};
//!
//! let mut index = FuzzyIndex::new();
//! let record = RecordBuilder::new(1, SourceId(0)).last_name("Levi").build();
//! index.add_record(RecordId(0), &record);
//!
//! let (candidates, _stats) = index.candidates("Lewi", DEFAULT_QGRAM_BOUND);
//! let hits = rank_entities(
//!     "lewi",
//!     candidates.iter().map(|c| (c.name, c.jaccard, c.records)),
//!     |rid| vec![rid],          // singleton entities
//!     |_| 0.0,                  // no resolver certainty
//!     &ScoreBlend::default(),
//!     5,
//!     f64::NEG_INFINITY,
//! );
//! assert_eq!(hits[0].name, "levi");
//! ```

// This crate holds every indexed name and sits on the serve path: it
// hands names back to its caller and prints none.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod index;
pub mod rank;

pub use index::{
    CandidateName, CandidateStats, FuzzyIndex, NameEntry, NameSketch, Role, DEFAULT_QGRAM_BOUND,
    QGRAM_Q,
};
pub use rank::{rank_entities, RankedEntity, ScoreBlend};
