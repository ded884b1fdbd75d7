//! yv-audit: static analysis over the workspace's own sources.
//!
//! The resolver's ranked output (paper §4.2) is only meaningful if scores
//! and cluster orderings are bit-for-bit reproducible, and victim names
//! must never leak into operator-visible logs. This crate enforces those invariants mechanically with six
//! rules: three line-level (D1 hash-order determinism, F1 score/float
//! hygiene, A1 global-allocator uniqueness) and three scope-aware (L1
//! lock discipline, N1 privacy-taint, C1 cast safety) built on the
//! [`scope`] tracker and the interprocedural [`symbols`] pass. See
//! [`rules`] for exact semantics and `DESIGN.md` §10 for the rationale.
//! Panic-freedom and wall-clock hygiene are not here: clippy holds them
//! (`#![deny(clippy::expect_used, …)]` in the serving crates,
//! `disallowed-methods` in `clippy.toml`).
//!
//! The [`engine`] runs the rules workspace-wide in one serial pass;
//! [`cli`] is the shared driver behind both the `yv-audit` binary and
//! `yv audit`.
//!
//! Suppression: `// audit:allow(RULE) <justification>` on the offending
//! line, or alone on the line above it — the only way to accept a
//! finding.

pub mod cli;
pub mod engine;
pub mod lexer;
pub mod profile;
pub mod report;
pub mod rules;
pub mod scope;
pub mod symbols;
pub mod walk;

use std::path::Path;

pub use engine::AuditOutcome;
pub use profile::FileProfile;
pub use rules::{Finding, Rule};

/// Analyze in-memory source text under an explicit profile. The symbol
/// index is built from this file alone — cross-file call edges need the
/// [`engine`].
#[must_use]
pub fn analyze_source(display_path: &str, source: &str, profile: &FileProfile) -> Vec<Finding> {
    if profile.test_file {
        return Vec::new();
    }
    let lines = lexer::clean_lines(source);
    let symbols = symbols::single_file_index(&lines);
    rules::check_lines(display_path, source, &lines, profile, &symbols)
}

/// Analyze one file on disk; the profile is derived from `display_path`.
pub fn analyze_file(path: &Path, display_path: &str) -> std::io::Result<Vec<Finding>> {
    let source = std::fs::read_to_string(path)?;
    let profile = FileProfile::for_path(display_path);
    Ok(analyze_source(display_path, &source, &profile))
}
