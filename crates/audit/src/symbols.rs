//! The symbol pass: which functions perform blocking I/O.
//!
//! L1 must see that `shard.wal.append_record(...)` blocks on an fsync
//! even though the `write_all` lives two calls away in `wal.rs`. Without
//! a type system to resolve receivers, the pass works on names:
//!
//! 1. Per file, every function is summarized as (name, does direct I/O,
//!    names it calls). Direct I/O is a fixed pattern list
//!    ([`DIRECT_IO`]); calls are lowercase identifiers in call position.
//! 2. Workspace-wide, a fixpoint propagates blockingness along call
//!    edges. A *name* counts as blocking only when **every** function of
//!    that name in the workspace is blocking (conjunctive merge): one
//!    `add_record` doing WAL appends must not taint the in-memory
//!    `QueryIndex::add_record` at unrelated call sites. Sound for a
//!    compiler, wrong for a lint — precision beats recall here because
//!    every false positive costs an `audit:allow` annotation.
//! 3. Short or ubiquitous names (`write`, `lock`, ...) never propagate:
//!    `.write()` is how this workspace *acquires* a lock.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::CleanLine;
use crate::scope::{file_scopes, FileScopes};

/// Call patterns that block the calling thread on I/O directly.
pub const DIRECT_IO: [&str; 17] = [
    ".write_all(",
    ".flush(",
    ".sync_all(",
    ".sync_data(",
    ".set_len(",
    "fs::write(",
    "fs::rename(",
    "fs::read(",
    "fs::read_to_string(",
    "fs::remove_file(",
    "File::open(",
    "File::create(",
    "OpenOptions::new(",
    "TcpStream::connect(",
    ".incoming()",
    ".read_line(",
    ".read_to_end(",
];

/// Names that never participate in call-edge propagation: too generic to
/// resolve by name alone, or homonyms of non-blocking primitives —
/// `.write()`/`.read()`/`.lock()` are how this workspace *acquires* a
/// lock, and `.load()`/`.store()` are atomics (a blocking `pub fn load`
/// elsewhere must not taint `generation.load(Ordering::SeqCst)`).
const GENERIC_NAMES: [&str; 18] = [
    "write", "read", "lock", "flush", "send", "recv", "next", "iter", "push", "insert",
    "clone", "drop", "wait", "spawn", "join", "main", "load", "store",
];

/// Minimum identifier length for call-edge propagation.
const MIN_CALL_NAME: usize = 4;

/// One function's interprocedural summary.
#[derive(Debug)]
pub struct FnSummary {
    pub name: String,
    pub direct_io: bool,
    pub calls: BTreeSet<String>,
}

/// The workspace-wide (or single-file) set of blocking function names.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    blocking: BTreeSet<String>,
}

impl SymbolIndex {
    /// No interprocedural knowledge; only [`DIRECT_IO`] patterns match.
    #[must_use]
    pub fn empty() -> Self {
        SymbolIndex::default()
    }

    /// Build from per-file summaries (collect with [`fn_summaries`]).
    #[must_use]
    pub fn build(summaries: &[FnSummary]) -> Self {
        // name -> indices of its definitions
        let mut defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in summaries.iter().enumerate() {
            defs.entry(s.name.as_str()).or_default().push(i);
        }
        let mut blocking_def: Vec<bool> = summaries.iter().map(|s| s.direct_io).collect();
        let name_blocking = |blocking_def: &[bool], name: &str| {
            defs.get(name).is_some_and(|ds| ds.iter().all(|&d| blocking_def[d]))
        };
        loop {
            let mut changed = false;
            for (i, s) in summaries.iter().enumerate() {
                if blocking_def[i] {
                    continue;
                }
                let calls_blocking = s
                    .calls
                    .iter()
                    .any(|c| eligible(c) && name_blocking(&blocking_def, c));
                if calls_blocking {
                    blocking_def[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let blocking = defs
            .iter()
            .filter(|(name, ds)| eligible(name) && ds.iter().all(|&d| blocking_def[d]))
            .map(|(name, _)| (*name).to_owned())
            .collect();
        SymbolIndex { blocking }
    }

    /// Does this cleaned line block on I/O — directly, or by calling a
    /// known-blocking function?
    #[must_use]
    pub fn blocking_call(&self, code: &str) -> bool {
        if DIRECT_IO.iter().any(|p| code.contains(p)) {
            return true;
        }
        self.blocking.iter().any(|name| calls(code, name))
    }
}

fn eligible(name: &str) -> bool {
    name.len() >= MIN_CALL_NAME && !GENERIC_NAMES.contains(&name)
}

/// `name(` in call position with a left identifier boundary, so `create(`
/// does not match `recreate(`.
fn calls(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(name) {
        let abs = from + rel;
        let end = abs + name.len();
        let bounded = abs == 0
            || !(bytes[abs - 1].is_ascii_alphanumeric() || bytes[abs - 1] == b'_');
        if bounded && bytes.get(end) == Some(&b'(') {
            return true;
        }
        from = abs + name.len().max(1);
    }
    false
}

/// Summarize every function of one lexed file. Test code is skipped
/// entirely — a blocking helper inside `#[cfg(test)]` must not poison
/// production call sites of the same name.
#[must_use]
pub fn fn_summaries(lines: &[CleanLine], scopes: &FileScopes) -> Vec<FnSummary> {
    let mut out = Vec::new();
    for f in &scopes.functions {
        if lines.get(f.start).is_some_and(|l| l.in_test) {
            continue;
        }
        let mut direct_io = false;
        let mut calls_set = BTreeSet::new();
        for line in lines.iter().take(f.end + 1).skip(f.start) {
            if line.in_test {
                continue;
            }
            if DIRECT_IO.iter().any(|p| line.code.contains(p)) {
                direct_io = true;
            }
            collect_calls(&line.code, &mut calls_set);
        }
        // A function is not a call edge to itself.
        calls_set.remove(&f.name);
        out.push(FnSummary { name: f.name.clone(), direct_io, calls: calls_set });
    }
    out
}

/// Lowercase identifiers immediately followed by `(` — call position.
fn collect_calls(code: &str, into: &mut BTreeSet<String>) {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_lowercase() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let bounded = start == 0
                || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            if bounded && bytes.get(i) == Some(&b'(') {
                let name = &code[start..i];
                if eligible(name) && !is_keyword(name) {
                    into.insert(name.to_owned());
                }
            }
        } else if b.is_ascii_alphanumeric() {
            // Skip the rest of a non-lowercase-initial identifier.
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
}

fn is_keyword(name: &str) -> bool {
    matches!(name, "match" | "return" | "while" | "loop" | "if" | "else" | "for" | "move")
}

/// Convenience: the symbol index of a single file in isolation (used by
/// the single-path CLI mode and in-memory checks).
#[must_use]
pub fn single_file_index(lines: &[CleanLine]) -> SymbolIndex {
    let scopes = file_scopes(lines);
    SymbolIndex::build(&fn_summaries(lines, &scopes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean_lines;

    fn index_of(src: &str) -> SymbolIndex {
        single_file_index(&clean_lines(src))
    }

    #[test]
    fn direct_io_marks_a_function_blocking() {
        let idx = index_of("fn append_frame(f: &mut File) {\n    f.write_all(b\"x\");\n}\n");
        assert!(idx.blocking_call("wal.append_frame(payload)"));
    }

    #[test]
    fn blockingness_propagates_along_call_edges() {
        let src = "\
fn append_frame(f: &mut File) {\n    f.sync_data();\n}\n\
fn append_record(w: &mut W) {\n    w.append_frame();\n}\n";
        let idx = index_of(src);
        assert!(idx.blocking_call("shard.wal.append_record(ticket)"));
    }

    #[test]
    fn conjunctive_merge_spares_pure_homonyms() {
        // Two `add_record` definitions, one pure: the *name* must not be
        // treated as blocking at call sites.
        let src = "\
fn add_record(w: &mut W) {\n    w.append_frame();\n}\n\
fn append_frame(f: &mut File) {\n    f.sync_data();\n}\n\
mod index {\n    fn add_record(v: &mut Vec<u32>, x: u32) {\n        v.push(x);\n    }\n}\n";
        let idx = index_of(src);
        assert!(!idx.blocking_call("shard.index.add_record(rid)"));
        assert!(idx.blocking_call("w.append_frame()"), "direct pattern still matches");
    }

    #[test]
    fn generic_names_never_propagate() {
        let src = "fn write(f: &mut File) {\n    f.sync_all();\n}\n";
        let idx = index_of(src);
        assert!(!idx.blocking_call("let g = self.shards[0].write();"));
    }

    #[test]
    fn test_code_is_not_summarized() {
        let src = "#[cfg(test)]\nmod t {\n    fn helper_io(f: &mut File) {\n        f.write_all(b\"x\");\n    }\n}\n";
        let idx = index_of(src);
        assert!(!idx.blocking_call("helper_io(f)"));
    }
}
