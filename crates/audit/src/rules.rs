//! The audit rules.
//!
//! Every rule works on [`CleanLine`]s. D1 matches against `code`
//! (comments and string contents stripped) so prose never triggers it;
//! F1's precision check matches against `text` (comments stripped,
//! string contents kept) because format specifiers like `{:.17}` live
//! inside string literals. See each rule's doc for exact semantics.
//!
//! | rule | hazard | fires on |
//! |------|--------|----------|
//! | D1   | hash-order nondeterminism | `HashMap`/`HashSet` iteration feeding `push`/`extend`/serialization within [`SINK_WINDOW`] lines with no `.sort` within [`SORT_WINDOW`] lines after the sink |
//! | F1   | lossy score persistence | fixed-precision float formatting (`{:.17}`) and lossy `as` casts on score values in persistence/protocol files |
//! | A1   | rogue global allocator | `global_allocator` in code position outside `yv-obs` (the counting allocator is the single sanctioned installation) |
//! | L1   | lock held across blocking I/O / lock-order inversion | a `lock()`/`write()`/`read()` guard binding live (scope tracker) across a blocking call — [`crate::symbols::DIRECT_IO`] patterns or a call into a function the symbol pass proved blocking — or two indexed shard locks acquired in non-ascending index order |
//! | N1   | victim-name leak into logs/metrics | an identifier tainted from a name field (`last_names`, `first_names`, ..., `read_line` input, a `name` argument) reaching a logging sink (`println!`/`eprintln!`, `write!`/`writeln!` to a log-like target, `.log(...)`, a `.annotate(...)` trace annotation) or a `format!`-built metrics label, without passing through the sanctioned `fnv1a` digest |
//! | C1   | lossy integer narrowing in persisted formats | `as u8/u16/u32/i8/i16/i32` on seq/len/offset/id-like values — or `u64 as usize` — in codec/WAL/snapshot/protocol files; the sanctioned pattern is `try_from` with a typed error (generalizes F1 beyond floats) |
//!
//! Panic-freedom and wall-clock hygiene are clippy's: crate-level
//! `#![deny(clippy::expect_used, clippy::panic, …)]` next to the
//! workspace's `unwrap_used`, and `disallowed-methods` in `clippy.toml`.

use crate::lexer::CleanLine;
use crate::profile::FileProfile;
use crate::scope::{self, FileScopes};
use crate::symbols::SymbolIndex;

/// Lines after a hash iteration within which a sink makes the iteration a
/// D1 hazard.
pub const SINK_WINDOW: usize = 12;
/// Lines after the sink within which a `.sort` discharges the hazard (the
/// accumulated output is canonicalized before anyone observes it).
pub const SORT_WINDOW: usize = 12;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    D1,
    F1,
    A1,
    L1,
    N1,
    C1,
}

impl Rule {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::F1 => "F1",
            Rule::A1 => "A1",
            Rule::L1 => "L1",
            Rule::N1 => "N1",
            Rule::C1 => "C1",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Path as given to the analyzer (workspace-relative in CLI runs).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Run every applicable rule over one lexed file. `symbols` carries the
/// interprocedural blocking-call knowledge L1 needs (use
/// [`crate::symbols::single_file_index`] for isolated checks).
#[must_use]
pub fn check_lines(
    file: &str,
    raw: &str,
    lines: &[CleanLine],
    profile: &FileProfile,
    symbols: &SymbolIndex,
) -> Vec<Finding> {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut findings = Vec::new();
    if profile.d1 {
        d1(file, lines, &raw_lines, &mut findings);
    }
    if profile.f1 {
        f1(file, lines, &raw_lines, &mut findings);
    }
    if profile.a1 {
        a1(file, lines, &raw_lines, &mut findings);
    }
    if profile.l1 || profile.n1 {
        let scopes = scope::file_scopes(lines);
        if profile.l1 {
            l1(file, lines, &raw_lines, &scopes, symbols, &mut findings);
        }
        if profile.n1 {
            n1(file, lines, &raw_lines, &scopes, &mut findings);
        }
    }
    if profile.c1 {
        c1(file, lines, &raw_lines, &mut findings);
    }
    findings.retain(|f| !suppressed(lines, f.line, f.rule));
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(&b.rule)));
    findings
}

/// `// audit:allow(RULE)` on the finding's line, or alone on the line
/// directly above it, suppresses the finding.
fn suppressed(lines: &[CleanLine], line_no: usize, rule: Rule) -> bool {
    let idx = line_no - 1;
    if allows(&lines[idx].comment, rule) {
        return true;
    }
    idx > 0 && lines[idx - 1].code.trim().is_empty() && allows(&lines[idx - 1].comment, rule)
}

fn allows(comment: &str, rule: Rule) -> bool {
    let Some(at) = comment.find("audit:allow(") else {
        return false;
    };
    let rest = &comment[at + "audit:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[..close].split(',').any(|r| r.trim() == rule.name())
}

fn push_finding(
    findings: &mut Vec<Finding>,
    rule: Rule,
    file: &str,
    line: usize,
    raw_lines: &[&str],
    message: String,
) {
    let snippet = raw_lines.get(line - 1).map_or("", |l| l.trim()).to_owned();
    findings.push(Finding { rule, file: file.to_owned(), line, message, snippet });
}

// ------------------------------------------------------------------- D1

/// Identifiers bound to hash-ordered collections in this file.
fn hash_bound_names(lines: &[CleanLine]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        let code = &line.code;
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        // `let [mut] name: HashMap<..>` / `let [mut] name = HashMap::new()`
        if let Some(name) = let_binding_name(code) {
            push_name(&mut names, name);
        }
        // Parameter or field position: `name: &HashMap<`, `name: HashMap<`.
        for marker in ["HashMap<", "HashSet<"] {
            let mut from = 0;
            while let Some(at) = code[from..].find(marker) {
                let abs = from + at;
                if let Some(name) = param_name_before(code, abs) {
                    push_name(&mut names, name);
                }
                from = abs + marker.len();
            }
        }
    }
    names
}

fn push_name(names: &mut Vec<String>, name: String) {
    if !name.is_empty() && !names.contains(&name) {
        names.push(name);
    }
}

/// Extract the bound name from a `let` line mentioning a hash collection.
fn let_binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    // Destructuring patterns (`let (a, b) = ...`) yield an empty name.
    (!name.is_empty()).then_some(name)
}

/// Identifier preceding `: &HashMap<` / `: HashMap<` at byte `at`.
fn param_name_before(code: &str, at: usize) -> Option<String> {
    let before = &code[..at];
    let before = before.trim_end_matches(['&', ' ']);
    let before = before.strip_suffix("mut").unwrap_or(before).trim_end();
    let before = before.strip_suffix(':')?.trim_end();
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

const ITER_METHODS: [&str; 7] =
    [".iter()", ".into_iter()", ".values()", ".keys()", ".into_values()", ".into_keys()", ".drain("];
const SINKS: [&str; 5] = [".push(", ".push_str(", ".extend(", "write!(", "writeln!("];

/// True when the cleaned line iterates the named hash collection.
fn iterates(code: &str, name: &str) -> bool {
    for m in ITER_METHODS {
        let pat = format!("{name}{m}");
        if code.contains(&pat) {
            return true;
        }
    }
    // `for x in name` / `for x in &name` / `for x in &mut name`
    for pat in [format!(" in {name}"), format!(" in &{name}"), format!(" in &mut {name}")] {
        if let Some(at) = code.find(&pat) {
            let after = at + pat.len();
            let boundary = code[after..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            if boundary && code.trim_start().starts_with("for ") {
                return true;
            }
        }
    }
    false
}

fn d1(file: &str, lines: &[CleanLine], raw_lines: &[&str], findings: &mut Vec<Finding>) {
    let names = hash_bound_names(lines);
    if names.is_empty() {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(name) = names.iter().find(|n| iterates(&line.code, n)) else {
            continue;
        };
        // A sink within the window makes the hash order observable...
        let sink = (idx + 1..lines.len().min(idx + 1 + SINK_WINDOW))
            .find(|&j| SINKS.iter().any(|s| lines[j].code.contains(s)));
        // ...including a sink on the iteration line itself (iterator
        // chains like `map.values().for_each(|v| out.push(v))`).
        let sink = if SINKS.iter().any(|s| line.code.contains(s)) { Some(idx) } else { sink };
        let Some(sink_idx) = sink else {
            continue;
        };
        // A sort after the sink canonicalizes the accumulated output.
        let sorted = (sink_idx + 1..lines.len().min(sink_idx + 1 + SORT_WINDOW))
            .any(|j| lines[j].code.contains(".sort"));
        if sorted {
            continue;
        }
        push_finding(
            findings,
            Rule::D1,
            file,
            idx + 1,
            raw_lines,
            format!(
                "iteration over hash-ordered `{name}` feeds an order-sensitive sink \
                 (line {}) with no canonicalizing sort; use a BTree collection or \
                 sort before emitting",
                sink_idx + 1
            ),
        );
    }
}

// ------------------------------------------------------------------- F1

const LOSSY_CAST_TARGETS: [&str; 9] =
    ["f32", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "usize"];

/// True when a format specifier with fixed precision (`{:.3}`, `{:>8.2}`)
/// appears in code position.
fn has_fixed_precision_format(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while let Some(at) = code[i..].find("{:") {
        let start = i + at + 2;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'}' && j - start < 16 {
            if bytes[j] == b'.' && bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
                return true;
            }
            j += 1;
        }
        i = start;
    }
    false
}

/// True when a score-typed value is narrowed with `as`.
fn has_lossy_score_cast(code: &str) -> bool {
    let Some(score_at) = code.find("score") else {
        return false;
    };
    let tail = &code[score_at..];
    let Some(as_at) = tail.find(" as ") else {
        return false;
    };
    let target = tail[as_at + 4..].trim_start();
    LOSSY_CAST_TARGETS.iter().any(|t| {
        target.starts_with(t)
            && target[t.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
    })
}

const FORMAT_MACROS: [&str; 6] =
    ["format!(", "write!(", "writeln!(", "print!(", "println!(", "format_args!("];

fn f1(file: &str, lines: &[CleanLine], raw_lines: &[&str], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // Precision specifiers live inside string literals, so match on
        // `text`; requiring a formatting macro on the same line keeps
        // prose strings that merely mention `{:.17}` from firing.
        let is_format_call = FORMAT_MACROS.iter().any(|m| line.code.contains(m));
        if is_format_call && has_fixed_precision_format(&line.text) {
            push_finding(
                findings,
                Rule::F1,
                file,
                idx + 1,
                raw_lines,
                "fixed-precision float formatting in a persistence/protocol path loses \
                 significant digits; use `{:?}` (shortest round-trip) or `to_bits()`"
                    .to_owned(),
            );
        }
        if has_lossy_score_cast(&line.code) {
            push_finding(
                findings,
                Rule::F1,
                file,
                idx + 1,
                raw_lines,
                "lossy `as` cast on a score value in a persistence/protocol path; \
                 keep scores f64 end to end"
                    .to_owned(),
            );
        }
    }
}

// ------------------------------------------------------------------- A1

fn a1(file: &str, lines: &[CleanLine], raw_lines: &[&str], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        // No in_test exemption: a global allocator swaps the allocator
        // for the entire binary, test module or not.
        if line.code.contains("global_allocator") {
            push_finding(
                findings,
                Rule::A1,
                file,
                idx + 1,
                raw_lines,
                "global allocator installed outside yv-obs; the counting allocator \
                 behind yv-obs's `global-alloc` feature is the single sanctioned \
                 installation, so memory gauges stay attributable"
                    .to_owned(),
            );
        }
    }
}

// ------------------------------------------------------------------- L1

/// Guard-acquisition markers in a binding's initializer. `.write()` /
/// `.read()` are the `RwLock` acquisitions (argless, unlike
/// `io::Write::write`), `.lock()` the `Mutex` one.
const GUARD_INITS: [&str; 5] =
    [".lock()", ".write()", ".read()", "MutexGuard", "RwLockWriteGuard"];

/// Is this binding a lock guard? Block-expression initializers (`let x =
/// { let g = m.lock(); ... };`) are skipped: the guard they *contain* is
/// tracked as its own inner binding with the block's tighter scope.
fn is_guard(binding: &scope::Binding) -> bool {
    let init = binding.init.trim_start_matches(|c: char| c != '=');
    if init.trim_start_matches('=').trim_start().starts_with('{') {
        return false;
    }
    GUARD_INITS.iter().any(|g| binding.init.contains(g))
}

/// `shards[3].write()`-style acquisition: (collection name, index).
fn indexed_guard(init: &str) -> Option<(String, usize)> {
    let bytes = init.as_bytes();
    let open = init.find('[')?;
    let close = init[open..].find(']')? + open;
    let idx: usize = init[open + 1..close].trim().parse().ok()?;
    let after = &init[close + 1..];
    if !(after.starts_with(".write()") || after.starts_with(".read()") || after.starts_with(".lock()"))
    {
        return None;
    }
    let name: String = init[..open]
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let _ = bytes;
    (!name.is_empty()).then_some((name, idx))
}

/// The guard's effective last live line: its scope end, or an earlier
/// explicit `drop(name)`.
fn guard_end(lines: &[CleanLine], binding: &scope::Binding) -> usize {
    let drop_pat = format!("drop({})", binding.name);
    (binding.line..=binding.scope_end.min(lines.len() - 1))
        .find(|&j| lines[j].code.contains(&drop_pat))
        .unwrap_or(binding.scope_end)
}

fn l1(
    file: &str,
    lines: &[CleanLine],
    raw_lines: &[&str],
    scopes: &FileScopes,
    symbols: &SymbolIndex,
    findings: &mut Vec<Finding>,
) {
    let guards: Vec<&scope::Binding> = scopes
        .bindings
        .iter()
        .filter(|b| is_guard(b) && !lines.get(b.line).is_none_or(|l| l.in_test))
        .collect();
    for g in &guards {
        let end = guard_end(lines, g);
        let last = end.min(lines.len() - 1);
        for (j, line) in lines.iter().enumerate().take(last + 1).skip(g.line) {
            if line.in_test {
                continue;
            }
            // The acquisition statement itself is not "I/O under the
            // lock" — `let g = file_mutex.lock()` may sit on a line whose
            // tail the init text already covers.
            let code = if j == g.line { after_init(&line.code) } else { line.code.as_str() };
            if symbols.blocking_call(code) {
                push_finding(
                    findings,
                    Rule::L1,
                    file,
                    j + 1,
                    raw_lines,
                    format!(
                        "blocking I/O with lock guard `{}` (acquired line {}) still held; \
                         stage the data and drop the guard before the I/O, or justify with \
                         an audit:allow(L1) marker",
                        g.name,
                        g.line + 1
                    ),
                );
                break;
            }
        }
    }
    // Lock-order: two indexed acquisitions on the same collection while
    // the first is still live must ascend strictly.
    for (a_pos, a) in guards.iter().enumerate() {
        let Some((a_coll, a_idx)) = indexed_guard(&a.init) else { continue };
        let a_end = guard_end(lines, a);
        for b in guards.iter().skip(a_pos + 1) {
            let Some((b_coll, b_idx)) = indexed_guard(&b.init) else { continue };
            if a_coll == b_coll && b.line > a.line && b.line <= a_end && b_idx <= a_idx {
                push_finding(
                    findings,
                    Rule::L1,
                    file,
                    b.line + 1,
                    raw_lines,
                    format!(
                        "`{b_coll}[{b_idx}]` locked while `{a_coll}[{a_idx}]` (line {}) is \
                         still held — shard locks must be acquired in ascending index order \
                         to keep the quiesce protocol deadlock-free",
                        a.line + 1
                    ),
                );
            }
        }
    }
}

/// The portion of a binding's own line after the `=` of its initializer
/// (so the acquisition call itself is not scanned for blocking I/O).
fn after_init(code: &str) -> &str {
    code.find(';').map_or("", |at| &code[at + 1..])
}

// ------------------------------------------------------------------- N1

/// Identifier roots carrying victim names. `name` (the resolve/query
/// argument) is deliberately included: in the serving crates a bare
/// `name` *is* request data.
const NAME_ROOTS: [&str; 9] = [
    "name",
    "first_names",
    "last_names",
    "first_name",
    "last_name",
    "maiden_name",
    "father_name",
    "mother_name",
    "spouse_name",
];

/// Initializer fragments that launder a name into something loggable: the
/// sanctioned digest, or aggregate/numeric derivations.
const SANITIZERS: [&str; 5] = ["fnv1a", ".len()", ".count()", ".is_empty()", "digest("];

fn is_sanitized(text: &str) -> bool {
    SANITIZERS.iter().any(|s| text.contains(s))
}

/// Logging sink on this line? Checks `code` for the macro/call shape; the
/// `write!`/`writeln!` target must look like a log (first argument
/// mentions log/stderr/sink/slow) so protocol-response formatting into an
/// `out` buffer stays out of scope.
fn n1_sink(line: &CleanLine) -> bool {
    let code = &line.code;
    if ["println!(", "print!(", "eprintln!(", "eprint!("].iter().any(|m| code.contains(m)) {
        return true;
    }
    if code.contains(".log(") {
        return true;
    }
    // Trace annotations are capture sinks too: span/request args end up
    // rendered by TRACE/TOP, so a raw name reaching `.annotate(` leaks
    // exactly like a log line would.
    if code.contains(".annotate(") {
        return true;
    }
    for m in ["write!(", "writeln!("] {
        if let Some(at) = code.find(m) {
            let args = &code[at + m.len()..];
            let target = args.split(',').next().unwrap_or("").to_lowercase();
            if ["log", "stderr", "sink", "slow"].iter().any(|t| target.contains(t)) {
                return true;
            }
        }
    }
    // Metrics label position: a format!-built series name.
    ["set_gauge(", ".counter(", ".histogram(", ".observe("]
        .iter()
        .any(|m| code.contains(m))
        && code.contains("format!")
}

fn n1(
    file: &str,
    lines: &[CleanLine],
    raw_lines: &[&str],
    scopes: &FileScopes,
    findings: &mut Vec<Finding>,
) {
    for (fidx, f) in scopes.functions.iter().enumerate() {
        // Taint fixpoint over the function's bindings: a binding is
        // tainted when its initializer mentions a name root or a tainted
        // binding — unless the initializer sanitizes (digest / count).
        // `read_line(&mut x)` also taints x (raw request text).
        let mut tainted: Vec<String> = Vec::new();
        for line in lines.iter().take(f.end + 1).skip(f.start) {
            if let Some(at) = line.code.find(".read_line(&mut ") {
                let name: String = line.code[at + ".read_line(&mut ".len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !tainted.contains(&name) {
                    tainted.push(name);
                }
            }
        }
        loop {
            let mut changed = false;
            for b in scopes.bindings_of(fidx) {
                if tainted.contains(&b.name) || is_sanitized(&b.init) {
                    continue;
                }
                let from_root = NAME_ROOTS.iter().any(|r| scope::mentions(&b.init, r));
                let from_taint = tainted.iter().any(|t| scope::mentions(&b.init, t));
                if from_root || from_taint {
                    tainted.push(b.name.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (j, line) in lines.iter().enumerate().take(f.end + 1).skip(f.start) {
            if line.in_test || !n1_sink(line) {
                continue;
            }
            // Mentions are matched against `text` (string contents kept)
            // because inline format captures — `"{name}"` — live inside
            // the literal.
            let carries = NAME_ROOTS.iter().any(|r| scope::mentions(&line.text, r))
                || tainted.iter().any(|t| scope::mentions(&line.text, t));
            if carries && !line.text.contains("fnv1a") {
                push_finding(
                    findings,
                    Rule::N1,
                    file,
                    j + 1,
                    raw_lines,
                    "name-derived value reaches a logging/metrics sink without the \
                     sanctioned fnv1a digest; log the digest (or a count), never the raw \
                     name — victim data must not leak into logs"
                        .to_owned(),
                );
            }
        }
    }
}

// ------------------------------------------------------------------- C1

/// Narrowing targets C1 polices (beyond F1's float focus).
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Words marking a value whose silent truncation corrupts persisted or
/// wire data.
const VALUE_WORDS: [&str; 11] =
    ["seq", "len", "length", "offset", "pos", "count", "idx", "index", "id", "size", "ticket"];

fn c1(file: &str, lines: &[CleanLine], raw_lines: &[&str], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut from = 0;
        while let Some(rel) = code[from..].find(" as ") {
            let abs = from + rel;
            let target: String = code[abs + 4..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            from = abs + 4;
            let narrow = NARROW_TARGETS.contains(&target.as_str())
                && VALUE_WORDS.iter().any(|w| scope::mentions(code, w));
            // `u64 as usize` truncates on 32-bit targets; `u32 as usize`
            // does not (the workspace's minimum usize), so the usize arm
            // only fires when a 64-bit source is visible on the line.
            let to_usize = target == "usize" && scope::mentions(code, "u64");
            if narrow || to_usize {
                push_finding(
                    findings,
                    Rule::C1,
                    file,
                    idx + 1,
                    raw_lines,
                    format!(
                        "lossy `as {target}` narrowing on a sequence/length/offset/id value \
                         in a persisted format; use `{target}::try_from` with a typed error \
                         so corruption is detected, not silently truncated"
                    ),
                );
                break; // one finding per line
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean_lines;
    use crate::profile::FileProfile;
    use crate::symbols::single_file_index;

    fn check_all(src: &str) -> Vec<Finding> {
        let lines = clean_lines(src);
        let symbols = single_file_index(&lines);
        check_lines("mem.rs", src, &lines, &FileProfile::all(), &symbols)
    }

    #[test]
    fn f1_fires_outside_tests_only() {
        let src = "fn a() { let x = score as f32; }\n#[cfg(test)]\nmod t { fn b() { let y = score as f32; } }\n";
        let f = check_all(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::F1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d1_fires_without_sort_and_not_with() {
        let bad = "fn f() {\nlet mut m: std::collections::HashMap<u32, u32> = x;\nfor (k, v) in m {\nout.push(k);\n}\n}\n";
        let f = check_all(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D1);
        assert_eq!(f[0].line, 3);

        let good = "fn f() {\nlet mut m: std::collections::HashMap<u32, u32> = x;\nfor (k, v) in m {\nout.push(k);\n}\nout.sort();\n}\n";
        assert!(check_all(good).is_empty());
    }

    #[test]
    fn d1_btree_is_clean() {
        let src = "fn f() {\nlet mut m: std::collections::BTreeMap<u32, u32> = x;\nfor (k, v) in &m {\nout.push(*k);\n}\n}\n";
        assert!(check_all(src).is_empty());
    }

    #[test]
    fn f1_fires_on_precision_and_cast_not_on_debug() {
        let f = check_all("fn f() { let s = format!(\"{:.17}\", v); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::F1);
        let f = check_all("fn f() { let x = score as f32; }\n");
        assert_eq!(f.len(), 1);
        assert!(check_all("fn f() { let s = format!(\"{:?}\", v); }\n").is_empty());
    }

    #[test]
    fn f1_ignores_comments() {
        assert!(check_all("// fixed precision like {:.17} is lossy\nfn f() {}\n").is_empty());
    }

    #[test]
    fn a1_fires_even_inside_test_modules() {
        let src = "#[global_allocator]\nstatic A: MyAlloc = MyAlloc;\n";
        let f = check_all(src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (Rule::A1, 1));
        // Unlike the other rules, #[cfg(test)] provides no cover: the
        // allocator is process-global.
        let in_test = "#[cfg(test)]\nmod t {\n#[global_allocator]\nstatic A: M = M;\n}\n";
        let f = check_all(in_test);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (Rule::A1, 3));
        // The identifier in comment or string position never fires.
        assert!(check_all("// mentions global_allocator in prose\nfn f() {}\n").is_empty());
        assert!(check_all("fn f() { let s = \"global_allocator\"; }\n").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_line_and_preceding_line() {
        let same = "fn f() { let x = score as f32; } // audit:allow(F1) display-only\n";
        assert!(check_all(same).is_empty());
        let above = "// audit:allow(F1) display-only\nfn f() { let x = score as f32; }\n";
        assert!(check_all(above).is_empty());
        let wrong_rule = "fn f() { let x = score as f32; } // audit:allow(D1)\n";
        assert_eq!(check_all(wrong_rule).len(), 1);
    }

    #[test]
    fn findings_are_line_sorted() {
        let src = "#[global_allocator]\nstatic A: M = M;\nfn g() { let x = score as f32; }\n";
        let f = check_all(src);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }
}
