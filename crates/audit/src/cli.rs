//! The shared audit driver behind both entry points: the standalone
//! `yv-audit` binary and the `yv audit` subcommand.
//!
//! ```text
//! audit check [PATH...] [--format human|json] [--root DIR]
//! ```
//!
//! With no PATHs, `check` runs the workspace engine (interprocedural
//! symbols across files). Explicit PATHs use the single-file analyzer —
//! that mode is what the fixture tests and the CI seeded-violation loop
//! drive.
//!
//! Findings go to stdout; the workspace run's file count goes to stderr.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO.

use std::path::{Path, PathBuf};

use crate::{analyze_file, engine, report};

const USAGE: &str = "usage: yv-audit check [PATH...] [--format human|json] [--root DIR]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

struct Options {
    format: Format,
    root: PathBuf,
    paths: Vec<String>,
}

/// The workspace root as seen from this crate's manifest (two levels up);
/// falls back to the current directory for ad-hoc installed copies.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Accept both `--flag=value` and `--flag value` spellings.
fn flag_value<'a>(
    arg: &'a str,
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Option<Option<&'a str>> {
    if let Some(rest) = arg.strip_prefix(flag) {
        if let Some(v) = rest.strip_prefix('=') {
            return Some(Some(v));
        }
        if rest.is_empty() {
            return Some(it.next().map(String::as_str));
        }
    }
    None
}

fn parse_args(args: &[String]) -> Option<Options> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("check") {
        return None;
    }
    let mut opts = Options { format: Format::Human, root: workspace_root(), paths: Vec::new() };
    while let Some(arg) = it.next() {
        if let Some(v) = flag_value(arg, "--format", &mut it) {
            opts.format = match v {
                Some("human") => Format::Human,
                Some("json") => Format::Json,
                _ => return None,
            };
        } else if let Some(v) = flag_value(arg, "--root", &mut it) {
            opts.root = PathBuf::from(v?);
        } else if arg.starts_with("--") {
            return None;
        } else {
            opts.paths.push(arg.clone());
        }
    }
    Some(opts)
}

fn check(opts: &Options) -> std::io::Result<u8> {
    let findings = if opts.paths.is_empty() {
        let outcome = engine::run_workspace(&opts.root)?;
        eprintln!("yv-audit: {} files", outcome.files);
        outcome.findings
    } else {
        let mut findings = Vec::new();
        for p in &opts.paths {
            let path = Path::new(p);
            let resolved =
                if path.is_absolute() { path.to_path_buf() } else { opts.root.join(path) };
            findings.extend(analyze_file(&resolved, p)?);
        }
        findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
        findings
    };
    let rendered = match opts.format {
        Format::Human => report::render_human(&findings),
        Format::Json => report::render_json(&findings),
    };
    print!("{rendered}");
    Ok(u8::from(!findings.is_empty()))
}

/// Run the audit CLI on pre-split arguments (without the program name).
/// Returns the process exit code.
#[must_use]
pub fn run(args: &[String]) -> u8 {
    let Some(opts) = parse_args(args) else {
        eprintln!("{USAGE}");
        return 2;
    };
    match check(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("yv-audit: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = parse_args(&argv(&["check", "--format=json", "--root=/ws"])).expect("eq form");
        let b = parse_args(&argv(&["check", "--format", "json", "--root", "/ws"]))
            .expect("space form");
        for o in [a, b] {
            assert_eq!(o.format, Format::Json);
            assert_eq!(o.root, Path::new("/ws"));
        }
    }

    #[test]
    fn invalid_input_is_rejected() {
        for bad in [
            &["bogus"][..],
            &[],
            &["check", "--format", "yaml"],
            &["check", "--format"],
            &["check", "--root"],
            &["check", "--unknown"],
            // Options the engine no longer has.
            &["check", "--jobs", "4"],
            &["check", "--no-cache"],
            &["check", "--baseline", "x"],
            &["fix-baseline"],
            &["check", "--format", "sarif"],
        ] {
            assert_eq!(run(&argv(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn paths_and_defaults() {
        let o = parse_args(&argv(&["check", "crates/x/src/lib.rs"])).expect("parse");
        assert_eq!(o.paths, ["crates/x/src/lib.rs"]);
        assert_eq!(o.format, Format::Human);
        assert_eq!(o.root, workspace_root());
    }
}
