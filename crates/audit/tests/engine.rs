//! Engine-level end-to-end tests: cross-file findings on small synthetic
//! workspaces, the workspace CLI run, and the self-audit property.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use yv_audit::engine;
use yv_audit::Rule;

/// A throwaway workspace under the system temp dir, rebuilt per test.
fn workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join("yv-audit-engine").join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, body) in files {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, body).expect("write source");
    }
    root
}

const LOSSY: &str = "pub fn f(score: f64) -> f32 {\n    score as f32\n}\n";
const CLEAN: &str = "pub fn g(x: u32) -> u32 {\n    x + 1\n}\n";

#[test]
fn findings_come_back_sorted_by_file_with_every_file_counted() {
    let root = workspace(
        "sorted",
        &[
            ("c2/src/lib.rs", LOSSY),
            ("c0/src/lib.rs", LOSSY),
            ("c1/src/lib.rs", CLEAN),
            ("c1/tests/it.rs", LOSSY),
        ],
    );
    let outcome = engine::run_workspace(&root).expect("run");
    let at: Vec<(&str, usize, Rule)> =
        outcome.findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect();
    assert_eq!(
        at,
        [("c0/src/lib.rs", 2, Rule::F1), ("c2/src/lib.rs", 2, Rule::F1)],
        "each lossy crate fires F1 once; the test file is exempt"
    );
    assert_eq!(outcome.files, 4);
}

#[test]
fn l1_fires_exactly_when_the_callee_in_another_file_blocks() {
    // caller.rs holds a guard across `persist_batch()`; whether that is
    // an L1 depends only on what callee.rs's `persist_batch` does.
    let caller = "pub fn apply(m: &std::sync::Mutex<u32>) {\n    \
                  let g = m.lock();\n    persist_batch();\n    drop(g);\n}\n";
    let pure_callee = "pub fn persist_batch() {\n    let _x = 1;\n}\n";
    let blocking_callee = "pub fn persist_batch() {\n    \
                           std::fs::write(\"p\", b\"x\");\n}\n";
    let root = workspace(
        "cross-file-l1",
        &[("crates/a/src/caller.rs", caller), ("crates/a/src/callee.rs", pure_callee)],
    );
    let pure = engine::run_workspace(&root).expect("pure run");
    assert_eq!(pure.findings, vec![], "pure callee: no L1");

    std::fs::write(root.join("crates/a/src/callee.rs"), blocking_callee).expect("edit");
    let blocking = engine::run_workspace(&root).expect("blocking run");
    assert_eq!(blocking.findings.len(), 1, "{:?}", blocking.findings);
    assert_eq!(blocking.findings[0].rule, Rule::L1);
    assert_eq!(blocking.findings[0].file, "crates/a/src/caller.rs");
    assert_eq!(blocking.findings[0].line, 3);
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// Every file under `dir`, outside `target` and dot-directories.
fn files_under(dir: &Path, into: &mut BTreeSet<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if !path.is_dir() {
            into.insert(path);
        } else if name != "target" && !name.starts_with('.') {
            files_under(&path, into);
        }
    }
}

#[test]
fn cli_workspace_check_is_clean_and_leaves_no_file_behind() {
    let mut before = BTreeSet::new();
    files_under(workspace_root(), &mut before);
    let out = Command::new(env!("CARGO_BIN_EXE_yv-audit"))
        .arg("check")
        .output()
        .expect("yv-audit binary runs");
    let mut after = BTreeSet::new();
    files_under(workspace_root(), &mut after);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "workspace stays clean: {stdout}");
    assert_eq!(stdout, "audit: clean\n");
    let count = stderr
        .strip_prefix("yv-audit: ")
        .and_then(|s| s.trim_end().strip_suffix(" files"))
        .and_then(|n| n.parse::<usize>().ok());
    assert!(count.is_some_and(|n| n > 100), "file count goes to stderr: {stderr:?}");
    let new: Vec<_> = after.difference(&before).collect();
    assert!(new.is_empty(), "the check wrote into the workspace: {new:?}");
}

#[test]
fn self_audit_is_clean() {
    // The analyzer passes its own rules: every finding it would raise on
    // crates/audit has been fixed or justified inline.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = workspace_root();
    let mut findings = Vec::new();
    for path in yv_audit::walk::workspace_sources(&manifest.join("src")).expect("walk src") {
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(yv_audit::analyze_file(&path, &display).expect("readable"));
    }
    assert_eq!(findings, vec![], "the auditor must satisfy its own rules");
}
