//! Fixture-based end-to-end tests: each known-bad snippet under
//! `fixtures/` must fire its rule at the documented `file:line`, the
//! known-clean and suppressed snippets must not fire, and the CLI must
//! turn findings into a non-zero exit code.

use std::path::{Path, PathBuf};
use std::process::Command;
use yv_audit::{analyze_file, Rule};

fn fixture(name: &str) -> (PathBuf, String) {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let display = format!("crates/audit/fixtures/{name}");
    (disk, display)
}

fn findings_of(name: &str) -> Vec<(Rule, usize)> {
    let (disk, display) = fixture(name);
    analyze_file(&disk, &display)
        .expect("fixture readable")
        .into_iter()
        .map(|f| {
            assert_eq!(f.file, display, "finding carries the display path");
            (f.rule, f.line)
        })
        .collect()
}

#[test]
fn bad_d1_fires_at_documented_line() {
    assert_eq!(findings_of("bad_d1.rs"), vec![(Rule::D1, 7)]);
}

#[test]
fn bad_f1_fires_on_precision_and_cast() {
    assert_eq!(findings_of("bad_f1.rs"), vec![(Rule::F1, 5), (Rule::F1, 9)]);
}

#[test]
fn bad_a1_fires_at_documented_line() {
    assert_eq!(findings_of("bad_a1.rs"), vec![(Rule::A1, 5)]);
}

#[test]
fn a1_exemption_profile_sanctions_only_the_obs_crate() {
    // The same allocator-installing source is fine inside `crates/obs/`
    // (home of the counting allocator) and an A1 finding anywhere else.
    let (disk, _) = fixture("bad_a1.rs");
    let sanctioned =
        yv_audit::analyze_file(&disk, "crates/obs/src/alloc.rs").expect("fixture readable");
    assert_eq!(sanctioned, vec![], "yv-obs may install the global allocator");
    let elsewhere =
        yv_audit::analyze_file(&disk, "crates/cli/src/main.rs").expect("fixture readable");
    assert!(
        elsewhere.iter().any(|f| f.rule == Rule::A1),
        "every other crate stays under A1: {elsewhere:?}"
    );
}

#[test]
fn bad_l1_fires_on_held_guard_and_lock_order() {
    assert_eq!(findings_of("bad_l1.rs"), vec![(Rule::L1, 8), (Rule::L1, 14)]);
}

#[test]
fn good_l1_staged_io_and_ascending_locks_are_clean() {
    assert_eq!(findings_of("good_l1.rs"), vec![]);
}

#[test]
fn bad_n1_fires_on_slow_log_metrics_label_and_trace_annotation() {
    assert_eq!(
        findings_of("bad_n1.rs"),
        vec![(Rule::N1, 7), (Rule::N1, 9), (Rule::N1, 10)]
    );
}

#[test]
fn good_n1_digest_and_counts_are_clean() {
    assert_eq!(findings_of("good_n1.rs"), vec![]);
}

#[test]
fn bad_c1_fires_on_seq_and_len_narrowing() {
    assert_eq!(findings_of("bad_c1.rs"), vec![(Rule::C1, 5), (Rule::C1, 6)]);
}

#[test]
fn good_c1_try_from_is_clean() {
    assert_eq!(findings_of("good_c1.rs"), vec![]);
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(findings_of("clean.rs"), vec![]);
}

#[test]
fn allow_markers_suppress_both_placements() {
    assert_eq!(findings_of("allowed.rs"), vec![]);
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_yv-audit"))
        .args(args)
        .output()
        .expect("yv-audit binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    for name in [
        "bad_d1.rs",
        "bad_f1.rs",
        "bad_a1.rs",
        "bad_l1.rs",
        "bad_n1.rs",
        "bad_c1.rs",
    ] {
        let (_, display) = fixture(name);
        let (code, stdout) = run_cli(&["check", &display]);
        assert_eq!(code, 1, "{name} must fail the check");
        assert!(stdout.contains(&display), "{name}: diagnostics anchor the file");
    }
}

#[test]
fn cli_exits_zero_on_clean_and_suppressed() {
    for name in ["clean.rs", "allowed.rs", "good_l1.rs", "good_n1.rs", "good_c1.rs"] {
        let (_, display) = fixture(name);
        let (code, stdout) = run_cli(&["check", &display]);
        assert_eq!(code, 0, "{name} must pass: {stdout}");
        assert!(stdout.contains("audit: clean"));
    }
}

#[test]
fn cli_json_output_is_machine_readable() {
    let (_, display) = fixture("bad_a1.rs");
    let (code, stdout) = run_cli(&["check", &display, "--format=json"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"rule\":\"A1\""));
    assert!(stdout.contains("\"line\":5"));
    assert!(stdout.contains("\"count\":1"));
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn cli_usage_error_is_exit_two() {
    let (code, _) = run_cli(&["bogus-subcommand"]);
    assert_eq!(code, 2);
}

#[test]
fn workspace_scan_is_clean() {
    // The enforcing property: the tool lands with the workspace swept.
    let (code, stdout) = run_cli(&["check"]);
    assert_eq!(code, 0, "workspace must stay audit-clean:\n{stdout}");
}
