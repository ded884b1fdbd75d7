//! Rendering findings for humans and machines.
//!
//! JSON is emitted by hand — the workspace's `serde` is a vendored stub —
//! so the escaping here covers exactly what source lines can contain:
//! quotes, backslashes and control characters.

use crate::rules::Finding;

/// Human-readable report: one `file:line` anchored diagnostic per finding.
#[must_use]
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.file,
            f.line,
            f.rule.name(),
            f.message,
            f.snippet
        ));
    }
    if findings.is_empty() {
        out.push_str("audit: clean\n");
    } else {
        out.push_str(&format!(
            "audit: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Machine-readable report: `{"findings": [...], "count": N}`.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            f.rule.name(),
            escape(&f.file),
            f.line,
            escape(&f.message),
            escape(&f.snippet)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out.push('\n');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Rule};

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: Rule::C1,
            file: "crates/store/src/wal.rs".to_owned(),
            line: 91,
            message: "lossy `as u32` narrowing".to_owned(),
            snippet: "let s = \"quoted\";".to_owned(),
        }]
    }

    #[test]
    fn human_report_anchors_file_line() {
        let r = render_human(&sample());
        assert!(r.contains("crates/store/src/wal.rs:91: [C1]"));
        assert!(r.contains("audit: 1 finding\n"));
        assert!(render_human(&[]).contains("audit: clean"));
    }

    #[test]
    fn json_is_escaped_and_counted() {
        let r = render_json(&sample());
        assert!(r.contains("\"count\":1"));
        assert!(r.contains("\\\"quoted\\\""));
        assert!(render_json(&[]).contains("\"count\":0"));
    }
}
