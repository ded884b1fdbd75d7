//! Line-level lexing of Rust sources.
//!
//! The auditor deliberately avoids a full parser (the workspace builds
//! offline against vendored stubs, so `syn` is not available). Instead
//! each file is reduced to a vector of [`CleanLine`]s: code with string
//! *contents* and comments stripped, the comment text preserved separately
//! (that is where `audit:allow(...)` markers live), and a flag telling
//! whether the line sits inside `#[cfg(test)]` / `#[test]` code.
//!
//! The stripping is a small state machine over characters handling line
//! comments, nested block comments, string literals, raw strings
//! (`r#"..."#`), char literals and lifetimes (`'a` is not a char
//! literal).

/// One source line after lexing.
#[derive(Debug, Clone)]
pub struct CleanLine {
    /// Code with comments removed and string contents blanked (the
    /// surrounding quotes survive so `format!("{:.3}", x)` still shows a
    /// string boundary — but its *contents* are gone, keeping string text
    /// from triggering code rules).
    pub code: String,
    /// Code with comments removed but string contents kept — for rules
    /// that inspect format strings (F1) without being fooled by comments
    /// that merely mention a pattern.
    pub text: String,
    /// Concatenated comment text of the line (line and block comments).
    pub comment: String,
    /// True when the line is inside `#[cfg(test)]` items or a `#[test]`
    /// function.
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    Str,
    RawStr { hashes: usize },
    BlockComment { depth: usize },
}

/// Brace-tracked region of test-only code.
#[derive(Debug, Clone, Copy)]
struct TestRegion {
    /// Brace depth at which the region's opening `{` sits; the region
    /// closes when depth falls back to this value.
    entry_depth: usize,
}

/// Lex a whole source file into clean lines.
#[must_use]
pub fn clean_lines(source: &str) -> Vec<CleanLine> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    let mut depth: usize = 0;
    // Set when a `#[cfg(test)]` or `#[test]` attribute has been seen and
    // the opening brace of the annotated item is still ahead.
    let mut pending_test_attr = false;
    let mut regions: Vec<TestRegion> = Vec::new();

    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut text = String::with_capacity(raw.len());
        let mut comment = String::new();
        // A region opened on this line may also close on it (`mod t { .. }`
        // one-liners), so remember that the line touched test code.
        let mut line_in_test = !regions.is_empty() || pending_test_attr;
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&raw[char_offset(&chars, i)..]);
                        break;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment { depth: 1 };
                        i += 2;
                    }
                    'b' if is_raw_byte_string_start(&chars, i) => {
                        // Raw byte string `br"..."` / `br#"..."#`: the `b`
                        // prefix must not hide the raw opener, or the
                        // contents get escape-processed and desync the
                        // stripper on `br"\"`.
                        let hashes = count_hashes(&chars, i + 2);
                        code.push('"');
                        text.push('"');
                        mode = Mode::RawStr { hashes };
                        i += 3 + hashes; // b, r, hashes, opening quote
                    }
                    'b' | 'c' if chars.get(i + 1) == Some(&'"') && is_ident_boundary(&chars, i) => {
                        // Byte string `b"..."` / C string `c"..."`: normal
                        // escape rules, contents blanked like any string.
                        code.push('"');
                        text.push('"');
                        mode = Mode::Str;
                        i += 2;
                    }
                    'r' if is_raw_string_start(&chars, i) => {
                        let hashes = count_hashes(&chars, i + 1);
                        code.push('"');
                        text.push('"');
                        mode = Mode::RawStr { hashes };
                        i += 2 + hashes; // r, hashes, opening quote
                    }
                    '"' => {
                        code.push('"');
                        text.push('"');
                        mode = Mode::Str;
                        i += 1;
                    }
                    '\'' => {
                        // Distinguish char literals from lifetimes.
                        if let Some(end) = char_literal_end(&chars, i) {
                            code.push_str("' '");
                            text.push_str("' '");
                            i = end + 1;
                        } else {
                            code.push('\'');
                            text.push('\'');
                            i += 1;
                        }
                    }
                    '{' => {
                        depth += 1;
                        if pending_test_attr {
                            regions.push(TestRegion { entry_depth: depth - 1 });
                            pending_test_attr = false;
                            line_in_test = true;
                        }
                        code.push('{');
                        text.push('{');
                        i += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if let Some(last) = regions.last() {
                            if depth <= last.entry_depth {
                                regions.pop();
                            }
                        }
                        code.push('}');
                        text.push('}');
                        i += 1;
                    }
                    ';' if pending_test_attr && depth_of_attr_item(&code) => {
                        // `#[cfg(test)] use ...;` — attribute consumed by a
                        // braceless item.
                        pending_test_attr = false;
                        code.push(';');
                        text.push(';');
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        text.push(c);
                        i += 1;
                    }
                },
                Mode::Str => match c {
                    '\\' => {
                        text.push('\\');
                        if let Some(e) = chars.get(i + 1) {
                            text.push(*e);
                        }
                        i += 2; // skip the escaped character
                    }
                    '"' => {
                        code.push('"');
                        text.push('"');
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => {
                        text.push(c);
                        i += 1;
                    }
                },
                Mode::RawStr { hashes } => {
                    if c == '"' && closes_raw(&chars, i, hashes) {
                        code.push('"');
                        text.push('"');
                        mode = Mode::Code;
                        i += 1 + hashes;
                    } else {
                        text.push(c);
                        i += 1;
                    }
                }
                Mode::BlockComment { depth: d } => {
                    if c == '*' && next == Some('/') {
                        if d == 1 {
                            mode = Mode::Code;
                        } else {
                            mode = Mode::BlockComment { depth: d - 1 };
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment { depth: d + 1 };
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
            }
        }
        // Strings and block comments may span lines; a string open at EOL
        // simply stays open (multi-line string literal).
        if contains_test_attr(&code) {
            pending_test_attr = true;
        }
        out.push(CleanLine {
            code,
            text,
            comment,
            in_test: line_in_test || !regions.is_empty() || pending_test_attr,
        });
    }
    out
}

/// Byte offset of char index `i` within the original line.
fn char_offset(chars: &[char], i: usize) -> usize {
    chars[..i].iter().map(|c| c.len_utf8()).sum()
}

/// True when `chars[i]` begins `r"` or `r#...#"` (and is not part of an
/// identifier such as `for` or `attr`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if chars.get(i) != Some(&'r') || !is_ident_boundary(chars, i) {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// True when no identifier continues into `chars[i]` from the left, i.e.
/// `chars[i]` can begin a literal prefix (`r`, `b`, `br`, `c`).
fn is_ident_boundary(chars: &[char], i: usize) -> bool {
    i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// True when `chars[i]` begins `br"` / `br#...#"`.
fn is_raw_byte_string_start(chars: &[char], i: usize) -> bool {
    if !is_ident_boundary(chars, i) || chars.get(i + 1) != Some(&'r') {
        return false;
    }
    let mut j = i + 2;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], from: usize) -> usize {
    let mut n = 0;
    while chars.get(from + n) == Some(&'#') {
        n += 1;
    }
    n
}

fn closes_raw(chars: &[char], quote_at: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(quote_at + k) == Some(&'#'))
}

/// If `chars[i]` (a `'`) opens a char literal, return the index of its
/// closing quote; `None` means it is a lifetime or a stray quote.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escaped char: the character after the backslash is consumed
            // unconditionally (it may itself be a quote, `'\''`), then scan
            // to the closing quote (`\u{...}` escapes span several chars).
            let mut j = i + 3;
            while j < chars.len() {
                match chars[j] {
                    '\'' => return Some(j),
                    _ => j += 1,
                }
            }
            None
        }
        _ => {
            if chars.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None // `'a` lifetime or `'static`
            }
        }
    }
}

/// True when the cleaned line carries a test attribute.
fn contains_test_attr(code: &str) -> bool {
    code.contains("#[cfg(test)]")
        || code.contains("#[test]")
        || code.contains("#[cfg(all(test")
        || code.contains("#[bench]")
}

/// True when the pending attribute can be consumed by a braceless item on
/// this line (e.g. `#[cfg(test)] use foo;`).
fn depth_of_attr_item(code: &str) -> bool {
    let t = code.trim_start();
    t.contains("use ") || t.contains("extern crate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_separated() {
        let lines = clean_lines("let x = 1; // audit:allow(L1) reason\n");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("audit:allow(L1)"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = clean_lines("let s = \"{:.17} .unwrap() HashMap\";\n");
        assert!(!lines[0].code.contains("{:.17}"));
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains('"'));
    }

    #[test]
    fn block_comments_can_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nstill comment .unwrap()\n*/ c\n";
        let lines = clean_lines(src);
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
        assert_eq!(lines[1].code.trim(), "");
        assert!(lines[2].comment.contains(".unwrap()"));
        assert_eq!(lines[3].code.trim(), "c");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = clean_lines("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; }\n");
        // The quote inside the char literal must not open a string.
        assert!(lines[0].code.contains("let d ="));
    }

    #[test]
    fn raw_strings() {
        let lines = clean_lines("let r = r#\"contains \"quotes\" and .unwrap()\"#; f();\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("f();"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_desync() {
        // `'\''` ends at the *second* quote; mistaking the escaped quote
        // for the closer would re-lex the real closer and blind the
        // stripper to everything after it.
        let lines = clean_lines("let q = '\\''; x.unwrap();\n");
        assert!(lines[0].code.contains(".unwrap()"), "{:?}", lines[0].code);
        let lines = clean_lines("let t = '\\t'; let u = '\\u{1F600}'; y.unwrap();\n");
        assert!(lines[0].code.contains(".unwrap()"), "{:?}", lines[0].code);
    }

    #[test]
    fn byte_strings_are_blanked_like_strings() {
        let lines = clean_lines("let b = b\"bytes .unwrap()\"; f();\n");
        assert!(!lines[0].code.contains("unwrap"), "{:?}", lines[0].code);
        assert!(lines[0].code.contains("f();"));
        // `br"\"` must not escape-process the backslash: the string closes
        // at the quote and `g()` is code.
        let lines = clean_lines("let rb = br\"\\\"; g();\n");
        assert!(lines[0].code.contains("g();"), "{:?}", lines[0].code);
        let lines = clean_lines("let rb = br#\"raw \"quoted\" .unwrap()\"#; h();\n");
        assert!(!lines[0].code.contains("unwrap"), "{:?}", lines[0].code);
        assert!(lines[0].code.contains("h();"));
    }

    #[test]
    fn multiline_raw_strings_stay_open_across_lines() {
        let src = "let r = r#\"first\nsecond .unwrap() // not a comment\nlast\"#; tail();\n";
        let lines = clean_lines(src);
        assert!(!lines[1].code.contains("unwrap"), "{:?}", lines[1].code);
        assert!(lines[1].comment.is_empty(), "string text is not comment text");
        assert!(lines[2].code.contains("tail();"), "{:?}", lines[2].code);
    }

    #[test]
    fn raw_string_with_inner_hash_quote_sequences() {
        // `"#` inside an `r##"..."##` literal does not close it.
        let src = "let r = r##\"has \"# inside\"##; k();\n";
        let lines = clean_lines(src);
        assert!(lines[0].code.contains("k();"), "{:?}", lines[0].code);
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
fn lib2() {}
";
        let lines = clean_lines(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test, "the attribute line itself");
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn test_fn_attribute_covers_the_function() {
        let src = "\
#[test]
fn a_test() {
    z.unwrap();
}
fn lib() {}
";
        let lines = clean_lines(src);
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }

    #[test]
    fn braceless_cfg_test_use_does_not_open_a_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { x.unwrap(); }\n";
        let lines = clean_lines(src);
        assert!(!lines[2].in_test);
    }
}
