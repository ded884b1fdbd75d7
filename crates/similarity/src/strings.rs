//! Basic string utilities: Levenshtein distance, tokenization and q-grams.

use crate::symbols::{exact, with_scratch, Kernel, Symbol};

/// Levenshtein edit distance between two strings (unit costs), computed over
/// Unicode scalar values with the classic single-row dynamic program.
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    exact(a, b, Levenshtein)
}

struct Levenshtein;

impl Kernel for Levenshtein {
    type Out = usize;

    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> usize {
        // row[j] = distance between the prefix of `a` consumed so far and
        // b[..j]; `diagonal` carries the previous row's row[j].
        with_scratch(b.len() + 1, |row: &mut [usize]| {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = j;
            }
            for (i, &ca) in a.iter().enumerate() {
                let mut diagonal = row[0];
                row[0] = i + 1;
                for (j, &cb) in b.iter().enumerate() {
                    let above = row[j + 1];
                    let substitute = diagonal + usize::from(ca != cb);
                    row[j + 1] = substitute.min(above + 1).min(row[j] + 1);
                    diagonal = above;
                }
            }
            row[b.len()]
        })
    }
}

/// Split a value into lowercase whitespace-delimited tokens.
#[must_use]
pub fn tokens(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_lowercase).collect()
}

/// The q-grams of a string: contiguous character windows of length `q`.
/// Strings shorter than `q` yield a single gram (the whole string), so
/// short names still compare meaningfully.
#[must_use]
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q must be positive");
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= q {
        return vec![chars.iter().collect()];
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Padded q-grams as used by Q-grams blocking (QGBl): the string is padded
/// with `q-1` sentinel characters on both sides so boundary characters
/// participate in `q` grams each.
#[must_use]
pub fn padded_qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q must be positive");
    if s.is_empty() {
        return Vec::new();
    }
    let pad: String = std::iter::repeat_n('#', q - 1).collect();
    let padded = format!("{pad}{s}{pad}");
    qgrams(&padded, q)
}

/// All suffixes of a string of length at least `min_len` (Suffix-Arrays
/// blocking, SuAr). The string itself is always included when non-empty.
#[must_use]
pub fn suffixes(s: &str, min_len: usize) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for start in 0..chars.len() {
        if chars.len() - start >= min_len {
            out.push(chars[start..].iter().collect());
        }
    }
    if out.is_empty() {
        out.push(s.to_owned());
    }
    out
}

/// All substrings of length at least `min_len` (Extended Suffix-Arrays,
/// ESuAr).
#[must_use]
pub fn substrings(s: &str, min_len: usize) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    for start in 0..chars.len() {
        for end in start + min_len.max(1)..=chars.len() {
            out.push(chars[start..end].iter().collect());
        }
    }
    if out.is_empty() && !chars.is_empty() {
        out.push(s.to_owned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("bella", "della"), 1);
        assert_eq!(levenshtein("foa", "foy"), 1);
    }

    #[test]
    fn qgrams_of_short_strings() {
        assert_eq!(qgrams("ab", 2), vec!["ab"]);
        assert_eq!(qgrams("a", 2), vec!["a"]);
        assert!(qgrams("", 2).is_empty());
    }

    #[test]
    fn qgrams_window() {
        assert_eq!(qgrams("abcd", 2), vec!["ab", "bc", "cd"]);
        assert_eq!(qgrams("abcd", 3), vec!["abc", "bcd"]);
    }

    #[test]
    fn padded_qgrams_cover_boundaries() {
        let grams = padded_qgrams("ab", 2);
        assert_eq!(grams, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn suffixes_respect_min_len() {
        assert_eq!(suffixes("torino", 4), vec!["torino", "orino", "rino"]);
        // Short strings fall back to the whole string.
        assert_eq!(suffixes("ab", 4), vec!["ab"]);
        assert!(suffixes("", 4).is_empty());
    }

    #[test]
    fn substrings_include_suffixes() {
        let subs = substrings("abc", 2);
        for suf in suffixes("abc", 2) {
            assert!(subs.contains(&suf));
        }
        assert!(subs.contains(&"ab".to_owned()));
    }

    #[test]
    fn tokens_lowercase_and_split() {
        assert_eq!(tokens("Guido  Foa"), vec!["guido", "foa"]);
        assert!(tokens("   ").is_empty());
    }

    proptest! {
        #[test]
        fn levenshtein_is_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_triangle_inequality(
            a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}"
        ) {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn levenshtein_identity(a in "[a-z]{0,16}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn qgram_count_matches_length(s in "[a-z]{1,20}") {
            let n = s.chars().count();
            let grams = qgrams(&s, 2);
            prop_assert_eq!(grams.len(), if n <= 2 { 1 } else { n - 1 });
        }
    }
}
