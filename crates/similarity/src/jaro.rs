//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the paper's choice for comparing name items (the `Name`
//! branch of Eq. 1) and a standard measure for short person names: it
//! rewards agreeing prefixes, matching the observation that clerical errors
//! tend to hit the tail of a transcribed name.

use crate::symbols::{exact, with_scratch, Kernel, Symbol};

/// Jaro similarity in `[0, 1]`.
#[must_use]
pub fn jaro(a: &str, b: &str) -> f64 {
    exact(a, b, Jaro)
}

/// Jaro-Winkler similarity with the standard prefix scale of 0.1 and a
/// prefix cap of 4 characters.
#[must_use]
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    exact(a, b, JaroWinkler)
}

/// Exactly `jaro_winkler(a, b) >= s`, for every `s` (a NaN threshold is
/// never reached) — but a pair whose symbol counts already bound its
/// Jaro-Winkler below `s` is refused without running Jaro's matching.
///
/// This is the filter-then-verify split for a vocabulary scan: most names
/// share too few letters with the query to reach a useful threshold, and
/// counting shared letters is cheaper than matching them.
#[must_use]
pub fn jaro_winkler_at_least(a: &str, b: &str, s: f64) -> bool {
    exact(a, b, JaroWinklerAtLeast(s))
}

pub(crate) struct Jaro;

impl Kernel for Jaro {
    type Out = f64;

    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        with_scratch(a.len(), |a_matched: &mut [bool]| {
            with_scratch(b.len(), |b_matched: &mut [bool]| jaro_marking(a, b, a_matched, b_matched))
        })
    }
}

/// Jaro over non-empty inputs, marking the matched positions of each side
/// in the (all-false) flag slices.
fn jaro_marking<T: Copy + Ord>(
    a: &[T],
    b: &[T],
    a_matched: &mut [bool],
    b_matched: &mut [bool],
) -> f64 {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_matched[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions: matched characters out of order.
    let transpositions =
        matched(a, a_matched).zip(matched(b, b_matched)).filter(|(x, y)| x != y).count() / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The symbols of `s` at flagged positions, in order.
fn matched<'s, T: Copy>(s: &'s [T], flags: &'s [bool]) -> impl Iterator<Item = T> + 's {
    s.iter().zip(flags).filter(|(_, &f)| f).map(|(&c, _)| c)
}

#[derive(Clone, Copy)]
pub(crate) struct JaroWinkler;

impl Kernel for JaroWinkler {
    type Out = f64;

    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> f64 {
        winkler(Jaro.run(a, b), a, b)
    }
}

/// Raise a Jaro value `j` of `a` and `b` by their common prefix (at most 4
/// symbols, scale 0.1). Increasing in `j`, since the scale never exceeds 0.4.
fn winkler<T: Copy + Ord>(j: f64, a: &[T], b: &[T]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    let jw = j + prefix as f64 * 0.1 * (1.0 - j);
    jw.clamp(0.0, 1.0)
}

/// How far [`jaro_winkler_bound`] must lie below a threshold before the
/// threshold counts as out of reach. The bound and the kernel evaluate the
/// same few floating-point operations on values of at most 3, so each sits
/// within about 1e-14 of its real value; this slack is far wider.
const ROUNDING: f64 = 1e-9;

#[derive(Clone, Copy)]
struct JaroWinklerAtLeast(f64);

impl Kernel for JaroWinklerAtLeast {
    type Out = bool;

    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> bool {
        let s = self.0;
        jaro_winkler_bound(a, b) + ROUNDING >= s && JaroWinkler.run(a, b) >= s
    }
}

/// An upper bound on `JaroWinkler.run(a, b)` read off symbol counts: Jaro's
/// `m` matches pair equal symbols at distinct positions, so `m` is at most
/// the size `c` of the two strings' common symbol multiset (or any count
/// above it), and Jaro `(m/|a| + m/|b| + (m − t)/m) / 3` is at most
/// `(c/|a| + c/|b| + 1) / 3`. Empty strings and `c = 0` (hence no match
/// and no common prefix) take the kernel's own values. DESIGN.md §9
/// "Query index" has the proof.
fn jaro_winkler_bound<T: Symbol>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return Jaro.run(a, b);
    }
    let c = common_symbols(a, b);
    if c == 0 {
        return 0.0;
    }
    let c = c as f64;
    winkler((c / a.len() as f64 + c / b.len() as f64 + 1.0) / 3.0, a, b)
}

/// At least the size of the common multiset of `a` and `b` (over every
/// symbol, the smaller of its two counts), counted in one byte per bucket
/// of code points sharing their low byte: exact for bytes, while two
/// characters in one bucket count as one symbol, which can only
/// over-count. Past 255 symbols a count could overflow its byte, and the
/// shorter length bounds the multiset instead.
fn common_symbols<T: Symbol>(a: &[T], b: &[T]) -> usize {
    if a.len() > usize::from(u8::MAX) {
        return a.len().min(b.len());
    }
    let bucket = |symbol: T| (symbol.into() & 0xFF) as usize;
    let mut counts = [0u8; 256];
    for &x in a {
        counts[bucket(x)] += 1;
    }
    b.iter()
        .filter(|&&y| {
            let left = &mut counts[bucket(y)];
            let common = *left > 0;
            *left -= u8::from(common);
            common
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn jaro_reference_values() {
        // Classic reference pairs from the record-linkage literature.
        assert!(close(jaro("martha", "marhta"), 0.944));
        assert!(close(jaro("dixon", "dicksonx"), 0.767));
        assert!(close(jaro("jellyfish", "smellyfish"), 0.896));
    }

    #[test]
    fn jaro_winkler_reference_values() {
        assert!(close(jaro_winkler("martha", "marhta"), 0.961));
        assert!(close(jaro_winkler("dixon", "dicksonx"), 0.813));
    }

    #[test]
    fn identical_and_disjoint() {
        assert!(close(jaro("guido", "guido"), 1.0));
        assert!(close(jaro_winkler("guido", "guido"), 1.0));
        assert!(close(jaro("abc", "xyz"), 0.0));
        assert!(close(jaro_winkler("abc", "xyz"), 0.0));
    }

    #[test]
    fn empty_strings() {
        assert!(close(jaro("", ""), 1.0));
        assert!(close(jaro("a", ""), 0.0));
        assert!(close(jaro("", "a"), 0.0));
    }

    #[test]
    fn winkler_rewards_shared_prefix() {
        // "foa" vs "foy" share a 2-char prefix; JW must exceed plain Jaro.
        let j = jaro("foa", "foy");
        let jw = jaro_winkler("foa", "foy");
        assert!(jw > j);
    }

    /// The bound as a kernel, so tests can hand it strings.
    struct Bound;

    impl Kernel for Bound {
        type Out = f64;

        fn run<T: Symbol>(self, a: &[T], b: &[T]) -> f64 {
            jaro_winkler_bound(a, b)
        }
    }

    /// `jaro_winkler_at_least` against the kernel it filters for, at `s`
    /// and exactly at the pair's own score, plus the bound's side.
    fn assert_at_least_is_exact(a: &str, b: &str, s: f64) {
        let jw = jaro_winkler(a, b);
        for t in [s, jw] {
            assert_eq!(jaro_winkler_at_least(a, b, t), jw >= t, "{a:?} {b:?} at {t}");
        }
        assert!(exact(a, b, Bound) >= jw, "{a:?} {b:?}: bound below {jw}");
    }

    #[test]
    fn at_least_is_exact_at_thresholds_no_draw_produces() {
        let long = "an-unusually-long-hyphenated-family-name-that-goes-past-sixty-four-characters";
        let names =
            ["", "a", "levi", "lvei", "foa", "dávid", "david", "İzmir", "weiß", "ΟΔΥΣΣΕΥΣ", long];
        let thresholds =
            [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1.0, 0.0, 1.0, 1.0 + 1e-12, 2.0];
        for a in names {
            for b in names {
                for s in thresholds {
                    assert_at_least_is_exact(a, b, s);
                }
            }
        }
    }

    #[test]
    fn a_transposition_passes_the_filter() {
        // One swapped pair keeps every letter, so the count bound cannot
        // refuse it — though it shares one padded bigram in four.
        assert!(jaro_winkler("levi", "lvei") >= 0.88);
        assert!(jaro_winkler_at_least("levi", "lvei", 0.88));
        assert!(!jaro_winkler_at_least("levi", "roth", 0.5));
    }

    proptest! {
        #[test]
        fn at_least_agrees_with_the_kernel(
            a in "[abeilvΣσςİıßé]{0,10}",
            b in "[abeilvΣσςİıßé]{0,10}",
            ascii in "[a-e]{0,8}",
            long in "[ab]{60,70}",
            s in -0.25f64..1.25,
        ) {
            for (x, y) in [(&a, &b), (&ascii, &a), (&ascii, &ascii), (&long, &b), (&long, &long)] {
                assert_at_least_is_exact(x, y, s);
            }
        }
    }

    proptest! {
        #[test]
        fn jaro_in_unit_interval(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let s = jaro(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        }

        #[test]
        fn jaro_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn jaro_winkler_dominates_jaro(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
            prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
        }

        #[test]
        fn jaro_identity(a in "[a-z]{1,12}") {
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
