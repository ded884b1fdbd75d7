//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the paper's choice for comparing name items (the `Name`
//! branch of Eq. 1) and a standard measure for short person names: it
//! rewards agreeing prefixes, matching the observation that clerical errors
//! tend to hit the tail of a transcribed name. [`JaroWinklerFilter`] is the
//! same threshold test for a scan over many names: prepared once per query,
//! it refuses most names on a letter-count sketch before the kernel runs.

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
/// symbols, scale 0.1).
fn winkler<T: Copy + Ord>(j: f64, a: &[T], b: &[T]) -> f64 {
    winkler_step(j, a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count())
}

/// The Winkler step for a common prefix of `prefix` symbols: increasing in
/// `j` (the scale never exceeds 0.4) and, for `j <= 1`, in `prefix`.
fn winkler_step(j: f64, prefix: usize) -> f64 {
    let jw = j + prefix as f64 * 0.1 * (1.0 - j);
    jw.clamp(0.0, 1.0)
}

/// Bit 0 of each of a sketch's 32 four-bit counts.
const ONES: u128 = u128::MAX / 0xF;

/// A count that reads this may stand for more.
const SATURATED: u128 = 7;

/// The largest sum of per-bucket minima a pair reaches with no bucket
/// saturated on both sides.
const MAX_COMMON: u8 = 32 * 7;

/// Candidate lengths tabulated by [`JaroWinklerFilter`]; longer names read
/// the last slot.
const LENGTHS: usize = 65;

/// How far the bound may lie below a threshold before the threshold counts
/// as out of reach. The bound and the kernel evaluate the same few
/// floating-point operations on values of at most 3, so each sits within
/// about 1e-14 of its real value; this slack is far wider.
const ROUNDING: f64 = 1e-9;

/// A string's letter-count sketch: one four-bit count per bucket of code
/// points sharing their low five bits, saturating at 7. Jaro-Winkler sees
/// a string as its `char`s (an ASCII string's bytes are the same values),
/// so this is the sketch of the symbols the kernel compares.
#[must_use]
pub fn letter_sketch(s: &str) -> u128 {
    s.chars().fold(0, |sketch, c| {
        let shift = (u32::from(c) & 31) * 4;
        if (sketch >> shift) & 0xF < SATURATED {
            sketch + (1 << shift)
        } else {
            sketch
        }
    })
}

/// `jaro_winkler(name, query) >= s` over a vocabulary, prepared once per
/// query: most names are refused on their [`letter_sketch`] and length
/// alone, and only the rest run Jaro's matching ([`Self::verify`]).
///
/// A name passes when its sketch shares at least the least common count
/// that can reach `s` at its length, or when some bucket is saturated on
/// both sides. Jaro's `m` matches pair equal symbols, so `m` is at most the
/// sum over buckets of the smaller count, and Jaro-Winkler is at most
/// `winkler_step((m/|name| + m/|query| + 1) / 3, min(4, |name|, |query|))`;
/// the table holds, per length, the least count whose bound plus
/// `ROUNDING` (1e-9) reaches `s`. DESIGN.md §9 "Query index" has the proof.
#[derive(Debug, Clone)]
pub struct JaroWinklerFilter<'q> {
    query: &'q str,
    letters: u128,
    s: f64,
    /// By name length (the last slot for every longer name): the least
    /// common count that can reach `s`, `MAX_COMMON + 1` if none can.
    least: [u8; LENGTHS],
}

impl<'q> JaroWinklerFilter<'q> {
    #[must_use]
    pub fn new(query: &'q str, s: f64) -> JaroWinklerFilter<'q> {
        let query_len = query.chars().count();
        let mut least = [0; LENGTHS];
        let mut c = 0;
        for (len, slot) in least.iter_mut().enumerate() {
            // Up to four symbols the prefix cap grows with the length, so
            // the search starts over; past four the cap is fixed and a
            // longer name only lowers the bound, so its least count cannot
            // be smaller than the previous length's.
            if len <= 4 {
                c = 0;
            }
            while c <= MAX_COMMON && !reachable(c, len, query_len, s) {
                c += 1;
            }
            *slot = c;
        }
        JaroWinklerFilter { query, letters: letter_sketch(query), s, least }
    }

    /// Whether a name of `len` symbols with sketch `letters` can reach the
    /// threshold: `false` only when `jaro_winkler(name, query) < s`.
    #[must_use]
    pub fn passes(&self, letters: u128, len: u32) -> bool {
        let least = self.least[(len as usize).min(LENGTHS - 1)];
        common_letters(letters, self.letters) >= least || saturated_in_both(letters, self.letters)
    }

    /// Exactly `jaro_winkler(name, query) >= s`.
    #[must_use]
    pub fn verify(&self, name: &str) -> bool {
        jaro_winkler(name, self.query) >= self.s
    }
}

/// Whether a name of `len` symbols sharing at most `c` of them with a query
/// of `query_len` symbols can reach `s`. Empty strings and `c = 0` (hence
/// no match and no common prefix) take the kernel's own values.
fn reachable(c: u8, len: usize, query_len: usize, s: f64) -> bool {
    let best = if len == 0 || query_len == 0 {
        if len == query_len {
            1.0
        } else {
            0.0
        }
    } else if c == 0 {
        0.0
    } else {
        let c = f64::from(c);
        let jaro = (c / len as f64 + c / query_len as f64 + 1.0) / 3.0;
        winkler_step(jaro, len.min(query_len).min(4)) + ROUNDING
    };
    best >= s
}

/// The sum over buckets of the smaller of two sketches' counts. Per bucket
/// `8 + a − b` lies in `[1, 15]`, so no borrow crosses a bucket and its top
/// bit says `a >= b`; the minima then fold into bytes (at most 14), the
/// two halves into one word (at most 28 a byte), and a multiply sums it.
fn common_letters(a: u128, b: u128) -> u8 {
    let high = ONES << 3;
    let a_at_least_b = (((a | high) - b) & high) >> 3;
    let take_b = a_at_least_b * 0xF;
    let min = (b & take_b) | (a & !take_b);
    let low_nibbles = u128::MAX / 0xFF * 0xF;
    let bytes = (min & low_nibbles) + ((min >> 4) & low_nibbles);
    let folded = bytes as u64 + (bytes >> 64) as u64;
    (folded.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u8
}

/// Whether some bucket reads 7 in both sketches: there the smaller count
/// may exceed 7, so [`common_letters`] bounds nothing.
fn saturated_in_both(a: u128, b: u128) -> bool {
    let both = a & b;
    both & (both >> 1) & (both >> 2) & ONES != 0
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

    /// The filter as a whole: the sketch test, then the kernel.
    fn admits(filter: &JaroWinklerFilter<'_>, name: &str) -> bool {
        let len = u32::try_from(name.chars().count()).unwrap();
        filter.passes(letter_sketch(name), len) && filter.verify(name)
    }

    /// `admits` against the kernel it filters for, at `s` and exactly at
    /// the pair's own score.
    fn assert_admits_is_exact(name: &str, query: &str, s: f64) {
        let jw = jaro_winkler(name, query);
        for t in [s, jw] {
            let filter = JaroWinklerFilter::new(query, t);
            assert_eq!(admits(&filter, name), jw >= t, "{name:?} {query:?} at {t}");
        }
    }

    /// A name past the 64 symbols a kernel keeps on the stack, and past the
    /// filter's last tabulated length.
    const LONG: &str =
        "an-unusually-long-hyphenated-family-name-that-goes-past-sixty-four-characters";

    #[test]
    fn admits_is_exact_at_thresholds_no_draw_produces() {
        // Unicode, one letter eight and more times (saturated counts), code
        // points 32 apart (one bucket: `a A ! á`, `q 1 Q`), empty, long.
        let names = [
            "", "a", "levi", "lvei", "foa", "dávid", "david", "İzmir", "ıi", "weiß", "ΟΔΥΣΣΕΥΣ",
            "σς", "aaaaaaaa", "aaaaaaaaaaaa", "aAá!", "q1Q", "aqaq", LONG,
        ];
        let thresholds = [
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.0,
            0.0,
            0.5,
            0.88,
            1.0,
            1.0 + 1e-12,
            2.0,
        ];
        for name in names {
            for query in names {
                for s in thresholds {
                    assert_admits_is_exact(name, query, s);
                }
            }
        }
    }

    #[test]
    fn a_transposition_passes_the_filter() {
        // One swapped pair keeps every letter, so the count bound cannot
        // refuse it — though it shares one padded bigram in four.
        let filter = JaroWinklerFilter::new("levi", 0.88);
        assert!(jaro_winkler("lvei", "levi") >= 0.88);
        assert!(filter.passes(letter_sketch("lvei"), 4));
        assert!(!filter.passes(letter_sketch("roth"), 4));
    }

    #[test]
    fn sketches_saturate_and_share_buckets() {
        let one = |c: char| letter_sketch(&c.to_string());
        assert_eq!(one('a'), one('A'));
        assert_eq!(one('a'), one('á'));
        assert_ne!(one('a'), one('b'));
        assert_eq!(letter_sketch("aaaaaaa"), letter_sketch("aaaaaaaaaaaa"));
        assert_eq!(letter_sketch("aaaaaaa"), 7 << 4);
        assert!(saturated_in_both(letter_sketch("aaaaaaa"), letter_sketch(&"a".repeat(9))));
        assert!(!saturated_in_both(letter_sketch("aaaaaaa"), letter_sketch("aaaaaa")));
    }

    proptest! {
        #[test]
        fn admits_agrees_with_the_kernel(
            a in "[abeilvΣσςİıßé]{0,10}",
            b in "[abeilvΣσςİıßé]{0,10}",
            collide in "[aA!áqQ1]{0,12}",
            saturate in "[ab]{0,3}a{8,12}[ab]{0,3}",
            long in "[a-e]{60,80}",
            s in -0.25f64..1.25,
        ) {
            let pairs = [
                (&a, &b),
                (&collide, &a),
                (&collide, &collide),
                (&saturate, &collide),
                (&saturate, &saturate),
                (&long, &b),
                (&long, &long),
                (&saturate, &long),
            ];
            for (x, y) in pairs {
                assert_admits_is_exact(x, y, s);
                assert_admits_is_exact(y, x, s);
            }
        }

        #[test]
        fn common_letters_sums_the_smaller_counts(
            a in proptest::collection::vec(0u8..8, 32..33),
            b in proptest::collection::vec(0u8..8, 32..33),
        ) {
            let pack = |counts: &[u8]| {
                counts.iter().enumerate().fold(0u128, |w, (i, &c)| w | u128::from(c) << (4 * i))
            };
            let sum: u32 = a.iter().zip(&b).map(|(&x, &y)| u32::from(x.min(y))).sum();
            prop_assert_eq!(u32::from(common_letters(pack(&a), pack(&b))), sum);
            let both = a.iter().zip(&b).any(|(&x, &y)| x == 7 && y == 7);
            prop_assert_eq!(saturated_in_both(pack(&a), pack(&b)), both);
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
