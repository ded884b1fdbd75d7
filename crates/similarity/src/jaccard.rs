//! Jaccard coefficients over token sets, q-gram sets and sorted id slices.
//!
//! The Jaccard coefficient is the paper's workhorse: the `XnameDist`
//! features are q-gram Jaccard similarities between names (Section 5.1) and
//! MFIBlocks' block score is a Jaccard-style commonality measure over record
//! item bags (Section 4.1.2 / [18]).

use crate::strings::tokens;
use crate::symbols::{exact, with_scratch, Kernel};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard coefficient of two sets given as slices (elements deduplicated
/// internally).
#[must_use]
pub fn jaccard_sets<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Jaccard over whitespace tokens of two strings.
#[must_use]
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    jaccard_sets(&tokens(a), &tokens(b))
}

/// Jaccard over q-grams of two strings — the `XnameDist` measure
/// (1.0 = perfectly similar). The grams are those of
/// [`crate::strings::qgrams`], compared as sets.
#[must_use]
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    exact(a, b, QgramJaccard { q })
}

#[derive(Clone, Copy)]
pub(crate) struct QgramJaccard {
    pub(crate) q: usize,
}

impl Kernel for QgramJaccard {
    type Out = f64;

    fn run<T: Copy + Ord>(self, a: &[T], b: &[T]) -> f64 {
        let q = self.q;
        assert!(q > 0, "q must be positive");
        // A gram is the window starting at an offset; each side's distinct
        // grams are its offsets sorted and deduplicated by window content,
        // and the intersection is a merge of the two sorted lists.
        with_scratch(gram_count(a, q), |a_grams: &mut [usize]| {
            with_scratch(gram_count(b, q), |b_grams: &mut [usize]| {
                let a_grams = distinct_grams(a, q, a_grams);
                let b_grams = distinct_grams(b, q, b_grams);
                if a_grams.is_empty() && b_grams.is_empty() {
                    return 1.0;
                }
                let (mut i, mut j, mut inter) = (0, 0, 0usize);
                while i < a_grams.len() && j < b_grams.len() {
                    match cmp_grams(gram(a, a_grams[i], q), gram(b, b_grams[j], q)) {
                        Ordering::Less => i += 1,
                        Ordering::Greater => j += 1,
                        Ordering::Equal => {
                            inter += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                inter as f64 / (a_grams.len() + b_grams.len() - inter) as f64
            })
        })
    }
}

/// How many q-grams `s` has: none when empty, the whole string when it is
/// no longer than `q`, one per window otherwise.
fn gram_count<T>(s: &[T], q: usize) -> usize {
    match s.len() {
        0 => 0,
        n if n <= q => 1,
        n => n - q + 1,
    }
}

fn gram<T>(s: &[T], start: usize, q: usize) -> &[T] {
    &s[start..(start + q).min(s.len())]
}

/// Lexicographic order of two grams, symbol by symbol: grams are a couple
/// of symbols long, where a `memcmp` call costs more than the comparison.
fn cmp_grams<T: Ord>(x: &[T], y: &[T]) -> Ordering {
    x.iter().cmp(y)
}

/// Fill `offsets` (one slot per gram of `s`) with the gram offsets, sorted
/// by gram content, and return the prefix holding one offset per distinct
/// gram.
fn distinct_grams<'o, T: Ord>(s: &[T], q: usize, offsets: &'o mut [usize]) -> &'o [usize] {
    for (start, slot) in offsets.iter_mut().enumerate() {
        *slot = start;
    }
    offsets.sort_unstable_by(|&x, &y| cmp_grams(gram(s, x, q), gram(s, y, q)));
    let mut kept = 0;
    for k in 0..offsets.len() {
        let repeats =
            kept > 0 && cmp_grams(gram(s, offsets[kept - 1], q), gram(s, offsets[k], q)).is_eq();
        if !repeats {
            offsets[kept] = offsets[k];
            kept += 1;
        }
    }
    &offsets[..kept]
}

/// Jaccard coefficient of two strictly sorted id slices, computed by a
/// linear merge (no allocation). This is the hot-path variant used by block
/// scoring over interned item bags.
#[must_use]
pub fn jaccard_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Size of the intersection of two strictly sorted id slices.
#[must_use]
pub fn intersection_size<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jaccard_reference() {
        assert!((jaccard_sets(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert!((jaccard_sets::<u32>(&[], &[]) - 1.0).abs() < 1e-12);
        assert!((jaccard_sets(&[1], &[2])).abs() < 1e-12);
    }

    #[test]
    fn qgram_jaccard_on_names() {
        // bella vs della: bigrams {be,el,ll,la} vs {de,el,ll,la} => 3/5.
        assert!((qgram_jaccard("bella", "della", 2) - 0.6).abs() < 1e-12);
        assert!((qgram_jaccard("guido", "guido", 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn token_jaccard_partial_overlap() {
        // {john, harris} vs {john} => 1/2.
        assert!((token_jaccard("John Harris", "john") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorted_variant_matches_set_variant() {
        let a = vec![1u32, 3, 5, 9];
        let b = vec![3u32, 4, 5, 10, 12];
        assert!((jaccard_sorted(&a, &b) - jaccard_sets(&a, &b)).abs() < 1e-12);
        assert_eq!(intersection_size(&a, &b), 2);
    }

    #[test]
    fn duplicates_in_input_are_deduped() {
        assert!((jaccard_sets(&[1, 1, 2], &[2, 2]) - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn jaccard_sorted_agrees_with_sets(
            mut a in proptest::collection::vec(0u32..50, 0..20),
            mut b in proptest::collection::vec(0u32..50, 0..20),
        ) {
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            prop_assert!((jaccard_sorted(&a, &b) - jaccard_sets(&a, &b)).abs() < 1e-12);
        }

        #[test]
        fn jaccard_in_unit_interval(
            a in proptest::collection::vec(0u32..50, 0..20),
            b in proptest::collection::vec(0u32..50, 0..20),
        ) {
            let s = jaccard_sets(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_symmetric(
            a in proptest::collection::vec(0u32..50, 0..20),
            b in proptest::collection::vec(0u32..50, 0..20),
        ) {
            prop_assert!((jaccard_sets(&a, &b) - jaccard_sets(&b, &a)).abs() < 1e-12);
        }
    }
}
