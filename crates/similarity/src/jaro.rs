//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the paper's choice for comparing name items (the `Name`
//! branch of Eq. 1) and a standard measure for short person names: it
//! rewards agreeing prefixes, matching the observation that clerical errors
//! tend to hit the tail of a transcribed name.

use crate::symbols::{exact, with_scratch, Kernel};

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

    fn run<T: Copy + Ord>(self, a: &[T], b: &[T]) -> f64 {
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

    fn run<T: Copy + Ord>(self, a: &[T], b: &[T]) -> f64 {
        let j = Jaro.run(a, b);
        let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
        let jw = j + prefix as f64 * 0.1 * (1.0 - j);
        jw.clamp(0.0, 1.0)
    }
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
