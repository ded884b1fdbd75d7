//! How the string kernels see their inputs: as two slices of one symbol
//! type, held on the stack.
//!
//! Names are short (a handful of characters) and pair scoring compares
//! millions of them, so a kernel must not pay an allocation per call. A
//! pair of ASCII strings *is* its symbol slices — the bytes, undecoded;
//! anything else is decoded to `char`s. Every buffer a kernel needs (the
//! decoded characters, match flags, a DP row, gram offsets) comes from
//! [`with_scratch`], the one place that decides between a stack array and
//! a `Vec`.
//!
//! **Case folding** ([`folded`]) is defined as `str::to_lowercase` of each
//! side, produced while copying into the stack buffer: per byte for two
//! ASCII strings, per `char` otherwise — `char::to_lowercase` yields the
//! same characters as `str::to_lowercase` (including the two of `İ` →
//! `i̇`) everywhere but at a capital sigma, which lowercases by position in
//! its word; only then do the kernels run on real `to_lowercase` strings.
//! Either way the kernel sees exactly the symbols the allocating
//! formulation saw, so results are bit-identical.

/// Inputs up to this many symbols run entirely on the stack.
pub(crate) const STACK_LEN: usize = 64;

/// Run `f` over `n` default-initialized scratch elements: a stack array
/// for inputs up to [`STACK_LEN`] symbols (`+ 1` so a DP row over such an
/// input still fits), a `Vec` beyond.
pub(crate) fn with_scratch<T: Copy + Default, R>(n: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if n <= STACK_LEN + 1 {
        let mut buf = [T::default(); STACK_LEN + 1];
        f(&mut buf[..n])
    } else {
        f(&mut vec![T::default(); n])
    }
}

/// What a kernel sees of one symbol — a byte or a `char`: comparable.
pub(crate) trait Symbol: Copy + Ord {}

impl<T: Copy + Ord> Symbol for T {}

/// A string kernel: one implementation, generic over the symbol type, so
/// ASCII pairs run on their bytes and everything else on `char`s.
pub(crate) trait Kernel {
    type Out;
    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> Self::Out;
}

/// Run `kernel` on the two strings as they are.
pub(crate) fn exact<K: Kernel>(a: &str, b: &str, kernel: K) -> K::Out {
    if a.is_ascii() && b.is_ascii() {
        kernel.run(a.as_bytes(), b.as_bytes())
    } else {
        with_symbols(|| a.chars(), |a| with_symbols(|| b.chars(), |b| kernel.run(a, b)))
    }
}

/// Run `kernel` on `a.to_lowercase()` and `b.to_lowercase()`, building the
/// strings only around a capital sigma.
pub(crate) fn folded<K: Kernel>(a: &str, b: &str, kernel: K) -> K::Out {
    fn ascii_lower(s: &str) -> impl Iterator<Item = u8> + '_ {
        s.bytes().map(|byte| byte.to_ascii_lowercase())
    }
    fn lower(s: &str) -> impl Iterator<Item = char> + '_ {
        s.chars().flat_map(char::to_lowercase)
    }
    if a.is_ascii() && b.is_ascii() {
        with_symbols(|| ascii_lower(a), |a| with_symbols(|| ascii_lower(b), |b| kernel.run(a, b)))
    } else if a.contains('Σ') || b.contains('Σ') {
        exact(&a.to_lowercase(), &b.to_lowercase(), kernel)
    } else {
        with_symbols(|| lower(a), |a| with_symbols(|| lower(b), |b| kernel.run(a, b)))
    }
}

/// Run `f` over the symbols an iterator yields, gathered into scratch.
fn with_symbols<T: Copy + Default, I: Iterator<Item = T>, R>(
    symbols: impl Fn() -> I,
    f: impl FnOnce(&[T]) -> R,
) -> R {
    with_scratch(symbols().count(), |buf: &mut [T]| {
        for (slot, symbol) in buf.iter_mut().zip(symbols()) {
            *slot = symbol;
        }
        f(buf)
    })
}

/// `a.to_lowercase() == b.to_lowercase()`. ASCII case differences never
/// change how the rest of a string lowercases (casing context looks at
/// whether a neighbour is cased, not which case it is), so strings equal
/// up to ASCII case are equal folded; otherwise only a non-ASCII character
/// can still make them meet.
pub(crate) fn eq_folded(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b) || (!(a.is_ascii() && b.is_ascii()) && folded(a, b, Equal))
}

struct Equal;

impl Kernel for Equal {
    type Out = bool;

    fn run<T: Symbol>(self, a: &[T], b: &[T]) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hands back the kernel's view of its inputs.
    struct Seen;
    impl Kernel for Seen {
        type Out = (Vec<u32>, Vec<u32>);
        fn run<T: Symbol>(self, a: &[T], b: &[T]) -> Self::Out {
            // Order-preserving rank within the union is all a generic
            // kernel can observe; equal ranks <=> equal symbols.
            let mut all: Vec<T> = a.iter().chain(b).copied().collect();
            all.sort_unstable();
            all.dedup();
            let rank = |s: &[T]| {
                s.iter()
                    .map(|x| all.binary_search(x).unwrap_or(usize::MAX) as u32)
                    .collect()
            };
            (rank(a), rank(b))
        }
    }

    fn seen_reference(a: &str, b: &str) -> (Vec<u32>, Vec<u32>) {
        let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        Seen.run(&a, &b)
    }

    #[test]
    fn scratch_switches_to_the_heap_past_the_stack_length() {
        for n in [0, 1, STACK_LEN, STACK_LEN + 1, STACK_LEN + 2, 1000] {
            with_scratch(n, |buf: &mut [usize]| {
                assert_eq!(buf.len(), n);
                assert!(buf.iter().all(|&x| x == 0));
            });
        }
    }

    #[test]
    fn folding_follows_to_lowercase_beyond_ascii() {
        // Final sigma, a lowercase form longer than its capital, and a
        // letter with no one-to-one fold.
        for (a, b) in [
            ("ΟΔΥΣΣΕΥΣ", "οδυσσευς"),
            ("İstanbul", "i̇stanbul"),
            ("STRASSE", "straße"),
        ] {
            assert_eq!(
                folded(a, b, Seen),
                seen_reference(&a.to_lowercase(), &b.to_lowercase()),
                "{a} / {b}"
            );
            assert_eq!(
                eq_folded(a, b),
                a.to_lowercase() == b.to_lowercase(),
                "{a} / {b}"
            );
        }
        assert!(eq_folded("ΟΔΥΣΣΕΥΣ", "οδυσσευς"));
        assert!(!eq_folded("STRASSE", "straße"));
    }

    proptest! {
        #[test]
        fn kernels_see_the_strings_themselves(a in "[ -~ΣσςİıßǅéÖ]{0,70}", b in "[ -~]{0,70}") {
            prop_assert_eq!(exact(&a, &b, Seen), seen_reference(&a, &b));
            prop_assert_eq!(exact(&b, &b, Seen), seen_reference(&b, &b));
        }

        #[test]
        fn folded_kernels_see_the_lowercased_strings(
            a in "[ -~ΣσςİıßǅéÖ]{0,70}",
            b in "[A-Za-zΣσςİıßǅ ]{0,12}",
            ascii in "[ -~]{0,70}",
        ) {
            for (x, y) in [(&a, &b), (&b, &a), (&ascii, &ascii), (&ascii, &b)] {
                prop_assert_eq!(
                    folded(x, y, Seen),
                    seen_reference(&x.to_lowercase(), &y.to_lowercase())
                );
                prop_assert_eq!(eq_folded(x, y), x.to_lowercase() == y.to_lowercase());
            }
            // ASCII case differences alone never separate two strings.
            let swapped: String = a
                .chars()
                .map(|c| if c.is_ascii_lowercase() { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
                .collect();
            prop_assert!(eq_folded(&a, &swapped));
            prop_assert_eq!(a.to_lowercase(), swapped.to_lowercase());
        }
    }
}
