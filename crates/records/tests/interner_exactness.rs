//! The interner normalizes through an ASCII fast path and a reused buffer.
//! This holds it to the plain definition, `value.trim().to_lowercase()`,
//! on random Unicode: every call returns the id a reference interner built
//! on that definition returns, and the values and occurrence counts come
//! out equal, in the same order.

use proptest::prelude::*;
use std::collections::HashMap;
use yv_records::{Interner, ItemId, ItemType};

/// Characters where a per-char lowercase map or an ASCII-only trim would
/// go wrong: the three sigmas (a final capital sigma lowercases to `ς`),
/// dotted and dotless I (`İ` lowercases to two chars), both sharp s, and
/// ASCII and non-ASCII whitespace.
const TRICKY: [char; 18] = [
    'Σ', 'σ', 'ς', 'İ', 'ı', 'ß', 'ẞ', 'A', 'z', 'Ö', ' ', '\t', '\n', '\u{a0}', '\u{2003}',
    '\u{3000}', '-', '7',
];

/// Code `c` below `TRICKY.len()` picks a tricky char; the rest walk the
/// code points from U+0020 on: ASCII, Latin, Greek, Cyrillic, Hebrew and
/// the general-punctuation spaces.
fn value_of(codes: &[u32]) -> String {
    let tricky = TRICKY.len() as u32;
    codes
        .iter()
        .filter_map(|&c| match TRICKY.get(c as usize) {
            Some(&ch) => Some(ch),
            None => char::from_u32(c - tricky + 0x20),
        })
        .collect()
}

/// The definition the interner must reproduce.
#[derive(Default)]
struct Reference {
    lookup: HashMap<(ItemType, String), usize>,
    values: Vec<(ItemType, String)>,
    occurrences: Vec<u64>,
}

impl Reference {
    fn intern(&mut self, ty: ItemType, value: &str) -> usize {
        let norm = value.trim().to_lowercase();
        let next = self.values.len();
        let id = *self.lookup.entry((ty, norm.clone())).or_insert(next);
        if id == next {
            self.values.push((ty, norm));
            self.occurrences.push(0);
        }
        self.occurrences[id] += 1;
        id
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interning_equals_trim_then_lowercase(
        pool in proptest::collection::vec(proptest::collection::vec(0u32..0x2400, 0..9), 1..14),
        calls in proptest::collection::vec(0usize..10_000, 1..300),
    ) {
        let pool: Vec<String> = pool.iter().map(|codes| value_of(codes)).collect();
        let mut interner = Interner::new();
        let mut reference = Reference::default();
        for (step, &call) in calls.iter().enumerate() {
            // Few types, so one value meets itself under the same type.
            let ty = ItemType::from_index(call % 3).unwrap_or(ItemType::FirstName);
            let value = &pool[(call / 3) % pool.len()];
            let got = interner.intern(ty, value);
            let want = reference.intern(ty, value);
            prop_assert_eq!(got.index(), want, "call {} interned {:?} as {:?}", step, value, ty);
            prop_assert_eq!(interner.get(ty, value), Some(got), "get({:?})", value);
        }
        prop_assert_eq!(interner.len(), reference.values.len());
        for (i, (ty, value)) in reference.values.iter().enumerate() {
            let id = ItemId(i as u32);
            prop_assert_eq!(interner.item_type(id), *ty);
            prop_assert_eq!(interner.value(id), value.as_str());
            prop_assert_eq!(interner.occurrences(id), reference.occurrences[i]);
        }
    }
}

#[test]
fn the_cases_a_per_char_map_gets_wrong() {
    let mut interner = Interner::new();
    for (raw, want) in [
        ("ΟΔΥΣΣΕΥΣ", "οδυσσευς"),
        ("\u{3000}Σ ", "σ"),
        ("İstanbul", "i\u{307}stanbul"),
        ("STRAẞE", "straße"),
        ("\u{a0}Levi\u{2003}", "levi"),
        ("  COHEN\t", "cohen"),
        ("sara", "sara"),
    ] {
        let id = interner.intern(ItemType::LastName, raw);
        assert_eq!(interner.value(id), want, "{raw:?}");
        assert_eq!(interner.value(id), yv_records::interner::normalize(raw), "{raw:?}");
    }
}
