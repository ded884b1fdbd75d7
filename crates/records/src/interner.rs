//! String interning for typed items.
//!
//! Items are `(ItemType, normalized value)` pairs. The interner assigns each
//! distinct pair a dense [`ItemId`] so the FP-Growth miner and blocking
//! structures can work with `u32`s, and keeps per-item metadata: the item
//! type, the value, a global occurrence count (used for frequent-item
//! pruning, Section 6.3) and — for city items — registered geographic
//! coordinates consumed by the `Geo` branch of Eq. 1.

use crate::field::GeoPoint;
use crate::item::{ItemId, ItemType};
use std::collections::HashMap;

/// Per-item metadata stored by the interner.
#[derive(Debug, Clone)]
struct ItemMeta {
    ty: ItemType,
    value: String,
    occurrences: u64,
    geo: Option<GeoPoint>,
}

/// An append-only dictionary of typed items.
#[derive(Debug, Default)]
pub struct Interner {
    /// `lookup[ty.index()]`: normalized value → id. One map per item type,
    /// keyed by `Box<str>`, so a hit is looked up by `&str` and builds no
    /// key.
    lookup: [HashMap<Box<str>, ItemId>; ItemType::COUNT],
    items: Vec<ItemMeta>,
    /// Normalization buffer of [`Interner::intern`], reused across calls.
    scratch: String,
}

impl Interner {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a value under an item type, normalizing case and surrounding
    /// whitespace ([`normalize`]). Repeated interning increments the
    /// occurrence count. A hit on an ASCII value allocates nothing.
    pub fn intern(&mut self, ty: ItemType, value: &str) -> ItemId {
        let norm = normalized(value, &mut self.scratch);
        let lookup = &mut self.lookup[ty.index()];
        if let Some(&id) = lookup.get(norm) {
            self.items[id.index()].occurrences += 1;
            return id;
        }
        let id = ItemId(u32::try_from(self.items.len()).expect("interner overflow"));
        self.items.push(ItemMeta { ty, value: norm.to_owned(), occurrences: 1, geo: None });
        lookup.insert(norm.into(), id);
        id
    }

    /// Look an item up without inserting.
    #[must_use]
    pub fn get(&self, ty: ItemType, value: &str) -> Option<ItemId> {
        self.lookup[ty.index()].get(normalized(value, &mut String::new())).copied()
    }

    /// Attach geographic coordinates to an item (idempotent; the first
    /// registration wins, matching the Names Project's one-coordinate-per-
    /// place-code model).
    pub fn register_geo(&mut self, id: ItemId, point: GeoPoint) {
        let meta = &mut self.items[id.index()];
        if meta.geo.is_none() {
            meta.geo = Some(point);
        }
    }

    /// Coordinates registered for an item, if any.
    #[must_use]
    pub fn geo(&self, id: ItemId) -> Option<GeoPoint> {
        self.items.get(id.index()).and_then(|m| m.geo)
    }

    /// The item type of an interned item.
    #[must_use]
    pub fn item_type(&self, id: ItemId) -> ItemType {
        self.items[id.index()].ty
    }

    /// The normalized value of an interned item.
    #[must_use]
    pub fn value(&self, id: ItemId) -> &str {
        &self.items[id.index()].value
    }

    /// The number of times an item was interned (its global occurrence
    /// count across all records).
    #[must_use]
    pub fn occurrences(&self, id: ItemId) -> u64 {
        self.items[id.index()].occurrences
    }

    /// Render an item in the paper's prefixed form, e.g. `F avraham`.
    #[must_use]
    pub fn display(&self, id: ItemId) -> String {
        let meta = &self.items[id.index()];
        format!("{} {}", meta.ty.prefix(), meta.value)
    }

    /// Number of distinct interned items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over all item ids.
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.items.len()).map(|i| ItemId(i as u32))
    }

    /// Distinct item count per item type (the "Items" column of Table 4).
    #[must_use]
    pub fn cardinality(&self, ty: ItemType) -> usize {
        self.items.iter().filter(|m| m.ty == ty).count()
    }
}

/// Normalization applied to every value before interning: trim and
/// lowercase. The Names Project preprocesses misspellings and synonyms into
/// equivalence classes (Section 2); case folding is the residual
/// normalization we must do ourselves.
#[must_use]
pub fn normalize(value: &str) -> String {
    value.trim().to_lowercase()
}

/// [`normalize`] without the `String` where it can: [`lowercased`], trimmed.
fn normalized<'a>(value: &'a str, buf: &'a mut String) -> &'a str {
    lowercased(value.trim(), buf)
}

/// `value.to_lowercase()` without the `String` where it can: an ASCII
/// value that is already lowercase is returned as is, other ASCII is
/// lowercased into `buf`, and only non-ASCII goes through
/// `str::to_lowercase`, which knows the context rules (a final capital
/// sigma) a per-char map does not.
pub fn lowercased<'a>(value: &'a str, buf: &'a mut String) -> &'a str {
    if !value.is_ascii() {
        *buf = value.to_lowercase();
    } else if value.bytes().any(|b| b.is_ascii_uppercase()) {
        buf.clear();
        buf.push_str(value);
        buf.make_ascii_lowercase();
    } else {
        return value;
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_counts() {
        let mut it = Interner::new();
        let a = it.intern(ItemType::FirstName, "Guido");
        let b = it.intern(ItemType::FirstName, "guido ");
        assert_eq!(a, b);
        assert_eq!(it.occurrences(a), 2);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn same_value_different_type_is_distinct() {
        let mut it = Interner::new();
        let f = it.intern(ItemType::FirstName, "Foa");
        let l = it.intern(ItemType::LastName, "Foa");
        assert_ne!(f, l);
        assert_eq!(it.item_type(f), ItemType::FirstName);
        assert_eq!(it.item_type(l), ItemType::LastName);
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = Interner::new();
        assert_eq!(it.get(ItemType::LastName, "Foa"), None);
        let id = it.intern(ItemType::LastName, "Foa");
        assert_eq!(it.get(ItemType::LastName, "FOA"), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn geo_registration_first_wins() {
        let mut it = Interner::new();
        let id = it.intern(ItemType::Place(crate::PlaceType::Birth, crate::field::PlacePart::City), "Torino");
        assert_eq!(it.geo(id), None);
        it.register_geo(id, GeoPoint::new(45.07, 7.69));
        it.register_geo(id, GeoPoint::new(0.0, 0.0));
        let g = it.geo(id).unwrap();
        assert!((g.lat - 45.07).abs() < 1e-9);
    }

    #[test]
    fn display_uses_prefix() {
        let mut it = Interner::new();
        let id = it.intern(ItemType::FirstName, "Avraham");
        assert_eq!(it.display(id), "F avraham");
    }

    #[test]
    fn cardinality_counts_per_type() {
        let mut it = Interner::new();
        it.intern(ItemType::FirstName, "a");
        it.intern(ItemType::FirstName, "b");
        it.intern(ItemType::LastName, "a");
        assert_eq!(it.cardinality(ItemType::FirstName), 2);
        assert_eq!(it.cardinality(ItemType::LastName), 1);
        assert_eq!(it.cardinality(ItemType::Gender), 0);
    }
}
