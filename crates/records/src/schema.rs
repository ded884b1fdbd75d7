//! The [`Dataset`]: records, sources, the shared interner and the
//! preprocessed item bags.
//!
//! Preprocessing (Figure 9, left box) converts each record into a sorted,
//! deduplicated bag of interned items and maintains an inverted index from
//! items to the records containing them.

use crate::field::PlacePart;
use crate::interner::Interner;
use crate::item::{ItemId, ItemType};
use crate::record::{Record, RecordId};
use crate::source::{Source, SourceId};

/// A collection of victim reports ready for blocking: records, their
/// sources, the interner and per-record item bags.
#[derive(Debug, Default)]
pub struct Dataset {
    records: Vec<Record>,
    sources: Vec<Source>,
    interner: Interner,
    /// Sorted, deduplicated item bag per record (parallel to `records`).
    bags: Vec<Vec<ItemId>>,
}

impl Dataset {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source and return its id. Sources must be added before
    /// records referencing them.
    pub fn add_source(&mut self, mut source: Source) -> SourceId {
        let id = SourceId(u32::try_from(self.sources.len()).expect("source overflow"));
        source.id = id;
        self.sources.push(source);
        id
    }

    /// Add a record, computing its item bag. Panics if the record references
    /// an unknown source.
    pub fn add_record(&mut self, record: Record) -> RecordId {
        assert!(
            record.source.index() < self.sources.len(),
            "record references unregistered source {:?}",
            record.source
        );
        let bag = itemize(&record, &mut self.interner);
        let id = RecordId(u32::try_from(self.records.len()).expect("record overflow"));
        self.records.push(record);
        self.bags.push(bag);
        id
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    #[must_use]
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id.index()]
    }

    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    #[must_use]
    pub fn source(&self, id: SourceId) -> &Source {
        &self.sources[id.index()]
    }

    #[must_use]
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The sorted item bag of a record.
    #[must_use]
    pub fn bag(&self, id: RecordId) -> &[ItemId] {
        &self.bags[id.index()]
    }

    /// All item bags, indexed by record.
    #[must_use]
    pub fn bags(&self) -> &[Vec<ItemId>] {
        &self.bags
    }

    /// Iterate over record ids.
    pub fn record_ids(&self) -> impl Iterator<Item = RecordId> + '_ {
        (0..self.records.len()).map(|i| RecordId(i as u32))
    }

    /// True when two records come from the same source (the `SameSrc`
    /// discard condition of Section 6.5).
    #[must_use]
    pub fn same_source(&self, a: RecordId, b: RecordId) -> bool {
        self.record(a).source == self.record(b).source
    }

    /// Build the inverted index mapping each item to the (sorted) list of
    /// records whose bag contains it.
    #[must_use]
    pub fn inverted_index(&self) -> Vec<Vec<RecordId>> {
        let mut index = vec![Vec::new(); self.interner.len()];
        for (rid, bag) in self.bags.iter().enumerate() {
            for &item in bag {
                index[item.index()].push(RecordId(rid as u32));
            }
        }
        index
    }
}

/// Convert a record into its sorted, deduplicated item bag, interning every
/// value with the field-type prefix convention of Table 2 and registering
/// geographic coordinates for city items.
pub fn itemize(record: &Record, interner: &mut Interner) -> Vec<ItemId> {
    let mut bag = Vec::with_capacity(24);
    for name in &record.first_names {
        bag.push(interner.intern(ItemType::FirstName, name));
    }
    for name in &record.last_names {
        bag.push(interner.intern(ItemType::LastName, name));
    }
    if let Some(n) = &record.maiden_name {
        bag.push(interner.intern(ItemType::MaidenName, n));
    }
    if let Some(n) = &record.father_name {
        bag.push(interner.intern(ItemType::FatherName, n));
    }
    if let Some(n) = &record.mother_name {
        bag.push(interner.intern(ItemType::MotherFirstName, n));
    }
    if let Some(n) = &record.mothers_maiden {
        bag.push(interner.intern(ItemType::MothersMaiden, n));
    }
    if let Some(n) = &record.spouse_name {
        bag.push(interner.intern(ItemType::SpouseName, n));
    }
    if let Some(g) = record.gender {
        bag.push(interner.intern(ItemType::Gender, &g.code().to_string()));
    }
    if let Some(d) = record.birth.day {
        bag.push(interner.intern(ItemType::BirthDay, &d.to_string()));
    }
    if let Some(m) = record.birth.month {
        bag.push(interner.intern(ItemType::BirthMonth, &m.to_string()));
    }
    if let Some(y) = record.birth.year {
        bag.push(interner.intern(ItemType::BirthYear, &y.to_string()));
    }
    if let Some(p) = &record.profession {
        bag.push(interner.intern(ItemType::Profession, p));
    }
    for ty in crate::field::PlaceType::ALL {
        if let Some(place) = record.place(ty) {
            for part in PlacePart::ALL {
                if let Some(value) = place.part(part) {
                    let id = interner.intern(ItemType::Place(ty, part), value);
                    if part == PlacePart::City {
                        if let Some(coords) = place.coords {
                            interner.register_geo(id, coords);
                        }
                    }
                    bag.push(id);
                }
            }
        }
    }
    bag.sort_unstable();
    bag.dedup();
    bag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{DateParts, Gender, GeoPoint, Place, PlaceType};
    use crate::record::RecordBuilder;

    fn dataset_with_two_records() -> Dataset {
        let mut ds = Dataset::new();
        let s0 = ds.add_source(Source::list(SourceId(0), "transport list"));
        let s1 = ds.add_source(Source::testimony(SourceId(0), "Massimo", "Foa", "Cuorgne"));
        ds.add_record(
            RecordBuilder::new(1016196, s0)
                .first_name("Guido")
                .last_name("Foa")
                .gender(Gender::Male)
                .birth(DateParts::full(18, 11, 1920))
                .place(
                    PlaceType::Birth,
                    Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
                )
                .build(),
        );
        ds.add_record(
            RecordBuilder::new(1028769, s1)
                .first_name("Guido")
                .last_name("Foy")
                .gender(Gender::Male)
                .birth(DateParts::full(18, 11, 1920))
                .build(),
        );
        ds
    }

    #[test]
    fn bags_are_sorted_and_deduped() {
        let ds = dataset_with_two_records();
        for id in ds.record_ids() {
            let bag = ds.bag(id);
            assert!(bag.windows(2).all(|w| w[0] < w[1]), "bag not strictly sorted");
        }
    }

    #[test]
    fn shared_values_share_items() {
        let ds = dataset_with_two_records();
        let guido = ds.interner().get(ItemType::FirstName, "guido").unwrap();
        assert!(ds.bag(RecordId(0)).contains(&guido));
        assert!(ds.bag(RecordId(1)).contains(&guido));
    }

    #[test]
    fn inverted_index_matches_bags() {
        let ds = dataset_with_two_records();
        let idx = ds.inverted_index();
        for rid in ds.record_ids() {
            for &item in ds.bag(rid) {
                assert!(idx[item.index()].contains(&rid));
            }
        }
        let total: usize = idx.iter().map(Vec::len).sum();
        let bag_total: usize = ds.bags().iter().map(Vec::len).sum();
        assert_eq!(total, bag_total);
    }

    #[test]
    fn geo_coords_registered_for_cities() {
        let ds = dataset_with_two_records();
        let torino = ds
            .interner()
            .get(ItemType::Place(PlaceType::Birth, PlacePart::City), "torino")
            .unwrap();
        assert!(ds.interner().geo(torino).is_some());
    }

    #[test]
    fn same_source_detection() {
        let ds = dataset_with_two_records();
        assert!(!ds.same_source(RecordId(0), RecordId(1)));
        assert!(ds.same_source(RecordId(0), RecordId(0)));
    }

    #[test]
    #[should_panic(expected = "unregistered source")]
    fn unknown_source_panics() {
        let mut ds = Dataset::new();
        ds.add_record(RecordBuilder::new(1, SourceId(9)).build());
    }

    #[test]
    fn multi_valued_names_all_enter_bag() {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        let rid = ds.add_record(
            RecordBuilder::new(1, s).first_name("Yitzhak").first_name("Avram").build(),
        );
        let bag = ds.bag(rid);
        assert_eq!(bag.len(), 2);
    }
}
