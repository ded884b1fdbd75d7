//! The victim-report record and its builder.

use crate::field::{DateParts, Gender, Place, PlaceType};
use crate::item::AggregateType;
use crate::source::SourceId;

/// Dense identifier of a record within a [`crate::Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

impl RecordId {
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One victim report, mirroring the central entity of the Names Project ERD
/// (Figure 3). First and last names are multi-valued (a person may be
/// reported under several first names or transliterations); the remaining
/// name attributes are single-valued in the schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Sequential BookID assigned on database entry.
    pub book_id: u64,
    /// The source this report came from.
    pub source: SourceId,
    pub first_names: Vec<String>,
    pub last_names: Vec<String>,
    pub maiden_name: Option<String>,
    pub father_name: Option<String>,
    pub mother_name: Option<String>,
    pub mothers_maiden: Option<String>,
    pub spouse_name: Option<String>,
    pub gender: Option<Gender>,
    pub birth: DateParts,
    pub profession: Option<String>,
    /// Places indexed by [`PlaceType::index`].
    pub places: [Option<Place>; 4],
}

impl Record {
    /// Access the place of a given type.
    #[must_use]
    pub fn place(&self, ty: PlaceType) -> Option<&Place> {
        self.places[ty.index()].as_ref()
    }

    /// True if the record carries any value for the aggregate attribute
    /// (used to compute the prevalence columns of Table 3).
    #[must_use]
    pub fn has_aggregate(&self, agg: AggregateType) -> bool {
        match agg {
            AggregateType::FirstName => !self.first_names.is_empty(),
            AggregateType::LastName => !self.last_names.is_empty(),
            AggregateType::Gender => self.gender.is_some(),
            AggregateType::Dob => !self.birth.is_empty(),
            AggregateType::FatherName => self.father_name.is_some(),
            AggregateType::MotherName => self.mother_name.is_some(),
            AggregateType::SpouseName => self.spouse_name.is_some(),
            AggregateType::MaidenName => self.maiden_name.is_some(),
            AggregateType::MothersMaiden => self.mothers_maiden.is_some(),
            AggregateType::PermanentPlace => self.place(PlaceType::Permanent).is_some_and(|p| !p.is_empty()),
            AggregateType::WartimePlace => self.place(PlaceType::Wartime).is_some_and(|p| !p.is_empty()),
            AggregateType::BirthPlace => self.place(PlaceType::Birth).is_some_and(|p| !p.is_empty()),
            AggregateType::DeathPlace => self.place(PlaceType::Death).is_some_and(|p| !p.is_empty()),
            AggregateType::Profession => self.profession.is_some(),
        }
    }
}

/// Fluent builder for [`Record`]s, used by the generator and by tests.
///
/// ```
/// use yv_records::{RecordBuilder, Gender, DateParts, PlaceType, Place, GeoPoint, SourceId};
///
/// let record = RecordBuilder::new(1016196, SourceId(0))
///     .first_name("Guido")
///     .last_name("Foa")
///     .gender(Gender::Male)
///     .birth(DateParts::full(2, 8, 1936))
///     .mother_name("Estela")
///     .father_name("Italo")
///     .place(PlaceType::Birth, Place::full("Torino", "Torino", "Piemonte", "Italy",
///         GeoPoint::new(45.07, 7.69)))
///     .build();
/// assert_eq!(record.first_names, vec!["Guido".to_owned()]);
/// ```
#[derive(Debug, Default)]
pub struct RecordBuilder {
    record: Record,
}

impl RecordBuilder {
    #[must_use]
    pub fn new(book_id: u64, source: SourceId) -> Self {
        RecordBuilder { record: Record { book_id, source, ..Record::default() } }
    }

    #[must_use]
    pub fn first_name(mut self, name: impl Into<String>) -> Self {
        self.record.first_names.push(name.into());
        self
    }

    #[must_use]
    pub fn last_name(mut self, name: impl Into<String>) -> Self {
        self.record.last_names.push(name.into());
        self
    }

    #[must_use]
    pub fn maiden_name(mut self, name: impl Into<String>) -> Self {
        self.record.maiden_name = Some(name.into());
        self
    }

    #[must_use]
    pub fn father_name(mut self, name: impl Into<String>) -> Self {
        self.record.father_name = Some(name.into());
        self
    }

    #[must_use]
    pub fn mother_name(mut self, name: impl Into<String>) -> Self {
        self.record.mother_name = Some(name.into());
        self
    }

    #[must_use]
    pub fn mothers_maiden(mut self, name: impl Into<String>) -> Self {
        self.record.mothers_maiden = Some(name.into());
        self
    }

    #[must_use]
    pub fn spouse_name(mut self, name: impl Into<String>) -> Self {
        self.record.spouse_name = Some(name.into());
        self
    }

    #[must_use]
    pub fn gender(mut self, g: Gender) -> Self {
        self.record.gender = Some(g);
        self
    }

    #[must_use]
    pub fn birth(mut self, d: DateParts) -> Self {
        self.record.birth = d;
        self
    }

    #[must_use]
    pub fn profession(mut self, p: impl Into<String>) -> Self {
        self.record.profession = Some(p.into());
        self
    }

    #[must_use]
    pub fn place(mut self, ty: PlaceType, place: Place) -> Self {
        self.record.places[ty.index()] = Some(place);
        self
    }

    #[must_use]
    pub fn build(self) -> Record {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GeoPoint;

    fn guido() -> Record {
        RecordBuilder::new(1016196, SourceId(3))
            .first_name("Guido")
            .last_name("Foa")
            .gender(Gender::Male)
            .birth(DateParts::full(2, 8, 1936))
            .mother_name("Estela")
            .father_name("Italo")
            .place(
                PlaceType::Birth,
                Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build()
    }

    #[test]
    fn builder_populates_fields() {
        let r = guido();
        assert_eq!(r.book_id, 1016196);
        assert_eq!(r.source, SourceId(3));
        assert_eq!(r.gender, Some(Gender::Male));
        assert_eq!(r.father_name.as_deref(), Some("Italo"));
        assert!(r.place(PlaceType::Birth).is_some());
        assert!(r.place(PlaceType::Death).is_none());
    }

    #[test]
    fn aggregates_reflect_presence() {
        let r = guido();
        assert!(r.has_aggregate(AggregateType::FirstName));
        assert!(r.has_aggregate(AggregateType::Dob));
        assert!(r.has_aggregate(AggregateType::BirthPlace));
        assert!(!r.has_aggregate(AggregateType::SpouseName));
        assert!(!r.has_aggregate(AggregateType::DeathPlace));
        assert!(!r.has_aggregate(AggregateType::Profession));
    }

    #[test]
    fn empty_place_does_not_count_as_present() {
        let r = RecordBuilder::new(1, SourceId(0))
            .place(PlaceType::Death, Place::default())
            .build();
        assert!(!r.has_aggregate(AggregateType::DeathPlace));
    }

    #[test]
    fn multi_valued_first_names() {
        let r = RecordBuilder::new(1, SourceId(0))
            .first_name("Yitzhak")
            .first_name("Avram")
            .build();
        assert_eq!(r.first_names.len(), 2);
    }
}
