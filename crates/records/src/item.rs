//! Typed items: the unit of the bag-of-items record representation.
//!
//! The paper prefixes every field value with a field reference before it
//! enters a record's item bag (`F Avraham`, `L Postel`, `G 0`, `YB 1927` —
//! Table 2). We model the prefix as an [`ItemType`] with 28 variants, one per
//! row of Table 4 (nine name/code attributes, three birth-date components and
//! 4 place types × 4 place parts), and intern `(type, value)` pairs to dense
//! [`ItemId`]s.

use crate::field::{PlacePart, PlaceType};

/// A dense identifier for an interned `(ItemType, value)` pair.
///
/// Item ids are indices into the owning [`crate::Interner`]; all mining and
/// blocking structures operate on these `u32`s rather than strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl ItemId {
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The 28 item types of the Names Project schema (rows of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemType {
    FirstName,
    LastName,
    Gender,
    MaidenName,
    MothersMaiden,
    MotherFirstName,
    Profession,
    SpouseName,
    FatherName,
    BirthDay,
    BirthMonth,
    BirthYear,
    Place(PlaceType, PlacePart),
}

impl ItemType {
    /// All 28 item types in the stable order used by pattern bitmasks and
    /// rendered tables.
    #[must_use]
    pub fn all() -> Vec<ItemType> {
        let mut v = vec![
            ItemType::FirstName,
            ItemType::LastName,
            ItemType::Gender,
            ItemType::MaidenName,
            ItemType::MothersMaiden,
            ItemType::MotherFirstName,
            ItemType::Profession,
            ItemType::SpouseName,
            ItemType::FatherName,
            ItemType::BirthDay,
            ItemType::BirthMonth,
            ItemType::BirthYear,
        ];
        for ty in PlaceType::ALL {
            for part in PlacePart::ALL {
                v.push(ItemType::Place(ty, part));
            }
        }
        v
    }

    /// Number of distinct item types.
    pub const COUNT: usize = 28;

    /// Stable dense index in `[0, COUNT)`, used as a bit position in
    /// [`crate::Pattern`] masks.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ItemType::FirstName => 0,
            ItemType::LastName => 1,
            ItemType::Gender => 2,
            ItemType::MaidenName => 3,
            ItemType::MothersMaiden => 4,
            ItemType::MotherFirstName => 5,
            ItemType::Profession => 6,
            ItemType::SpouseName => 7,
            ItemType::FatherName => 8,
            ItemType::BirthDay => 9,
            ItemType::BirthMonth => 10,
            ItemType::BirthYear => 11,
            ItemType::Place(ty, part) => 12 + ty.index() * 4 + part.index(),
        }
    }

    /// Inverse of [`ItemType::index`].
    #[must_use]
    pub fn from_index(idx: usize) -> Option<ItemType> {
        let all = Self::all();
        all.get(idx).copied()
    }

    /// The item-bag prefix, following the paper's convention where visible
    /// (`F` first name, `L` last name, `G` gender, `YB` birth year,
    /// `P1..P4` place parts) and extending it consistently elsewhere.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            ItemType::FirstName => "F",
            ItemType::LastName => "L",
            ItemType::Gender => "G",
            ItemType::MaidenName => "MN",
            ItemType::MothersMaiden => "MMN",
            ItemType::MotherFirstName => "MF",
            ItemType::Profession => "PR",
            ItemType::SpouseName => "SP",
            ItemType::FatherName => "FF",
            ItemType::BirthDay => "DB",
            ItemType::BirthMonth => "MB",
            ItemType::BirthYear => "YB",
            ItemType::Place(PlaceType::Birth, part) => ["BP1", "BP2", "BP3", "BP4"][part.index()],
            ItemType::Place(PlaceType::Permanent, part) => ["P1", "P2", "P3", "P4"][part.index()],
            ItemType::Place(PlaceType::Wartime, part) => ["WP1", "WP2", "WP3", "WP4"][part.index()],
            ItemType::Place(PlaceType::Death, part) => ["DP1", "DP2", "DP3", "DP4"][part.index()],
        }
    }

    /// Human-readable label (row headers of Table 4).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ItemType::FirstName => "First Name".to_owned(),
            ItemType::LastName => "Last Name".to_owned(),
            ItemType::Gender => "Gender".to_owned(),
            ItemType::MaidenName => "Maiden Name".to_owned(),
            ItemType::MothersMaiden => "Mother's Maiden Name".to_owned(),
            ItemType::MotherFirstName => "Mother's First Name".to_owned(),
            ItemType::Profession => "Profession".to_owned(),
            ItemType::SpouseName => "Spouse Name".to_owned(),
            ItemType::FatherName => "Father's Name".to_owned(),
            ItemType::BirthDay => "Birth Day".to_owned(),
            ItemType::BirthMonth => "Birth Month".to_owned(),
            ItemType::BirthYear => "Birth Year".to_owned(),
            ItemType::Place(ty, part) => format!("{} {}", ty.label(), part.label()),
        }
    }

    /// The coarse category used by the expert item similarity (Eq. 1) and
    /// the expert weighting scheme.
    #[must_use]
    pub fn sim_class(self) -> SimClass {
        match self {
            ItemType::FirstName
            | ItemType::LastName
            | ItemType::MaidenName
            | ItemType::MothersMaiden
            | ItemType::MotherFirstName
            | ItemType::SpouseName
            | ItemType::FatherName => SimClass::Name,
            ItemType::Gender | ItemType::Profession => SimClass::Code,
            ItemType::BirthDay => SimClass::Day,
            ItemType::BirthMonth => SimClass::Month,
            ItemType::BirthYear => SimClass::Year,
            ItemType::Place(_, PlacePart::City) => SimClass::Geo,
            ItemType::Place(_, _) => SimClass::Code,
        }
    }

    /// The aggregate attribute (rows of Table 3) this item type rolls up to.
    #[must_use]
    pub fn aggregate(self) -> AggregateType {
        match self {
            ItemType::FirstName => AggregateType::FirstName,
            ItemType::LastName => AggregateType::LastName,
            ItemType::Gender => AggregateType::Gender,
            ItemType::MaidenName => AggregateType::MaidenName,
            ItemType::MothersMaiden => AggregateType::MothersMaiden,
            ItemType::MotherFirstName => AggregateType::MotherName,
            ItemType::Profession => AggregateType::Profession,
            ItemType::SpouseName => AggregateType::SpouseName,
            ItemType::FatherName => AggregateType::FatherName,
            ItemType::BirthDay | ItemType::BirthMonth | ItemType::BirthYear => AggregateType::Dob,
            ItemType::Place(PlaceType::Birth, _) => AggregateType::BirthPlace,
            ItemType::Place(PlaceType::Permanent, _) => AggregateType::PermanentPlace,
            ItemType::Place(PlaceType::Wartime, _) => AggregateType::WartimePlace,
            ItemType::Place(PlaceType::Death, _) => AggregateType::DeathPlace,
        }
    }
}

/// Similarity class for the expert item similarity `fsim` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimClass {
    /// Compared with Jaro-Winkler.
    Name,
    /// Exact-match codes (gender, profession, non-city place parts).
    Code,
    /// `1 - |d1-d2|/31`.
    Day,
    /// `1 - monthDiff/12`.
    Month,
    /// `1 - |y1-y2|/50`.
    Year,
    /// `max(0, 1 - geoDist/100)` over registered coordinates.
    Geo,
}

/// The 14 aggregate attributes of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggregateType {
    LastName,
    FirstName,
    Gender,
    Dob,
    FatherName,
    MotherName,
    SpouseName,
    MaidenName,
    MothersMaiden,
    PermanentPlace,
    WartimePlace,
    BirthPlace,
    DeathPlace,
    Profession,
}

impl AggregateType {
    /// All aggregates in the row order of Table 3.
    pub const ALL: [AggregateType; 14] = [
        AggregateType::LastName,
        AggregateType::FirstName,
        AggregateType::Gender,
        AggregateType::Dob,
        AggregateType::FatherName,
        AggregateType::MotherName,
        AggregateType::SpouseName,
        AggregateType::MaidenName,
        AggregateType::MothersMaiden,
        AggregateType::PermanentPlace,
        AggregateType::WartimePlace,
        AggregateType::BirthPlace,
        AggregateType::DeathPlace,
        AggregateType::Profession,
    ];

    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AggregateType::LastName => "Last Name",
            AggregateType::FirstName => "First Name",
            AggregateType::Gender => "Gender",
            AggregateType::Dob => "DOB",
            AggregateType::FatherName => "Father's Name",
            AggregateType::MotherName => "Mother's Name",
            AggregateType::SpouseName => "Spouse Name",
            AggregateType::MaidenName => "Maiden Name",
            AggregateType::MothersMaiden => "Mother's Maiden",
            AggregateType::PermanentPlace => "Permanent Place",
            AggregateType::WartimePlace => "Wartime Place",
            AggregateType::BirthPlace => "Birth Place",
            AggregateType::DeathPlace => "Death Place",
            AggregateType::Profession => "Profession",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_28_item_types() {
        assert_eq!(ItemType::all().len(), ItemType::COUNT);
    }

    #[test]
    fn indices_are_a_bijection() {
        let all = ItemType::all();
        for (i, ty) in all.iter().enumerate() {
            assert_eq!(ty.index(), i, "{ty:?}");
            assert_eq!(ItemType::from_index(i), Some(*ty));
        }
        assert_eq!(ItemType::from_index(ItemType::COUNT), None);
    }

    #[test]
    fn prefixes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for ty in ItemType::all() {
            assert!(seen.insert(ty.prefix()), "duplicate prefix {}", ty.prefix());
        }
    }

    #[test]
    fn paper_prefixes_match_table2() {
        assert_eq!(ItemType::FirstName.prefix(), "F");
        assert_eq!(ItemType::LastName.prefix(), "L");
        assert_eq!(ItemType::Gender.prefix(), "G");
        assert_eq!(ItemType::BirthYear.prefix(), "YB");
        assert_eq!(ItemType::Place(PlaceType::Permanent, PlacePart::City).prefix(), "P1");
        assert_eq!(ItemType::Place(PlaceType::Permanent, PlacePart::Country).prefix(), "P4");
    }

    #[test]
    fn every_item_type_aggregates_to_a_table3_row() {
        for ty in ItemType::all() {
            assert!(AggregateType::ALL.contains(&ty.aggregate()));
        }
    }

    #[test]
    fn dob_components_share_an_aggregate() {
        assert_eq!(ItemType::BirthDay.aggregate(), AggregateType::Dob);
        assert_eq!(ItemType::BirthMonth.aggregate(), AggregateType::Dob);
        assert_eq!(ItemType::BirthYear.aggregate(), AggregateType::Dob);
    }

    #[test]
    fn sim_classes_follow_eq1() {
        assert_eq!(ItemType::FirstName.sim_class(), SimClass::Name);
        assert_eq!(ItemType::BirthYear.sim_class(), SimClass::Year);
        assert_eq!(
            ItemType::Place(PlaceType::Birth, PlacePart::City).sim_class(),
            SimClass::Geo
        );
        assert_eq!(
            ItemType::Place(PlaceType::Birth, PlacePart::Country).sim_class(),
            SimClass::Code
        );
    }
}
