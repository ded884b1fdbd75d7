//! Field value types shared by records: gender, date components, places and
//! geographic coordinates.


/// Victim gender as recorded on the report.
///
/// The Names Project encodes gender as a code (`G 0` / `G 1` in the item-bag
/// sample of Table 2). `Unknown` models reports where the field is missing —
/// about 12% of the full dataset per Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    Male,
    Female,
}

impl Gender {
    /// The numeric code used in item bags (`0` = male, `1` = female).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Gender::Male => 0,
            Gender::Female => 1,
        }
    }

    /// Parse the numeric code back into a gender.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Gender::Male),
            1 => Some(Gender::Female),
            _ => None,
        }
    }
}

/// Birth-date components, each independently optional.
///
/// Many sources record only a year (`YB 1927` in Table 2); the feature
/// extractor (Section 5.1, `BXDist`) therefore measures per-component
/// distances normalized by 31 (days), 12 (months) and 100 (years).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DateParts {
    pub day: Option<u8>,
    pub month: Option<u8>,
    pub year: Option<i32>,
}

impl DateParts {
    /// A date with all three components present.
    #[must_use]
    pub fn full(day: u8, month: u8, year: i32) -> Self {
        DateParts { day: Some(day), month: Some(month), year: Some(year) }
    }

    /// A date with only the year known.
    #[must_use]
    pub fn year_only(year: i32) -> Self {
        DateParts { day: None, month: None, year: Some(year) }
    }

    /// True when no component is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.day.is_none() && self.month.is_none() && self.year.is_none()
    }
}

/// A geographic coordinate (decimal degrees) attached to a place.
///
/// The Names Project database stores GPS coordinates per place (Figure 3);
/// the `PlaceXGeoDistance` features and the `Geo` branch of the expert item
/// similarity (Eq. 1) measure great-circle distance in kilometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    pub lat: f64,
    pub lon: f64,
}

impl GeoPoint {
    #[must_use]
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }
}

/// The four typed places a victim report may carry.
///
/// Schema reconciliation at Yad Vashem established reliable semantics for
/// these attributes, so places are *never* compared across types (a birth
/// place is never matched against a permanent residence — Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlaceType {
    Birth,
    Permanent,
    Wartime,
    Death,
}

impl PlaceType {
    pub const ALL: [PlaceType; 4] =
        [PlaceType::Birth, PlaceType::Permanent, PlaceType::Wartime, PlaceType::Death];

    /// Stable index into per-record place arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PlaceType::Birth => 0,
            PlaceType::Permanent => 1,
            PlaceType::Wartime => 2,
            PlaceType::Death => 3,
        }
    }

    /// Short label used in rendered tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlaceType::Birth => "Birth",
            PlaceType::Permanent => "Perm.",
            PlaceType::Wartime => "War",
            PlaceType::Death => "Death",
        }
    }
}

/// The four hierarchical parts of a place, from most to least specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlacePart {
    City,
    County,
    Region,
    Country,
}

impl PlacePart {
    pub const ALL: [PlacePart; 4] =
        [PlacePart::City, PlacePart::County, PlacePart::Region, PlacePart::Country];

    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PlacePart::City => 0,
            PlacePart::County => 1,
            PlacePart::Region => 2,
            PlacePart::Country => 3,
        }
    }

    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlacePart::City => "City",
            PlacePart::County => "County",
            PlacePart::Region => "Region",
            PlacePart::Country => "Country",
        }
    }
}

/// One typed place with its four optional parts and optional coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Place {
    pub city: Option<String>,
    pub county: Option<String>,
    pub region: Option<String>,
    pub country: Option<String>,
    pub coords: Option<GeoPoint>,
}

impl Place {
    /// A place with every part filled, as produced by the generator for
    /// fully-specified sources.
    #[must_use]
    pub fn full(
        city: impl Into<String>,
        county: impl Into<String>,
        region: impl Into<String>,
        country: impl Into<String>,
        coords: GeoPoint,
    ) -> Self {
        Place {
            city: Some(city.into()),
            county: Some(county.into()),
            region: Some(region.into()),
            country: Some(country.into()),
            coords: Some(coords),
        }
    }

    /// Access one part by its [`PlacePart`] selector.
    #[must_use]
    pub fn part(&self, part: PlacePart) -> Option<&str> {
        match part {
            PlacePart::City => self.city.as_deref(),
            PlacePart::County => self.county.as_deref(),
            PlacePart::Region => self.region.as_deref(),
            PlacePart::Country => self.country.as_deref(),
        }
    }

    /// Set one part by its selector (used when corrupting generated data).
    pub fn set_part(&mut self, part: PlacePart, value: Option<String>) {
        match part {
            PlacePart::City => self.city = value,
            PlacePart::County => self.county = value,
            PlacePart::Region => self.region = value,
            PlacePart::Country => self.country = value,
        }
    }

    /// True when no part is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.city.is_none() && self.county.is_none() && self.region.is_none() && self.country.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gender_codes_round_trip() {
        for g in [Gender::Male, Gender::Female] {
            assert_eq!(Gender::from_code(g.code()), Some(g));
        }
        assert_eq!(Gender::from_code(7), None);
    }

    #[test]
    fn date_parts_emptiness() {
        assert!(DateParts::default().is_empty());
        assert!(!DateParts::year_only(1920).is_empty());
        let d = DateParts::full(18, 11, 1920);
        assert_eq!(d.day, Some(18));
        assert_eq!(d.month, Some(11));
        assert_eq!(d.year, Some(1920));
    }

    #[test]
    fn place_part_round_trip() {
        let mut p = Place::default();
        assert!(p.is_empty());
        p.set_part(PlacePart::City, Some("Torino".to_owned()));
        assert_eq!(p.part(PlacePart::City), Some("Torino"));
        assert_eq!(p.part(PlacePart::Country), None);
        assert!(!p.is_empty());
        p.set_part(PlacePart::City, None);
        assert!(p.is_empty());
    }

    #[test]
    fn place_full_fills_all_parts() {
        let p = Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69));
        for part in PlacePart::ALL {
            assert!(p.part(part).is_some(), "{part:?} missing");
        }
        assert!(p.coords.is_some());
    }

    #[test]
    fn place_type_indices_are_distinct_and_dense() {
        let mut seen = [false; 4];
        for t in PlaceType::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
