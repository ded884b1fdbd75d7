//! Narrative construction — the project's end goal (Section 1: "a
//! stepping stone towards automatically creating narratives for each
//! entity in the database").
//!
//! Given a resolved entity (a set of records believed to describe one
//! person), this module merges the records into a consolidated
//! [`PersonProfile`] and renders a short textual narrative. Conflicts
//! between sources are not hidden: every merged attribute keeps the count
//! of supporting records, and disagreeing values are listed side by side —
//! the uncertain-ER philosophy carried into the narrative layer.

use std::collections::BTreeMap;
use yv_records::{Dataset, Gender, PlaceType, RecordId};

/// One consolidated attribute value with its support (how many of the
/// entity's records assert it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attested<T> {
    pub value: T,
    pub support: usize,
}

/// A consolidated view of one entity. Multi-valued where the sources
/// disagree, ordered by support (best-attested first).
#[derive(Debug, Clone, Default)]
pub struct PersonProfile {
    pub records: Vec<RecordId>,
    pub first_names: Vec<Attested<String>>,
    pub last_names: Vec<Attested<String>>,
    pub father_names: Vec<Attested<String>>,
    pub mother_names: Vec<Attested<String>>,
    pub spouse_names: Vec<Attested<String>>,
    pub birth_years: Vec<Attested<i32>>,
    pub genders: Vec<Attested<Gender>>,
    pub birth_places: Vec<Attested<String>>,
    pub permanent_places: Vec<Attested<String>>,
    pub wartime_places: Vec<Attested<String>>,
    pub death_places: Vec<Attested<String>>,
    pub professions: Vec<Attested<String>>,
}

fn tally(values: impl Iterator<Item = String>) -> Vec<Attested<String>> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v.to_lowercase()).or_insert(0) += 1;
    }
    let mut out: Vec<Attested<String>> =
        counts.into_iter().map(|(value, support)| Attested { value, support }).collect();
    out.sort_by(|a, b| b.support.cmp(&a.support).then(a.value.cmp(&b.value)));
    out
}

impl PersonProfile {
    /// Merge an entity's records into a profile.
    #[must_use]
    pub fn build(ds: &Dataset, entity: &[RecordId]) -> PersonProfile {
        let records: Vec<&yv_records::Record> =
            entity.iter().map(|&r| ds.record(r)).collect();
        let place_values = |ty: PlaceType| {
            tally(
                records
                    .iter()
                    .filter_map(|r| r.place(ty).and_then(|p| p.city.clone())),
            )
        };
        let mut year_counts: BTreeMap<i32, usize> = BTreeMap::new();
        let mut gender_counts: BTreeMap<u8, usize> = BTreeMap::new();
        for r in &records {
            if let Some(y) = r.birth.year {
                *year_counts.entry(y).or_insert(0) += 1;
            }
            if let Some(g) = r.gender {
                *gender_counts.entry(g.code()).or_insert(0) += 1;
            }
        }
        let mut birth_years: Vec<Attested<i32>> =
            year_counts.into_iter().map(|(value, support)| Attested { value, support }).collect();
        birth_years.sort_by(|a, b| b.support.cmp(&a.support).then(a.value.cmp(&b.value)));
        let mut genders: Vec<Attested<Gender>> = gender_counts
            .into_iter()
            .filter_map(|(code, support)| {
                Gender::from_code(code).map(|value| Attested { value, support })
            })
            .collect();
        genders.sort_by_key(|a| std::cmp::Reverse(a.support));

        PersonProfile {
            records: entity.to_vec(),
            first_names: tally(records.iter().flat_map(|r| r.first_names.clone())),
            last_names: tally(records.iter().flat_map(|r| r.last_names.clone())),
            father_names: tally(records.iter().filter_map(|r| r.father_name.clone())),
            mother_names: tally(records.iter().filter_map(|r| r.mother_name.clone())),
            spouse_names: tally(records.iter().filter_map(|r| r.spouse_name.clone())),
            birth_years,
            genders,
            birth_places: place_values(PlaceType::Birth),
            permanent_places: place_values(PlaceType::Permanent),
            wartime_places: place_values(PlaceType::Wartime),
            death_places: place_values(PlaceType::Death),
            professions: tally(records.iter().filter_map(|r| r.profession.clone())),
        }
    }

    /// Best-attested display name ("guido foa"), when any name exists.
    #[must_use]
    pub fn display_name(&self) -> Option<String> {
        match (self.first_names.first(), self.last_names.first()) {
            (Some(f), Some(l)) => Some(format!("{} {}", f.value, l.value)),
            (Some(f), None) => Some(f.value.clone()),
            (None, Some(l)) => Some(l.value.clone()),
            (None, None) => None,
        }
    }

    /// True when sources disagree on an attribute (more than one attested
    /// value) — the narrative surfaces these rather than suppressing them.
    #[must_use]
    pub fn has_conflicts(&self) -> bool {
        self.last_names.len() > 1
            || self.birth_years.len() > 1
            || self.genders.len() > 1
            || self.death_places.len() > 1
    }

    /// Render a short narrative paragraph in the spirit of the Guido Foa
    /// story of Section 1.
    #[must_use]
    pub fn narrative(&self) -> String {
        let mut out = String::new();
        let name = self.display_name().unwrap_or_else(|| "an unnamed victim".to_owned());
        out.push_str(&format!(
            "{} is attested by {} report(s).",
            capitalize(&name),
            self.records.len()
        ));
        if let Some(year) = self.birth_years.first() {
            out.push_str(&format!(" Born {}", year.value));
            if let Some(bp) = self.birth_places.first() {
                out.push_str(&format!(" in {}", capitalize(&bp.value)));
            }
            out.push('.');
        }
        if let Some(father) = self.father_names.first() {
            out.push_str(&format!(" Child of {}", capitalize(&father.value)));
            if let Some(mother) = self.mother_names.first() {
                out.push_str(&format!(" and {}", capitalize(&mother.value)));
            }
            out.push('.');
        }
        if let Some(spouse) = self.spouse_names.first() {
            out.push_str(&format!(" Married to {}.", capitalize(&spouse.value)));
        }
        if let Some(home) = self.permanent_places.first() {
            out.push_str(&format!(" Lived in {}.", capitalize(&home.value)));
        }
        if let Some(death) = self.death_places.first() {
            out.push_str(&format!(" Perished in {}.", capitalize(&death.value)));
        }
        if self.has_conflicts() {
            out.push_str(" [Sources disagree on some details");
            if self.birth_years.len() > 1 {
                let years: Vec<String> =
                    self.birth_years.iter().map(|y| y.value.to_string()).collect();
                out.push_str(&format!("; birth year variously {}", years.join(", ")));
            }
            if self.last_names.len() > 1 {
                let names: Vec<String> =
                    self.last_names.iter().map(|n| capitalize(&n.value)).collect();
                out.push_str(&format!("; surname recorded as {}", names.join(" / ")));
            }
            out.push_str(".]");
        }
        out
    }
}

fn capitalize(s: &str) -> String {
    s.split_whitespace()
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().chain(chars).collect::<String>(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{DateParts, GeoPoint, Place, RecordBuilder, Source, SourceId};

    /// The three Guido Foa reports of Table 1 (1920-born person: records 1
    /// and 2).
    fn guido_entity() -> (Dataset, Vec<RecordId>) {
        let mut ds = Dataset::new();
        let s0 = ds.add_source(Source::list(SourceId(0), "a"));
        let s1 = ds.add_source(Source::list(SourceId(0), "b"));
        let turin =
            Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69));
        ds.add_record(
            RecordBuilder::new(1_059_654, s0)
                .first_name("Guido")
                .last_name("Foa")
                .gender(Gender::Male)
                .birth(DateParts::full(18, 11, 1920))
                .place(PlaceType::Birth, turin.clone())
                .place(PlaceType::Permanent, turin.clone())
                .place(
                    PlaceType::Death,
                    Place { city: Some("Auschwitz".into()), ..Place::default() },
                )
                .spouse_name("Helena")
                .mother_name("Olga")
                .father_name("Donato")
                .build(),
        );
        ds.add_record(
            RecordBuilder::new(1_028_769, s1)
                .first_name("Guido")
                .last_name("Foy")
                .gender(Gender::Male)
                .birth(DateParts::full(18, 11, 1920))
                .place(PlaceType::Birth, turin)
                .mother_name("Olga")
                .father_name("Donato")
                .build(),
        );
        (ds, vec![RecordId(0), RecordId(1)])
    }

    #[test]
    fn profile_merges_with_support_counts() {
        let (ds, entity) = guido_entity();
        let profile = PersonProfile::build(&ds, &entity);
        assert_eq!(profile.display_name().as_deref(), Some("guido foa"));
        assert_eq!(profile.first_names[0].support, 2);
        // Surname conflict: foa (1) vs foy (1), alphabetical tiebreak.
        assert_eq!(profile.last_names.len(), 2);
        assert_eq!(profile.father_names[0].value, "donato");
        assert_eq!(profile.birth_years[0].value, 1920);
        assert!(profile.has_conflicts());
    }

    #[test]
    fn narrative_mentions_the_key_facts() {
        let (ds, entity) = guido_entity();
        let profile = PersonProfile::build(&ds, &entity);
        let text = profile.narrative();
        assert!(text.contains("Guido Foa"), "{text}");
        assert!(text.contains("1920"), "{text}");
        assert!(text.contains("Donato"), "{text}");
        assert!(text.contains("Olga"), "{text}");
        assert!(text.contains("Auschwitz"), "{text}");
        assert!(text.contains("disagree"), "conflicts must be surfaced: {text}");
    }

    #[test]
    fn empty_entity_yields_empty_artifacts() {
        let ds = Dataset::new();
        let profile = PersonProfile::build(&ds, &[]);
        assert_eq!(profile.display_name(), None);
        assert!(profile.narrative().to_lowercase().contains("unnamed victim"));
    }

    #[test]
    fn single_record_has_no_conflicts() {
        let (ds, entity) = guido_entity();
        let profile = PersonProfile::build(&ds, &entity[..1]);
        assert!(!profile.has_conflicts());
        assert!(!profile.narrative().contains("disagree"));
    }
}
