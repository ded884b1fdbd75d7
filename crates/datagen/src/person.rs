//! Ground-truth persons and families.
//!
//! Persons are generated in family units (two parents and 0–5 children)
//! sharing a surname and places — the structure behind the paper's
//! family-granularity discussion (the Capelluto children of Figure 13 are
//! false positives for *person* resolution but true positives for *family*
//! resolution).

use crate::names;
use crate::places::{self, GazetteerEntry};
use crate::sets::Region;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use yv_records::{DateParts, Gender};

/// Ground-truth identifier of a person.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PersonId(pub u64);

/// Ground-truth identifier of a family unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FamilyId(pub u64);

/// A ground-truth person: the "real" individual that victim reports
/// describe, with complete attributes (reports will observe noisy,
/// incomplete projections of this).
#[derive(Debug, Clone)]
pub struct Person {
    pub id: PersonId,
    pub family: FamilyId,
    pub region: Region,
    pub gender: Gender,
    pub first_name: String,
    pub last_name: String,
    /// For married women: the family name before marriage.
    pub maiden_name: Option<String>,
    pub father_name: Option<String>,
    pub mother_name: Option<String>,
    pub mothers_maiden: Option<String>,
    pub spouse_name: Option<String>,
    pub birth: DateParts,
    pub profession: Option<String>,
    pub birth_place: GazetteerEntry,
    pub permanent_place: GazetteerEntry,
    pub wartime_place: GazetteerEntry,
    pub death_place: GazetteerEntry,
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool.choose(rng).expect("pool is non-empty")
}

/// Generate `n_families` family units in a region, returning the persons
/// flattened. `next_ids` supplies globally unique person/family counters.
pub fn generate_families(
    rng: &mut StdRng,
    region: Region,
    n_families: usize,
    next_person: &mut u64,
    next_family: &mut u64,
) -> Vec<Person> {
    let mut persons = Vec::new();
    for _ in 0..n_families {
        let family = FamilyId(*next_family);
        *next_family += 1;
        let residences = places::residences(region);
        let home = *residences.choose(rng).expect("gazetteer non-empty");
        let wartime = if rng.gen_bool(0.7) {
            home
        } else {
            *residences.choose(rng).expect("gazetteer non-empty")
        };
        let death = *places::DEATH_PLACES.choose(rng).expect("death places non-empty");
        let surname = pick(rng, names::last_names(region)).to_owned();
        let father_first = pick(rng, names::male_first_names(region)).to_owned();
        let mother_first = pick(rng, names::female_first_names(region)).to_owned();
        let mother_maiden = pick(rng, names::last_names(region)).to_owned();
        let grandfather = pick(rng, names::male_first_names(region)).to_owned();
        let grandmother = pick(rng, names::female_first_names(region)).to_owned();

        // Father.
        let father_birth_year = rng.gen_range(1880..1915);
        persons.push(Person {
            id: PersonId(alloc(next_person)),
            family,
            region,
            gender: Gender::Male,
            first_name: father_first.clone(),
            last_name: surname.clone(),
            maiden_name: None,
            father_name: Some(grandfather.clone()),
            mother_name: Some(grandmother.clone()),
            mothers_maiden: rng.gen_bool(0.6).then(|| pick(rng, names::last_names(region)).to_owned()),
            spouse_name: Some(mother_first.clone()),
            birth: random_birth(rng, father_birth_year),
            profession: Some(pick(rng, names::PROFESSIONS).to_owned()),
            birth_place: *residences.choose(rng).expect("gazetteer"),
            permanent_place: home,
            wartime_place: wartime,
            death_place: death,
        });

        // Mother (takes the family surname; keeps a maiden name).
        persons.push(Person {
            id: PersonId(alloc(next_person)),
            family,
            region,
            gender: Gender::Female,
            first_name: mother_first.clone(),
            last_name: surname.clone(),
            maiden_name: Some(mother_maiden.clone()),
            father_name: Some(pick(rng, names::male_first_names(region)).to_owned()),
            mother_name: Some(pick(rng, names::female_first_names(region)).to_owned()),
            mothers_maiden: rng.gen_bool(0.6).then(|| pick(rng, names::last_names(region)).to_owned()),
            spouse_name: Some(father_first.clone()),
            birth: {
                let offset = rng.gen_range(0..8);
                random_birth(rng, father_birth_year + offset)
            },
            profession: rng.gen_bool(0.5).then(|| pick(rng, names::PROFESSIONS).to_owned()),
            birth_place: *residences.choose(rng).expect("gazetteer"),
            permanent_place: home,
            wartime_place: wartime,
            death_place: death,
        });

        // Children: share surname, father/mother names and places.
        let n_children = rng.gen_range(0..=5);
        for _ in 0..n_children {
            let gender = if rng.gen_bool(0.5) { Gender::Male } else { Gender::Female };
            let first = match gender {
                Gender::Male => pick(rng, names::male_first_names(region)),
                Gender::Female => pick(rng, names::female_first_names(region)),
            }
            .to_owned();
            let child_birth_year = father_birth_year + rng.gen_range(20..40);
            persons.push(Person {
                id: PersonId(alloc(next_person)),
                family,
                region,
                gender,
                first_name: first,
                last_name: surname.clone(),
                maiden_name: None,
                father_name: Some(father_first.clone()),
                mother_name: Some(mother_first.clone()),
                mothers_maiden: Some(mother_maiden.clone()),
                spouse_name: None,
                birth: random_birth(rng, child_birth_year),
                profession: if child_birth_year < 1925 && rng.gen_bool(0.5) {
                    Some(pick(rng, names::PROFESSIONS).to_owned())
                } else {
                    None
                },
                birth_place: home,
                permanent_place: home,
                wartime_place: wartime,
                death_place: death,
            });
        }
    }
    persons
}

fn alloc(counter: &mut u64) -> u64 {
    let v = *counter;
    *counter += 1;
    v
}

fn random_birth(rng: &mut StdRng, year: i32) -> DateParts {
    DateParts::full(rng.gen_range(1..=28), rng.gen_range(1..=12), year)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen(seed: u64, families: usize) -> Vec<Person> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut p, mut f) = (0, 0);
        generate_families(&mut rng, Region::Italy, families, &mut p, &mut f)
    }

    #[test]
    fn families_share_surname_and_places() {
        let persons = gen(42, 10);
        let mut by_family: std::collections::HashMap<FamilyId, Vec<&Person>> = Default::default();
        for p in &persons {
            by_family.entry(p.family).or_default().push(p);
        }
        assert_eq!(by_family.len(), 10);
        #[allow(
            clippy::iter_over_hash_type,
            reason = "asserts the same thing about every family; nothing is emitted"
        )]
        for members in by_family.values() {
            assert!(members.len() >= 2, "at least both parents");
            let surname = &members[0].last_name;
            assert!(members.iter().all(|m| &m.last_name == surname));
            let home = members[0].permanent_place.city;
            assert!(members.iter().all(|m| m.permanent_place.city == home));
        }
    }

    #[test]
    fn children_reference_their_parents() {
        let persons = gen(7, 20);
        let parents: Vec<&Person> = persons.iter().filter(|p| p.spouse_name.is_some()).collect();
        let children: Vec<&Person> = persons.iter().filter(|p| p.spouse_name.is_none()).collect();
        for child in children {
            let father = parents
                .iter()
                .find(|p| p.family == child.family && p.gender == Gender::Male)
                .expect("father exists");
            assert_eq!(child.father_name.as_deref(), Some(father.first_name.as_str()));
            // Children are born after their father.
            assert!(child.birth.year.unwrap() > father.birth.year.unwrap());
        }
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let persons = gen(3, 15);
        let mut ids: Vec<u64> = persons.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), persons.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = gen(99, 5);
        let b = gen(99, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.first_name, y.first_name);
            assert_eq!(x.birth, y.birth);
        }
    }

    #[test]
    fn mothers_carry_maiden_names() {
        let persons = gen(11, 30);
        let mothers =
            persons.iter().filter(|p| p.gender == Gender::Female && p.spouse_name.is_some());
        for m in mothers {
            assert!(m.maiden_name.is_some());
        }
    }
}
