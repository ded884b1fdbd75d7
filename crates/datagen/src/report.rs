//! Report emission: project ground-truth persons into noisy, schema-sparse
//! victim reports filed by testimony submitters and victim lists.

use crate::corrupt::{corrupt_date, corrupt_name, transliterate};
use crate::person::{FamilyId, Person, PersonId};
use crate::sets::{generate_persons, GenConfig, PrevalenceTargets};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use yv_records::{
    Dataset, DateParts, Gender, Place, PlaceType, Record, RecordBuilder, RecordId, Source,
    SourceId,
};

/// The "MV" submitter injection (Section 6.4): one submitter contributing
/// `n_reports` reports, all with the fixed pattern
/// `{FirstName, LastName, FatherName, BirthPlace, DeathPlace}`.
#[derive(Debug, Clone, Copy)]
pub struct MvConfig {
    pub n_reports: usize,
}

/// A generated dataset together with its ground truth.
#[derive(Debug)]
pub struct Generated {
    pub dataset: Dataset,
    /// Ground-truth persons; `persons[i].id == PersonId(i)`.
    pub persons: Vec<Person>,
    truth: Vec<PersonId>,
    families: Vec<FamilyId>,
    /// The MV submitter's source, when injected.
    pub mv_source: Option<SourceId>,
}

impl Generated {
    /// The ground-truth person a record describes.
    #[must_use]
    pub fn person_of(&self, r: RecordId) -> PersonId {
        self.truth[r.index()]
    }

    /// The ground-truth family of a record's person.
    #[must_use]
    pub fn family_of(&self, r: RecordId) -> FamilyId {
        self.families[r.index()]
    }

    /// True when two records describe the same person (the gold standard
    /// for person-level ER).
    #[must_use]
    pub fn is_match(&self, a: RecordId, b: RecordId) -> bool {
        self.person_of(a) == self.person_of(b)
    }

    /// True when two records describe members of the same family (the gold
    /// standard for family-granularity ER).
    #[must_use]
    pub fn same_family(&self, a: RecordId, b: RecordId) -> bool {
        self.family_of(a) == self.family_of(b)
    }

    /// All ground-truth matching pairs `(a, b)` with `a < b`.
    #[must_use]
    pub fn matching_pairs(&self) -> Vec<(RecordId, RecordId)> {
        let mut by_person: HashMap<PersonId, Vec<RecordId>> = HashMap::new();
        for rid in self.dataset.record_ids() {
            by_person.entry(self.person_of(rid)).or_default().push(rid);
        }
        let mut pairs = Vec::new();
        #[allow(
            clippy::iter_over_hash_type,
            reason = "the pairs are sorted before they are returned"
        )]
        for records in by_person.values() {
            for i in 0..records.len() {
                for j in i + 1..records.len() {
                    pairs.push((records[i], records[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Number of ground-truth matching pairs.
    #[must_use]
    pub fn gold_pair_count(&self) -> usize {
        self.matching_pairs().len()
    }

    /// Records filed by the MV submitter.
    #[must_use]
    pub fn mv_records(&self) -> Vec<RecordId> {
        match self.mv_source {
            None => Vec::new(),
            Some(src) => self
                .dataset
                .record_ids()
                .filter(|&r| self.dataset.record(r).source == src)
                .collect(),
        }
    }
}

/// A source schema: for every aggregate, the probability that a record
/// from this source carries it. The probability is `0.0` for attributes
/// outside the source's schema and close to `1.0` for attributes inside
/// it, so records from one source cluster into a dominant data pattern
/// with dropout satellites — the shape of Figure 11.
///
/// Calibration: for a record-level prevalence target `t`, the attribute
/// enters the schema with probability `s = min(1, 1.15·t)` and, once in,
/// each record carries it with probability `r = min(1, t/s)`, so the
/// expected prevalence is `s·r ≈ t` while keeping per-source clustering.
#[derive(Debug, Clone)]
struct Schema {
    first: f64,
    last: f64,
    gender: f64,
    dob: f64,
    dob_year_only: bool,
    father: f64,
    mother: f64,
    spouse: f64,
    maiden: f64,
    mothers_maiden: f64,
    profession: f64,
    /// Per place type: record-level presence probability + part mask
    /// (city/county/region/country).
    places: [(f64, [bool; 4]); 4],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SourceKind {
    Testimony,
    List,
}

/// Quota mask: exactly `round(target·n)` of `n` schemas get the attribute
/// (fractional remainder resolved by one coin flip). Stratified assignment
/// removes the schema-level binomial variance a small source pool would
/// otherwise have, so record-level prevalence tracks Table 3 tightly while
/// every individual source keeps an all-or-nothing schema — the Figure 11
/// clustering.
fn quota_mask(rng: &mut StdRng, n: usize, target: f64) -> Vec<bool> {
    let target = target.clamp(0.0, 1.0);
    let exact = target * n as f64;
    let mut k = exact.floor() as usize;
    let frac = exact - k as f64;
    if frac > 0.0 && rng.gen_bool(frac) {
        k += 1;
    }
    let k = k.min(n);
    let mut mask = vec![false; n];
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    for &i in idx.iter().take(k) {
        mask[i] = true;
    }
    mask
}

/// Sample a pool of `n` source schemas whose *aggregate* attribute
/// frequencies match the prevalence targets exactly (quota assignment).
fn sample_schema_pool(
    rng: &mut StdRng,
    targets: &PrevalenceTargets,
    kind: SourceKind,
    n: usize,
) -> Vec<Schema> {
    // Family-name attributes are availability-limited on the person side;
    // divide the target by availability so record-level prevalence lands
    // near the target.
    const AVAIL_SPOUSE: f64 = 0.45;
    const AVAIL_MAIDEN: f64 = 0.22;
    const AVAIL_MM: f64 = 0.85;
    const AVAIL_PROF: f64 = 0.55;
    let family_bias = match kind {
        SourceKind::Testimony => 1.3,
        SourceKind::List => 0.85,
    };
    let masks = [
        quota_mask(rng, n, targets.first_name),
        quota_mask(rng, n, targets.last_name),
        quota_mask(rng, n, targets.gender),
        quota_mask(rng, n, targets.dob),
        quota_mask(rng, n, targets.father * family_bias),
        quota_mask(rng, n, targets.mother * family_bias),
        quota_mask(rng, n, targets.spouse / AVAIL_SPOUSE * family_bias),
        quota_mask(rng, n, targets.maiden / AVAIL_MAIDEN),
        quota_mask(rng, n, targets.mothers_maiden / AVAIL_MM),
        quota_mask(rng, n, targets.profession / AVAIL_PROF),
        quota_mask(rng, n, targets.birth_place),
        quota_mask(rng, n, targets.permanent),
        quota_mask(rng, n, targets.wartime),
        quota_mask(rng, n, targets.death_place),
    ];
    let on = |m: &[bool], i: usize| if m[i] { 1.0 } else { 0.0 };
    (0..n)
        .map(|i| {
            let place = |rng: &mut StdRng, present: f64| {
                let parts = [
                    rng.gen_bool(0.85),
                    rng.gen_bool(0.70),
                    rng.gen_bool(0.55),
                    rng.gen_bool(0.95),
                ];
                (present, parts)
            };
            Schema {
                first: on(&masks[0], i),
                last: on(&masks[1], i),
                gender: on(&masks[2], i),
                dob: on(&masks[3], i),
                dob_year_only: rng.gen_bool(match kind {
                    SourceKind::Testimony => 0.2,
                    SourceKind::List => 0.4,
                }),
                father: on(&masks[4], i),
                mother: on(&masks[5], i),
                spouse: on(&masks[6], i),
                maiden: on(&masks[7], i),
                mothers_maiden: on(&masks[8], i),
                profession: on(&masks[9], i),
                places: [
                    place(rng, on(&masks[10], i)),
                    place(rng, on(&masks[11], i)),
                    place(rng, on(&masks[12], i)),
                    place(rng, on(&masks[13], i)),
                ],
            }
        })
        .collect()
}

impl Schema {
    /// The MV submitter's degenerate fixed schema. Gender is included:
    /// Table 3 reports 97% gender prevalence on the Italy set even though
    /// MV supplies 15% of it, so his reports must carry gender (it is
    /// derivable from the given name during registration).
    fn mv() -> Schema {
        Schema {
            first: 1.0,
            last: 1.0,
            gender: 1.0,
            dob: 0.0,
            dob_year_only: false,
            father: 1.0,
            mother: 0.0,
            spouse: 0.0,
            maiden: 0.0,
            mothers_maiden: 0.0,
            profession: 0.0,
            places: [
                (1.0, [true; 4]), // birth place
                (0.0, [false; 4]),
                (0.0, [false; 4]),
                (1.0, [true; 4]), // death place
            ],
        }
    }
}

/// The duplicate-count distribution: archival experts estimate at most
/// eight reports per victim, with single-report victims dominating.
const DUP_WEIGHTS: [f64; 8] = [0.45, 0.25, 0.12, 0.08, 0.05, 0.03, 0.015, 0.005];

fn sample_dup_count(rng: &mut StdRng) -> usize {
    let total: f64 = DUP_WEIGHTS.iter().sum();
    let mut roll = rng.gen_range(0.0..total);
    for (k, &w) in DUP_WEIGHTS.iter().enumerate() {
        if roll < w {
            return k + 1;
        }
        roll -= w;
    }
    DUP_WEIGHTS.len()
}

/// Run the generator for a configuration.
#[must_use]
pub fn generate(config: &GenConfig) -> Generated {
    let persons = generate_persons(config);
    debug_assert!(persons.iter().enumerate().all(|(i, p)| p.id.0 as usize == i));
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut dataset = Dataset::new();
    let mut truth: Vec<PersonId> = Vec::new();
    let mut families: Vec<FamilyId> = Vec::new();
    let mut book_id = 1_000_000u64;

    // The requested total includes any MV injection.
    let organic_target =
        config.n_records.saturating_sub(config.mv.map_or(0, |m| m.n_reports));

    // List sources per region (two thirds of reports come from lists).
    let mut lists_by_region: HashMap<crate::sets::Region, Vec<(SourceId, Schema)>> =
        HashMap::new();
    let expected_list_reports = organic_target * 2 / 3;
    let lists_per_region =
        (expected_list_reports / 250 / config.regions.len().max(1)).max(3);
    for &region in &config.regions {
        let schemas =
            sample_schema_pool(&mut rng, &config.targets, SourceKind::List, lists_per_region);
        let mut lists = Vec::new();
        for (li, schema) in schemas.into_iter().enumerate() {
            let id = dataset.add_source(Source::list(
                SourceId(0),
                &format!("{region:?} victim list #{li}"),
            ));
            lists.push((id, schema));
        }
        lists_by_region.insert(region, lists);
    }

    // Pages of Testimony are a single form; what varies is which fields a
    // submitter filled in. A small pool of form-schemas per region (form
    // revisions across decades and languages) keeps testimony patterns
    // clustered as in Figure 11.
    let mut testimony_pool: HashMap<crate::sets::Region, Vec<Schema>> = HashMap::new();
    for &region in &config.regions {
        let pool = sample_schema_pool(&mut rng, &config.targets, SourceKind::Testimony, 12);
        testimony_pool.insert(region, pool);
    }

    // Testimony submitters are created lazily per family.
    let mut submitter_of_family: HashMap<FamilyId, (SourceId, Schema, usize)> = HashMap::new();

    let mut emitted = 0usize;
    'person_loop: for person in &persons {
        let k = sample_dup_count(&mut rng);
        for _ in 0..k {
            if emitted >= organic_target {
                break 'person_loop;
            }
            let is_testimony = rng.gen_bool(1.0 / 3.0);
            let (source, schema) = if is_testimony {
                let entry = submitter_of_family.get(&person.family).filter(|(_, _, n)| *n < 5);
                match entry {
                    Some((id, schema, _)) => {
                        let (id, schema) = (*id, schema.clone());
                        submitter_of_family.get_mut(&person.family).expect("present").2 += 1;
                        (id, schema)
                    }
                    None => {
                        // A relative files Pages of Testimony: shares the
                        // family surname.
                        let first = match rng.gen_bool(0.5) {
                            true => crate::names::male_first_names(person.region)
                                .choose(&mut rng)
                                .expect("pool"),
                            false => crate::names::female_first_names(person.region)
                                .choose(&mut rng)
                                .expect("pool"),
                        };
                        let city = crate::places::residences(person.region)
                            .choose(&mut rng)
                            .expect("gazetteer")
                            .city;
                        let schema = testimony_pool[&person.region]
                            .choose(&mut rng)
                            .expect("pool non-empty")
                            .clone();
                        let id = dataset.add_source(Source::testimony(
                            SourceId(0),
                            first,
                            &person.last_name,
                            city,
                        ));
                        submitter_of_family.insert(person.family, (id, schema.clone(), 1));
                        (id, schema)
                    }
                }
            } else {
                let lists = &lists_by_region[&person.region];
                let (id, schema) = lists.choose(&mut rng).expect("lists exist");
                (*id, schema.clone())
            };
            let record = make_report(&mut rng, person, &schema, source, book_id, config, false);
            book_id += 1;
            dataset.add_record(record);
            truth.push(person.id);
            families.push(person.family);
            emitted += 1;
        }
    }

    // MV injection: one submitter, fixed degenerate schema, low noise.
    let mv_source = config.mv.map(|mv| {
        let source = dataset.add_source(Source::testimony(SourceId(0), "M", "V", "Torino"));
        let schema = Schema::mv();
        let mut person_indices: Vec<usize> = (0..persons.len()).collect();
        person_indices.shuffle(&mut rng);
        for &pi in person_indices.iter().cycle().take(mv.n_reports) {
            let record =
                make_report(&mut rng, &persons[pi], &schema, source, book_id, config, true);
            book_id += 1;
            dataset.add_record(record);
            truth.push(persons[pi].id);
            families.push(persons[pi].family);
        }
        source
    });

    Generated { dataset, persons, truth, families, mv_source }
}

/// Emit one report of `person` through a source `schema`.
fn make_report(
    rng: &mut StdRng,
    person: &Person,
    schema: &Schema,
    source: SourceId,
    book_id: u64,
    config: &GenConfig,
    accurate: bool,
) -> Record {
    let name_noise = if accurate { 0.03 } else { config.name_noise };
    // Per-record inclusion: schema probability combined with dropout
    // (illegible handwriting); accurate (MV) reports skip the dropout.
    let dropout = if accurate { 0.0 } else { config.dropout };
    let keep = move |rng: &mut StdRng, p: f64| {
        p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)) && !rng.gen_bool(dropout)
    };
    let mut b = RecordBuilder::new(book_id, source);
    if keep(rng, schema.first) {
        b = b.first_name(corrupt_name(rng, &person.first_name, name_noise));
        // Occasionally a second recorded given name (a variant).
        if !accurate && rng.gen_bool(0.05) {
            b = b.first_name(corrupt_name(rng, &person.first_name, 0.9));
        }
    }
    if keep(rng, schema.last) {
        b = b.last_name(corrupt_name(rng, &person.last_name, name_noise));
    }
    if keep(rng, schema.gender) {
        // 1% clerical gender flips.
        let g = if rng.gen_bool(0.01) {
            match person.gender {
                Gender::Male => Gender::Female,
                Gender::Female => Gender::Male,
            }
        } else {
            person.gender
        };
        b = b.gender(g);
    }
    if keep(rng, schema.dob) {
        let date = if schema.dob_year_only {
            DateParts::year_only(person.birth.year.expect("generator sets years"))
        } else {
            person.birth
        };
        b = b.birth(corrupt_date(rng, date, config.date_noise));
    }
    if person.father_name.is_some() && keep(rng, schema.father) {
        b = b.father_name(corrupt_name(
            rng,
            person.father_name.as_deref().expect("checked"),
            name_noise,
        ));
    }
    if person.mother_name.is_some() && keep(rng, schema.mother) {
        b = b.mother_name(corrupt_name(
            rng,
            person.mother_name.as_deref().expect("checked"),
            name_noise,
        ));
    }
    if person.spouse_name.is_some() && keep(rng, schema.spouse) {
        b = b.spouse_name(corrupt_name(
            rng,
            person.spouse_name.as_deref().expect("checked"),
            name_noise,
        ));
    }
    if person.maiden_name.is_some() && keep(rng, schema.maiden) {
        b = b.maiden_name(corrupt_name(
            rng,
            person.maiden_name.as_deref().expect("checked"),
            name_noise,
        ));
    }
    if person.mothers_maiden.is_some() && keep(rng, schema.mothers_maiden) {
        b = b.mothers_maiden(corrupt_name(
            rng,
            person.mothers_maiden.as_deref().expect("checked"),
            name_noise,
        ));
    }
    if person.profession.is_some() && keep(rng, schema.profession) {
        b = b.profession(person.profession.as_deref().expect("checked"));
    }
    let gazetteer_places = [
        (PlaceType::Birth, &person.birth_place),
        (PlaceType::Permanent, &person.permanent_place),
        (PlaceType::Wartime, &person.wartime_place),
        (PlaceType::Death, &person.death_place),
    ];
    for (i, (ty, entry)) in gazetteer_places.into_iter().enumerate() {
        let (present, parts) = &schema.places[i];
        if !keep(rng, *present) {
            continue;
        }
        let full = entry.place();
        let mut place = Place::default();
        for (pi, part) in yv_records::field::PlacePart::ALL.iter().enumerate() {
            if parts[pi] {
                let mut value = full.part(*part).expect("gazetteer places are full").to_owned();
                // Spelling variants on city names; coordinates still
                // resolve because the Names Project canonicalizes place
                // codes.
                if *part == yv_records::field::PlacePart::City && !accurate && rng.gen_bool(0.08)
                {
                    value = transliterate(rng, &value);
                }
                place.set_part(*part, Some(value));
            }
        }
        if place.city.is_some() {
            place.coords = full.coords;
        }
        if !place.is_empty() {
            b = b.place(ty, place);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::GenConfig;

    fn small() -> Generated {
        GenConfig { n_records: 800, ..GenConfig::random(800, 11) }.generate()
    }

    #[test]
    fn emits_about_the_requested_count() {
        let g = small();
        let n = g.dataset.len();
        assert!((700..=800).contains(&n), "got {n}");
    }

    #[test]
    fn truth_is_parallel_to_records() {
        let g = small();
        assert_eq!(g.dataset.len(), g.truth.len());
        assert_eq!(g.dataset.len(), g.families.len());
        for rid in g.dataset.record_ids() {
            let pid = g.person_of(rid);
            assert!((pid.0 as usize) < g.persons.len());
            assert_eq!(g.persons[pid.0 as usize].family, g.family_of(rid));
        }
    }

    #[test]
    fn duplicates_exist_and_are_bounded() {
        let g = small();
        let mut counts: HashMap<PersonId, usize> = HashMap::new();
        for rid in g.dataset.record_ids() {
            *counts.entry(g.person_of(rid)).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max <= 8, "expert estimate: at most 8 duplicates, got {max}");
        assert!(counts.values().any(|&c| c >= 2), "some duplicates must exist");
        assert!(!g.matching_pairs().is_empty());
    }

    #[test]
    fn same_person_implies_same_family() {
        let g = small();
        for (a, b) in g.matching_pairs() {
            assert!(g.same_family(a, b));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = GenConfig::random(400, 5).generate();
        let b = GenConfig::random(400, 5).generate();
        assert_eq!(a.dataset.len(), b.dataset.len());
        for rid in a.dataset.record_ids() {
            assert_eq!(a.dataset.record(rid), b.dataset.record(rid));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GenConfig::random(400, 5).generate();
        let b = GenConfig::random(400, 6).generate();
        let same = a
            .dataset
            .record_ids()
            .take(50)
            .filter(|&r| {
                b.dataset.len() > r.index() && a.dataset.record(r) == b.dataset.record(r)
            })
            .count();
        assert!(same < 50);
    }

    #[test]
    fn mv_reports_have_the_fixed_pattern() {
        let g = crate::sets::italy_set(3);
        let mv = g.mv_records();
        assert_eq!(mv.len(), 1_400);
        for &rid in mv.iter().take(100) {
            let r = g.dataset.record(rid);
            assert!(!r.first_names.is_empty());
            assert!(!r.last_names.is_empty());
            assert!(r.father_name.is_some() || {
                // Mothers' records lack a father only if the ground-truth
                // person had none; our persons always have fathers.
                false
            });
            assert!(r.place(PlaceType::Birth).is_some());
            assert!(r.place(PlaceType::Death).is_some());
            assert!(r.gender.is_some(), "MV records carry gender (Table 3)");
            assert!(r.birth.is_empty());
            assert!(r.spouse_name.is_none());
        }
    }

    #[test]
    fn italy_set_has_expected_size() {
        let g = crate::sets::italy_set(1);
        // 9,499 requested: ~8,099 organic (stops at a person boundary)
        // plus exactly 1,400 MV reports.
        let n = g.dataset.len();
        assert!((9_300..=9_600).contains(&n), "got {n}");
    }

    #[test]
    fn prevalence_tracks_table3_targets() {
        let g = crate::sets::random_set(4_000, 17);
        let prev = yv_records::patterns::prevalence(&g.dataset);
        let get = |agg: yv_records::AggregateType| {
            prev.iter().find(|p| p.agg == agg).expect("present").fraction
        };
        use yv_records::AggregateType as A;
        // Generous tolerances: the generator is calibrated, not fitted.
        let cases = [
            (A::LastName, 0.98, 0.08),
            (A::FirstName, 0.97, 0.08),
            (A::Gender, 0.88, 0.10),
            (A::Dob, 0.64, 0.12),
            (A::FatherName, 0.52, 0.12),
            (A::MotherName, 0.40, 0.12),
            (A::SpouseName, 0.27, 0.12),
            (A::PermanentPlace, 0.70, 0.12),
            (A::BirthPlace, 0.36, 0.12),
            (A::Profession, 0.35, 0.15),
        ];
        for (agg, target, tol) in cases {
            let got = get(agg);
            assert!(
                (got - target).abs() <= tol,
                "{agg:?}: got {got:.2}, target {target:.2}"
            );
        }
    }

    #[test]
    fn sources_cluster_patterns() {
        // Records from one list share a schema => far fewer patterns than
        // records.
        let g = small();
        let stats = yv_records::PatternStats::analyze(&g.dataset);
        assert!(stats.distinct_patterns() * 2 < g.dataset.len());
    }
}
