//! The 48 pairwise similarity features of Section 5.1.
//!
//! The paper "constructed every conceivable similarity feature given the
//! record attributes, assuming these will be pruned by the ADT algorithm".
//! The enumerated families are:
//!
//! * `sameXName` (7) — trinary *yes*/*partial*/*no* per name attribute;
//! * `XnameDist` (7) — q-gram Jaccard similarity, max over multi-values;
//! * `BXDist` (3) — raw day / cyclic-month / year differences (the printed
//!   models of Tables 7–8 split on raw-year thresholds such as
//!   `B3dist < 1.5`, so the tree features carry the unnormalized values);
//! * `samePlaceXPartY` (16) — binary equality per place type × part;
//! * `PlaceXGeoDistance` (4) — km between same-typed places;
//! * `sameSource`, `sameGender`, `sameProfession` (3).
//!
//! That enumeration yields 40; the remaining 8 "conceivable" features we
//! supply are Jaro-Winkler name similarities, exact full-DOB equality,
//! initial matches, a cross maiden-vs-last comparison (married-name
//! evidence), a normalized year distance and an all-names token Jaccard.
//! The ADT learner prunes what does not help, exactly as in the paper
//! (which kept only 8–10 of the 48).
//!
//! **Missing values**: if either record lacks the underlying attribute the
//! feature is *absent* (`None`) and the ADT skips splits on it — the
//! property that makes ADTrees suitable for this schema-sparse dataset.

use crate::dates::{day_diff, month_diff, year_diff};
use crate::geo::haversine_km;
use crate::jaccard::QgramJaccard;
use crate::jaro::JaroWinkler;
use crate::symbols::{eq_folded, folded, with_scratch, Kernel};
use yv_records::field::PlacePart;
use yv_records::{PlaceType, Record};

/// Index of a feature within a [`FeatureVector`].
pub type FeatureId = usize;

/// Broad feature families, used for documentation and rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// 1.0 = yes, 0.5 = partial, 0.0 = no.
    Trinary,
    /// Similarity in `[0, 1]` (1 = identical).
    Similarity,
    /// Raw non-negative difference (days, months, years, km).
    Distance,
    /// 1.0 = true, 0.0 = false.
    Binary,
}

/// Static description of one feature.
#[derive(Debug, Clone, Copy)]
pub struct FeatureDef {
    pub name: &'static str,
    pub kind: FeatureKind,
}

macro_rules! features {
    ($( $konst:ident : $name:literal => $kind:ident ),+ $(,)?) => {
        /// Named feature indices.
        pub mod ids {
            use super::FeatureId;
            features!(@consts 0usize; $($konst),+);
        }
        /// Feature metadata, indexed by [`FeatureId`].
        pub static FEATURES: &[FeatureDef] = &[
            $( FeatureDef { name: $name, kind: FeatureKind::$kind } ),+
        ];
    };
    (@consts $idx:expr; $head:ident $(, $tail:ident)*) => {
        pub const $head: FeatureId = $idx;
        features!(@consts $idx + 1; $($tail),*);
    };
    (@consts $idx:expr;) => {};
}

features! {
    SAME_FN:  "sameFN"  => Trinary,
    SAME_LN:  "sameLN"  => Trinary,
    SAME_MN:  "sameMN"  => Trinary,
    SAME_FFN: "sameFFN" => Trinary,
    SAME_MFN: "sameMFN" => Trinary,
    SAME_MMN: "sameMMN" => Trinary,
    SAME_SN:  "sameSN"  => Trinary,
    FN_DIST:  "FNdist"  => Similarity,
    LN_DIST:  "LNdist"  => Similarity,
    MN_DIST:  "MNdist"  => Similarity,
    FFN_DIST: "FFNdist" => Similarity,
    MFN_DIST: "MFNdist" => Similarity,
    MMN_DIST: "MMNdist" => Similarity,
    SN_DIST:  "SNdist"  => Similarity,
    B1_DIST:  "B1dist"  => Distance,
    B2_DIST:  "B2dist"  => Distance,
    B3_DIST:  "B3dist"  => Distance,
    SAME_BP1: "sameBP1" => Binary,
    SAME_BP2: "sameBP2" => Binary,
    SAME_BP3: "sameBP3" => Binary,
    SAME_BP4: "sameBP4" => Binary,
    SAME_P1:  "sameP1"  => Binary,
    SAME_P2:  "sameP2"  => Binary,
    SAME_P3:  "sameP3"  => Binary,
    SAME_P4:  "sameP4"  => Binary,
    SAME_WP1: "sameWP1" => Binary,
    SAME_WP2: "sameWP2" => Binary,
    SAME_WP3: "sameWP3" => Binary,
    SAME_WP4: "sameWP4" => Binary,
    SAME_DP1: "sameDP1" => Binary,
    SAME_DP2: "sameDP2" => Binary,
    SAME_DP3: "sameDP3" => Binary,
    SAME_DP4: "sameDP4" => Binary,
    BP_GEO:   "BPGeoDist" => Distance,
    P_GEO:    "PPGeoDist" => Distance,
    WP_GEO:   "WPGeoDist" => Distance,
    DP_GEO:   "DPGeoDist" => Distance,
    SAME_SOURCE:     "sameSource"     => Binary,
    SAME_GENDER:     "sameGender"     => Binary,
    SAME_PROFESSION: "sameProfession" => Binary,
    FN_JW:    "FNjw" => Similarity,
    LN_JW:    "LNjw" => Similarity,
    SAME_FULL_DOB:   "sameFullDOB"   => Binary,
    SAME_FIRST_INIT: "sameFirstInit" => Binary,
    SAME_LAST_INIT:  "sameLastInit"  => Binary,
    CROSS_MAIDEN_LAST: "crossMaidenLast" => Binary,
    B3_DIST_NORM: "B3distNorm" => Similarity,
    ALL_NAMES_DIST: "allNamesDist" => Similarity,
}

/// Number of features (48, as in the paper).
pub const FEATURE_COUNT: usize = 48;

/// A pairwise feature vector with per-feature missing-value support.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [Option<f64>; FEATURE_COUNT],
}

impl Default for FeatureVector {
    fn default() -> Self {
        FeatureVector { values: [None; FEATURE_COUNT] }
    }
}

impl FeatureVector {
    /// The value of a feature, `None` when the underlying attributes are
    /// missing on either record.
    #[must_use]
    pub fn get(&self, id: FeatureId) -> Option<f64> {
        self.values[id]
    }

    /// Set a feature value.
    pub fn set(&mut self, id: FeatureId, value: f64) {
        self.values[id] = Some(value);
    }

    /// All 48 values in id order — the row shape the ADT trainer and
    /// scorer take.
    #[must_use]
    pub fn as_row(&self) -> &[Option<f64>; FEATURE_COUNT] {
        &self.values
    }

    /// Number of present (non-missing) features.
    #[must_use]
    pub fn present(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Iterate over `(id, value)` for present features.
    pub fn iter_present(&self) -> impl Iterator<Item = (FeatureId, f64)> + '_ {
        self.values.iter().enumerate().filter_map(|(i, v)| v.map(|x| (i, x)))
    }
}

/// Trinary comparison of two multi-valued name attributes: 1.0 when the
/// value sets are equal, 0.5 when they intersect, 0.0 when disjoint
/// (case-insensitive).
fn trinary(a: &[String], b: &[String]) -> f64 {
    let within = |x: &String, set: &[String]| set.iter().any(|y| eq_folded(x, y));
    if a.iter().all(|x| within(x, b)) && b.iter().all(|y| within(y, a)) {
        1.0
    } else if a.iter().any(|x| within(x, b)) {
        0.5
    } else {
        0.0
    }
}

/// Max of a case-folded string kernel over the cross product of two
/// multi-valued names.
fn best_over(a: &[String], b: &[String], kernel: impl Kernel<Out = f64> + Copy) -> f64 {
    let mut best: f64 = 0.0;
    for x in a {
        for y in b {
            best = best.max(folded(x, y, kernel));
        }
    }
    best
}

/// Max q-gram (q=2) Jaccard similarity over the cross product of two
/// multi-valued names.
fn name_dist(a: &[String], b: &[String]) -> f64 {
    best_over(a, b, QgramJaccard { q: 2 })
}

/// Max Jaro-Winkler over the cross product of two multi-valued names.
fn name_jw(a: &[String], b: &[String]) -> f64 {
    best_over(a, b, JaroWinkler)
}

/// Whether any two values start with the same letter, case-insensitively
/// (two empty values count as agreeing).
fn same_initial(a: &[String], b: &[String]) -> bool {
    let initial = |s: &String| s.chars().next().map(char::to_lowercase);
    a.iter().any(|x| {
        b.iter().any(|y| match (initial(x), initial(y)) {
            (Some(p), Some(q)) => p.eq(q),
            (None, None) => true,
            _ => false,
        })
    })
}

/// The values both records carry for the `k`-th name attribute (first,
/// last, maiden, father's, mother's, mother's maiden, spouse's), or `None`
/// when either record lacks it.
fn name_values<'r>(k: usize, a: &'r Record, b: &'r Record) -> Option<(&'r [String], &'r [String])> {
    let values = |r: &'r Record| -> Option<&'r [String]> {
        let single = |v: &'r Option<String>| v.as_ref().map(std::slice::from_ref);
        let values = match k {
            0 => Some(r.first_names.as_slice()),
            1 => Some(r.last_names.as_slice()),
            2 => single(&r.maiden_name),
            3 => single(&r.father_name),
            4 => single(&r.mother_name),
            5 => single(&r.mothers_maiden),
            6 => single(&r.spouse_name),
            _ => None,
        }?;
        (!values.is_empty()).then_some(values)
    };
    Some((values(a)?, values(b)?))
}

/// Run `f` over the distinct (case-insensitively) whitespace-delimited
/// tokens of all name attributes of a record.
fn with_name_tokens<R>(r: &Record, f: impl FnOnce(&[&str]) -> R) -> R {
    let tokens = || {
        let singles =
            [&r.maiden_name, &r.father_name, &r.mother_name, &r.mothers_maiden, &r.spouse_name];
        r.first_names
            .iter()
            .chain(&r.last_names)
            .chain(singles.into_iter().flatten())
            .flat_map(|name| name.split_whitespace())
    };
    with_scratch(tokens().count(), |distinct: &mut [&str]| {
        let mut kept = 0;
        for token in tokens() {
            if !distinct[..kept].iter().any(|seen| eq_folded(seen, token)) {
                distinct[kept] = token;
                kept += 1;
            }
        }
        f(&distinct[..kept])
    })
}

/// Token Jaccard over the union of all name tokens of each record
/// (case-insensitive), absent when either record has no name token.
fn all_names_dist(a: &Record, b: &Record) -> Option<f64> {
    with_name_tokens(a, |ta| {
        with_name_tokens(b, |tb| {
            if ta.is_empty() || tb.is_empty() {
                return None;
            }
            let inter = ta.iter().filter(|t| tb.iter().any(|u| eq_folded(t, u))).count();
            Some(inter as f64 / (ta.len() + tb.len() - inter) as f64)
        })
    })
}

/// One feature of a candidate record pair — the single definition of each
/// of the 48; `None` when either record lacks the underlying attribute
/// (and for an id that names no feature).
///
/// Scoring asks for features one at a time because the ADTree reaches
/// only a few of them per pair; every name comparison runs on stack
/// buffers (see `symbols.rs`), so no feature touches the heap unless a
/// name is longer than 64 characters or contains a capital sigma.
///
/// The `sameSource` feature comes from comparing the records'
/// [`yv_records::SourceId`]s — equal ids mean the same victim list or the
/// same testimony submitter.
#[must_use]
pub fn feature(id: FeatureId, a: &Record, b: &Record) -> Option<f64> {
    let value = match id {
        // -- Name families ---------------------------------------------------
        ids::SAME_FN..=ids::SAME_SN => {
            let (x, y) = name_values(id - ids::SAME_FN, a, b)?;
            trinary(x, y)
        }
        ids::FN_DIST..=ids::SN_DIST => {
            let (x, y) = name_values(id - ids::FN_DIST, a, b)?;
            name_dist(x, y)
        }
        // -- Birth-date components -------------------------------------------
        ids::B1_DIST => f64::from(day_diff(a.birth.day?, b.birth.day?)),
        ids::B2_DIST => f64::from(month_diff(a.birth.month?, b.birth.month?)),
        ids::B3_DIST => f64::from(year_diff(a.birth.year?, b.birth.year?)),
        ids::B3_DIST_NORM => {
            1.0 - (f64::from(year_diff(a.birth.year?, b.birth.year?)) / 100.0).min(1.0)
        }
        ids::SAME_FULL_DOB => {
            let full = |d: &yv_records::DateParts| d.day.zip(d.month).zip(d.year);
            f64::from(full(&a.birth)? == full(&b.birth)?)
        }
        // -- Places (never compared across types) -----------------------------
        ids::SAME_BP1..=ids::SAME_DP4 => {
            let k = id - ids::SAME_BP1;
            let (ty, part) = (PlaceType::ALL[k / 4], PlacePart::ALL[k % 4]);
            f64::from(eq_folded(a.place(ty)?.part(part)?, b.place(ty)?.part(part)?))
        }
        ids::BP_GEO..=ids::DP_GEO => {
            let ty = PlaceType::ALL[id - ids::BP_GEO];
            haversine_km(a.place(ty)?.coords?, b.place(ty)?.coords?)
        }
        // -- Codes -------------------------------------------------------------
        ids::SAME_SOURCE => f64::from(a.source == b.source),
        ids::SAME_GENDER => f64::from(a.gender? == b.gender?),
        ids::SAME_PROFESSION => {
            f64::from(eq_folded(a.profession.as_ref()?, b.profession.as_ref()?))
        }
        // -- Extra conceivable features ----------------------------------------
        ids::FN_JW | ids::LN_JW => {
            let (x, y) = name_values(id - ids::FN_JW, a, b)?;
            name_jw(x, y)
        }
        ids::SAME_FIRST_INIT | ids::SAME_LAST_INIT => {
            let (x, y) = name_values(id - ids::SAME_FIRST_INIT, a, b)?;
            f64::from(same_initial(x, y))
        }
        // Married-name evidence: one record's maiden name equals the other's
        // last name.
        ids::CROSS_MAIDEN_LAST => {
            let cross = |x: &Record, y: &Record| {
                x.maiden_name.as_ref().map(|m| y.last_names.iter().any(|l| eq_folded(m, l)))
            };
            match (cross(a, b), cross(b, a)) {
                (None, None) => return None,
                (x, y) => f64::from(x.unwrap_or(false) || y.unwrap_or(false)),
            }
        }
        ids::ALL_NAMES_DIST => all_names_dist(a, b)?,
        _ => return None,
    };
    Some(value)
}

/// Extract the 48-feature vector for a candidate record pair: every
/// [`feature`], eagerly — what training and evaluation consume.
#[must_use]
pub fn extract(a: &Record, b: &Record) -> FeatureVector {
    FeatureVector { values: std::array::from_fn(|id| feature(id, a, b)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{DateParts, Gender, GeoPoint, Place, RecordBuilder, SourceId};

    fn guido_a() -> Record {
        RecordBuilder::new(1059654, SourceId(1))
            .first_name("Guido")
            .last_name("Foa")
            .gender(Gender::Male)
            .birth(DateParts::full(18, 11, 1920))
            .spouse_name("Helena")
            .mother_name("Olga")
            .father_name("Donato")
            .place(
                PlaceType::Birth,
                Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build()
    }

    fn guido_b() -> Record {
        RecordBuilder::new(1028769, SourceId(2))
            .first_name("Guido")
            .last_name("Foy")
            .gender(Gender::Male)
            .birth(DateParts::full(18, 11, 1920))
            .mother_name("Olga")
            .father_name("Donato")
            .place(
                PlaceType::Birth,
                Place::full("Turin", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build()
    }

    #[test]
    fn feature_count_is_48() {
        assert_eq!(FEATURES.len(), FEATURE_COUNT);
    }

    #[test]
    fn feature_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for f in FEATURES {
            assert!(seen.insert(f.name), "duplicate {}", f.name);
        }
    }

    #[test]
    fn matching_pair_features() {
        let fv = extract(&guido_a(), &guido_b());
        assert_eq!(fv.get(ids::SAME_FN), Some(1.0));
        assert_eq!(fv.get(ids::SAME_FFN), Some(1.0));
        assert_eq!(fv.get(ids::SAME_MFN), Some(1.0));
        assert_eq!(fv.get(ids::SAME_GENDER), Some(1.0));
        assert_eq!(fv.get(ids::B3_DIST), Some(0.0));
        assert_eq!(fv.get(ids::SAME_FULL_DOB), Some(1.0));
        // Foa vs Foy: same != 1, dist in (0,1).
        assert_eq!(fv.get(ids::SAME_LN), Some(0.0));
        let ln = fv.get(ids::LN_DIST).unwrap();
        assert!(ln > 0.0 && ln < 1.0);
        // Torino vs Turin: different strings, same coordinates.
        assert_eq!(fv.get(ids::SAME_BP1), Some(0.0));
        assert_eq!(fv.get(ids::SAME_BP2), Some(1.0));
        assert!(fv.get(ids::BP_GEO).unwrap() < 1.0);
        assert_eq!(fv.get(ids::SAME_SOURCE), Some(0.0));
    }

    #[test]
    fn missing_attributes_yield_missing_features() {
        let fv = extract(&guido_a(), &guido_b());
        // guido_b has no spouse => spouse features absent.
        assert_eq!(fv.get(ids::SAME_SN), None);
        assert_eq!(fv.get(ids::SN_DIST), None);
        // Neither has a death place.
        assert_eq!(fv.get(ids::SAME_DP1), None);
        assert_eq!(fv.get(ids::DP_GEO), None);
        // Neither has a profession.
        assert_eq!(fv.get(ids::SAME_PROFESSION), None);
    }

    #[test]
    fn trinary_partial_on_multivalued_names() {
        let a = RecordBuilder::new(1, SourceId(0))
            .first_name("John")
            .first_name("Harris")
            .build();
        let b = RecordBuilder::new(2, SourceId(0)).first_name("John").build();
        let fv = extract(&a, &b);
        assert_eq!(fv.get(ids::SAME_FN), Some(0.5));
    }

    #[test]
    fn same_source_feature() {
        let a = RecordBuilder::new(1, SourceId(7)).first_name("A").build();
        let b = RecordBuilder::new(2, SourceId(7)).first_name("B").build();
        let fv = extract(&a, &b);
        assert_eq!(fv.get(ids::SAME_SOURCE), Some(1.0));
    }

    #[test]
    fn cross_maiden_last_detects_married_name() {
        let wife_list = RecordBuilder::new(1, SourceId(0))
            .first_name("Zimbul")
            .last_name("Capelluto")
            .build();
        let wife_testimony = RecordBuilder::new(2, SourceId(1))
            .first_name("Zimbul")
            .last_name("Levi")
            .maiden_name("Capelluto")
            .build();
        let fv = extract(&wife_list, &wife_testimony);
        assert_eq!(fv.get(ids::CROSS_MAIDEN_LAST), Some(1.0));
    }

    #[test]
    fn empty_records_have_minimal_features() {
        let a = RecordBuilder::new(1, SourceId(0)).build();
        let b = RecordBuilder::new(2, SourceId(1)).build();
        let fv = extract(&a, &b);
        // Only sameSource is always present.
        assert_eq!(fv.present(), 1);
        assert_eq!(fv.get(ids::SAME_SOURCE), Some(0.0));
    }

    /// `feature` and `extract` against the eager allocating extractor, bit
    /// for bit, in both argument orders.
    fn assert_matches_reference(a: &Record, b: &Record) {
        for (x, y) in [(a, b), (b, a), (a, a)] {
            let expected = crate::reference::extract(x, y);
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            for (id, def) in FEATURES.iter().enumerate() {
                assert_eq!(
                    bits(feature(id, x, y)),
                    bits(expected.get(id)),
                    "{} of {x:?} / {y:?}",
                    def.name
                );
            }
            assert_eq!(extract(x, y), expected);
        }
    }

    #[test]
    fn features_match_the_eager_reference_on_hand_built_records() {
        let long = "Wolfeschlegelsteinhausenbergerdorff".repeat(2);
        let records = [
            guido_a(),
            guido_b(),
            RecordBuilder::new(1, SourceId(0)).build(),
            // Empty and multi-valued names, a name with a space.
            RecordBuilder::new(2, SourceId(0))
                .first_name("")
                .first_name("John")
                .first_name("HARRIS")
                .last_name("Della Torre")
                .maiden_name("")
                .build(),
            RecordBuilder::new(3, SourceId(1))
                .first_name("john")
                .last_name("della torre")
                .last_name("Levi")
                .maiden_name("DELLA TORRE")
                .mother_name("Della")
                .build(),
            // Non-ASCII: final sigma, dotted capital I, sharp s.
            RecordBuilder::new(4, SourceId(1))
                .first_name("ΟΔΥΣΣΕΥΣ")
                .last_name("İpekçi")
                .father_name("Straße")
                .profession("ΣΟΦΟΣ")
                .place(PlaceType::Birth, Place::full("İzmir", "x", "y", "Türkiye", GeoPoint::new(38.4, 27.1)))
                .build(),
            RecordBuilder::new(5, SourceId(2))
                .first_name("οδυσσευς")
                .last_name("i̇pekçi")
                .father_name("STRASSE")
                .profession("σοφος")
                .birth(DateParts::year_only(1901))
                .place(PlaceType::Birth, Place::full("i̇zmir", "X", "Y", "TÜRKIYE", GeoPoint::new(38.4, 27.1)))
                .build(),
            // Longer than the stack buffers.
            RecordBuilder::new(6, SourceId(2))
                .first_name(long.clone())
                .last_name(long.to_uppercase())
                .spouse_name(format!("{long}é"))
                .build(),
            RecordBuilder::new(7, SourceId(2))
                .first_name(long.to_uppercase())
                .last_name(format!("{long}x"))
                .spouse_name(format!("{long}É"))
                .build(),
        ];
        for a in &records {
            for b in &records {
                assert_matches_reference(a, b);
            }
        }
    }

    /// A record whose every attribute is absent or drawn from the small
    /// `names` pool, as 22 `picks` decide — so that equal, case-differing
    /// and partially overlapping values all occur between two records.
    fn record_from(id: u64, names: &[String], picks: &[u32]) -> Record {
        let name = |k: usize| names[picks[k] as usize % names.len()].clone();
        let has = |k: usize| !picks[k].is_multiple_of(3);
        let mut r = RecordBuilder::new(id, SourceId(picks[0] % 2));
        for k in 1..=(picks[1] as usize % 3) {
            r = r.first_name(name(k));
        }
        for k in 4..4 + (picks[4] as usize % 3) {
            r = r.last_name(name(k));
        }
        let singles: [fn(RecordBuilder, String) -> RecordBuilder; 6] = [
            RecordBuilder::maiden_name,
            RecordBuilder::father_name,
            RecordBuilder::mother_name,
            RecordBuilder::mothers_maiden,
            RecordBuilder::spouse_name,
            RecordBuilder::profession,
        ];
        for (k, set) in singles.into_iter().enumerate() {
            if has(7 + k) {
                r = set(r, name(7 + k));
            }
        }
        if has(13) {
            r = r.gender(if picks[13] % 2 == 1 { Gender::Male } else { Gender::Female });
        }
        r = r.birth(DateParts {
            day: has(14).then_some((picks[14] % 28) as u8 + 1),
            month: has(15).then_some((picks[15] % 12) as u8 + 1),
            year: has(16).then_some(1880 + (picks[16] % 60) as i32),
        });
        for (k, ty) in PlaceType::ALL.into_iter().enumerate() {
            if has(17 + k) {
                let coords = GeoPoint::new(45.0, f64::from(picks[17 + k] % 40));
                let mut place = Place::full(name(17 + k), name(18 + k), "r", "c", coords);
                if picks[17 + k] % 5 == 1 {
                    place.coords = None;
                }
                r = r.place(ty, place);
            }
        }
        r.build()
    }

    proptest::proptest! {
        #[test]
        fn features_match_the_eager_reference_on_generated_records(
            names in proptest::collection::vec("[a-cA-CΣσİß ]{0,5}", 36..37),
            picks in proptest::collection::vec(0u32..1000, 44..45),
        ) {
            assert_matches_reference(
                &record_from(1, &names, &picks[..22]),
                &record_from(2, &names, &picks[22..]),
            );
        }
    }

    #[test]
    fn ids_beyond_the_table_are_missing() {
        assert_eq!(feature(FEATURE_COUNT, &guido_a(), &guido_b()), None);
        assert_eq!(feature(usize::MAX, &guido_a(), &guido_b()), None);
    }

    #[test]
    fn iter_present_and_as_row_match_get() {
        let fv = extract(&guido_a(), &guido_b());
        for (id, v) in fv.iter_present() {
            assert_eq!(fv.get(id), Some(v));
        }
        for (id, v) in fv.as_row().iter().enumerate() {
            assert_eq!(fv.get(id), *v);
        }
        assert_eq!(fv.iter_present().count(), fv.present());
    }
}
