//! The allocating formulations the stack kernels and the demand-driven
//! [`crate::feature`] replaced, kept as the oracle of the bit-identity
//! contract: every value the crate computes must equal, bit for bit, what
//! these compute — lowercase into fresh `String`s, collect `Vec<char>`s,
//! build q-gram `Vec<String>`s and hash sets, fill all 48 features eagerly.

use crate::dates::{day_diff, month_diff, year_diff};
use crate::features::{ids, FeatureId, FeatureVector};
use crate::geo::haversine_km;
use crate::jaccard::{jaccard_sets, token_jaccard};
use crate::strings::qgrams;
use yv_records::{PlaceType, Record};

pub(crate) fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_match_flags = vec![false; a.len()];
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_match_flags[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let a_matches: Vec<char> = a
        .iter()
        .zip(&a_match_flags)
        .filter(|(_, &f)| f)
        .map(|(&c, _)| c)
        .collect();
    let b_matches: Vec<char> = b
        .iter()
        .zip(&b_matched)
        .filter(|(_, &f)| f)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_matches
        .iter()
        .zip(&b_matches)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

pub(crate) fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    let jw = j + prefix as f64 * 0.1 * (1.0 - j);
    jw.clamp(0.0, 1.0)
}

pub(crate) fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    jaccard_sets(&qgrams(a, q), &qgrams(b, q))
}

pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Trinary comparison of two multi-valued name attributes: 1.0 when the
/// value sets are equal, 0.5 when they intersect, 0.0 when disjoint
/// (case-insensitive).
fn trinary(a: &[String], b: &[String]) -> f64 {
    let sa: std::collections::BTreeSet<String> = a.iter().map(|s| s.to_lowercase()).collect();
    let sb: std::collections::BTreeSet<String> = b.iter().map(|s| s.to_lowercase()).collect();
    if sa == sb {
        1.0
    } else if sa.intersection(&sb).next().is_some() {
        0.5
    } else {
        0.0
    }
}

/// Max q-gram (q=2) Jaccard similarity over the cross product of two
/// multi-valued names.
fn name_dist(a: &[String], b: &[String]) -> f64 {
    let mut best: f64 = 0.0;
    for x in a {
        for y in b {
            best = best.max(qgram_jaccard(&x.to_lowercase(), &y.to_lowercase(), 2));
        }
    }
    best
}

/// Max Jaro-Winkler over the cross product of two multi-valued names.
fn name_jw(a: &[String], b: &[String]) -> f64 {
    let mut best: f64 = 0.0;
    for x in a {
        for y in b {
            best = best.max(jaro_winkler(&x.to_lowercase(), &y.to_lowercase()));
        }
    }
    best
}

fn opt_slice(v: &Option<String>) -> Option<Vec<String>> {
    v.as_ref().map(|s| vec![s.clone()])
}

fn set_name_features(
    fv: &mut FeatureVector,
    same_id: FeatureId,
    dist_id: FeatureId,
    a: Option<&[String]>,
    b: Option<&[String]>,
) {
    if let (Some(a), Some(b)) = (a, b) {
        if !a.is_empty() && !b.is_empty() {
            fv.set(same_id, trinary(a, b));
            fv.set(dist_id, name_dist(a, b));
        }
    }
}

fn eq_ci(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b) || a.to_lowercase() == b.to_lowercase()
}

/// The eager extractor: all 48 features in one pass.
pub(crate) fn extract(a: &Record, b: &Record) -> FeatureVector {
    let mut fv = FeatureVector::default();

    // -- Name families -----------------------------------------------------
    set_name_features(
        &mut fv,
        ids::SAME_FN,
        ids::FN_DIST,
        Some(&a.first_names),
        Some(&b.first_names),
    );
    set_name_features(
        &mut fv,
        ids::SAME_LN,
        ids::LN_DIST,
        Some(&a.last_names),
        Some(&b.last_names),
    );
    let pairs = [
        (ids::SAME_MN, ids::MN_DIST, &a.maiden_name, &b.maiden_name),
        (ids::SAME_FFN, ids::FFN_DIST, &a.father_name, &b.father_name),
        (ids::SAME_MFN, ids::MFN_DIST, &a.mother_name, &b.mother_name),
        (
            ids::SAME_MMN,
            ids::MMN_DIST,
            &a.mothers_maiden,
            &b.mothers_maiden,
        ),
        (ids::SAME_SN, ids::SN_DIST, &a.spouse_name, &b.spouse_name),
    ];
    for (same_id, dist_id, va, vb) in pairs {
        let (sa, sb) = (opt_slice(va), opt_slice(vb));
        set_name_features(&mut fv, same_id, dist_id, sa.as_deref(), sb.as_deref());
    }

    // -- Birth-date components ----------------------------------------------
    if let (Some(d1), Some(d2)) = (a.birth.day, b.birth.day) {
        fv.set(ids::B1_DIST, f64::from(day_diff(d1, d2)));
    }
    if let (Some(m1), Some(m2)) = (a.birth.month, b.birth.month) {
        fv.set(ids::B2_DIST, f64::from(month_diff(m1, m2)));
    }
    if let (Some(y1), Some(y2)) = (a.birth.year, b.birth.year) {
        fv.set(ids::B3_DIST, f64::from(year_diff(y1, y2)));
        fv.set(
            ids::B3_DIST_NORM,
            1.0 - (f64::from(year_diff(y1, y2)) / 100.0).min(1.0),
        );
    }
    if let (Some(da), Some(db)) = (
        a.birth.day.zip(a.birth.month).zip(a.birth.year),
        b.birth.day.zip(b.birth.month).zip(b.birth.year),
    ) {
        fv.set(ids::SAME_FULL_DOB, f64::from(da == db));
    }

    // -- Places ---------------------------------------------------------------
    let place_feature_base: [(PlaceType, FeatureId, FeatureId); 4] = [
        (PlaceType::Birth, ids::SAME_BP1, ids::BP_GEO),
        (PlaceType::Permanent, ids::SAME_P1, ids::P_GEO),
        (PlaceType::Wartime, ids::SAME_WP1, ids::WP_GEO),
        (PlaceType::Death, ids::SAME_DP1, ids::DP_GEO),
    ];
    for (ty, same_base, geo_id) in place_feature_base {
        if let (Some(pa), Some(pb)) = (a.place(ty), b.place(ty)) {
            for (k, part) in yv_records::field::PlacePart::ALL.iter().enumerate() {
                if let (Some(x), Some(y)) = (pa.part(*part), pb.part(*part)) {
                    fv.set(same_base + k, f64::from(eq_ci(x, y)));
                }
            }
            if let (Some(g1), Some(g2)) = (pa.coords, pb.coords) {
                fv.set(geo_id, haversine_km(g1, g2));
            }
        }
    }

    // -- Codes ------------------------------------------------------------------
    if let (Some(g1), Some(g2)) = (a.gender, b.gender) {
        fv.set(ids::SAME_GENDER, f64::from(g1 == g2));
    }
    if let (Some(p1), Some(p2)) = (&a.profession, &b.profession) {
        fv.set(ids::SAME_PROFESSION, f64::from(eq_ci(p1, p2)));
    }
    fv.set(ids::SAME_SOURCE, f64::from(a.source == b.source));

    // -- Extra conceivable features ----------------------------------------------
    if !a.first_names.is_empty() && !b.first_names.is_empty() {
        fv.set(ids::FN_JW, name_jw(&a.first_names, &b.first_names));
        let init_match = a.first_names.iter().any(|x| {
            b.first_names.iter().any(|y| {
                x.chars().next().map(|c| c.to_lowercase().to_string())
                    == y.chars().next().map(|c| c.to_lowercase().to_string())
            })
        });
        fv.set(ids::SAME_FIRST_INIT, f64::from(init_match));
    }
    if !a.last_names.is_empty() && !b.last_names.is_empty() {
        fv.set(ids::LN_JW, name_jw(&a.last_names, &b.last_names));
        let init_match = a.last_names.iter().any(|x| {
            b.last_names.iter().any(|y| {
                x.chars().next().map(|c| c.to_lowercase().to_string())
                    == y.chars().next().map(|c| c.to_lowercase().to_string())
            })
        });
        fv.set(ids::SAME_LAST_INIT, f64::from(init_match));
    }
    // Married-name evidence: one record's maiden name equals the other's
    // last name.
    let cross_ab = a
        .maiden_name
        .as_ref()
        .map(|m| b.last_names.iter().any(|l| eq_ci(m, l)));
    let cross_ba = b
        .maiden_name
        .as_ref()
        .map(|m| a.last_names.iter().any(|l| eq_ci(m, l)));
    if let Some(hit) = match (cross_ab, cross_ba) {
        (None, None) => None,
        (x, y) => Some(x.unwrap_or(false) || y.unwrap_or(false)),
    } {
        fv.set(ids::CROSS_MAIDEN_LAST, f64::from(hit));
    }
    // Token Jaccard over the union of all name tokens of each record.
    let all_names = |r: &Record| {
        let mut s = String::new();
        for n in r.first_names.iter().chain(&r.last_names) {
            s.push_str(n);
            s.push(' ');
        }
        for n in [
            &r.maiden_name,
            &r.father_name,
            &r.mother_name,
            &r.mothers_maiden,
            &r.spouse_name,
        ]
        .into_iter()
        .flatten()
        {
            s.push_str(n);
            s.push(' ');
        }
        s
    };
    let (na, nb) = (all_names(a), all_names(b));
    if !na.trim().is_empty() && !nb.trim().is_empty() {
        fv.set(ids::ALL_NAMES_DIST, token_jaccard(&na, &nb));
    }

    fv
}

#[cfg(test)]
mod tests {
    use crate::symbols::{folded, STACK_LEN};
    use proptest::prelude::*;

    /// Both kernels' value bits on one pair, stack path against reference,
    /// for the strings as given and case-folded the way features fold them.
    fn assert_kernels_agree(a: &str, b: &str) {
        assert_eq!(
            crate::jaro(a, b).to_bits(),
            super::jaro(a, b).to_bits(),
            "jaro {a:?} {b:?}"
        );
        assert_eq!(
            crate::jaro_winkler(a, b).to_bits(),
            super::jaro_winkler(a, b).to_bits(),
            "jaro_winkler {a:?} {b:?}"
        );
        assert_eq!(
            crate::strings::levenshtein(a, b),
            super::levenshtein(a, b),
            "levenshtein {a:?} {b:?}"
        );
        for q in 1..=3 {
            assert_eq!(
                crate::jaccard::qgram_jaccard(a, b, q).to_bits(),
                super::qgram_jaccard(a, b, q).to_bits(),
                "qgram_jaccard q={q} {a:?} {b:?}"
            );
        }
        let (la, lb) = (a.to_lowercase(), b.to_lowercase());
        assert_eq!(
            folded(a, b, crate::jaro::JaroWinkler).to_bits(),
            super::jaro_winkler(&la, &lb).to_bits(),
            "folded jaro_winkler {a:?} {b:?}"
        );
        assert_eq!(
            folded(a, b, crate::jaccard::QgramJaccard { q: 2 }).to_bits(),
            super::qgram_jaccard(&la, &lb, 2).to_bits(),
            "folded qgram_jaccard {a:?} {b:?}"
        );
    }

    #[test]
    fn kernels_agree_on_hand_picked_pairs() {
        let long_ascii = "Wolfeschlegelsteinhausenbergerdorff".repeat(2);
        let long_greek = "ΟΔΥΣΣΕΥΣ ".repeat(9);
        let at_limit = "a".repeat(STACK_LEN);
        let over_limit = "a".repeat(STACK_LEN + 1);
        let cases: [&str; 16] = [
            "",
            "a",
            "ab",
            "Foa",
            "foy",
            "Della Torre",
            "della torre",
            "ΟΔΥΣΣΕΥΣ",
            "οδυσσευς",
            "İstanbul",
            "istanbul",
            "Straße",
            &long_ascii,
            &long_greek,
            &at_limit,
            &over_limit,
        ];
        for a in cases {
            for b in cases {
                assert_kernels_agree(a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_agree_on_arbitrary_unicode(
            a in "[a-dA-DΣσςİıßǅé ]{0,14}",
            b in "[a-dA-DΣσςİıßǅé ]{0,14}",
            c in "[a-dA-D ]{0,14}",
            d in "[a-dA-D ]{0,14}",
            long in "[a-cΣİß]{60,70}",
            long_ascii in "[a-cA-C]{60,70}",
        ) {
            for (x, y) in [(&a, &b), (&c, &d), (&a, &c), (&long, &a), (&long_ascii, &c),
                           (&long, &long_ascii), (&long_ascii, &long_ascii)] {
                assert_kernels_agree(x, y);
                assert_kernels_agree(y, x);
            }
        }
    }
}
