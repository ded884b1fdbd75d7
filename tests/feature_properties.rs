//! Property tests on the 48-feature extractor over realistic generated
//! records: symmetry, range discipline and missing-value semantics.

use yad_vashem_er::prelude::*;
use yad_vashem_er::similarity::features::FeatureKind;

fn sample_records() -> Generated {
    GenConfig::random(500, 33).generate()
}

proptest::proptest! {
    /// `feature` is the definition, `extract` the loop over it: asked one at
    /// a time (as the ADTree asks) or all at once, a pair yields the same
    /// bits.
    #[test]
    fn single_features_are_the_extracted_vector(a in 0u32..500, b in 0u32..500) {
        static SAMPLE: std::sync::OnceLock<Generated> = std::sync::OnceLock::new();
        let gen = SAMPLE.get_or_init(sample_records);
        let n = gen.dataset.len() as u32;
        let ra = gen.dataset.record(RecordId(a % n));
        let rb = gen.dataset.record(RecordId(b % n));
        let fv = extract(ra, rb);
        for (id, def) in FEATURES.iter().enumerate() {
            assert_eq!(
                feature(id, ra, rb).map(f64::to_bits),
                fv.get(id).map(f64::to_bits),
                "{} of records {a} / {b}",
                def.name
            );
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // f indexes parallel FEATURES metadata
fn extraction_is_symmetric() {
    let gen = sample_records();
    let n = gen.dataset.len();
    for k in 0..400usize {
        let a = RecordId((k * 7 % n) as u32);
        let b = RecordId((k * 13 + 1) as u32 % n as u32);
        let ab = extract(gen.dataset.record(a), gen.dataset.record(b));
        let ba = extract(gen.dataset.record(b), gen.dataset.record(a));
        for f in 0..FEATURE_COUNT {
            match (ab.get(f), ba.get(f)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "feature {} asymmetric: {x} vs {y}",
                        FEATURES[f].name
                    );
                }
                (x, y) => panic!(
                    "feature {} presence asymmetric: {x:?} vs {y:?}",
                    FEATURES[f].name
                ),
            }
        }
    }
}

#[test]
fn feature_ranges_respect_their_kinds() {
    let gen = sample_records();
    let n = gen.dataset.len() as u32;
    for k in 0..500u32 {
        let a = RecordId(k % n);
        let b = RecordId((k * 3 + 1) % n);
        let fv = extract(gen.dataset.record(a), gen.dataset.record(b));
        for (f, value) in fv.iter_present() {
            match FEATURES[f].kind {
                FeatureKind::Trinary => {
                    assert!(
                        [0.0, 0.5, 1.0].iter().any(|&t| (value - t).abs() < 1e-12),
                        "{} = {value}",
                        FEATURES[f].name
                    );
                }
                FeatureKind::Binary => {
                    assert!(value == 0.0 || value == 1.0, "{} = {value}", FEATURES[f].name);
                }
                FeatureKind::Similarity => {
                    assert!((0.0..=1.0).contains(&value), "{} = {value}", FEATURES[f].name);
                }
                FeatureKind::Distance => {
                    assert!(value >= 0.0, "{} = {value}", FEATURES[f].name);
                }
            }
        }
    }
}

#[test]
fn self_comparison_is_maximal() {
    let gen = sample_records();
    for k in 0..50u32 {
        let r = RecordId(k);
        let fv = extract(gen.dataset.record(r), gen.dataset.record(r));
        for (f, value) in fv.iter_present() {
            // crossMaidenLast compares one record's maiden name with the
            // *other's* current surname; for a married woman it is
            // legitimately 0 on self-comparison.
            if FEATURES[f].name == "crossMaidenLast" {
                continue;
            }
            match FEATURES[f].kind {
                FeatureKind::Trinary | FeatureKind::Binary => {
                    assert!(
                        (value - 1.0).abs() < 1e-12,
                        "self-compare {} = {value}",
                        FEATURES[f].name
                    );
                }
                FeatureKind::Similarity => {
                    assert!((value - 1.0).abs() < 1e-12, "{} = {value}", FEATURES[f].name);
                }
                FeatureKind::Distance => {
                    assert!(value.abs() < 1e-12, "{} = {value}", FEATURES[f].name);
                }
            }
        }
    }
}

#[test]
fn gold_pairs_score_higher_than_random_pairs() {
    // Aggregate separation: the mean present-feature "goodness" of true
    // matches must exceed random pairs — the signal the ADT learns from.
    let gen = sample_records();
    let gold = gen.matching_pairs();
    let present_avg = |a: RecordId, b: RecordId| {
        let fv = extract(gen.dataset.record(a), gen.dataset.record(b));
        let sims: Vec<f64> = fv
            .iter_present()
            .filter(|&(f, _)| {
                matches!(FEATURES[f].kind, FeatureKind::Similarity | FeatureKind::Trinary)
            })
            .map(|(_, v)| v)
            .collect();
        sims.iter().sum::<f64>() / sims.len().max(1) as f64
    };
    let gold_mean: f64 = gold.iter().take(200).map(|&(a, b)| present_avg(a, b)).sum::<f64>()
        / gold.len().min(200) as f64;
    let n = gen.dataset.len() as u32;
    let random_mean: f64 = (0..200u32)
        .map(|k| present_avg(RecordId(k % n), RecordId((k * 17 + 5) % n)))
        .sum::<f64>()
        / 200.0;
    assert!(
        gold_mean > random_mean + 0.2,
        "gold {gold_mean:.3} vs random {random_mean:.3}"
    );
}
