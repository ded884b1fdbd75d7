//! The generator's own equivalence dictionary: the ground-truth variant
//! tables (nicknames, gazetteer transliteration twins) exposed as the
//! [`EquivalenceClasses`] the Names Project experts would have curated.
//!
//! This is what lets experiments ablate the paper's claim that
//! "preprocessing of all misspelling and name synonyms led to a large yet
//! relatively clean database": blocking with the dictionary applied
//! corresponds to the paper's pre-cleaned inputs, without it to raw
//! multi-alphabet chaos.

use crate::names::{self, nicknames};
use crate::places;
use crate::sets::Region;
use yv_records::{Dataset, EquivalenceClasses, Source};

/// Build the dictionary covering every nickname in the generator's tables
/// and every gazetteer city that shares coordinates with another spelling
/// (the Torino/Turin twins).
#[must_use]
pub fn equivalence_classes() -> EquivalenceClasses {
    let mut eq = EquivalenceClasses::new();
    for region in Region::ALL {
        for pool in [names::male_first_names(region), names::female_first_names(region)] {
            for name in pool {
                for variant in nicknames(name) {
                    eq.register(name, variant);
                }
            }
        }
        // Gazetteer twins: same coordinates, different spellings.
        let gaz = places::residences(region);
        for (i, a) in gaz.iter().enumerate() {
            for b in &gaz[i + 1..] {
                if (a.lat - b.lat).abs() < 1e-9 && (a.lon - b.lon).abs() < 1e-9 {
                    eq.register(a.city, b.city);
                }
            }
        }
    }
    eq
}

/// Rebuild a dataset with the dictionary applied to every record — the
/// "with preprocessing" arm of the ablation. Sources and record order are
/// preserved, so gold-standard record ids remain valid.
#[must_use]
pub fn canonicalized_dataset(ds: &Dataset, eq: &EquivalenceClasses) -> Dataset {
    let mut out = Dataset::new();
    for source in ds.sources() {
        out.add_source(Source { id: source.id, kind: source.kind.clone() });
    }
    for rid in ds.record_ids() {
        let mut record = ds.record(rid).clone();
        eq.apply(&mut record);
        let new_id = out.add_record(record);
        debug_assert_eq!(new_id, rid);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::GenConfig;
    use yv_records::RecordId;

    #[test]
    fn dictionary_covers_nicknames_and_twins() {
        let eq = equivalence_classes();
        assert!(!eq.is_empty());
        assert_eq!(eq.canonicalize("Avrum"), "avraham");
        assert_eq!(eq.canonicalize("Turin"), "torino");
    }

    #[test]
    fn canonicalization_reduces_vocabulary() {
        let gen = GenConfig::random(2_000, 77).generate();
        let eq = equivalence_classes();
        let canon = canonicalized_dataset(&gen.dataset, &eq);
        assert!(gen.dataset.record_ids().eq(canon.record_ids()), "record ids are stable");
        assert!(
            canon.interner().len() < gen.dataset.interner().len(),
            "merging variants must shrink the item vocabulary: {} -> {}",
            gen.dataset.interner().len(),
            canon.interner().len()
        );
    }

    #[test]
    fn canonicalization_improves_blocking_recall() {
        let gen = GenConfig::random(1_500, 13).generate();
        let eq = equivalence_classes();
        let canon = canonicalized_dataset(&gen.dataset, &eq);
        let config = yv_blocking::MfiBlocksConfig::default();
        let raw = yv_blocking::mfi_blocks(&gen.dataset, &config);
        let clean = yv_blocking::mfi_blocks(&canon, &config);
        let gold: std::collections::HashSet<_> = gen.matching_pairs().into_iter().collect();
        let recall = |pairs: &[(RecordId, RecordId)]| {
            pairs.iter().filter(|p| gold.contains(*p)).count() as f64 / gold.len() as f64
        };
        let r_raw = recall(&raw.candidate_pairs);
        let r_clean = recall(&clean.candidate_pairs);
        assert!(
            r_clean >= r_raw - 0.02,
            "preprocessing must not lose recall: {r_raw:.3} -> {r_clean:.3}"
        );
    }
}
