//! Canopy Clustering \[21\] and its extended variant \[9\].
//!
//! CaCl iteratively removes a random seed record from the candidate pool
//! and forms a canopy from all pool records whose cheap similarity to the
//! seed exceeds an inclusion threshold `t1`; records above the tighter
//! removal threshold `t2` leave the pool, so canopies are mostly disjoint.
//! ECaCl additionally assigns records that ended up in no canopy to the
//! canopy of their most similar seed.

use crate::common::Blocker;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use yv_records::{Dataset, RecordId};
use yv_similarity::jaccard::jaccard_sorted;

/// `CaCl` with token-Jaccard as the cheap similarity.
#[derive(Debug, Clone, Copy)]
pub struct CanopyClustering {
    /// Inclusion threshold (record joins the canopy).
    pub t1: f64,
    /// Removal threshold (record also leaves the pool); must be ≥ `t1`.
    pub t2: f64,
    /// RNG seed for the random seed-record order.
    pub seed: u64,
}

impl Default for CanopyClustering {
    fn default() -> Self {
        CanopyClustering { t1: 0.3, t2: 0.6, seed: 42 }
    }
}

fn raw_bags(ds: &Dataset) -> Vec<Vec<u32>> {
    ds.bags().iter().map(|bag| bag.iter().map(|i| i.0).collect()).collect()
}

fn build_canopies(
    ds: &Dataset,
    config: &CanopyClustering,
) -> (Vec<(RecordId, Vec<RecordId>)>, Vec<RecordId>) {
    assert!(config.t2 >= config.t1, "t2 must be at least t1");
    let bags = raw_bags(ds);
    let n = ds.len();
    // Inverted index for candidate generation: a Jaccard above t1 > 0
    // requires at least one shared item, so only records sharing an item
    // with the seed are compared. Ultra-common items (gender codes,
    // country names — appearing in over 10% of records) are skipped: on
    // their own they cannot lift Jaccard past any useful t1 and they would
    // reintroduce the quadratic scan.
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); ds.interner().len()];
    for (ri, bag) in bags.iter().enumerate() {
        for &item in bag {
            postings[item as usize].push(ri as u32);
        }
    }
    let common_cap = (n / 10).max(50);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut in_pool = vec![true; n];
    let mut covered = vec![false; n];
    let mut seen = vec![false; n];
    let mut canopies: Vec<(RecordId, Vec<RecordId>)> = Vec::new();
    for &seed_idx in &order {
        if !in_pool[seed_idx] {
            continue;
        }
        in_pool[seed_idx] = false;
        covered[seed_idx] = true;
        let mut members = vec![RecordId(seed_idx as u32)];
        let mut candidates: Vec<u32> = Vec::new();
        for &item in &bags[seed_idx] {
            let list = &postings[item as usize];
            if list.len() > common_cap {
                continue;
            }
            for &other in list {
                let o = other as usize;
                if o != seed_idx && in_pool[o] && !seen[o] {
                    seen[o] = true;
                    candidates.push(other);
                }
            }
        }
        for &other in &candidates {
            let o = other as usize;
            seen[o] = false;
            let sim = jaccard_sorted(&bags[seed_idx], &bags[o]);
            if sim > config.t1 {
                members.push(RecordId(other));
                covered[o] = true;
                if sim > config.t2 {
                    in_pool[o] = false;
                }
            }
        }
        if members.len() >= 2 {
            members.sort_unstable();
            canopies.push((RecordId(seed_idx as u32), members));
        }
    }
    let leftovers: Vec<RecordId> =
        (0..n).filter(|&i| !covered[i]).map(|i| RecordId(i as u32)).collect();
    (canopies, leftovers)
}

impl Blocker for CanopyClustering {
    fn name(&self) -> &'static str {
        "CaCl"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        build_canopies(ds, self).0.into_iter().map(|(_, members)| members).collect()
    }
}

/// `ECaCl`: CaCl plus nearest-seed assignment of leftover records.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct ExtendedCanopyClustering {
    pub inner: CanopyClustering,
}


impl Blocker for ExtendedCanopyClustering {
    fn name(&self) -> &'static str {
        "ECaCl"
    }

    fn blocks(&self, ds: &Dataset) -> Vec<Vec<RecordId>> {
        let (mut canopies, leftovers) = build_canopies(ds, &self.inner);
        let bags = raw_bags(ds);
        for record in leftovers {
            let mut best: Option<(usize, f64)> = None;
            for (ci, (seed, _)) in canopies.iter().enumerate() {
                let sim = jaccard_sorted(&bags[record.index()], &bags[seed.index()]);
                if sim > 0.0 && best.is_none_or(|(_, b)| sim > b) {
                    best = Some((ci, sim));
                }
            }
            if let Some((ci, _)) = best {
                canopies[ci].1.push(record);
                canopies[ci].1.sort_unstable();
            }
        }
        canopies.into_iter().map(|(_, members)| members).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{DateParts, Gender, RecordBuilder, Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        for i in 0..2 {
            ds.add_record(
                RecordBuilder::new(i, s)
                    .first_name("Guido")
                    .last_name("Foa")
                    .gender(Gender::Male)
                    .birth(DateParts::year_only(1920))
                    .build(),
            );
        }
        ds.add_record(
            RecordBuilder::new(2, s)
                .first_name("Moshe")
                .last_name("Postel")
                .gender(Gender::Female)
                .build(),
        );
        ds
    }

    #[test]
    fn near_duplicates_share_a_canopy() {
        let blocks = CanopyClustering::default().blocks(&dataset());
        assert!(blocks
            .iter()
            .any(|b| b.contains(&RecordId(0)) && b.contains(&RecordId(1))));
    }

    #[test]
    fn extended_variant_assigns_leftovers() {
        let ds = dataset();
        let base: usize =
            CanopyClustering::default().blocks(&ds).iter().map(Vec::len).sum();
        let extended: usize =
            ExtendedCanopyClustering::default().blocks(&ds).iter().map(Vec::len).sum();
        assert!(extended >= base);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = dataset();
        let a = CanopyClustering::default().blocks(&ds);
        let b = CanopyClustering::default().blocks(&ds);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "t2 must be at least t1")]
    fn inverted_thresholds_panic() {
        let ds = dataset();
        let _ = CanopyClustering { t1: 0.9, t2: 0.1, seed: 0 }.blocks(&ds);
    }
}
