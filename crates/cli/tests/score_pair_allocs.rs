//! Allocation guards for the per-name hot loops: pair scoring must not
//! touch the heap (the generator's names are ASCII plus the odd Latin
//! diacritic; only a capital sigma or a name past 64 characters would),
//! the query index's vocabulary scan allocates for the names it matches,
//! not for the names it scans, `RESOLVE`'s q-gram candidate scan
//! allocates the same however many names it examines, and filing a record
//! whose items are all known allocates its bag, not a string per item.
//!
//! One test binary of their own: the counting allocator (the default
//! `alloc-metrics` feature, as in the shipped `yv`) is process-wide, so
//! the tests take turns and nothing else runs beside a measured section.

use std::sync::{Mutex, MutexGuard, PoisonError};
use yv_blocking::mfi_blocks;
use yv_core::{PersonQuery, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{
    Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, RecordBuilder, RecordId, Source,
    SourceId,
};
use yv_store::{QueryIndex, ResolveOptions};

/// Held by each test for its whole run.
fn measuring_alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocation calls made by `f`.
fn alloc_calls(f: impl FnOnce()) -> u64 {
    let before = yv_obs::alloc_stats().alloc_calls;
    f();
    yv_obs::alloc_stats().alloc_calls - before
}

#[test]
fn score_pair_does_not_allocate() {
    let _turn = measuring_alone();
    if !yv_obs::alloc_stats().enabled {
        // Built with --no-default-features: nothing counts allocations.
        return;
    }
    let gen = GenConfig::random(700, 41).generate();
    let ds = &gen.dataset;
    let config = PipelineConfig::default();
    let blocked = mfi_blocks(ds, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 5);
    let labelled: Vec<_> = tags
        .iter()
        .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
        .collect();
    let pipeline = Pipeline::train(ds, &labelled, &config);
    assert!(!pipeline.model.is_empty());

    let pairs = &blocked.candidate_pairs[..1_000];
    let mut total = 0.0;
    let scoring = alloc_calls(|| {
        for &(a, b) in pairs {
            total += pipeline.score_pair(ds, a, b);
        }
    });
    assert!(total.is_finite());
    assert_eq!(
        scoring,
        0,
        "score_pair allocated {scoring} times over {} pairs",
        pairs.len()
    );
}

#[test]
fn query_seeds_allocate_per_match_not_per_name() {
    let _turn = measuring_alone();
    if !yv_obs::alloc_stats().enabled {
        return;
    }
    // One query — the first generated person's names — against a small
    // and a ten-times larger vocabulary.
    let small = GenConfig::random(200, 41).generate().dataset;
    let record = small.record(RecordId(0));
    let query = PersonQuery {
        first_name: record.first_names.first().cloned(),
        last_name: record.last_names.first().cloned(),
        ..PersonQuery::default()
    };
    let one_role = |first: bool| PersonQuery {
        first_name: if first { query.first_name.clone() } else { None },
        last_name: if first { None } else { query.last_name.clone() },
        ..query.clone()
    };
    let mut vocabularies = Vec::new();
    for ds in [small, GenConfig::random(2_000, 41).generate().dataset] {
        let index = QueryIndex::build(&ds);
        // The records the matched names post, role by role.
        let matched = index.seeds(&one_role(true)).len() + index.seeds(&one_role(false)).len();
        let calls = alloc_calls(|| drop(index.seeds(&query)));
        assert!(
            calls <= 8 + matched as u64,
            "seeds made {calls} allocator calls for {matched} matched postings over {} names",
            index.vocabulary_size()
        );
        vocabularies.push((index.vocabulary_size(), matched));
    }
    assert!(vocabularies[1].0 > 4 * vocabularies[0].0, "vocabularies {vocabularies:?}");
    assert!(vocabularies.iter().all(|&(_, matched)| matched > 0), "{vocabularies:?}");
}

#[test]
fn candidate_scans_allocate_the_same_whatever_they_examine() {
    let _turn = measuring_alone();
    if !yv_obs::alloc_stats().enabled {
        return;
    }
    let bound = ResolveOptions::default().bound;
    let mut readings = Vec::new();
    for fillers in [10, 1_000] {
        // "Levi" and names sharing only its leading padded gram: the scan
        // examines every filler and keeps none.
        let mut ds = Dataset::new();
        let source = ds.add_source(Source::list(SourceId(0), "list"));
        ds.add_record(RecordBuilder::new(0, source).last_name("Levi").build());
        for i in 1..=fillers {
            ds.add_record(RecordBuilder::new(i, source).last_name(format!("L{i}")).build());
        }
        let index = QueryIndex::build(&ds);
        let mut found = (0, 0);
        // The test harness's own thread may allocate inside one window
        // (reporting the previous test); that only adds, so the least of
        // three readings is the scan's.
        let calls = (0..3)
            .map(|_| {
                alloc_calls(|| {
                    let (names, stats) = index.fuzzy().candidates("levi", bound);
                    found = (names.len(), stats.examined);
                })
            })
            .min()
            .unwrap_or(u64::MAX);
        readings.push((calls, found));
    }
    assert_eq!(readings[0].1, (1, 11), "{readings:?}");
    assert_eq!(readings[1].1, (1, 1_001), "{readings:?}");
    assert_eq!(readings[0].0, readings[1].0, "allocator calls differ: {readings:?}");
}

#[test]
fn filing_a_record_of_known_items_allocates_its_bag() {
    let _turn = measuring_alone();
    if !yv_obs::alloc_stats().enabled {
        return;
    }
    let mut ds = Dataset::new();
    let source = ds.add_source(Source::list(SourceId(0), "list"));
    // Every kind of item itemize interns: names, codes, the three date
    // parts, and a place's four parts. Mixed case and padding go through
    // the normalization; all of it is ASCII.
    let record = RecordBuilder::new(1, source)
        .first_name("Guido")
        .first_name(" ABRAMO ")
        .last_name("Foa")
        .maiden_name("Levi")
        .father_name("Moise")
        .mother_name("Sara")
        .spouse_name("Rachele")
        .gender(Gender::Male)
        .birth(DateParts::full(18, 11, 1920))
        .profession("Merchant")
        .place(
            PlaceType::Birth,
            Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
        )
        .build();
    ds.add_record(record.clone());
    let items = ds.interner().len();
    assert!(ds.bag(RecordId(0)).len() >= 16, "{} items", ds.bag(RecordId(0)).len());
    let copies: Vec<_> = (0..64).map(|_| record.clone()).collect();
    for copy in copies {
        // The bag, plus the odd doubling of the record and bag lists.
        let calls = alloc_calls(|| {
            ds.add_record(copy);
        });
        assert!(calls <= 3, "add_record of known items made {calls} allocator calls");
    }
    assert_eq!(ds.interner().len(), items);
}
