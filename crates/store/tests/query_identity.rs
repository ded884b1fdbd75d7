//! The serving read path asks the resolver's match graph directly; it
//! must answer exactly what the batch API answers over the same state.
//! On a 4-shard store, with an `ADD` before every read so that no answer
//! can come from anything computed earlier: `QUERY` at ten distinct
//! certainties equals `PersonQuery::run` over `with_dataset` /
//! `resolution()` hit for hit, and `RESOLVE` equals `rank_entities` fed
//! from `Resolution::entity_map(0.0)` and a fold over the matches.
//!
//! `QUERY`'s seeds come from a vocabulary scan that refuses most names on
//! a bound before computing Jaro-Winkler, so the probes also sit where
//! that bound is tight: misspellings of the arrival's names at five name
//! similarities, hand-built names the byte path never sees, and names whose
//! letters collide in one sketch bucket or saturate its count.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use yv_core::{
    IncrementalConfig, IncrementalResolver, PersonQuery, Pipeline, PipelineConfig, QueryHit,
};
use yv_datagen::{tag_pairs, GenConfig};
use yv_fuzzy::{rank_entities, FuzzyIndex, RankedEntity, DEFAULT_QGRAM_BOUND};
use yv_records::{Dataset, Record, RecordBuilder, RecordId, SourceId};
use yv_store::{ResolveOptions, Store};

/// Ten distinct certainties: both infinities, negatives, zero and a
/// spread of positives.
const CERTAINTIES: [f64; 10] =
    [f64::NEG_INFINITY, -2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, f64::INFINITY];

/// Name similarities from "every name" to "the name itself".
const SIMILARITIES: [f64; 5] = [0.0, 0.7, 0.88, 0.95, 1.0];

/// One clerical error each, in the middle of the name: the adjacent pair
/// swapped, the letter dropped, the letter doubled.
fn misspellings(name: &str) -> Vec<String> {
    let chars: Vec<char> = name.chars().collect();
    if chars.len() < 2 {
        return Vec::new();
    }
    let at = chars.len() / 2;
    let mut swapped = chars.clone();
    swapped.swap(at - 1, at);
    let mut dropped = chars.clone();
    dropped.remove(at);
    let mut doubled = chars.clone();
    doubled.insert(at, chars[at]);
    [swapped, dropped, doubled].iter().map(|c| c.iter().collect()).collect()
}

/// `QUERY` served by the store, checked hit for hit against
/// `PersonQuery::run` over the same state.
fn served_query(store: &Store, query: &PersonQuery) -> Vec<QueryHit> {
    let hits = store.query(query);
    let resolution = store.resolution();
    assert_eq!(hits, store.with_dataset(|ds| query.run(ds, &resolution)), "{query:?}");
    hits
}

/// A resolver bootstrapped over four fifths of a generated corpus, plus
/// the held-out fifth as arrivals — duplicates of persons already in the
/// base, so the arrivals grow existing entities rather than sit alone.
fn resolver_and_arrivals(n_records: usize, seed: u64) -> (IncrementalResolver, Vec<Record>) {
    let gen = GenConfig::random(n_records, seed).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);

    let mut base = Dataset::new();
    for source in gen.dataset.sources() {
        base.add_source(source.clone());
    }
    let mut arrivals = Vec::new();
    for rid in gen.dataset.record_ids() {
        let record = gen.dataset.record(rid).clone();
        if rid.index() % 5 == 4 {
            arrivals.push(record);
        } else {
            base.add_record(record);
        }
    }
    let resolver =
        IncrementalResolver::bootstrap(base, pipeline, config, IncrementalConfig::default());
    (resolver, arrivals)
}

/// `RESOLVE` as the batch API computes it: one q-gram index over every
/// record, the entity map at certainty 0, per-record best match score.
fn reference_resolve(store: &Store, name: &str, options: &ResolveOptions) -> Vec<RankedEntity> {
    let resolution = store.resolution();
    let entity_map = resolution.entity_map(0.0);
    let query = name.to_lowercase();
    store.with_dataset(|ds| {
        let mut index = FuzzyIndex::new();
        let mut certainty = vec![0.0_f64; ds.len()];
        for rid in ds.record_ids() {
            index.add_record(rid, ds.record(rid));
        }
        for m in &resolution.matches {
            for rid in [m.a, m.b] {
                certainty[rid.index()] = certainty[rid.index()].max(m.score);
            }
        }
        let (names, _) = index.candidates(&query, options.bound);
        rank_entities(
            &query,
            names.iter().map(|c| (c.name, c.jaccard, c.records)),
            |rid| entity_map.entity_of(rid).map_or_else(|| vec![rid], <[RecordId]>::to_vec),
            |rid| certainty[rid.index()],
            &options.blend,
            options.k,
            options.min_score,
        )
    })
}

#[test]
fn reads_after_every_write_equal_the_batch_api() {
    let (resolver, arrivals) = resolver_and_arrivals(300, 23);
    assert!(arrivals.len() >= 50);
    let dir = ScratchDir::new("interleaved");
    let store = Store::create(&dir, resolver, 4).unwrap();
    let options = ResolveOptions::default();
    assert_eq!(options.bound, DEFAULT_QGRAM_BOUND);

    let mut grown = 0;
    let mut ranked = 0;
    let mut misspelled_hits = 0;
    for (i, arrival) in arrivals.into_iter().enumerate() {
        let first = arrival.first_names.first().cloned();
        let last = arrival.last_names.first().cloned();
        let rid = RecordId(store.stats().records as u32);
        grown += usize::from(!store.add_record(arrival).unwrap().is_empty());

        // Every record is a seed of the unconstrained query, so this
        // compares the entity of every record in the store.
        let certainty = CERTAINTIES[i % CERTAINTIES.len()];
        for query in [
            PersonQuery { certainty, ..PersonQuery::default() },
            PersonQuery { first_name: first.clone(), last_name: last.clone(), certainty, ..PersonQuery::default() },
        ] {
            let hits = served_query(&store, &query);
            assert!(hits.iter().any(|h| h.seed == rid), "arrival {i} must find itself");
        }

        // Misspelled last names alone, and misspelled first names under
        // the exact last name, from every name to the name itself.
        let last_probes = last.as_deref().map_or_else(Vec::new, misspellings);
        let first_probes = first.as_deref().map_or_else(Vec::new, misspellings);
        for name_similarity in SIMILARITIES {
            for probe in &last_probes {
                let query = PersonQuery {
                    last_name: Some(probe.clone()),
                    name_similarity,
                    certainty,
                    ..PersonQuery::default()
                };
                misspelled_hits += served_query(&store, &query).len();
            }
            for probe in &first_probes {
                let query = PersonQuery {
                    first_name: Some(probe.clone()),
                    last_name: last.clone(),
                    name_similarity,
                    certainty,
                };
                misspelled_hits += served_query(&store, &query).len();
            }
        }

        // The arrival's last name, misspelled by dropping its last letter.
        if let Some(mut probe) = last.filter(|l| l.chars().count() > 3) {
            probe.pop();
            let served = store.resolve(&probe, &options).hits;
            assert_eq!(served, reference_resolve(&store, &probe, &options), "RESOLVE {probe:?}");
            ranked += served.len();
        }
    }
    // Not vacuous: arrivals matched into the base and RESOLVE ranked
    // real candidates.
    assert!(grown >= 10, "only {grown} arrivals produced matches");
    assert!(ranked > 0);
    assert!(misspelled_hits > 0);
}

/// Names the generator never writes, filed into a store and asked for
/// in both roles: non-ASCII letters (`İ` lowercases to two characters, a
/// capital sigma by its place in the word), a name past the 64 symbols a
/// string kernel keeps on the stack, an empty first name, and one name
/// that is a first name in one record and a last name in another. The rest
/// are built against the letter sketch the scan filters on (32 buckets of
/// code points sharing their low five bits, counts saturating at 7):
/// letters 32 code points apart share a bucket (`a á !`, `i é`, `v ö`,
/// `q 1`), and eight or more of one letter saturate it on one or both
/// sides of a pair.
#[test]
fn hand_built_names_equal_the_batch_api() {
    let (resolver, _) = resolver_and_arrivals(60, 29);
    let dir = ScratchDir::new("hand-built");
    let store = Store::create(&dir, resolver, 2).unwrap();
    let long = "Abramovich-Rabinowitz-Kaplan-Goldberg-Friedman-Rosenthal-Weinberg-Mandelbaum";
    assert!(long.chars().count() > 64);
    let people = [
        ("Dávid", "İzmir"),
        ("David", "Weiß"),
        ("", "ΟΔΥΣΣΕΥΣ"),
        ("Israel", long),
        ("Sara", "Israel"),
        ("", "Levi"),
        ("Sára", "Lévi"),
        ("Sa!a", "Livi"),
        ("Aaaaaaaaron", "Löwi"),
        ("Annaanna", "Mississippi-Mississippi"),
        ("Q1", "Levvvvvvvvi"),
        ("Eeeeeeee", "Lvwi"),
    ];
    for (i, (first, last)) in people.into_iter().enumerate() {
        let record =
            RecordBuilder::new(900_000 + i as u64, SourceId(0)).first_name(first).last_name(last);
        store.add_record(record.build()).unwrap();
    }

    let probes = [
        "", "dávid", "DAVID", "İzmir", "izmir", "weiß", "WEISS", "Οδυσσευς", "ΟΔΥΣΣΕΥΣ", long,
        "israel", "Levi", "lvei", "Sara", "S!ra", "Livi", "Lévi", "Lövi", "Aaron", "Aaaaaaaaaron",
        "Mississippi", "Mississippi-Mississipi", "Levvvvvvvi", "Lvvvvvvvvvi", "q!", "Eeeeeeeeee",
    ];
    let mut hits = 0;
    for name_similarity in SIMILARITIES {
        for probe in probes {
            for (first_name, last_name) in [(Some(probe), None), (None, Some(probe))] {
                let query = PersonQuery {
                    first_name: first_name.map(str::to_owned),
                    last_name: last_name.map(str::to_owned),
                    name_similarity,
                    ..PersonQuery::default()
                };
                hits += served_query(&store, &query).len();
            }
        }
    }
    assert!(hits > 0);
}
