//! The paper's running example (Section 1): the three victim reports for
//! Guido Foa of Turin — one of which spells the surname *Foy* and lists a
//! different permanent residence — plus unrelated records, resolved into
//! ranked match candidates.
//!
//! The example shows why a crisp `first = Guido AND last = Foa` query
//! misses the third report, and how the fuzzy query plus the resolved
//! entity surface it.
//!
//! ```text
//! cargo run --example guido_foa --release
//! ```

use yad_vashem_er::prelude::*;

/// Build the three reports of Table 1 plus a few distractors.
fn table1_dataset() -> Dataset {
    let mut ds = Dataset::new();
    let list_a = ds.add_source(Source::list(SourceId(0), "deportation list, Italy"));
    let testimony =
        ds.add_source(Source::testimony(SourceId(0), "Massimo", "Foa", "Cuorgne"));
    let list_b = ds.add_source(Source::list(SourceId(0), "camp registration cards"));
    let turin = Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69));
    let turin_en = Place::full("Turin", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69));
    let canischio =
        Place::full("Canischio", "Torino", "Piemonte", "Italy", GeoPoint::new(45.38, 7.60));

    // BookID 1016196: Guido Foa the child (born 1936) — a *different*
    // person sharing the name.
    ds.add_record(
        RecordBuilder::new(1_016_196, list_a)
            .first_name("Guido")
            .last_name("Foa")
            .gender(Gender::Male)
            .birth(DateParts::full(2, 8, 1936))
            .place(PlaceType::Birth, turin.clone())
            .place(PlaceType::Permanent, turin.clone())
            .mother_name("Estela")
            .father_name("Italo")
            .build(),
    );
    // BookID 1059654: Guido Foa born 18/11/1920, died in Auschwitz.
    ds.add_record(
        RecordBuilder::new(1_059_654, testimony)
            .first_name("Guido")
            .last_name("Foa")
            .gender(Gender::Male)
            .birth(DateParts::full(18, 11, 1920))
            .place(PlaceType::Birth, turin.clone())
            .place(PlaceType::Permanent, turin)
            .place(
                PlaceType::Death,
                Place::full("Auschwitz", "Oswiecim", "Krakowskie", "Poland", GeoPoint::new(50.03, 19.18)),
            )
            .spouse_name("Helena")
            .mother_name("Olga")
            .father_name("Donato")
            .build(),
    );
    // BookID 1028769: the "Foy" record a crisp query would miss.
    ds.add_record(
        RecordBuilder::new(1_028_769, list_b)
            .first_name("Guido")
            .last_name("Foy")
            .gender(Gender::Male)
            .birth(DateParts::full(18, 11, 1920))
            .place(PlaceType::Birth, turin_en)
            .place(PlaceType::Permanent, canischio)
            .mother_name("Olga")
            .father_name("Donato")
            .build(),
    );
    // Distractors.
    for (i, (first, last)) in
        [("Moshe", "Kesler"), ("Avraham", "Postel"), ("Giulia", "Capelluto")].iter().enumerate()
    {
        ds.add_record(
            RecordBuilder::new(2_000_000 + i as u64, list_a)
                .first_name(*first)
                .last_name(*last)
                .build(),
        );
    }
    ds
}

fn main() {
    let ds = table1_dataset();

    // Score every pair with the 48-feature extractor + a hand-set model?
    // No — train on nothing; instead use blocking + feature inspection to
    // rank, as the deployed system does before the classifier is fitted.
    let blocked = mfi_blocks(
        &ds,
        &MfiBlocksConfig { prune_common: None, prune_frequent: None, ..MfiBlocksConfig::default() },
    );
    println!("Candidate pairs from MFIBlocks:");
    for &(a, b) in &blocked.candidate_pairs {
        let (ra, rb) = (ds.record(a), ds.record(b));
        println!(
            "  BookID {} <-> BookID {}  (shared block keys: {})",
            ra.book_id,
            rb.book_id,
            blocked
                .blocks
                .iter()
                .filter(|blk| blk.records.contains(&a) && blk.records.contains(&b))
                .count()
        );
    }

    // Inspect the decisive features for the two 1920-born records vs. the
    // 1936-born child.
    let fv_same = extract(ds.record(RecordId(1)), ds.record(RecordId(2)));
    let fv_child = extract(ds.record(RecordId(0)), ds.record(RecordId(1)));
    println!("\nFeature evidence (1059654 vs 1028769 — same person):");
    for (id, v) in fv_same.iter_present().take(12) {
        println!("  {:<16} = {v:.3}", FEATURES[id].name);
    }
    println!("\nFeature evidence (1016196 vs 1059654 — father and son):");
    for (id, v) in fv_child.iter_present().take(12) {
        println!("  {:<16} = {v:.3}", FEATURES[id].name);
    }

    // The fuzzy relative-search query of Section 1.
    let matches = blocked
        .candidate_pairs
        .iter()
        .map(|&(a, b)| RankedMatch::new(a, b, 1.0))
        .collect::<Vec<_>>();
    let resolution = Resolution::new(matches);
    let query = PersonQuery {
        first_name: Some("Guido".into()),
        last_name: Some("Foa".into()),
        ..PersonQuery::default()
    };
    println!("\nQuery first=Guido last=Foa:");
    for hit in query.run(&ds, &resolution) {
        let books: Vec<u64> =
            hit.entity.iter().map(|&r| ds.record(r).book_id).collect();
        println!(
            "  seed BookID {} resolves to entity {books:?}",
            ds.record(hit.seed).book_id
        );
    }
    println!(
        "\nNote how BookID 1028769 (surname 'Foy') is reachable through the\n\
         entity of 1059654 even though it never matches the crisp query."
    );
}
