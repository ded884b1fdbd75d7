//! Allocation guards, each holding a hot path to an allocator-call or
//! heap-growth bound under the counting allocator (the default
//! `alloc-metrics` feature, as in the shipped `yv`):
//!
//! - pair scoring must not touch the heap (the generator's names are ASCII
//!   plus the odd Latin diacritic; only a capital sigma or a name past 64
//!   characters would);
//! - the query index's vocabulary scan allocates for the names it matches,
//!   not for the names it scans;
//! - `RESOLVE`'s q-gram candidate scan allocates the same however many
//!   names it examines;
//! - filing a record whose items are all known allocates its bag, not a
//!   string per item;
//! - blocking (mining, support, scoring and the NG filter) allocates per
//!   result — one itemset per MFI, two vectors per kept block, plus buffer
//!   growth — not per block considered or record pair scored;
//! - the frame reader buffers the bytes that arrived, not the length the
//!   header claimed, so a peer that sends a header and goes quiet cannot
//!   pin `MAX_PAYLOAD` per worker.
//!
//! The counter is process-wide, so this binary has no test harness: `main`
//! runs the guards one after another on its own thread, and no other
//! thread runs (or prints a result) beside a measured section. It prints
//! libtest's `test <name> ... ok` lines, takes name filters as arguments
//! and lists its guards with `--list`.

use yv_blocking::score::block_score;
use yv_blocking::{mfi_blocks, MfiBlocksConfig, ScoreFunction};
use yv_core::{PersonQuery, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig};
use yv_records::{
    Dataset, DateParts, Gender, GeoPoint, Place, PlaceType, RecordBuilder, RecordId, Source,
    SourceId,
};
use yv_store::frame::read_raw_frame;
use yv_store::{QueryIndex, ResolveOptions, StoreError, MAX_PAYLOAD};

/// `(name, guard)` pairs, in the order `main` runs them.
macro_rules! named {
    ($($guard:ident),* $(,)?) => { [$((stringify!($guard), $guard as fn())),*] };
}

const GUARDS: [(&str, fn()); 6] = named![
    score_pair_does_not_allocate,
    query_seeds_allocate_per_match_not_per_name,
    candidate_scans_allocate_the_same_whatever_they_examine,
    filing_a_record_of_known_items_allocates_its_bag,
    blocking_allocates_per_result_not_per_candidate,
    a_claimed_length_is_not_allocated_before_its_bytes_arrive,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filters: Vec<&str> =
        args.iter().map(String::as_str).filter(|arg| !arg.starts_with('-')).collect();
    let selected: Vec<_> = GUARDS
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| name.contains(f)))
        .collect();
    if args.iter().any(|arg| arg == "--list") {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    if !yv_obs::alloc_stats().enabled {
        println!("built with --no-default-features: nothing counts allocations, no guard ran");
        return;
    }
    println!("\nrunning {} tests", selected.len());
    for (name, guard) in &selected {
        guard();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; {} filtered out\n",
        selected.len(),
        GUARDS.len() - selected.len()
    );
}

/// Allocation calls made by `f`.
fn alloc_calls(f: impl FnOnce()) -> u64 {
    let before = yv_obs::alloc_stats().alloc_calls;
    f();
    yv_obs::alloc_stats().alloc_calls - before
}

fn score_pair_does_not_allocate() {
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

fn query_seeds_allocate_per_match_not_per_name() {
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

fn candidate_scans_allocate_the_same_whatever_they_examine() {
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
        let calls = alloc_calls(|| {
            let (names, stats) = index.fuzzy().candidates("levi", bound);
            found = (names.len(), stats.examined);
        });
        readings.push((calls, found));
    }
    assert_eq!(readings[0].1, (1, 11), "{readings:?}");
    assert_eq!(readings[1].1, (1, 1_001), "{readings:?}");
    assert_eq!(readings[0].0, readings[1].0, "allocator calls differ: {readings:?}");
}

fn filing_a_record_of_known_items_allocates_its_bag() {
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

fn blocking_allocates_per_result_not_per_candidate() {
    let gen = GenConfig::random(2_000, 10).generate();
    let ds = &gen.dataset;

    let mut result = None;
    let blocking = alloc_calls(|| result = Some(mfi_blocks(ds, &MfiBlocksConfig::default())));
    let result = result.expect("the closure ran");
    // The pointer-based miner and per-block vectors made 207 711 calls
    // here (2 251 MFIs, 785 kept blocks, 4 709 pairs).
    assert!(blocking <= 40_000, "mfi_blocks made {blocking} allocator calls");

    let blocks: Vec<_> = result.blocks.iter().cycle().take(1_000).collect();
    let mut total = 0.0;
    let scoring = alloc_calls(|| {
        for block in &blocks {
            total += block_score(ds, &block.records, &ScoreFunction::Jaccard);
        }
    });
    assert!(total.is_finite());
    assert_eq!(scoring, 0, "block_score allocated {scoring} times over {} blocks", blocks.len());
}

fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
    let mut bytes = vec![1u8];
    bytes.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    bytes.extend_from_slice(&[0xab; 16]);
    let mut stream = std::io::Cursor::new(bytes);

    let live = yv_obs::alloc_stats().live_bytes;
    yv_obs::reset_peak();
    let outcome = read_raw_frame(&mut stream);
    let grown = yv_obs::alloc_stats().peak_bytes.saturating_sub(live);

    match outcome {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("torn frame") && msg.contains("mid-payload"), "{msg}");
        }
        other => panic!("expected a torn-frame error, got {other:?}"),
    }
    assert!(grown < 1024 * 1024, "a 16-byte body grew the heap by {grown} bytes");
}
