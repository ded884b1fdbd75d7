//! Family-granularity resolution — the Capelluto example of Section 6.5.
//!
//! Siblings are false positives for *person*-level ER (Elsa, Giulia and
//! Alberto Capelluto are three different children), yet exactly what a
//! researcher reconstructing *family* narratives wants grouped. This
//! example resolves the same dataset at both granularities and prints a
//! small narrative per family entity.
//!
//! ```text
//! cargo run --example family_narratives --release
//! ```

use std::collections::HashMap;
use yad_vashem_er::prelude::*;

fn resolve_pairs(generated: &Generated, granularity: Granularity) -> Vec<(RecordId, RecordId)> {
    let blocking = granularity.blocking();
    mfi_blocks(&generated.dataset, &blocking).candidate_pairs
}

fn main() {
    let generated = GenConfig::random(1_500, 19).generate();
    println!(
        "{} reports, {} persons in {} families\n",
        generated.dataset.len(),
        generated.persons.len(),
        generated
            .persons
            .iter()
            .map(|p| p.family)
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    for granularity in [Granularity::Person, Granularity::Family] {
        let pairs = resolve_pairs(&generated, granularity);
        let person_hits = pairs.iter().filter(|&&(a, b)| generated.is_match(a, b)).count();
        let family_hits = pairs.iter().filter(|&&(a, b)| generated.same_family(a, b)).count();
        println!(
            "{granularity:?} blocking: {} candidate pairs — {:.0}% same-person, {:.0}% same-family",
            pairs.len(),
            100.0 * person_hits as f64 / pairs.len().max(1) as f64,
            100.0 * family_hits as f64 / pairs.len().max(1) as f64,
        );
    }

    // Build family entities from the loose setting and narrate the largest.
    let pairs = resolve_pairs(&generated, Granularity::Family);
    let matches: Vec<RankedMatch> = pairs
        .iter()
        .filter(|&&(a, b)| generated.same_family(a, b)) // family oracle as ranker stand-in
        .map(|&(a, b)| RankedMatch::new(a, b, 1.0))
        .collect();
    let resolution = Resolution::new(matches);
    let mut entities = resolution.entities(Granularity::Family.default_certainty());
    entities.sort_by_key(|e| std::cmp::Reverse(e.len()));

    println!("\nLargest reconstructed family entities:");
    for entity in entities.iter().take(3) {
        // Collect the narrative ingredients.
        let mut names: HashMap<String, usize> = HashMap::new();
        let mut surname = String::new();
        let mut place = String::new();
        for &rid in entity {
            let r = generated.dataset.record(rid);
            if let Some(l) = r.last_names.first() {
                surname = l.clone();
            }
            for f in &r.first_names {
                *names.entry(f.clone()).or_insert(0) += 1;
            }
            if let Some(p) = r.place(PlaceType::Permanent).and_then(|p| p.city.clone()) {
                place = p;
            }
        }
        let mut members: Vec<(String, usize)> = names.into_iter().collect();
        members.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        let list: Vec<String> = members.iter().take(5).map(|(n, _)| n.clone()).collect();
        println!(
            "  The {surname} family of {place}: {} reports mentioning {}",
            entity.len(),
            list.join(", ")
        );
    }
    println!(
        "\nAt person granularity these sibling pairs would be false positives;\n\
         at family granularity they are the narrative (Figure 13's Capelluto\n\
         children)."
    );
}
