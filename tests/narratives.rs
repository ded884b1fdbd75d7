//! Integration tests for the narrative layer — the paper's motivating
//! application (Section 1).

use yad_vashem_er::core::PersonProfile;
use yad_vashem_er::prelude::*;

fn resolved_fixture() -> (Generated, Vec<Vec<RecordId>>) {
    let generated = GenConfig::random(1_000, 55).generate();
    let config = PipelineConfig::default();
    let blocked = mfi_blocks(&generated.dataset, &config.blocking);
    let tags = tag_pairs(&generated, &blocked.candidate_pairs, 8);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&generated.dataset, &labelled, &config);
    let resolution = pipeline.resolve(&generated.dataset, &config);
    let entities = resolution.entities(0.5);
    (generated, entities)
}

#[test]
fn every_resolved_entity_yields_a_narrative() {
    let (generated, entities) = resolved_fixture();
    assert!(!entities.is_empty());
    for entity in entities.iter().take(50) {
        let profile = PersonProfile::build(&generated.dataset, entity);
        let text = profile.narrative();
        assert!(text.contains("report(s)"), "narrative should cite its evidence: {text}");
        assert!(
            text.split('.').count() >= 2,
            "narrative should have at least a couple of sentences: {text}"
        );
        // Multi-record entities of the generator always carry names.
        assert!(profile.display_name().is_some(), "no name for {entity:?}");
    }
}

#[test]
fn narrative_support_counts_are_bounded_by_entity_size() {
    let (generated, entities) = resolved_fixture();
    for entity in entities.iter().take(50) {
        let profile = PersonProfile::build(&generated.dataset, entity);
        for attested in profile.first_names.iter().chain(&profile.last_names) {
            assert!(attested.support >= 1);
            assert!(attested.support <= entity.len() + entity.len()); // multi-valued names
        }
        for year in &profile.birth_years {
            assert!(year.support <= entity.len());
        }
    }
}
