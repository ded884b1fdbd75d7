//! A live archive: bootstrap the resolver on the existing collection,
//! then stream newly arriving Pages of Testimony through the incremental
//! resolver, printing each new match's calibrated probability — the deployment
//! scenario of Section 7 ("Yad Vashem is actively engaged in integrating
//! the results of the project into its databases").
//!
//! ```text
//! cargo run --example live_archive --release
//! ```

use yad_vashem_er::core::{IncrementalConfig, IncrementalResolver, PlattCalibration};
use yad_vashem_er::prelude::*;

fn main() {
    // The archive as of "today": 1,200 reports. The generator gives us
    // ground truth so the stream below can be honest about what arrived.
    let generated = GenConfig::random(1_600, 47).generate();
    let n_total = generated.dataset.len();
    let n_bootstrap = 1_200.min(n_total);

    // Split: the first 1,200 records form the existing archive, the rest
    // arrive later.
    let mut archive = Dataset::new();
    for source in generated.dataset.sources() {
        archive.add_source(source.clone());
    }
    for i in 0..n_bootstrap {
        archive.add_record(generated.dataset.record(RecordId(i as u32)).clone());
    }

    // Train on the archive.
    let config = PipelineConfig { classify: true, ..PipelineConfig::default() };
    let blocked = mfi_blocks(&archive, &config.blocking);
    let tags = tag_pairs(&generated, &blocked.candidate_pairs, 12);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&archive, &labelled, &config);

    // Calibrate scores into probabilities on the same labelled pairs.
    let samples: Vec<(f64, bool)> = labelled
        .iter()
        .map(|&(a, b, y)| (pipeline.score_pair(&archive, a, b), y))
        .collect();
    let calibration = PlattCalibration::fit(&samples);
    println!(
        "Bootstrap: {n_bootstrap} records, {} training pairs, calibration σ({:.2}·s + {:.2})",
        labelled.len(),
        calibration.a,
        calibration.b
    );

    let mut resolver = IncrementalResolver::bootstrap(
        archive,
        pipeline,
        config,
        IncrementalConfig::default(),
    );

    // Stream the remaining reports: every match a new report makes is
    // printed with its calibrated probability next to the ground truth.
    let mut arrivals = 0;
    let mut matched_arrivals = 0;
    for i in n_bootstrap..n_total {
        let record = generated.dataset.record(RecordId(i as u32)).clone();
        let new_matches = resolver.insert(record);
        arrivals += 1;
        if !new_matches.is_empty() {
            matched_arrivals += 1;
        }
        for m in &new_matches {
            let truth = generated.is_match(m.a, m.b);
            println!(
                "  P(match)({:?}, {:?}) = {:.3}   [ground truth: {}]",
                m.a,
                m.b,
                calibration.probability(m.score),
                if truth { "same" } else { "different" }
            );
        }
    }
    println!("Streamed {arrivals} arriving reports; {matched_arrivals} matched existing records");
}
