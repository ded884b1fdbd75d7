//! Golden digest of blocking output.
//!
//! FNV-1a over every block's `(minsup, score bits, items, records)` and
//! every candidate pair, for three generated corpora × the three score
//! functions × four configurations. The constants were computed at
//! `ab81357` (the pointer-based miner, every block scored before the NG
//! threshold was taken) and have held through the array-based miner and
//! the lazy, signature-filtered block stages: any change that is
//! meant to keep blocks, scores and pairs bit-identical must leave them
//! alone, and a change that moves pairs on purpose (meta-blocking) re-pins
//! them from the table a failing run prints.

use yv_blocking::{mfi_blocks, BlockingResult, MfiBlocksConfig, ScoreFunction};
use yv_datagen::GenConfig;
use yv_similarity::ExpertWeights;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(result: &BlockingResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.blocks.len() as u64);
    for block in &result.blocks {
        h.u64(block.minsup);
        h.u64(block.score.to_bits());
        h.u64(block.items.len() as u64);
        for item in &block.items {
            h.u64(u64::from(item.0));
        }
        h.u64(block.records.len() as u64);
        for record in &block.records {
            h.u64(u64::from(record.0));
        }
    }
    h.u64(result.candidate_pairs.len() as u64);
    for &(a, b) in &result.candidate_pairs {
        h.u64(u64::from(a.0));
        h.u64(u64::from(b.0));
    }
    h.0
}

const SCORES: [&str; 3] = ["Jaccard", "WeightedJaccard", "ExpertSim"];
const CONFIGS: [&str; 4] = ["default", "with_ng(1.5)", "with_max_minsup(3)", "pruning off"];

fn config(score: usize, variant: usize) -> MfiBlocksConfig {
    let base = MfiBlocksConfig {
        score: match score {
            0 => ScoreFunction::Jaccard,
            1 => ScoreFunction::WeightedJaccard(ExpertWeights::default()),
            _ => ScoreFunction::ExpertSim,
        },
        ..MfiBlocksConfig::default()
    };
    match variant {
        0 => base,
        1 => base.with_ng(1.5),
        2 => base.with_max_minsup(3),
        _ => MfiBlocksConfig { prune_frequent: None, prune_common: None, ..base },
    }
}

/// Digest every score function × configuration over one corpus and compare
/// with the pinned table; on a mismatch the panic message is the full
/// actual table in source form.
fn check(n_records: usize, seed: u64, expected: [[u64; 4]; 3]) {
    let gen = GenConfig::random(n_records, seed).generate();
    let mut actual = [[0u64; 4]; 3];
    for (score, row) in actual.iter_mut().enumerate() {
        for (variant, cell) in row.iter_mut().enumerate() {
            *cell = digest(&mfi_blocks(&gen.dataset, &config(score, variant)));
        }
    }
    if actual != expected {
        let table: Vec<String> = actual
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
                format!("    [{}],", cells.join(", "))
            })
            .collect();
        panic!(
            "blocking digest of random({n_records}, {seed}) moved \
             (rows {SCORES:?}, columns {CONFIGS:?}):\n[\n{}\n]",
            table.join("\n")
        );
    }
}

#[test]
fn digest_600_records_seed_31() {
    check(
        600,
        31,
        [
            [0x0934ead64ef8279e, 0x31987b2407349f74, 0x4c3b8f226861a0b6, 0xbcb3150e262112d0],
            [0x3af69fabcfe5497e, 0x88452be22a8b1b18, 0x05bfaf4e6f031cb4, 0xc7fc501a6853029b],
            [0xf96eed55ac181db1, 0x0af255c8762af1f1, 0xd5a6eae420a594b2, 0x779288daaa85c53c],
        ],
    );
}

#[test]
fn digest_2000_records_seed_10() {
    check(
        2_000,
        10,
        [
            [0x17bdc9aa2630c51d, 0xb79165a341dea908, 0x5daa021c7ccd0851, 0x8c0c70d468886264],
            [0x2b0f62e26b7e19f1, 0xbe892eae29c2795a, 0x3075e66d0d20979b, 0x848adfe91e792982],
            [0x0ee6f617d18e501d, 0xba065d42d3c8b5ac, 0x45904ca66ced431a, 0x9287e9cff6c88838],
        ],
    );
}

#[test]
fn digest_5000_records_seed_7() {
    check(
        5_000,
        7,
        [
            [0x5083e5ef19c077f8, 0xf0b39f659a5bf6b1, 0xc75e4e29011a033d, 0xd2ccaa74de2b354f],
            [0x1220820c3bd8142d, 0x69d03ce99b80bbaa, 0x623a7471d6f4e53d, 0xa86c4541fa2e3e53],
            [0x3b92ca3a43ba5338, 0x2759162188459171, 0xc7cd036a10920269, 0x9d0d4c85b0276363],
        ],
    );
}
