//! Table 10: comparative quality of blocking techniques on the Italy set.
//!
//! MFIBlocks is compared without classification (to avoid giving it an
//! unfair comparison-cleaning advantage) against the ten baselines under
//! their default configurations.

use crate::experiments::{Context, Report};
use crate::metrics::prf;
use crate::table::{f3, Table};
use yv_baselines::{all_baselines, pair_stats};
use yv_blocking::{mfi_blocks, MfiBlocksConfig};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub name: String,
    pub recall: f64,
    pub precision: f64,
}

/// Measure MFIBlocks plus every baseline.
#[must_use]
pub fn measure(ctx: &Context) -> Vec<ComparisonRow> {
    let gold = &ctx.standard.matched;
    let n = ctx.italy.dataset.len();
    let mut rows = Vec::new();

    let result = mfi_blocks(&ctx.italy.dataset, &MfiBlocksConfig::base());
    let q = prf(&result.candidate_pairs, gold);
    rows.push(ComparisonRow {
        name: "MFIBlocks".into(),
        recall: q.recall,
        precision: q.precision,
    });

    for blocker in all_baselines() {
        let blocks = blocker.blocks(&ctx.italy.dataset);
        let stats = pair_stats(&blocks, n, &|a, b| gold.contains(&(a, b)));
        rows.push(ComparisonRow {
            name: blocker.name().to_owned(),
            recall: stats.recall(gold.len() as u64),
            precision: stats.precision(),
        });
    }
    rows
}

#[must_use]
pub fn run(ctx: &Context) -> Report {
    let rows = measure(ctx);
    let mut t = Table::new(
        "Comparative analysis of blocking techniques on the Italy set",
        &["Blocking Algorithm", "Recall", "Precision"],
    );
    for r in &rows {
        let precision = if r.precision < 0.001 && r.precision > 0.0 {
            "< 0.001".to_owned()
        } else {
            f3(r.precision)
        };
        t.row(vec![r.name.clone(), f3(r.recall), precision]);
    }
    Report {
        id: "Table 10".into(),
        title: "Comparative analysis of Blocking Techniques on Italy dataset".into(),
        body: t.render(),
        notes: "Shape: the token/q-gram/window baselines reach recall ≈ 1 at \
                precision orders of magnitude below MFIBlocks, which trades \
                ~0.77 recall for precision two orders of magnitude higher; \
                the suffix-array variants and TYPiMatch land between."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn mfiblocks_dominates_precision() {
        let ctx = Context::build(Scale::quick());
        let rows = measure(&ctx);
        assert_eq!(rows.len(), 11);
        let mfi = &rows[0];
        assert_eq!(mfi.name, "MFIBlocks");
        // Token blocking reaches (near-)total recall on its own standard.
        let stbl = rows.iter().find(|r| r.name == "StBl").expect("StBl row");
        assert!(stbl.recall > 0.95, "StBl recall {}", stbl.recall);
        // ...at far lower precision than MFIBlocks.
        assert!(
            mfi.precision > stbl.precision * 10.0,
            "MFIBlocks {} vs StBl {}",
            mfi.precision,
            stbl.precision
        );
    }
}
