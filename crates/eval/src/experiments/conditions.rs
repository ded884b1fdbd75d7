//! Table 9: quality under the varying conditions of Section 6.5, averaged
//! over NG ∈ {3, 3.5, 4} with MaxMinSup = 5.

use crate::experiments::{Context, Report};
use crate::metrics::{prf, Prf};
use crate::table::{f3, Table};
use yv_blocking::mfi_blocks;
use yv_core::{Condition, Pipeline, PipelineConfig};
use yv_records::RecordId;

/// Quality of one condition averaged over the NG values.
#[derive(Debug, Clone, Copy)]
pub struct ConditionQuality {
    pub condition: Condition,
    pub quality: Prf,
}

/// Measure all six conditions.
#[must_use]
pub fn measure(ctx: &Context) -> Vec<ConditionQuality> {
    let ngs = [3.0, 3.5, 4.0];
    // The classifier used by the Cls conditions is trained once on the
    // tagged standard with Maybe omitted, as in Section 6.4's preferred
    // policy.
    let labelled: Vec<(RecordId, RecordId, bool)> = ctx
        .standard
        .pairs
        .iter()
        .filter_map(|p| p.simplified().map(|m| (p.a, p.b, m)))
        .collect();
    let pipeline = Pipeline::train(&ctx.italy.dataset, &labelled, &PipelineConfig::default());

    Condition::ALL
        .iter()
        .map(|&condition| {
            let mut acc = Prf::default();
            for &ng in &ngs {
                let blocking = condition.blocking().with_max_minsup(5).with_ng(ng);
                let result = mfi_blocks(&ctx.italy.dataset, &blocking);
                let mut pairs = result.candidate_pairs;
                if condition.same_src() {
                    pairs.retain(|&(a, b)| !ctx.italy.dataset.same_source(a, b));
                }
                if condition.classify() {
                    pairs.retain(|&(a, b)| {
                        pipeline.score_pair(&ctx.italy.dataset, a, b) > 0.0
                    });
                }
                let q = prf(&pairs, &ctx.standard.matched);
                acc.precision += q.precision;
                acc.recall += q.recall;
                acc.f1 += q.f1;
            }
            let n = ngs.len() as f64;
            ConditionQuality {
                condition,
                quality: Prf {
                    precision: acc.precision / n,
                    recall: acc.recall / n,
                    f1: acc.f1 / n,
                },
            }
        })
        .collect()
}

#[must_use]
pub fn run(ctx: &Context) -> Report {
    let results = measure(ctx);
    let mut t = Table::new(
        "Quality under varying conditions (avg over NG ∈ {3, 3.5, 4}, MaxMinSup = 5)",
        &["Condition", "Recall", "Precision", "F-1"],
    );
    for r in &results {
        t.row(vec![
            r.condition.label().to_owned(),
            f3(r.quality.recall),
            f3(r.quality.precision),
            f3(r.quality.f1),
        ]);
    }
    Report {
        id: "Table 9".into(),
        title: "Quality under Varying Conditions".into(),
        body: t.render(),
        notes: "Shape: expert weighting boosts recall at a small precision \
                cost; the hand-crafted ExpertSim block score hurts both \
                (set-monotonicity loss); SameSrc and Cls trade recall for \
                precision; SameSrc + Cls attains the best F-1 (paper: \
                0.279 -> 0.427)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn table9_shapes_hold() {
        let ctx = Context::build(Scale::quick());
        let results = measure(&ctx);
        let get = |c: Condition| {
            results.iter().find(|r| r.condition == c).expect("all conditions measured").quality
        };
        let base = get(Condition::Base);
        let same_src = get(Condition::SameSrc);
        let cls = get(Condition::Cls);
        let both = get(Condition::SameSrcCls);
        // Filters raise precision relative to their unfiltered blocking
        // (expert weighting), and cost recall.
        let ew = get(Condition::ExpertWeighting);
        assert!(same_src.precision >= ew.precision);
        assert!(cls.precision >= ew.precision);
        assert!(same_src.recall <= ew.recall + 1e-9);
        // The combined condition has the highest precision of the filters.
        assert!(both.precision >= same_src.precision - 1e-9);
        assert!(both.precision >= base.precision * 0.8);
    }
}
