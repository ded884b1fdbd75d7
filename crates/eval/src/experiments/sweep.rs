//! Figures 15–16: blocking quality by NG × MaxMinSup on the Italy set.

use crate::experiments::{Context, Report};
use crate::metrics::{prf, Prf};
use crate::table::{f3, Table};
use yv_blocking::{mfi_blocks, MfiBlocksConfig};

/// One sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    pub ng: f64,
    pub max_minsup: u64,
    pub quality: Prf,
}

/// Run the sweep; shared by Figures 15 and 16.
#[must_use]
pub fn measure(ctx: &Context) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &max_minsup in &ctx.scale.sweep_minsups {
        for &ng in &ctx.scale.sweep_ngs {
            let config = MfiBlocksConfig::expert_weighting()
                .with_max_minsup(max_minsup)
                .with_ng(ng);
            let result = mfi_blocks(&ctx.italy.dataset, &config);
            let quality = prf(&result.candidate_pairs, &ctx.standard.matched);
            points.push(SweepPoint { ng, max_minsup, quality });
        }
    }
    points
}

/// Build both reports from one sweep.
#[must_use]
pub fn run(ctx: &Context) -> Vec<Report> {
    let points = measure(ctx);
    vec![fig15(ctx, &points), fig16(ctx, &points)]
}

fn header(ctx: &Context, metric: &str) -> Vec<String> {
    let mut h = vec!["NG".to_owned()];
    for &m in &ctx.scale.sweep_minsups {
        h.push(format!("{metric} (MaxMinSup {m})"));
    }
    h
}

fn fig15(ctx: &Context, points: &[SweepPoint]) -> Report {
    let headers = header(ctx, "F-1");
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("F-1 score by NG and MaxMinSup", &headers_ref);
    for &ng in &ctx.scale.sweep_ngs {
        let mut row = vec![format!("{ng:.1}")];
        for &m in &ctx.scale.sweep_minsups {
            let p = points
                .iter()
                .find(|p| p.ng == ng && p.max_minsup == m)
                .expect("sweep covers the grid");
            row.push(f3(p.quality.f1));
        }
        t.row(row);
    }
    Report {
        id: "Figure 15".into(),
        title: "F-1 score By NG and MaxMinSup".into(),
        body: t.render(),
        notes: "Shape: F-1 peaks at intermediate NG (paper: NG≈3-3.5 for \
                MaxMinSup 5-6) and falls off at both extremes."
            .into(),
    }
}

fn fig16(ctx: &Context, points: &[SweepPoint]) -> Report {
    let mut headers = vec!["NG".to_owned()];
    for &m in &ctx.scale.sweep_minsups {
        headers.push(format!("Recall {m}"));
    }
    for &m in &ctx.scale.sweep_minsups {
        headers.push(format!("Precision {m}"));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Precision and Recall by NG and MaxMinSup", &headers_ref);
    for &ng in &ctx.scale.sweep_ngs {
        let mut row = vec![format!("{ng:.1}")];
        for &m in &ctx.scale.sweep_minsups {
            let p = points.iter().find(|p| p.ng == ng && p.max_minsup == m).expect("grid");
            row.push(f3(p.quality.recall));
        }
        for &m in &ctx.scale.sweep_minsups {
            let p = points.iter().find(|p| p.ng == ng && p.max_minsup == m).expect("grid");
            row.push(f3(p.quality.precision));
        }
        t.row(row);
    }
    Report {
        id: "Figure 16".into(),
        title: "Precision and Recall By NG and MaxMinSup".into(),
        body: t.render(),
        notes: "Shape: recall rises with NG while precision falls; the \
                preferred operating point (MaxMinSup 5, NG 3-4) favors \
                recall because SameSrc and the classifier filter later."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn recall_trends_upward_in_ng() {
        // Recall is not strictly monotone in NG (the per-iteration record
        // coverage shifts with the surviving blocks — the paper's Figure
        // 16 wobbles too), but the overall trend must rise.
        let ctx = Context::build(Scale::quick());
        let points = measure(&ctx);
        for &m in &ctx.scale.sweep_minsups {
            let series: Vec<f64> = points
                .iter()
                .filter(|p| p.max_minsup == m)
                .map(|p| p.quality.recall)
                .collect();
            let first = series.first().copied().expect("non-empty sweep");
            let last = series.last().copied().expect("non-empty sweep");
            assert!(
                last >= first - 0.05,
                "loosest NG should not lose much recall vs tightest (minsup {m}): {first} -> {last}"
            );
        }
    }

    #[test]
    fn reports_cover_the_grid() {
        let ctx = Context::build(Scale::quick());
        let reports = run(&ctx);
        assert_eq!(reports.len(), 2);
        for ng in &ctx.scale.sweep_ngs {
            assert!(reports[0].body.contains(&format!("{ng:.1}")));
        }
    }
}
