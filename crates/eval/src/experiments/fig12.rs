//! Figure 12: FP-Growth runtime vs. minsup, with and without
//! frequent-item pruning, at two dataset sizes.
//!
//! The paper plots log(runtime) against minsup ∈ [2, 5] for the 6.5M
//! full set and a 600K sample, each with and without pruning the .03%
//! most frequent items; runtime rises exponentially as minsup falls and
//! roughly linearly with dataset size. We preserve the ~10× size ratio at
//! laptop scale.

use crate::experiments::{Report, Scale};
use crate::table::Table;
use yv_datagen::full_set;
use yv_mfi::{mine_maximal, prune_common_items};
use yv_obs::{Clock, MonotonicClock};

/// One measured series point.
#[derive(Debug, Clone, Copy)]
pub struct RuntimePoint {
    pub n_records: usize,
    pub pruned: bool,
    pub minsup: u64,
    pub seconds: f64,
}

/// Measure all four series. Public so the Criterion bench can reuse it.
///
/// Figure 12 is a runtime study, so the clock is the measurement itself —
/// taken through `yv-obs`'s [`MonotonicClock`], the workspace's one
/// sanctioned wall-clock source.
#[must_use]
pub fn measure(scale: &Scale) -> Vec<RuntimePoint> {
    let clock = MonotonicClock::new();
    let mut points = Vec::new();
    for &n in &[scale.fig12_large, scale.fig12_small] {
        let gen = full_set(n, scale.seed + 3);
        let raw: Vec<Vec<u32>> =
            gen.dataset.bags().iter().map(|b| b.iter().map(|i| i.0).collect()).collect();
        let (pruned_bags, _) = prune_common_items(&raw, 0.05);
        for (pruned, bags) in [(false, &raw), (true, &pruned_bags)] {
            for minsup in [5u64, 4, 3, 2] {
                let t0 = clock.now_nanos();
                let mfis = mine_maximal(bags, minsup);
                let seconds = clock.now_nanos().saturating_sub(t0) as f64 / 1e9;
                // Keep the optimizer honest.
                std::hint::black_box(mfis.len());
                points.push(RuntimePoint { n_records: n, pruned, minsup, seconds });
            }
        }
    }
    points
}

#[must_use]
pub fn run(scale: &Scale) -> Report {
    let points = measure(scale);
    let mut t = Table::new(
        "FP-Growth/FPMax mining runtime (seconds)",
        &["Series", "minsup=5", "minsup=4", "minsup=3", "minsup=2"],
    );
    for &n in &[scale.fig12_large, scale.fig12_small] {
        for pruned in [false, true] {
            let label = format!("{}K{}", n / 1_000, if pruned { ", Prune" } else { "" });
            let cell = |minsup: u64| {
                points
                    .iter()
                    .find(|p| p.n_records == n && p.pruned == pruned && p.minsup == minsup)
                    .map_or("-".to_owned(), |p| format!("{:.3}", p.seconds))
            };
            t.row(vec![label, cell(5), cell(4), cell(3), cell(2)]);
        }
    }
    Report {
        id: "Figure 12".into(),
        title: "Run-time comparison".into(),
        body: t.render(),
        notes: "Shape: runtime increases sharply as minsup decreases, grows \
                roughly linearly with dataset size, and pruning the most \
                frequent items cuts it severalfold. Sizes are \
                scaled from the paper's 6.5M/600K to laptop scale keeping \
                the ~10x ratio; pruning uses the scale-free record-fraction \
                criterion (see DESIGN.md)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_shapes_hold() {
        let scale = Scale { fig12_large: 1_500, fig12_small: 300, ..Scale::quick() };
        let points = measure(&scale);
        assert_eq!(points.len(), 16);
        // Pruning speeds up minsup=2 mining on the large set.
        let get = |n: usize, pruned: bool, minsup: u64| {
            points
                .iter()
                .find(|p| p.n_records == n && p.pruned == pruned && p.minsup == minsup)
                .expect("point exists")
                .seconds
        };
        assert!(get(1_500, true, 2) <= get(1_500, false, 2));
        // Larger datasets take longer at equal settings (allowing noise at
        // these tiny sizes by comparing the slowest points).
        assert!(get(1_500, false, 2) >= get(300, false, 2) * 0.5);
    }

    #[test]
    fn report_has_four_series() {
        let scale = Scale { fig12_large: 600, fig12_small: 150, ..Scale::quick() };
        let report = run(&scale);
        assert_eq!(report.body.lines().count(), 7); // title + header + rule + 4 series
    }
}
