//! One benchmark invocation: a workload in untraced or traced mode, and
//! the `--repeat-check` comparison of two untraced sets.

use crate::catalog::{Better, Workload, END_TO_END};
use crate::inputs::Sizes;
use crate::layers::{per_layer_metrics, REPLAY_THREAD};
use crate::report::WorkloadReport;
use crate::spans::Tracer;
use crate::workloads::{end_to_end_report, run_reps, Prepared};
use crate::{err, BenchResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use yv_obs::Clock;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Timed work to accumulate per workload, in seconds.
    pub seconds: u64,
    pub sizes: Sizes,
    /// Where scratch directories are created (and removed).
    pub scratch_root: PathBuf,
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_untraced(workload: Workload, options: &Options) -> BenchResult<WorkloadReport> {
    let prepared = Prepared::new(workload, options.seed, options.sizes, &options.scratch_root)?;
    let reps = run_reps(&prepared, options.seconds, None)?;
    Ok(end_to_end_report(&prepared, &reps))
}

/// The traced run: one untraced repetition (the overhead baseline), one
/// repetition under harness spans with server trace capture on, then the
/// single-layer replays; the spans go to `trace-<workload>.json` in
/// `trace_dir` as Chrome-trace JSON. Reports every per-layer metric.
pub fn run_traced(
    workload: Workload,
    options: &Options,
    trace_dir: &Path,
) -> BenchResult<WorkloadReport> {
    let trace_path = trace_dir.join(format!("trace-{}.json", workload.name()));
    let sizes = Sizes {
        setup_reps: 1,
        min_reps: 1,
        ..options.sizes
    };
    let prepared = Prepared::new(workload, options.seed, sizes, &options.scratch_root)?;
    let untraced = run_reps(&prepared, 0, None)?;
    let tracer = Tracer::new(Arc::clone(&prepared.clock) as Arc<dyn Clock>);
    let traced = run_reps(&prepared, 0, Some(&tracer))?;
    let (Some(untraced_rep), Some(traced_rep)) = (untraced.first(), traced.first()) else {
        return Err("a traced run needs one repetition of each kind".to_owned());
    };
    let metrics = per_layer_metrics(&prepared, &tracer, untraced_rep, traced_rep)?;

    let trace = tracer.finish();
    std::fs::create_dir_all(trace_dir).map_err(err)?;
    std::fs::write(&trace_path, trace.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let both = || untraced.iter().chain(&traced);
    // The traced repetition's own spans first, then the replays.
    let mut notes = trace.self_time_notes("self_time", |thread| thread != REPLAY_THREAD, 10);
    notes.extend(trace.self_time_notes("replay_time", |thread| thread == REPLAY_THREAD, 12));
    notes.push(format!(
        "chrome_trace {} spans={}",
        trace_path.display(),
        trace.spans.len()
    ));
    notes.extend(both().flat_map(|r| r.notes.iter().cloned()));
    Ok(WorkloadReport {
        workload,
        traced: true,
        attempted: both().map(|r| r.attempted).sum(),
        failed: both().map(|r| r.failed).sum(),
        problems: both().flat_map(|r| r.problems.iter().cloned()).collect(),
        metrics,
        notes,
    })
}

/// One row of the repeat check.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatRow {
    pub workload: Workload,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// Signed share by which the second run is *worse* than the first.
    pub worse_by: f64,
    pub bound: f64,
    pub within: bool,
}

/// Compare two untraced sets of the same build: no metric may differ by
/// more than its bound in either direction, and `quality` — a pure
/// function of the seed wherever one connection (or none) writes — may
/// not differ at all outside `serve_mixed`.
#[must_use]
pub fn repeat_rows(first: &[WorkloadReport], second: &[WorkloadReport]) -> Vec<RepeatRow> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in &END_TO_END {
            let (Some(x), Some(y)) = (a.metric(def.name), b.metric(def.name)) else {
                continue;
            };
            let change = (y.value - x.value) / x.value.abs().max(f64::MIN_POSITIVE);
            let worse_by = match def.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            rows.push(RepeatRow {
                workload: a.workload,
                metric: def.name,
                first: x.value,
                second: y.value,
                worse_by,
                bound: def.bound,
                within: if def.name == "quality" && a.workload != Workload::ServeMixed {
                    x.value == y.value
                } else {
                    worse_by.abs() <= def.bound
                },
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn report(throughput: f64, latency: f64) -> WorkloadReport {
        WorkloadReport {
            workload: Workload::ServeRead,
            traced: false,
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                Metric::single("throughput_per_s", "1/s", throughput, 1),
                Metric::single("latency_p50_us", "us", latency, 1),
            ],
            notes: Vec::new(),
        }
    }

    #[test]
    fn repeat_rows_measure_worsening_in_the_metrics_own_direction() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_us")
            .expect("a catalogue metric")
            .bound;
        let slower = 50.0 * (1.0 + bound + 0.02);
        let rows = repeat_rows(&[report(100.0, 50.0)], &[report(95.0, slower)]);
        assert_eq!(rows.len(), 2, "only metrics both runs report are compared");
        assert_eq!(rows[0].metric, "throughput_per_s");
        assert!(
            (rows[0].worse_by - 0.05).abs() < 1e-12 && rows[0].within,
            "5 % less throughput"
        );
        assert_eq!(rows[1].metric, "latency_p50_us");
        assert!((rows[1].worse_by - (bound + 0.02)).abs() < 1e-12 && !rows[1].within);
        let better = repeat_rows(&[report(100.0, 50.0)], &[report(150.0, 50.0)]);
        assert!(
            better[0].worse_by < 0.0 && !better[0].within,
            "a 50 % swing either way is no repeat"
        );
    }
}
