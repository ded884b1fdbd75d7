//! Measured values and their renderings: `workload metric value unit`
//! lines for people, JSON for the driver and for `--out`.

use crate::catalog::Workload;
use crate::samples::median;

/// One reported metric: the median over repetitions with the spread
/// beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// How many measurements the value summarises (repetitions, or raw
    /// samples for a percentile taken over one pass).
    pub samples: usize,
}

impl Metric {
    /// Median, min and max of per-repetition values.
    #[must_use]
    pub fn of_reps(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len(),
        }
    }

    /// A single measurement over `samples` raw samples.
    #[must_use]
    pub fn single(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            min: value,
            max: value,
            samples,
        }
    }
}

/// Everything one workload produced in one mode (untraced or traced).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub traced: bool,
    /// Operations attempted across the measured repetitions.
    pub attempted: u64,
    /// Transport errors, refusals and oracle mismatches among them.
    pub failed: u64,
    /// Failed correctness checks, in words. Empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable extras of the traced run (self time by span).
    pub notes: Vec<String>,
}

impl WorkloadReport {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `workload metric value unit n=… min=… max=…`, one line each.
    #[must_use]
    pub fn text(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{w} {} {} {} n={} min={} max={}\n",
                m.name,
                number(m.value),
                m.unit,
                m.samples,
                number(m.min),
                number(m.max)
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("# {w} {note}\n"));
        }
        for problem in &self.problems {
            out.push_str(&format!("# {w} CHECK FAILED: {problem}\n"));
        }
        out.push_str(&format!(
            "# {w} attempted={} failed={} correct={}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        out
    }
}

/// A JSON number with all the digits the measurement has; non-finite
/// values (which no metric should produce) degrade to 0.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escape a string for a JSON document.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. With one report the metric names are bare; with
/// several they are prefixed `workload.`.
#[must_use]
pub fn result_line(reports: &[WorkloadReport]) -> String {
    let prefix = reports.len() > 1;
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", r.workload.name(), m.name)
                } else {
                    m.name.to_owned()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&name),
                    number(m.value),
                    quote(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(WorkloadReport::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The `--out` document: every report with spreads and sample counts.
#[must_use]
pub fn document(seed: u64, seconds: u64, reports: &[WorkloadReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "      {}: {{\"value\": {}, \"unit\": {}, \"min\": {}, \"max\": {}, \"samples\": {}}}",
                        quote(m.name),
                        number(m.value),
                        quote(m.unit),
                        number(m.min),
                        number(m.max),
                        m.samples
                    )
                })
                .collect();
            let problems: Vec<String> = r.problems.iter().map(|p| quote(p)).collect();
            format!(
                "    {{\"workload\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{\n{}\n    }}}}",
                quote(r.workload.name()),
                r.traced,
                r.correct(),
                r.attempted,
                r.failed,
                problems.join(", "),
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"cores\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        workloads.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: Workload, failed: u64) -> WorkloadReport {
        WorkloadReport {
            workload,
            traced: false,
            attempted: 10,
            failed,
            problems: Vec::new(),
            metrics: vec![Metric::of_reps("setup_s", "s", &[0.5, 0.25, 0.75])],
            notes: Vec::new(),
        }
    }

    #[test]
    fn repetition_metrics_report_the_median_with_its_spread() {
        let m = Metric::of_reps("setup_s", "s", &[0.5, 0.25, 0.75]);
        assert_eq!((m.value, m.min, m.max, m.samples), (0.5, 0.25, 0.75, 3));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&[report(Workload::ServeRead, 0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let both = result_line(&[
            report(Workload::ServeRead, 0),
            report(Workload::ServeMixed, 2),
        ]);
        assert!(both.starts_with("{\"correct\": false, \"attempted\": 20, \"failed\": 2,"));
        assert!(both.contains("\"serve_mixed.setup_s\""));
    }

    #[test]
    fn text_lines_lead_with_workload_metric_value_unit() {
        let text = report(Workload::BatchResolve, 0).text();
        assert!(text.starts_with("batch_resolve setup_s 0.5 s n=3 min=0.25 max=0.75\n"));
        assert!(text.ends_with("# batch_resolve attempted=10 failed=0 correct=true\n"));
    }

    #[test]
    fn json_strings_and_numbers_are_safe() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.25), "1.25");
    }
}
