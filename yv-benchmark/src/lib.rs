//! # yv-benchmark
//!
//! The repository's one performance yardstick: four fixed workloads, six
//! end-to-end metrics every workload reports, and a traced run that
//! breaks the same work down layer by layer. `BENCHMARK.json` at the
//! repository root defines it for the driver; `README.md` beside this
//! crate is the glossary.
//!
//! The benchmark drives only public APIs of the product crates and is a
//! package of its own (an empty `[workspace]` table, path dependencies),
//! so building or changing it touches no product manifest or lock file.
//!
//! - [`catalog`] — workload and metric names, units, directions, bounds;
//! - [`inputs`] — everything made from `--seed`, and the frozen sizes;
//! - [`workloads`] — set-up, repetitions and correctness checks;
//! - [`layers`] — the traced run's single-layer replays;
//! - [`spans`] — harness spans, self time, Chrome-trace output;
//! - [`samples`] — raw latency samples and exact percentiles;
//! - [`scratch`] — self-removing scratch directories;
//! - [`report`] — text and JSON renderings.

pub mod catalog;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod samples;
pub mod scratch;
pub mod spans;
pub mod workloads;

/// Errors are messages for the person running the benchmark.
pub type BenchResult<T> = Result<T, String>;

/// Render any error as its message.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}
