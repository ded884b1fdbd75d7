//! `yv-benchmark` — run the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path yv-benchmark/Cargo.toml -- \
//!     [--seed 11] [--workload NAME] [--seconds 10] [--trace [0|1]] \
//!     [--out PATH] [--dir SCRATCH] [--repeat-check]
//! ```
//!
//! Prints every metric as `workload metric value unit …` and, as the last
//! line of standard output, the driver's JSON object, whose `correct` and
//! `failed` say whether every operation and correctness check held. Exits
//! 0 once that line is printed; 1 when the run itself broke down or
//! `--repeat-check` found two sets of the same build disagreeing; 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use yv_benchmark::catalog::Workload;
use yv_benchmark::inputs::Sizes;
use yv_benchmark::report::{document, number, result_line, WorkloadReport};
use yv_benchmark::run::{repeat_rows, run_traced, run_untraced, Options};
use yv_benchmark::{scratch, BenchResult};

const USAGE: &str = "usage: yv-benchmark [--seed N] [--workload batch_resolve|serve_read|serve_mixed|ingest_restart] \
[--seconds N] [--trace [0|1]] [--out PATH] [--dir SCRATCH] [--repeat-check]";

#[derive(Debug)]
struct Cli {
    seed: u64,
    workloads: Vec<Workload>,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    dir: PathBuf,
    repeat_check: bool,
}

fn parse(args: &[String]) -> BenchResult<Cli> {
    let mut cli = Cli {
        seed: 11,
        workloads: Workload::ALL.to_vec(),
        seconds: 10,
        trace: false,
        out: None,
        dir: scratch::default_root(),
        repeat_check: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} expects {what}"));
        match arg.as_str() {
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects a number")?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
            }
            "--workload" => {
                let name = value("a workload name")?;
                cli.workloads =
                    vec![Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?];
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--dir" => cli.dir = PathBuf::from(value("a directory")?),
            "--repeat-check" => cli.repeat_check = true,
            "--trace" => {
                // A bare flag, or the driver's `--trace 0|1`.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if cli.repeat_check && cli.trace {
        return Err("--repeat-check compares untraced runs; drop --trace".to_owned());
    }
    Ok(cli)
}

/// Run the selected workloads once, printing each report as it lands.
fn run_set(cli: &Cli, options: &Options) -> BenchResult<Vec<WorkloadReport>> {
    cli.workloads
        .iter()
        .map(|&workload| {
            let report = if cli.trace {
                run_traced(workload, options, &cli.dir)?
            } else {
                run_untraced(workload, options)?
            };
            print!("{}", report.text());
            Ok(report)
        })
        .collect()
}

/// Returns whether the repeat check (when asked for) held.
fn run(cli: &Cli) -> BenchResult<bool> {
    let options = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        sizes: Sizes::FULL,
        scratch_root: cli.dir.clone(),
    };
    let reports = run_set(cli, &options)?;
    let mut ok = true;
    if cli.repeat_check {
        println!("# second set, same build");
        let second = run_set(cli, &options)?;
        ok = reports.iter().chain(&second).all(WorkloadReport::correct);
        for row in repeat_rows(&reports, &second) {
            println!(
                "repeat {} {} first={} second={} worse_by={} bound={} {}",
                row.workload.name(),
                row.metric,
                number(row.first),
                number(row.second),
                number(row.worse_by),
                number(row.bound),
                if row.within { "ok" } else { "OUTSIDE" }
            );
            ok &= row.within;
        }
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, document(cli.seed, cli.seconds, &reports))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&reports));
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("yv-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("yv-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
