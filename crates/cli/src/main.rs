//! `yv` — command-line interface to the uncertain-ER reproduction.
//!
//! ```text
//! yv generate --records 2000 --seed 7 [--italy]      dataset summary
//! yv export   --records 2000 --seed 7 --path out.csv records as CSV
//! yv block    --records 2000 [--ng 3.0] [--max-minsup 5] [--italy]
//! yv resolve  --records 2000 [--certainty 0.0] [--italy]
//! yv resolve  --addr 127.0.0.1:7878 --name Lewi [--k 5] [--min 0.3]
//! yv pipeline ...                                    alias for resolve
//! yv query    --first Guido --last Foa [--certainty 0.0] [--records N]
//! yv narrate  --records 2000 [--top 3]
//! yv serve    --dir people.store [--shards 4] [--addr 127.0.0.1:7878]
//!             [--workers 4] [--metrics-addr 127.0.0.1:9100] [--slow-us 50000]
//!             [--telemetry-dir DIR] [--slo p99<50000/60]
//! yv snapshot --dir people.store                     fold the WALs into the snapshot
//! yv top      --addr 127.0.0.1:7878 [--k 5] [--watch] live server introspection
//! yv load     --addr 127.0.0.1:7878 [--adds 24 --threads 4] [--binary [--batch N]] [--shutdown]
//! yv reproduce [--quick]                             all tables & figures
//! ```
//!
//! `block` and `resolve`/`pipeline` accept `--timings` (print a per-stage
//! table) and `--trace-json <path>` (write a Chrome-trace file, loadable
//! in `about:tracing` / Perfetto). Performance numbers come from
//! `yv-benchmark/` (see its README), not from this binary.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "yv — multi-source uncertain entity resolution (Sagi et al., SIGMOD'16 reproduction)

USAGE:
    yv <command> [options]

COMMANDS:
    generate   generate a synthetic Names-Project dataset and print its statistics
    export     write generated records to a CSV file (--path required)
    import     read a CSV dataset, print statistics and block it (--path required)
    block      run MFIBlocks and print blocks, pairs, and CS/SN diagnostics
    resolve    train the ADT ranker and resolve; print quality vs ground truth —
               or, with --name (and optionally --addr), ask a running server to
               fuzzy-resolve a possibly misspelled name into ranked candidates
    pipeline   alias for resolve (the paper's end-to-end pipeline)
    query      relative search with a certainty knob (--first / --last)
    narrate    print narratives for the best-attested resolved entities
    serve      persistent store + TCP query server (--dir required; bootstraps
               a store on first run, reopens snapshot + per-shard WALs afterwards)
    snapshot   fold a store's write-ahead logs into a fresh snapshot (--dir)
    top        live introspection of a running server: trace-ring counters,
               per-command latency rows, recent slow traces, per-command
               sparklines over the last 60 seconds and SLO status lines
               (--addr; --watch refreshes every 2 seconds)
    load       typed TCP client for a running server: concurrent ADDs plus a
               digest of a fixed query battery (--addr required)
    reproduce  regenerate every table and figure of the paper (--quick for a smoke run)

COMMON OPTIONS:
    --records N     dataset size (default 2000)
    --seed N        generator seed (default 7)
    --italy         use the Italy-set configuration (incl. the MV submitter)
    --ng X          MFIBlocks neighborhood growth (default 3.0)
    --max-minsup N  MFIBlocks MaxMinSup (default 5)
    --certainty X   query-time certainty threshold (default 0.0)

OBSERVABILITY OPTIONS (block, resolve/pipeline):
    --timings          print a per-stage timing table after the run
    --trace-json PATH  write spans + counters as a Chrome-trace JSON file

SERVING OPTIONS:
    --dir PATH          store directory (snapshot + per-shard WALs)
    --shards N          shard count when bootstrapping a new store (default 1;
                        fixed at creation, existing stores keep theirs)
    --addr A:P          listen address (default 127.0.0.1:7878)
    --workers N         worker threads (default 4)
    --metrics-addr A:P  Prometheus scrape sidecar answering GET /metrics
    --slow-us N         log requests slower than N microseconds as JSON
                        lines on stderr (arguments appear only as a digest)
                        and tail-sample them into the slow-trace window
    --trace-ring N      completed request traces kept, most recent N
                        (default 512; ~3.4 KiB each, allocated as they
                        arrive; introspectable via TOP / TRACE <id> / yv top)
    --no-trace          disable request-trace capture entirely
    --telemetry-dir DIR with --slow-us, write the slow-request log to
                        DIR/slow.jsonl instead of stderr (size-capped, one
                        old generation kept)
    --slo RULES         comma-separated burn-rate rules, each
                        [metric:]pQQ<MICROS/WINDOW (e.g. query:p99<50000/60),
                        at most one per command kind; evaluated live as
                        yv_slo_* gauges and HISTORY rows

TOP OPTIONS (yv top):
    --addr A:P          server address (default 127.0.0.1:7878)
    --k N               recent slow traces to show (default 5)
    --watch             redraw every 2 seconds until interrupted

RESOLVE CLIENT OPTIONS (yv resolve --name ...):
    --name X            the (possibly misspelled) name to resolve (client mode)
    --addr A:P          server address (default 127.0.0.1:7878)
    --k N               candidates to return (default 10)
    --min X             minimum blended score (inclusive floor)

LOAD OPTIONS:
    --adds N            records to ADD before the battery (default 0)
    --threads N         concurrent client connections for the ADDs (default 4)
    --book-base N       first synthetic book id (default 900000)
    --binary            negotiate the binary framed transport (HELLO) and
                        stream the ADDs as pipelined BATCH_ADD frames
    --batch N           records per BATCH_ADD frame with --binary (default 256)
    --shutdown          send SHUTDOWN after the battery

Unknown options are rejected with the list of options the command accepts.
";

/// The options (taking a value) and flags each command accepts; anything
/// else is rejected with the valid list.
fn spec(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    match command {
        "generate" => Some((&["records", "seed"], &["italy"])),
        "import" => Some((&["path"], &[])),
        "export" => Some((&["records", "seed", "path"], &["italy"])),
        "block" => Some((
            &["records", "seed", "ng", "max-minsup", "trace-json"],
            &["italy", "timings"],
        )),
        "resolve" | "pipeline" => Some((
            &[
                "records", "seed", "ng", "max-minsup", "certainty", "trace-json", "addr",
                "name", "k", "min",
            ],
            &["italy", "timings"],
        )),
        "query" => Some((&["records", "seed", "first", "last", "certainty"], &["italy"])),
        "narrate" => Some((&["records", "seed", "top"], &["italy"])),
        "serve" => Some((
            &[
                "records", "seed", "ng", "max-minsup", "dir", "shards", "addr",
                "workers", "metrics-addr", "slow-us", "trace-ring", "telemetry-dir",
                "slo",
            ],
            &["italy", "no-trace"],
        )),
        "snapshot" => Some((&["dir"], &[])),
        "top" => Some((&["addr", "k"], &["watch"])),
        "load" => Some((&["addr", "adds", "threads", "book-base", "batch"], &["shutdown", "binary"])),
        "reproduce" => Some((&[], &["quick"])),
        _ => None,
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(
        raw,
        &["italy", "quick", "timings", "help", "shutdown", "watch", "no-trace", "binary"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((options, flags)) = spec(&args.command) {
        if let Err(e) = args.reject_unknown(options, flags) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "export" => commands::export(&args),
        "import" => commands::import(&args),
        "block" => commands::block(&args),
        "resolve" | "pipeline" => commands::resolve(&args),
        "query" => commands::query(&args),
        "narrate" => commands::narrate(&args),
        "serve" => commands::serve(&args),
        "snapshot" => commands::snapshot(&args),
        "top" => commands::top(&args),
        "load" => commands::load(&args),
        "reproduce" => commands::reproduce(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
