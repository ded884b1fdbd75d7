//! Subcommand implementations.

use crate::args::Args;
use std::io::Write as _;
use yv_blocking::{audit, mfi_blocks, mfi_blocks_recorded, MfiBlocksConfig};
use yv_core::{PersonProfile, PersonQuery, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig, Generated};
use yv_obs::{chrome_trace, timings_table, Recorder};

type CliResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Emit the recorder's view of the run: a human table on `--timings`, a
/// Chrome-trace file on `--trace-json <path>` (open in `about:tracing` or
/// Perfetto). No-op without either flag.
fn emit_obs(args: &Args, rec: &Recorder) -> CliResult {
    if args.flag("timings") {
        print!("\n{}", timings_table(rec));
    }
    if let Some(path) = args.get("trace-json") {
        std::fs::write(path, chrome_trace(rec)).map_err(err)?;
        println!("wrote trace to {path}");
    }
    Ok(())
}

/// Build the dataset a command operates on.
fn dataset(args: &Args) -> Result<Generated, String> {
    let records: usize = args.parse_or("records", 2_000, "integer").map_err(err)?;
    let seed: u64 = args.parse_or("seed", 7, "integer").map_err(err)?;
    let config = if args.flag("italy") {
        GenConfig { n_records: records, ..GenConfig::italy(seed) }
    } else {
        GenConfig::random(records, seed)
    };
    Ok(config.generate())
}

fn blocking_config(args: &Args) -> Result<MfiBlocksConfig, String> {
    let ng: f64 = args.parse_or("ng", 3.0, "number").map_err(err)?;
    let max_minsup: u64 = args.parse_or("max-minsup", 5, "integer").map_err(err)?;
    Ok(MfiBlocksConfig::expert_weighting().with_ng(ng).with_max_minsup(max_minsup))
}

pub fn generate(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let stats = yv_records::PatternStats::analyze(&gen.dataset);
    println!("records:           {}", gen.dataset.len());
    println!("persons:           {}", gen.persons.len());
    println!("sources:           {}", gen.dataset.sources().len());
    println!("distinct items:    {}", gen.dataset.interner().len());
    println!("data patterns:     {}", stats.distinct_patterns());
    println!("gold match pairs:  {}", gen.gold_pair_count());
    println!("\nitem-type prevalence:");
    for p in yv_records::patterns::prevalence(&gen.dataset) {
        println!("  {:<18} {:>6.1}%", p.agg.label(), p.fraction * 100.0);
    }
    Ok(())
}

pub fn export(args: &Args) -> CliResult {
    let Some(path) = args.get("path") else {
        return Err("export requires --path <file.csv>".to_owned());
    };
    let gen = dataset(args)?;
    let truth: Vec<u64> =
        gen.dataset.record_ids().map(|rid| gen.person_of(rid).0).collect();
    let text = yv_records::csv::write_dataset(&gen.dataset, Some(&truth));
    std::fs::write(path, text).map_err(err)?;
    println!("wrote {} records to {path}", gen.dataset.len());
    Ok(())
}

/// Print the statistics of an externally supplied CSV dataset — the
/// adoption path for running the toolkit on real data.
pub fn import(args: &Args) -> CliResult {
    let Some(path) = args.get("path") else {
        return Err("import requires --path <file.csv>".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(err)?;
    let (ds, truth) = yv_records::csv::read_dataset(&text).map_err(err)?;
    println!("records:        {}", ds.len());
    println!("sources:        {}", ds.sources().len());
    println!("distinct items: {}", ds.interner().len());
    println!("ground truth:   {}", if truth.is_some() { "present" } else { "absent" });
    let result = mfi_blocks(&ds, &MfiBlocksConfig::expert_weighting());
    println!("MFIBlocks:      {} blocks, {} candidate pairs", result.blocks.len(),
        result.candidate_pairs.len());
    if let Some(truth) = truth {
        let mut by_person: std::collections::HashMap<u64, Vec<yv_records::RecordId>> =
            std::collections::HashMap::new();
        for rid in ds.record_ids() {
            by_person.entry(truth[rid.index()]).or_default().push(rid);
        }
        let gold: std::collections::HashSet<(yv_records::RecordId, yv_records::RecordId)> =
            by_person
                .values()
                .flat_map(|rs| {
                    rs.iter().enumerate().flat_map(move |(i, &a)| {
                        rs[i + 1..].iter().map(move |&b| if a < b { (a, b) } else { (b, a) })
                    })
                })
                .collect();
        let tp = result.candidate_pairs.iter().filter(|p| gold.contains(*p)).count();
        println!(
            "vs ground truth: recall {:.3}, precision {:.3}",
            tp as f64 / gold.len().max(1) as f64,
            tp as f64 / result.candidate_pairs.len().max(1) as f64
        );
    }
    Ok(())
}

pub fn block(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let config = blocking_config(args)?;
    let rec = Recorder::monotonic();
    let result = mfi_blocks_recorded(&gen.dataset, &config, &rec);
    let gold: std::collections::HashSet<_> = gen.matching_pairs().into_iter().collect();
    let tp = result.candidate_pairs.iter().filter(|p| gold.contains(*p)).count();
    println!("blocks:          {}", result.blocks.len());
    println!("candidate pairs: {}", result.candidate_pairs.len());
    println!("mining time:     {:?}", result.stats.mining_time);
    println!("iterations:      {}", result.stats.iterations);
    println!(
        "vs ground truth: recall {:.3}, precision {:.3}",
        tp as f64 / gold.len().max(1) as f64,
        tp as f64 / result.candidate_pairs.len().max(1) as f64
    );
    let diag = audit(&gen.dataset, &result, config.ng, 64);
    println!(
        "CS/SN audit:     compact {:.0}% of {} blocks (margin {:+.3}), \
         sparse {:.0}%, max neighbors {}",
        diag.compact_fraction * 100.0,
        diag.audited_blocks,
        diag.mean_compact_margin,
        diag.sparse_fraction * 100.0,
        diag.max_neighbors
    );
    emit_obs(args, &rec)
}

/// Train a pipeline on oracle-tagged blocking output.
fn trained(gen: &Generated, config: &PipelineConfig) -> Pipeline {
    let blocked = mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(gen, &blocked.candidate_pairs, 1);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    Pipeline::train(&gen.dataset, &labelled, config)
}

/// Client mode of `yv resolve`: ask a running server to fuzzy-resolve a
/// (possibly misspelled) name into ranked person candidates.
fn resolve_remote(args: &Args) -> CliResult {
    let Some(name) = args.get("name") else {
        return Err("resolve --addr mode requires --name <query>".to_owned());
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let k = match args.get("k") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| "option --k: expects a positive integer".to_owned())?,
        ),
        None => None,
    };
    let min = match args.get("min") {
        Some(v) => {
            Some(v.parse::<f64>().map_err(|_| "option --min: expects a number".to_owned())?)
        }
        None => None,
    };
    let mut client = yv_store::Client::connect(addr).map_err(err)?;
    let hits = client.resolve(name, k, min).map_err(err)?;
    println!("{} candidate(s) for {name:?}", hits.len());
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "  #{:<2} score={:.4}  {:<16} entity of {} report(s)",
            rank + 1,
            hit.score,
            hit.name,
            hit.members.len()
        );
    }
    Ok(())
}

pub fn resolve(args: &Args) -> CliResult {
    if args.get("name").is_some() || args.get("addr").is_some() {
        return resolve_remote(args);
    }
    let gen = dataset(args)?;
    let certainty: f64 = args.parse_or("certainty", 0.0, "number").map_err(err)?;
    let config = PipelineConfig { blocking: blocking_config(args)?, ..PipelineConfig::default() };
    let pipeline = trained(&gen, &config);
    let rec = Recorder::monotonic();
    let resolution = pipeline.resolve_recorded(&gen.dataset, &config, &rec);
    let entities = resolution.entities(certainty);
    let merged: usize = entities.iter().map(Vec::len).sum();
    println!("scored matches:        {}", resolution.matches.len());
    println!("entities @ {certainty}: {} (covering {merged} records)", entities.len());
    let above: Vec<_> = resolution.at_certainty(certainty).collect();
    let correct = above.iter().filter(|m| gen.is_match(m.a, m.b)).count();
    println!(
        "match purity @ {certainty}: {:.1}% of {} matches",
        100.0 * correct as f64 / above.len().max(1) as f64,
        above.len()
    );
    emit_obs(args, &rec)
}

pub fn query(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let certainty: f64 = args.parse_or("certainty", 0.0, "number").map_err(err)?;
    let config = PipelineConfig::default();
    let pipeline = trained(&gen, &config);
    let resolution = pipeline.resolve(&gen.dataset, &config);
    let q = PersonQuery {
        first_name: args.get("first").map(str::to_owned),
        last_name: args.get("last").map(str::to_owned),
        certainty,
        ..PersonQuery::default()
    };
    if q.first_name.is_none() && q.last_name.is_none() {
        return Err("query requires --first and/or --last".to_owned());
    }
    let hits = q.run(&gen.dataset, &resolution);
    println!("{} hit(s)", hits.len());
    for hit in hits.iter().take(10) {
        let r = gen.dataset.record(hit.seed);
        println!(
            "  BookID {:>8}  {} {}  -> entity of {} report(s)",
            r.book_id,
            r.first_names.join("/"),
            r.last_names.join("/"),
            hit.entity.len()
        );
    }
    Ok(())
}

pub fn narrate(args: &Args) -> CliResult {
    let gen = dataset(args)?;
    let top: usize = args.parse_or("top", 3, "integer").map_err(err)?;
    let config = PipelineConfig::default();
    let pipeline = trained(&gen, &config);
    let resolution = pipeline.resolve(&gen.dataset, &config);
    let mut entities = resolution.entities(0.5);
    entities.sort_by_key(|e| std::cmp::Reverse(e.len()));
    for entity in entities.iter().take(top) {
        let profile = PersonProfile::build(&gen.dataset, entity);
        println!("{}\n", profile.narrative());
    }
    Ok(())
}

/// Bootstrap or reopen the store behind `yv serve` / `yv snapshot`: an
/// existing store directory is opened (snapshot + per-shard WAL replay;
/// the shard count comes from its manifest, `--shards` is ignored);
/// otherwise a synthetic dataset is generated, a pipeline trained, and a
/// fresh store initialized at the directory with `--shards` shards.
fn open_or_bootstrap(args: &Args, dir: &std::path::Path) -> Result<yv_store::Store, String> {
    if dir.join(yv_store::SNAPSHOT_FILE).exists() {
        return yv_store::Store::open(dir).map_err(err);
    }
    let shards: usize = args.parse_or("shards", 1, "integer").map_err(err)?;
    let gen = dataset(args)?;
    let config = PipelineConfig { blocking: blocking_config(args)?, ..PipelineConfig::default() };
    let pipeline = trained(&gen, &config);
    let resolver = yv_core::IncrementalResolver::bootstrap(
        gen.dataset,
        pipeline,
        config,
        yv_core::IncrementalConfig::default(),
    );
    yv_store::Store::create(dir, resolver, shards).map_err(err)
}

pub fn serve(args: &Args) -> CliResult {
    let Some(dir) = args.get("dir") else {
        return Err("serve requires --dir <store-directory>".to_owned());
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let workers: usize = args.parse_or("workers", 4, "integer").map_err(err)?;
    let slow_us = match args.get("slow-us") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            "option --slow-us: expects an integer (microseconds)".to_owned()
        })?),
        None => None,
    };
    let telemetry_dir = args.get("telemetry-dir").map(std::path::PathBuf::from);
    if telemetry_dir.is_some() && slow_us.is_none() {
        let refusal = "option --telemetry-dir: needs --slow-us (it only holds that log)";
        return Err(refusal.to_owned());
    }
    let metrics_listener = match args.get("metrics-addr") {
        Some(a) => Some(std::net::TcpListener::bind(a).map_err(err)?),
        None => None,
    };
    let slo_rules = match args.get("slo") {
        Some(v) => v
            .split(',')
            .map(|chunk| yv_obs::SloRule::parse(chunk.trim()))
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let store = open_or_bootstrap(args, std::path::Path::new(dir))?;
    let stats = store.stats();
    let listener = std::net::TcpListener::bind(addr).map_err(err)?;
    println!(
        "serving {} records ({} ranked matches, {} shard{}) on {} with {workers} workers",
        stats.records,
        stats.matches,
        stats.shards.len(),
        if stats.shards.len() == 1 { "" } else { "s" },
        listener.local_addr().map_err(err)?
    );
    if let Some(l) = &metrics_listener {
        println!("metrics: http://{}/metrics", l.local_addr().map_err(err)?);
    }
    println!("commands: QUERY RESOLVE ADD STATS METRICS TOP TRACE HISTORY SNAPSHOT SHUTDOWN");
    let mut options = yv_store::ServeOptions::new(store)
        .workers(workers)
        .trace_capture(!args.flag("no-trace"))
        .slo(slo_rules);
    if let Some(us) = slow_us {
        options = options.slow_us(us);
        // The slow-request log moves into the telemetry directory (size-
        // capped JSONL, one rotated generation) instead of spamming stderr.
        if let Some(telemetry_dir) = telemetry_dir {
            options = options.slow_log_file(telemetry_dir.join("slow.jsonl"));
        }
    }
    if let Some(l) = metrics_listener {
        options = options.metrics_listener(l);
    }
    let store = options.serve(listener).map_err(err)?;
    println!("shut down cleanly; {} records snapshotted", store.stats().records);
    Ok(())
}

pub fn snapshot(args: &Args) -> CliResult {
    let Some(dir) = args.get("dir") else {
        return Err("snapshot requires --dir <store-directory>".to_owned());
    };
    let store = yv_store::Store::open(std::path::Path::new(dir)).map_err(err)?;
    let pending = store.stats().wal_entries;
    store.snapshot().map_err(err)?;
    let stats = store.stats();
    println!(
        "folded {pending} WAL entr{} into {dir}/{}: {} records, {} matches",
        if pending == 1 { "y" } else { "ies" },
        yv_store::SNAPSHOT_FILE,
        stats.records,
        stats.matches
    );
    Ok(())
}

/// Render a `TOP` report as the `yv top` dashboard. Pure — equal reports
/// render byte-identically, so tests pin the output exactly.
fn render_top(report: &yv_store::TopReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let r = &report.ring;
    let _ = writeln!(
        out,
        "trace ring: {}/{} resident, {} captured, {} evicted, {} tail-sampled",
        r.occupancy, r.capacity, r.captured, r.evicted, r.sampled
    );
    if r.last_slow != 0 {
        let _ = writeln!(out, "last slow trace: {:016x}", r.last_slow);
    }
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "COMMAND", "COUNT", "ERRORS", "MEAN_US", "P50_US", "P95_US", "P99_US", "MAX_US"
    );
    for c in &report.commands {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
            c.name, c.count, c.errors, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.max_us
        );
    }
    if !report.slow.is_empty() {
        let _ = writeln!(out, "recent slow requests (newest first):");
        for s in &report.slow {
            let _ = writeln!(
                out,
                "  trace={:016x} {:<8} {} conn={} total_us={} spans={}",
                s.trace,
                s.command,
                if s.ok { "ok " } else { "err" },
                s.conn,
                s.total_ns / 1_000,
                s.spans
            );
        }
    }
    out
}

/// Eight-level block characters indexed low to high; zero renders as the
/// lowest block so gaps stay visible in a run of busy epochs.
const SPARK_BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render counts as a unicode sparkline, scaled to the largest value.
/// Pure: equal inputs render byte-identically.
fn sparkline(counts: &[u64]) -> String {
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&n| {
            if max == 0 || n == 0 {
                SPARK_BLOCKS[0]
            } else {
                // 1..=7, so any non-zero count clears the zero glyph.
                SPARK_BLOCKS[(n * 7).div_ceil(max).min(7) as usize]
            }
        })
        .collect()
}

/// The per-epoch request counts of a `HISTORY` report over its full
/// window, oldest first, absent epochs filled with zero.
fn history_counts(report: &yv_store::HistoryReport) -> Vec<u64> {
    let lo = report.now_epoch.saturating_sub(report.window as u64);
    (lo..report.now_epoch)
        .map(|epoch| {
            report
                .buckets
                .iter()
                .find(|b| b.epoch == epoch)
                .map_or(0, |b| b.count)
        })
        .collect()
}

/// Render the windowed-telemetry section of the `yv top` dashboard: one
/// sparkline per active command plus one status line per SLO rule. Pure —
/// equal reports render byte-identically, so tests pin the output exactly.
fn render_top_history(reports: &[yv_store::HistoryReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let active: Vec<_> = reports.iter().filter(|r| r.summary.count > 0).collect();
    if !active.is_empty() {
        let _ = writeln!(out, "windows (last 60s, newest right):");
        for r in &active {
            let _ = writeln!(
                out,
                "  {:<10} {} {:>6} reqs  p50={}us p99={}us",
                r.metric,
                sparkline(&history_counts(r)),
                r.summary.count,
                r.summary.p50_us,
                r.summary.p99_us
            );
        }
    }
    // `HISTORY` returns only its metric's rule, at most one per metric.
    for (rule, status) in reports.iter().flat_map(|r| &r.slo) {
        let _ = writeln!(
            out,
            "  slo {:<8} p{} < {}us over {}s: {} (burn {}%/{}% long/short)",
            rule.metric,
            (rule.p * 100.0).round() as u64,
            rule.threshold_us,
            rule.window,
            status.state.label(),
            status.burn_long_pct,
            status.burn_short_pct
        );
    }
    out
}

/// Live introspection of a running server: one `TOP` exchange rendered
/// as a dashboard, or a 2-second refresh loop with `--watch`.
pub fn top(args: &Args) -> CliResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let k = match args.get("k") {
        Some(v) => Some(
            v.parse::<usize>().map_err(|_| "option --k: expects an integer".to_owned())?,
        ),
        None => None,
    };
    let mut client = yv_store::Client::connect(addr).map_err(err)?;
    loop {
        let report = client.top(k).map_err(err)?;
        print!("{}", render_top(&report));
        // One HISTORY fetch per command the server has actually seen; the
        // renderer drops idle ones, so a quiet server adds no lines.
        let mut histories = Vec::new();
        for c in report.commands.iter().filter(|c| c.count > 0) {
            histories.push(client.history(&c.name.to_lowercase(), None).map_err(err)?);
        }
        print!("{}", render_top_history(&histories));
        if !args.flag("watch") {
            return Ok(());
        }
        println!();
        std::thread::sleep(std::time::Duration::from_secs(2));
    }
}

/// Deterministic arrival pool for `yv load`: enough last-name variety
/// that a sharded store routes the batch across every shard.
fn load_record(book_base: u64, i: usize) -> yv_records::Record {
    const FIRST: [&str; 6] = ["Guido", "Sara", "Moshe", "Rivka", "David", "Chana"];
    const LAST: [&str; 11] = [
        "Foa", "Levi", "Postel", "Roth", "Katz", "Blum", "Stern", "Weiss", "Adler", "Braun",
        "Segal",
    ];
    yv_records::RecordBuilder::new(book_base + i as u64, yv_records::SourceId(0))
        .first_name(FIRST[i % FIRST.len()])
        .last_name(LAST[(i * 7) % LAST.len()])
        .build()
}

/// The fixed query battery `yv load` digests: the answers depend only on
/// the store's logical state, so equal digests mean equal states.
fn load_battery() -> Vec<PersonQuery> {
    ["Foa", "Levi", "Katz", "Stern", "Segal"]
        .iter()
        .flat_map(|last| {
            [0.0, 0.5].into_iter().map(move |certainty| PersonQuery {
                last_name: Some((*last).to_owned()),
                certainty,
                ..PersonQuery::default()
            })
        })
        .collect()
}

/// One `yv load` worker's share of the arrivals, over the binary
/// transport: `HELLO`-negotiated connection, records chunked into
/// `BATCH_ADD` frames of `batch`, frames pipelined with a bounded
/// in-flight window. Returns the summed per-record match counts.
fn load_binary_worker(
    addr: &str,
    t: usize,
    threads: usize,
    adds: usize,
    batch: usize,
    book_base: u64,
) -> Result<usize, String> {
    let mut client = yv_store::ClientOptions::new()
        .protocol(yv_store::Protocol::Binary)
        .connect(addr)
        .map_err(err)?;
    let mut pipe = client.pipeline(LOAD_PIPELINE_WINDOW);
    let mut chunk = Vec::with_capacity(batch);
    for i in (t..adds).step_by(threads) {
        chunk.push(load_record(book_base, i));
        if chunk.len() == batch {
            pipe.push(&yv_store::RequestFrame::BatchAdd(std::mem::take(&mut chunk)))
                .map_err(err)?;
        }
    }
    if !chunk.is_empty() {
        pipe.push(&yv_store::RequestFrame::BatchAdd(chunk)).map_err(err)?;
    }
    let mut matched = 0usize;
    for reply in pipe.flush().map_err(err)? {
        for status in reply.batch().map_err(err)? {
            match status {
                yv_store::BatchStatus::Ok { matches } => matched += matches as usize,
                yv_store::BatchStatus::Err(e) => {
                    return Err(format!("BATCH_ADD refused a record: {e}"))
                }
            }
        }
    }
    Ok(matched)
}

/// `BATCH_ADD` frames each `yv load --binary` connection keeps in
/// flight at once.
const LOAD_PIPELINE_WINDOW: usize = 4;

/// Drive a running `yv serve` instance through the typed TCP client:
/// optionally fire concurrent ADDs over several connections (per-request
/// text lines by default; `--binary` negotiates the framed transport and
/// streams `BATCH_ADD` frames of `--batch` records), then print the
/// server's stats line and a digest of a fixed query battery (equal
/// digests ⇔ equal logical state), optionally sending SHUTDOWN. This is
/// the client half of ci.sh's sharded smoke test.
#[allow(clippy::disallowed_methods, reason = "each client connection drives the server; it splits no work")]
pub fn load(args: &Args) -> CliResult {
    let Some(addr) = args.get("addr") else {
        return Err("load requires --addr <host:port>".to_owned());
    };
    let adds: usize = args.parse_or("adds", 0, "integer").map_err(err)?;
    let threads: usize = args.parse_or("threads", 4, "integer").map_err(err)?.max(1);
    let book_base: u64 = args.parse_or("book-base", 900_000, "integer").map_err(err)?;
    let binary = args.flag("binary");
    let batch: usize = args.parse_or("batch", 256, "integer").map_err(err)?.max(1);
    if adds > 0 {
        let matched = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || -> Result<usize, String> {
                        if binary {
                            return load_binary_worker(addr, t, threads, adds, batch, book_base);
                        }
                        let mut client = yv_store::Client::connect(addr).map_err(err)?;
                        let mut matched = 0;
                        for i in (t..adds).step_by(threads) {
                            matched += client.add(&load_record(book_base, i)).map_err(err)?;
                        }
                        Ok(matched)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("load worker panicked".to_owned())))
                .sum::<Result<usize, String>>()
        })?;
        let wire = if binary { format!("binary BATCH_ADD x{batch}") } else { "text ADD".to_owned() };
        println!("added {adds} records over {threads} connections via {wire} ({matched} matched)");
    }
    // With --binary the stats/battery connection upgrades too, so the
    // printed digest proves QUERY decodes identically on both wires
    // (ci.sh compares it against a text run over the same store).
    let protocol =
        if binary { yv_store::Protocol::Binary } else { yv_store::Protocol::Text };
    let mut client =
        yv_store::ClientOptions::new().protocol(protocol).connect(addr).map_err(err)?;
    let stats = client.stats().map_err(err)?;
    println!(
        "records={} shards={} wal={} wal_bytes={}",
        stats.records,
        stats.shard_rows.len(),
        stats.wal_entries,
        stats.wal_bytes
    );
    let mut transcript = String::new();
    for query in load_battery() {
        for hit in client.query(&query).map_err(err)? {
            use std::fmt::Write as _;
            let _ = write!(transcript, "{}:{:?};", hit.seed.0, hit.entity);
        }
        transcript.push('\n');
    }
    println!("battery digest: {:016x}", yv_store::codec::fnv1a64(transcript.as_bytes()));
    if args.flag("shutdown") {
        client.shutdown().map_err(err)?;
        println!("sent SHUTDOWN");
    }
    Ok(())
}

pub fn reproduce(args: &Args) -> CliResult {
    let scale = if args.flag("quick") {
        yv_eval::Scale::quick()
    } else {
        yv_eval::Scale::default()
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for report in yv_eval::run_all(&scale) {
        writeln!(out, "{}\n", report.render()).map_err(err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_for(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()), &["italy", "quick"]).unwrap()
    }

    #[test]
    fn generate_runs() {
        let args = args_for(&["generate", "--records", "200", "--seed", "3"]);
        generate(&args).unwrap();
    }

    #[test]
    fn block_runs_and_reports() {
        let args = args_for(&["block", "--records", "300", "--ng", "2.0"]);
        block(&args).unwrap();
    }

    #[test]
    fn export_writes_csv() {
        let path =
            std::env::temp_dir().join(format!("yv_cli_export_test_{}.csv", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let args = args_for(&["export", "--records", "50", "--path", &path_str]);
        export(&args).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.lines().count() > 10);
        assert!(content.starts_with("book_id,"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn top_dashboard_renders_byte_identically() {
        let report = yv_store::TopReport {
            ring: yv_obs::RingStats {
                capacity: 512,
                occupancy: 3,
                captured: 3,
                evicted: 0,
                sampled: 1,
                last_slow: 0x00ab_00cd_00ef_0011,
            },
            commands: vec![
                yv_store::CommandStats {
                    name: "QUERY",
                    count: 25,
                    errors: 0,
                    mean_us: 91,
                    p50_us: 128,
                    p95_us: 256,
                    p99_us: 256,
                    max_us: 227,
                },
                yv_store::CommandStats {
                    name: "RESOLVE",
                    count: 1,
                    errors: 1,
                    mean_us: 24,
                    p50_us: 24,
                    p95_us: 24,
                    p99_us: 24,
                    max_us: 24,
                },
            ],
            slow: vec![yv_store::SlowRow {
                trace: 0x00ab_00cd_00ef_0011,
                command: "RESOLVE".to_owned(),
                ok: true,
                conn: 3,
                total_ns: 24_500,
                spans: 5,
            }],
        };
        assert_eq!(
            render_top(&report),
            "trace ring: 3/512 resident, 3 captured, 0 evicted, 1 tail-sampled\n\
             last slow trace: 00ab00cd00ef0011\n\
             COMMAND       COUNT  ERRORS  MEAN_US  P50_US  P95_US  P99_US  MAX_US\n\
             QUERY            25       0       91     128     256     256     227\n\
             RESOLVE           1       1       24      24      24      24      24\n\
             recent slow requests (newest first):\n  \
             trace=00ab00cd00ef0011 RESOLVE  ok  conn=3 total_us=24 spans=5\n"
        );
        // An idle ring (nothing sampled yet) omits the slow sections.
        let idle = yv_store::TopReport {
            ring: yv_obs::RingStats::default(),
            commands: Vec::new(),
            slow: Vec::new(),
        };
        let rendered = render_top(&idle);
        assert!(rendered.starts_with("trace ring: 0/0 resident"), "{rendered}");
        assert!(!rendered.contains("last slow trace"), "{rendered}");
        assert!(!rendered.contains("recent slow"), "{rendered}");
    }

    #[test]
    fn top_history_sparklines_and_slo_lines_render_byte_identically() {
        let rule = yv_obs::SloRule::parse("query:p99<50000/60").unwrap();
        let idle = yv_obs::HistogramSnapshot::default();
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[1, 1]), "██");
        let report = yv_store::HistoryReport {
            metric: "query".to_owned(),
            window: 8,
            now_epoch: 9,
            summary: yv_obs::LatencySummary {
                count: 13,
                mean_us: 40,
                p50_us: 24,
                p95_us: 100,
                p99_us: 100,
                min_us: 10,
                max_us: 100,
            },
            slo: vec![(rule.clone(), rule.evaluate(&idle, &idle))],
            buckets: vec![
                yv_store::HistoryBucketRow {
                    epoch: 2, count: 1, mean_us: 10, p50_us: 10, max_us: 10,
                },
                yv_store::HistoryBucketRow {
                    epoch: 5, count: 4, mean_us: 20, p50_us: 20, max_us: 30,
                },
                yv_store::HistoryBucketRow {
                    epoch: 8, count: 8, mean_us: 60, p50_us: 24, max_us: 100,
                },
            ],
        };
        // Window covers epochs 1..9; gaps render as the lowest block.
        assert_eq!(
            render_top_history(std::slice::from_ref(&report)),
            "windows (last 60s, newest right):\n  \
             query      ▁▂▁▁▅▁▁█     13 reqs  p50=24us p99=100us\n  \
             slo query    p99 < 50000us over 60s: ok (burn 0%/0% long/short)\n"
        );
        // An idle metric adds no sparkline, but its SLO line still shows.
        let idle = yv_store::HistoryReport { summary: Default::default(), buckets: Vec::new(),
            ..report };
        let rendered = render_top_history(&[idle]);
        assert!(!rendered.contains("windows ("), "{rendered}");
        assert!(rendered.contains("slo query"), "{rendered}");
        assert_eq!(render_top_history(&[]), "");
    }

    #[test]
    fn telemetry_dir_without_slow_us_is_refused_before_the_store_opens() {
        let dir = std::env::temp_dir().join(format!("yv_cli_serve_test_{}", std::process::id()));
        let dir_str = dir.to_string_lossy().into_owned();
        let args = args_for(&[
            "serve", "--dir", &dir_str, "--records", "200", "--addr", "256.0.0.1:0",
            "--telemetry-dir", &dir_str,
        ]);
        let refusal = serve(&args).unwrap_err();
        assert!(refusal.contains("--telemetry-dir"), "{refusal}");
        assert!(!dir.exists(), "{} was created before the refusal", dir.display());
    }

    #[test]
    fn query_requires_a_name() {
        let args = args_for(&["query", "--records", "200"]);
        assert!(query(&args).is_err());
    }
}
