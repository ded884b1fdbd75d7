//! End-to-end serving: concurrent TCP clients, durable arrivals, and
//! kill/restart identity (snapshot + WAL replay reproduce exactly the
//! pre-crash query results). Exercises the typed [`Client`] against a
//! live server throughout — the client and server halves of the
//! protocol are tested as one conversation, not against fixtures.

// Test-only binary: helper fns outside #[test] may unwrap freely (the
// workspace unwrap_used deny targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::ScratchDir;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use yv_core::{
    IncrementalConfig, IncrementalResolver, PersonQuery, Pipeline, PipelineConfig, QueryHit,
};
use yv_datagen::{tag_pairs, GenConfig};
use yv_store::client::{Client, ClientError, ClientOptions, Protocol};
use yv_store::protocol::parse_request;
use yv_store::{
    shard_of_record, BatchStatus, Request, RequestFrame, ServeOptions, Store, HELLO_LINE, HELLO_OK,
};

fn trained_resolver(n_records: usize, seed: u64) -> IncrementalResolver {
    let gen = GenConfig::random(n_records, seed).generate();
    let config = PipelineConfig::default();
    let blocked = yv_blocking::mfi_blocks(&gen.dataset, &config.blocking);
    let tags = tag_pairs(&gen, &blocked.candidate_pairs, 3);
    let labelled: Vec<_> =
        tags.iter().filter_map(|t| t.simplified().map(|m| (t.a, t.b, m))).collect();
    let pipeline = Pipeline::train(&gen.dataset, &labelled, &config);
    IncrementalResolver::bootstrap(gen.dataset, pipeline, config, IncrementalConfig::default())
}

/// The query battery whose answers must survive a restart.
fn queries() -> Vec<PersonQuery> {
    vec![
        PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() },
        PersonQuery { last_name: Some("Foa".into()), certainty: 1.0, ..PersonQuery::default() },
        PersonQuery {
            first_name: Some("Sara".into()),
            last_name: Some("Levi".into()),
            ..PersonQuery::default()
        },
        PersonQuery { certainty: 0.5, ..PersonQuery::default() },
        PersonQuery {
            first_name: Some("Moshe".into()),
            name_similarity: 0.8,
            ..PersonQuery::default()
        },
    ]
}

/// Run the battery over one connection.
fn run_battery(addr: std::net::SocketAddr) -> Vec<Vec<QueryHit>> {
    let mut client = Client::connect(addr).unwrap();
    queries().iter().map(|q| client.query(q).unwrap()).collect()
}

#[test]
fn concurrent_clients_durable_adds_and_restart_identity() {
    let dir = ScratchDir::new("serve-restart");
    let store = Store::create(&dir, trained_resolver(250, 21), 4).unwrap();
    let records_before = store.stats().records;

    // ---- first server lifetime -------------------------------------
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(6).serve(listener).unwrap());

    // Four clients hammer queries concurrently.
    let concurrent: Vec<_> =
        (0..4).map(|_| std::thread::spawn(move || run_battery(addr))).collect();
    let concurrent_answers: Vec<Vec<Vec<QueryHit>>> =
        concurrent.into_iter().map(|t| t.join().unwrap()).collect();
    // Same battery, same store — every client saw identical answers.
    for other in &concurrent_answers[1..] {
        assert_eq!(&concurrent_answers[0], other);
    }

    // A writer adds two records (durable via the WALs), then the battery
    // again.
    let mut writer = Client::connect(addr).unwrap();
    for record in [
        yv_records::RecordBuilder::new(900_001, yv_records::SourceId(0))
            .first_name("Guido")
            .last_name("Foa")
            .gender(yv_records::Gender::Male)
            .birth(yv_records::DateParts { year: Some(1936), ..Default::default() })
            .build(),
        yv_records::RecordBuilder::new(900_002, yv_records::SourceId(0))
            .first_name("Sara")
            .last_name("Levi")
            .gender(yv_records::Gender::Female)
            .birth(yv_records::DateParts { year: Some(1921), ..Default::default() })
            .build(),
    ] {
        writer.add(&record).unwrap();
    }
    let after_adds = run_battery(addr);

    let stats = writer.stats().unwrap();
    assert_eq!(stats.records, records_before + 2);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.wal_entries, 2);
    assert!(stats.wal_bytes > 0);
    // Per-shard rows cover every shard exactly once and sum to the
    // aggregates.
    assert_eq!(stats.shard_rows.len(), 4);
    for (i, row) in stats.shard_rows.iter().enumerate() {
        assert_eq!(row.shard, i);
    }
    assert_eq!(
        stats.shard_rows.iter().map(|r| r.records).sum::<usize>(),
        stats.records,
        "{stats:?}"
    );
    assert_eq!(stats.shard_rows.iter().map(|r| r.wal_entries).sum::<usize>(), 2);
    assert_eq!(stats.shard_rows.iter().map(|r| r.wal_bytes).sum::<u64>(), stats.wal_bytes);

    // Per-command metrics: one CMD row per command kind, with counters
    // and latency percentiles.
    assert_eq!(stats.commands.len(), 10, "{stats:?}");
    let query_row = stats.commands.iter().find(|c| c.name == "QUERY").unwrap();
    // 4 concurrent clients ran the 5-query battery, plus one more pass.
    assert_eq!(query_row.count as usize, 5 * queries().len(), "{query_row:?}");
    assert!(query_row.max_us >= query_row.p50_us.min(query_row.mean_us), "{query_row:?}");
    let add_row = stats.commands.iter().find(|c| c.name == "ADD").unwrap();
    assert_eq!(add_row.count, 2);
    assert!(stats.commands.iter().any(|c| c.name == "SNAPSHOT"));
    assert!(stats.commands.iter().any(|c| c.name == "TOP"));
    assert!(stats.commands.iter().any(|c| c.name == "TRACE"));
    assert!(stats.commands.iter().any(|c| c.name == "HISTORY"));

    // Server-side errors surface as typed client errors, not broken
    // connections.
    let unknown_source = yv_records::RecordBuilder::new(1, yv_records::SourceId(99_999))
        .first_name("X")
        .build();
    assert!(matches!(writer.add(&unknown_source), Err(ClientError::Server(_))));
    // The connection survives the error.
    assert!(writer.stats().is_ok());

    // Graceful shutdown flushes the WALs into fresh snapshots.
    writer.shutdown().unwrap();
    let store = server.join().unwrap();
    assert_eq!(store.stats().records, records_before + 2);
    assert_eq!(store.stats().wal_entries, 0, "shutdown folds the WALs");
    drop(store);

    // ---- second lifetime: reopen from disk -------------------------
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().records, records_before + 2);
    assert_eq!(store.n_shards(), 4, "shard count persists in the manifest");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr2 = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(4).serve(listener).unwrap());
    let after_restart = run_battery(addr2);
    assert_eq!(
        after_adds, after_restart,
        "restarted server must answer the battery identically"
    );
    Client::connect(addr2).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn resolve_serves_ranked_candidates_and_typed_errors() {
    let dir = ScratchDir::new("resolve-e2e");
    let store = Store::create(&dir, trained_resolver(200, 77), 3).unwrap();
    let records_before = store.stats().records;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(2).serve(listener).unwrap());

    let mut client = Client::connect(addr).unwrap();
    // Plant a known name, then resolve a one-edit misspelling of it.
    let planted = yv_records::RecordBuilder::new(900_010, yv_records::SourceId(0))
        .first_name("Guido")
        .last_name("Postel")
        .build();
    client.add(&planted).unwrap();
    let planted_rid = yv_records::RecordId(u32::try_from(records_before).unwrap());

    let hits = client.resolve("Postl", Some(5), None).unwrap();
    assert!(!hits.is_empty(), "a one-edit typo must surface candidates");
    assert!(
        hits.iter().is_sorted_by(|a, b| a.score >= b.score),
        "candidates arrive ranked: {hits:?}"
    );
    let postel = hits.iter().find(|h| h.name == "postel").expect("planted name surfaces");
    assert!(postel.members.contains(&planted_rid), "{postel:?}");
    assert!(postel.score > 0.0 && postel.score <= 1.0, "{postel:?}");

    // min= filters, k= truncates.
    let all = client.resolve("Postl", Some(100), None).unwrap();
    let top = client.resolve("Postl", Some(1), None).unwrap();
    assert_eq!(top.len(), 1);
    assert_eq!(top[0], all[0]);
    let min = all[0].score;
    for hit in client.resolve("Postl", Some(100), Some(min)).unwrap() {
        assert!(hit.score >= min, "min= is an inclusive floor: {hit:?}");
    }

    // Misuse surfaces as a typed server error with a dedicated message —
    // and the connection survives it.
    let err = client.resolve("Postl", Some(0), None).unwrap_err();
    assert!(err.is_server(), "{err:?}");
    assert_eq!(err.server_message(), Some("RESOLVE: k must be at least 1"));
    let err = client.resolve("k=3", None, None).unwrap_err();
    assert!(err.is_server() && !err.is_transport(), "{err:?}");
    assert!(err.server_message().unwrap().contains("name must come before options"), "{err:?}");
    // Non-numeric k=/min= can't be produced through the typed client;
    // send them raw and pin the dedicated messages.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        for (request, expect) in [
            ("RESOLVE Postl k=three\n", "ERR RESOLVE: bad k value \"three\""),
            ("RESOLVE Postl min=high\n", "ERR RESOLVE: bad min value \"high\""),
        ] {
            raw.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with(expect), "{request:?} -> {line:?}");
            let mut dot = String::new();
            reader.read_line(&mut dot).unwrap();
            assert_eq!(dot, ".\n");
        }
    }
    assert!(client.resolve("Postl", None, None).is_ok(), "connection survives misuse");

    // The STATS report accounts for the fuzzy index and the RESOLVE
    // traffic above.
    let stats = client.stats().unwrap();
    assert!(stats.fuzzy_names > 0 && stats.fuzzy_postings >= stats.fuzzy_names);
    assert!(stats.fuzzy_examined > 0, "{stats:?}");
    let resolve_row = stats.commands.iter().find(|c| c.name == "RESOLVE").unwrap();
    assert_eq!(resolve_row.count, 5, "{resolve_row:?}");

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A slow-log sink the test can read back after the server returns.
#[derive(Clone)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn metrics_command_and_sidecar_scrape_expose_prometheus_text() {
    let dir = ScratchDir::new("metrics-scrape");
    let store = Store::create(&dir, trained_resolver(150, 55), 2).unwrap();
    let records = store.stats().records;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics_listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        ServeOptions::new(store)
            .workers(2)
            .metrics_listener(metrics_listener)
            .serve(listener)
            .unwrap()
    });

    // Generate some traffic, then scrape through the protocol command.
    let mut client = Client::connect(addr).unwrap();
    client
        .query(&PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() })
        .unwrap();
    client
        .query(&PersonQuery { last_name: Some("Levi".into()), ..PersonQuery::default() })
        .unwrap();
    let body = client.metrics().unwrap();
    // One histogram series per protocol command, with cumulative buckets.
    for kind in
        ["query", "resolve", "add", "stats", "metrics", "top", "trace", "snapshot", "shutdown"]
    {
        assert!(
            body.contains(&format!("# TYPE yv_cmd_{kind}_latency_us histogram")),
            "missing {kind} histogram in:\n{body}"
        );
        assert!(body.contains(&format!("yv_cmd_{kind}_latency_us_bucket{{le=\"+Inf\"}}")));
    }
    assert!(body.contains("yv_cmd_query_latency_us_count 2"), "{body}");
    // Store gauges reflect the live store; per-shard gauges cover every
    // shard; allocator gauges are present (zero unless the counting
    // allocator is installed).
    assert!(body.contains(&format!("yv_store_records {records}")), "{body}");
    assert!(body.contains("yv_store_shards 2"), "{body}");
    for gauge in [
        "yv_store_wal_bytes",
        "yv_store_postings",
        "yv_store_vocabulary",
        "yv_store_fuzzy_names",
        "yv_store_fuzzy_grams",
        "yv_store_fuzzy_postings",
        "yv_store_fuzzy_examined_total",
        "yv_store_fuzzy_pruned_total",
        "yv_shard_0_records",
        "yv_shard_0_wal_bytes",
        "yv_shard_1_records",
        "yv_shard_1_wal_bytes",
        "yv_alloc_bytes_total",
        "yv_alloc_live_bytes",
        "yv_alloc_peak_bytes",
        "yv_trace_ring_capacity",
        "yv_trace_ring_occupancy",
        "yv_trace_ring_captured_total",
        "yv_trace_ring_evicted_total",
        "yv_trace_ring_sampled_total",
        "yv_trace_last_slow_id",
    ] {
        assert!(body.contains(&format!("\n{gauge} ")), "missing {gauge} in:\n{body}");
    }

    // Scrape the sidecar like Prometheus would: plain HTTP/1.1.
    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut http = String::new();
    BufReader::new(scrape).read_to_string(&mut http).unwrap();
    assert!(http.starts_with("HTTP/1.1 200 OK\r\n"), "{http}");
    assert!(http.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    let http_body = http.split("\r\n\r\n").nth(1).unwrap();
    assert!(http_body.contains("yv_cmd_query_latency_us_bucket{le=\"+Inf\"}"), "{http}");
    assert!(http_body.contains("yv_store_records"), "{http}");
    assert!(http_body.contains("yv_shard_1_records"), "{http}");
    // The advertised length matches the body exactly.
    let advertised: usize = http
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(advertised, http_body.len());

    // Unknown paths are 404s, and the server survives them.
    let mut bad = TcpStream::connect(metrics_addr).unwrap();
    bad.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut not_found = String::new();
    BufReader::new(bad).read_to_string(&mut not_found).unwrap();
    assert!(not_found.starts_with("HTTP/1.1 404 "), "{not_found}");

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn slow_log_emits_one_json_line_per_slow_request() {
    let dir = ScratchDir::new("slow-log");
    let store = Store::create(&dir, trained_resolver(120, 66), 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sink = SharedSink(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
    let log = sink.clone();
    let server = std::thread::spawn(move || {
        ServeOptions::new(store)
            .workers(2)
            // Threshold zero: every request is "slow", making the test
            // deterministic without timing games.
            .slow_us(0)
            .slow_log(Box::new(log))
            .serve(listener)
            .unwrap()
    });

    let mut client = Client::connect(addr).unwrap();
    client
        .query(&PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() })
        .unwrap();
    client.stats().unwrap();
    // A raw malformed request still gets logged (as INVALID) — sent
    // outside the typed client, which cannot produce one.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"FROB\n").unwrap();
        let mut line = String::new();
        BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR "), "{line}");
    }
    client.shutdown().unwrap();
    server.join().unwrap();

    let logged = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = logged.lines().collect();
    assert_eq!(lines.len(), 4, "{logged}");
    for line in &lines {
        assert!(line.starts_with("{\"slow_request\":true,\"conn\":"), "{line}");
        for field in ["\"command\":\"", "\"args_digest\":\"", "\"latency_us\":", "\"trace\":\""] {
            assert!(line.contains(field), "{line}");
        }
        // Every slow line names a real trace id, cross-referenceable
        // against TRACE (INVALID included — parse failures are traced).
        assert!(!line.contains("\"trace\":\"0000000000000000\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    assert!(lines.iter().any(|l| l.contains("\"command\":\"QUERY\"")), "{logged}");
    assert!(lines.iter().any(|l| l.contains("\"command\":\"STATS\"")), "{logged}");
    assert!(lines.iter().any(|l| l.contains("\"command\":\"INVALID\"")), "{logged}");
    assert!(lines.iter().any(|l| l.contains("\"command\":\"SHUTDOWN\"")), "{logged}");
    // Identical requests digest identically; the raw arguments never
    // appear in the log.
    assert!(!logged.contains("Guido"), "{logged}");
}

/// One raw request/response exchange over an already-open connection.
fn raw_exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> (String, Vec<String>) {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut data = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed mid-response");
        if line == ".\n" {
            break;
        }
        data.push(line);
    }
    (status, data)
}

/// The `trace=<id>` token of an `OK` status line.
fn trace_id(status: &str) -> u64 {
    let hex = status
        .split_whitespace()
        .find_map(|t| t.strip_prefix("trace="))
        .unwrap_or_else(|| panic!("no trace= token in {status:?}"));
    u64::from_str_radix(hex, 16).unwrap()
}

/// No operator-visible sink carries a raw name. A record whose first,
/// last, father's and place names occur nowhere else is filed, queried
/// and resolved (once misspelled, once malformed so the `ERR` path runs)
/// with every sink on: the slow log at threshold zero, persisted
/// telemetry, trace capture and the scrape sidecar. The answers carry the
/// name — that is what they are for — and nothing an operator reads does.
#[test]
fn no_operator_sink_carries_a_raw_name() {
    fn leaks(bytes: &[u8]) -> bool {
        bytes.to_ascii_lowercase().windows(6).any(|w| w == b"zzyzxq")
    }

    let dir = ScratchDir::new("sentinel-name");
    let store = Store::create(&dir, trained_resolver(150, 55), 2).unwrap();
    let filed = store.stats().records as u32;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics_listener.local_addr().unwrap();
    let sink = SharedSink(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
    let log = sink.clone();
    let clock = std::sync::Arc::new(yv_obs::ManualClock::at(0));
    let driver_clock = clock.clone();
    let telemetry_dir = dir.join("telemetry");
    let telemetry_file = telemetry_dir.join("telemetry.yvt");
    let server = std::thread::spawn(move || {
        ServeOptions::new(store)
            .workers(2)
            // Threshold zero under a manual clock: every request is
            // logged and tail-sampled, no timing games.
            .slow_us(0)
            .slow_log(Box::new(log))
            .telemetry_dir(telemetry_dir)
            .metrics_listener(metrics_listener)
            .clock(clock)
            .serve(listener)
            .unwrap()
    });

    // File the record: over the binary transport, which carries places,
    // and again over the text one.
    let record = yv_records::RecordBuilder::new(990_001, yv_records::SourceId(0))
        .first_name("Zzyzxqfirst")
        .last_name("Zzyzxqlast")
        .father_name("Zzyzxqfather")
        .place(
            yv_records::PlaceType::Permanent,
            yv_records::Place { city: Some("Zzyzxqplace".to_owned()), ..Default::default() },
        )
        .build();
    let mut binary = ClientOptions::new().protocol(Protocol::Binary).connect(addr).unwrap();
    binary.add(&record).unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut ask = |request: &str| {
        let (status, data) = raw_exchange(&mut raw, &mut reader, request);
        format!("{status}{}", data.concat())
    };
    let added = ask("ADD book=990002 source=0 first=Zzyzxqfirst last=Zzyzxqlast father=Zzyzxqfather");
    assert!(added.starts_with("OK "), "{added}");

    // The answers do carry the name: the QUERY hits are the two filed
    // records, the misspelled RESOLVE finds the filed spelling.
    let hits = ask("QUERY first=Zzyzxqfirst last=Zzyzxqlast");
    assert!(hits.starts_with("OK 2 "), "{hits}");
    for seed in [filed, filed + 1] {
        assert!(hits.contains(&format!("HIT seed={seed} ")), "{hits}");
    }
    let cands = ask("RESOLVE Zzyzxqlasd k=3");
    assert!(cands.contains(" name=zzyzxqlast "), "{cands}");
    let refused = ask("RESOLVE Zzyzxqlast k=many");
    assert!(refused.starts_with("ERR "), "{refused}");

    // Close the second so the rollups reach HISTORY and telemetry.yvt.
    driver_clock.advance(1_000_000_000);
    let mut seen = Vec::new();
    for kind in ["add", "query", "resolve"] {
        for format in ["human", "json"] {
            let history = ask(&format!("HISTORY {kind} window=5 format={format}"));
            assert!(history.starts_with("OK history "), "{history}");
            seen.push(history);
        }
    }
    seen.push(ask("METRICS"));
    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut http = String::new();
    BufReader::new(scrape).read_to_string(&mut http).unwrap();
    assert!(http.contains("yv_cmd_add_latency_us_count 2"), "{http}");
    seen.push(http);
    seen.push(ask("STATS"));
    // Every request so far was tail-sampled, the refused one included:
    // TOP lists them, TRACE renders each.
    let top = ask("TOP k=64");
    let slow: Vec<&str> = top.lines().filter(|row| row.starts_with("SLOW ")).collect();
    for command in ["ADD", "QUERY", "RESOLVE", "INVALID"] {
        assert!(slow.iter().any(|row| row.contains(&format!(" command={command} "))), "{top}");
    }
    for id in slow.into_iter().map(trace_id) {
        for format in ["human", "json"] {
            let trace = ask(&format!("TRACE {id:016x} format={format}"));
            assert!(trace.starts_with("OK trace="), "{trace}");
            seen.push(trace);
        }
    }
    seen.push(top);
    for text in &seen {
        assert!(!leaks(text.as_bytes()), "{text}");
    }

    drop(reader);
    drop(raw);
    binary.shutdown().unwrap();
    server.join().unwrap();

    let logged = sink.0.lock().unwrap().clone();
    let lines = String::from_utf8_lossy(&logged).into_owned();
    for command in ["ADD", "QUERY", "RESOLVE", "INVALID"] {
        assert!(lines.contains(&format!("\"command\":\"{command}\"")), "{lines}");
    }
    assert!(!leaks(&logged), "{lines}");
    let persisted = std::fs::read(telemetry_file).unwrap();
    assert!(persisted.len() > 12, "telemetry.yvt holds no bucket");
    assert!(!leaks(&persisted));
}

/// The tracing acceptance path: a slow RESOLVE against a 4-shard store
/// hands back a `trace=` id on its status line; `TRACE <id>` serves the
/// span tree accept → parse → candidates → rank → reply, none of it
/// shard-scoped (reads touch no shard); an `ADD`'s `apply` span names
/// the shard its record routes to; `TOP` cross-references the same id in
/// its ring counters and SLOW rows; and under an injected
/// [`ManualClock`] the whole rendering is byte-identical across
/// independent server instances.
#[test]
fn trace_of_a_slow_resolve_serves_the_span_tree_and_top_deterministically() {
    fn run(tag: &str) -> String {
        let dir = ScratchDir::new(tag);
        let store = Store::create(&dir, trained_resolver(200, 88), 4).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let clock = std::sync::Arc::new(yv_obs::ManualClock::at(0));
        let server = std::thread::spawn(move || {
            ServeOptions::new(store)
                .workers(2)
                // Threshold zero under a manual clock: every captured
                // request tail-samples, no timing games.
                .slow_us(0)
                .slow_log(Box::new(std::io::sink()))
                .trace_seed(0xfeed_beef)
                .clock(clock)
                .serve(listener)
                .unwrap()
        });

        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let (status, _) = raw_exchange(&mut raw, &mut reader, "RESOLVE Levi k=3");
        assert!(status.starts_with("OK "), "{status}");
        let id = trace_id(&status);
        assert_ne!(id, 0, "trace id 0 means untraced");

        // The typed client parses the span tree.
        let mut client = Client::connect(addr).unwrap();
        let report = client.trace_get(id).unwrap();
        assert_eq!(report.id, id);
        assert_eq!(report.command, "RESOLVE");
        assert!(report.ok, "{report:?}");
        assert_eq!(report.conn, 0, "the raw socket was the first connection");
        assert_eq!(report.dropped_spans, 0);
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["accept", "parse", "candidates", "rank", "reply"], "{report:?}");
        // The one index scan carries the candidate and examined counts;
        // a read touches no shard, so no span names one.
        let scan = &report.spans[2];
        for key in ["cands", "examined"] {
            assert!(scan.args.iter().any(|(k, _)| k == key), "{scan:?}");
        }
        assert!(report.spans.iter().all(|s| s.shard.is_none()), "{report:?}");
        // The queried name never enters the trace — only its digest.
        assert!(report.args.iter().any(|(k, _)| k == "name_digest"), "{report:?}");
        assert!(!format!("{report:?}").contains("Levi"));

        // TOP cross-references the same id: captured, tail-sampled, and
        // recorded as the most recent slow trace.
        let top = client.top(None).unwrap();
        assert!(top.ring.capacity > 0 && top.ring.occupancy >= 1, "{top:?}");
        assert!(top.ring.captured >= 1 && top.ring.sampled >= 1, "{top:?}");
        assert_eq!(top.ring.last_slow, id, "{top:?}");
        assert!(top.slow.iter().any(|s| s.trace == id && s.command == "RESOLVE"), "{top:?}");
        let resolve_row = top.commands.iter().find(|c| c.name == "RESOLVE").unwrap();
        assert_eq!(resolve_row.count, 1, "{resolve_row:?}");

        // TRACE of an unknown id is a typed refusal — and the connection
        // survives it.
        let err = client.trace_get(0x1).unwrap_err();
        assert!(err.is_server(), "{err:?}");
        assert!(err.server_message().unwrap().contains("no trace"), "{err:?}");
        assert!(client.top(Some(1)).is_ok());

        // The request that still has a shard: an ADD's `apply` span
        // names the one its record routes to.
        let line = "ADD book=990001 source=0 first=Sara last=Levi";
        let Ok(Request::Add(record)) = parse_request(line) else { panic!("{line}") };
        let (status, _) = raw_exchange(&mut raw, &mut reader, line);
        assert!(status.starts_with("OK "), "{status}");
        let add = client.trace_get(trace_id(&status)).unwrap();
        let apply = add.spans.iter().find(|s| s.name == "apply").unwrap();
        assert_eq!(apply.shard, Some(shard_of_record(&record, 4) as u32), "{add:?}");

        // Raw TRACE bytes for the cross-instance determinism check.
        let (trace_status, trace_data) =
            raw_exchange(&mut raw, &mut reader, &format!("TRACE {id:016x}"));

        // Close the raw connection before SHUTDOWN so its worker drains.
        drop(reader);
        drop(raw);
        client.shutdown().unwrap();
        server.join().unwrap();
        format!("{trace_status}{}", trace_data.concat())
    }

    let first = run("trace-e2e-a");
    let second = run("trace-e2e-b");
    assert_eq!(first, second, "same seed + manual clock must render byte-identical traces");
}

/// Windowed-telemetry acceptance: under an injected [`ManualClock`] a
/// 4-shard server answers `HISTORY resolve` byte-identically across two
/// independently seeded instances, and — because every closed bucket is
/// persisted to `telemetry.yvt` — byte-identically again after a restart
/// with NO new traffic and a clock back at the origin (pure replay).
#[test]
fn history_is_byte_identical_across_seeds_and_replays_across_restart() {
    fn drive(store: Store, dir: &std::path::Path, traffic: bool) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let clock = std::sync::Arc::new(yv_obs::ManualClock::at(0));
        let driver_clock = clock.clone();
        let telemetry_dir = dir.join("telemetry");
        let server = std::thread::spawn(move || {
            ServeOptions::new(store)
                .workers(2)
                .clock(clock)
                .telemetry_dir(telemetry_dir)
                .slo(vec![yv_obs::SloRule::parse("resolve:p99<1000000/60").unwrap()])
                .serve(listener)
                .unwrap()
        });

        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        if traffic {
            // Epochs 0, 1, 2 get 1, 2, 3 resolves; the manual clock makes
            // every latency exactly zero, so the rollups are deterministic.
            for epoch in 0..3u64 {
                for _ in 0..=epoch {
                    let (status, _) = raw_exchange(&mut raw, &mut reader, "RESOLVE Levi k=3");
                    assert!(status.starts_with("OK "), "{status}");
                }
                driver_clock.advance(1_000_000_000);
                // Rotation is lazy; close the passed boundary from the
                // protocol at a deterministic point. The real-time ticker
                // racing in is harmless — rotation is idempotent and a
                // function of clock state only.
                let (status, _) = raw_exchange(&mut raw, &mut reader, "HISTORY resolve window=1");
                assert!(status.starts_with("OK "), "{status}");
            }
        }
        // In the replay leg the clock stays at the origin: views anchor at
        // the restored open epoch, so history is visible immediately.
        let (status, data) = raw_exchange(&mut raw, &mut reader, "HISTORY resolve window=5");
        assert!(status.starts_with("OK "), "{status}");
        let rendered = format!("{status}{}", data.concat());

        // The typed client agrees with the raw bytes.
        let mut client = Client::connect(addr).unwrap();
        let report = client.history("resolve", Some(5), None).unwrap();
        assert_eq!(report.metric, "resolve");
        assert_eq!(report.tier, "s");
        assert_eq!(report.now_epoch, 3, "{report:?}");
        assert_eq!(
            report.buckets.iter().map(|b| (b.epoch, b.count)).collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 3)],
            "{report:?}"
        );
        assert_eq!(report.summary.count, 6);
        assert_eq!(report.slo.len(), 1);
        assert_eq!(report.slo[0].state, "ok", "zero-latency resolves never burn budget");

        drop(reader);
        drop(raw);
        client.shutdown().unwrap();
        server.join().unwrap();
        rendered
    }

    let dir_a = ScratchDir::new("history-e2e-a");
    let dir_b = ScratchDir::new("history-e2e-b");
    let first = drive(Store::create(&dir_a, trained_resolver(200, 88), 4).unwrap(), &dir_a, true);
    let second = drive(Store::create(&dir_b, trained_resolver(200, 88), 4).unwrap(), &dir_b, true);
    assert_eq!(first, second, "same seed + manual clock must render byte-identical HISTORY");
    let replayed = drive(Store::open(&dir_a).unwrap(), &dir_a, false);
    assert_eq!(first, replayed, "restart must replay telemetry.yvt byte-identically");
}

#[test]
fn kill_without_snapshot_replays_the_wal() {
    let dir = ScratchDir::new("kill-replay");
    let store = Store::create(&dir, trained_resolver(200, 33), 3).unwrap();

    // Apply arrivals through the durable path, then record the answers.
    let extra = yv_records::RecordBuilder::new(900_100, yv_records::SourceId(0))
        .first_name("Guido")
        .last_name("Foa")
        .build();
    store.add_record(extra).unwrap();
    let query = PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() };
    let before: Vec<_> = store.query(&query);
    let stats_before = store.stats();
    assert_eq!(stats_before.wal_entries, 1);

    // "Kill": drop without snapshotting. The WAL is the only trace of the
    // arrival.
    drop(store);

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().records, stats_before.records);
    assert_eq!(store.stats().wal_entries, 1, "arrival came back via replay");
    assert_eq!(store.query(&query), before, "replayed store answers identically");
}

/// Run the battery over an already-connected client (either transport).
fn battery_with(client: &mut Client) -> Vec<Vec<QueryHit>> {
    queries().iter().map(|q| client.query(q).unwrap()).collect()
}

/// Speak `HELLO proto=binary` on a raw socket and consume the text
/// acknowledgement block, leaving the stream in binary framing.
fn raw_hello(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    stream.write_all(HELLO_LINE.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert_eq!(status.trim_end(), HELLO_OK);
    let mut dot = String::new();
    reader.read_line(&mut dot).unwrap();
    assert_eq!(dot, ".\n");
}

/// The binary-vs-text acceptance path: one seeded 4-shard server, a
/// text client and a `HELLO`-negotiated binary client side by side on
/// concurrent connections. QUERY and RESOLVE answers are identical
/// across transports; `BATCH_ADD` streams records
/// with per-record statuses (errors included, in submission order) that
/// the text session then observes; the per-command metrics table stays
/// at exactly the ten command kinds on both transports.
#[test]
fn binary_negotiation_matches_text_semantics_and_streams_batches() {
    let dir = ScratchDir::new("binary-parity");
    let store = Store::create(&dir, trained_resolver(250, 21), 4).unwrap();
    let records_before = store.stats().records;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(4).serve(listener).unwrap());

    // Two concurrent sessions, one per transport. The plain text session
    // keeps working while binary frames flow on the other.
    let mut text = Client::connect(addr).unwrap();
    assert_eq!(text.protocol(), Protocol::Text);
    let mut binary = ClientOptions::new().protocol(Protocol::Binary).connect(addr).unwrap();
    assert_eq!(binary.protocol(), Protocol::Binary);

    // QUERY: every transport answers the battery identically.
    let text_answers = battery_with(&mut text);
    let binary_answers = battery_with(&mut binary);
    assert_eq!(text_answers, binary_answers);

    // RESOLVE: identical hits, and identical typed refusals.
    assert_eq!(
        text.resolve("Lewi", Some(5), None).unwrap(),
        binary.resolve("Lewi", Some(5), None).unwrap()
    );
    assert_eq!(
        text.resolve("Lewi", Some(0), None).unwrap_err().server_message(),
        binary.resolve("Lewi", Some(0), None).unwrap_err().server_message()
    );

    // BATCH_ADD: valid records interleaved with a refusal; statuses come
    // back per record in submission order.
    let mut records = Vec::new();
    for i in 0..6u64 {
        records.push(
            yv_records::RecordBuilder::new(910_000 + i, yv_records::SourceId(0))
                .first_name("Guido")
                .last_name("Foa")
                .build(),
        );
    }
    records.insert(
        3,
        yv_records::RecordBuilder::new(910_999, yv_records::SourceId(99_999))
            .first_name("X")
            .build(),
    );
    let statuses = binary.batch_add(records).unwrap();
    assert_eq!(statuses.len(), 7);
    for (i, status) in statuses.iter().enumerate() {
        if i == 3 {
            let BatchStatus::Err(message) = status else {
                panic!("slot 3 must be refused: {statuses:?}");
            };
            assert!(message.contains("unknown source"), "{message}");
        } else {
            assert!(matches!(status, BatchStatus::Ok { .. }), "slot {i}: {statuses:?}");
        }
    }

    // The text session sees the batch arrivals immediately.
    let stats = text.stats().unwrap();
    assert_eq!(stats.records, records_before + 6);
    assert_eq!(stats.wal_entries, 6);
    // Batch records land under the ADD command kind; the table stays at
    // exactly the ten protocol commands on both transports.
    assert_eq!(stats.commands.len(), 10, "{stats:?}");
    let add_row = stats.commands.iter().find(|c| c.name == "ADD").unwrap();
    assert_eq!(add_row.count, 7, "six applied + one refused: {add_row:?}");
    assert_eq!(text.stats().unwrap().records, binary.stats().unwrap().records);

    // Both transports answer the post-batch battery identically too.
    assert_eq!(battery_with(&mut text), battery_with(&mut binary));

    drop(binary);
    text.shutdown().unwrap();
    let store = server.join().unwrap();
    assert_eq!(store.stats().records, records_before + 6);
}

/// A peer that never sends a newline must not grow a worker's line
/// buffer without bound: past the 64 KiB cap the server answers `ERR`
/// and closes — while the peer is still mid-"line" — counts a parse
/// error, and keeps serving everyone else.
#[test]
fn overlong_text_line_is_refused_before_its_newline() {
    let dir = ScratchDir::new("line-cap");
    let store = Store::create(&dir, trained_resolver(200, 33), 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(2).serve(listener).unwrap());

    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    // 1 MiB and no newline, ever. The server may hang up mid-write; the
    // reset is one of the two accepted outcomes.
    let _ = hostile.write_all(&vec![b'A'; 1 << 20]);
    let mut reply = String::new();
    match BufReader::new(&hostile).read_line(&mut reply) {
        Ok(0) => {}
        Ok(_) => assert_eq!(reply, "ERR request line exceeds 65536 bytes\n"),
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the server is still waiting for a newline: {e}"
        ),
    }
    drop(hostile);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().errors, 1, "the refusal counts as a parse error");
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The scrape sidecar answers on one thread, so a peer that streams a
/// header without ever ending it must be cut off at the 64 KiB head cap
/// — `431`, or the reset its unread bytes provoke — and the next scrape
/// must be served.
#[test]
fn overlong_scrape_head_is_refused_and_the_sidecar_keeps_serving() {
    let dir = ScratchDir::new("scrape-cap");
    let store = Store::create(&dir, trained_resolver(200, 33), 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics_listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        ServeOptions::new(store).workers(2).metrics_listener(metrics_listener).serve(listener).unwrap()
    });

    let mut hostile = TcpStream::connect(metrics_addr).unwrap();
    hostile.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let _ = hostile.write_all(b"GET /metrics HTTP/1.1\r\nX-Pad: ");
    let _ = hostile.write_all(&vec![b'A'; 1 << 20]);
    let mut reply = String::new();
    match BufReader::new(&hostile).read_line(&mut reply) {
        Ok(0) => {}
        Ok(_) => assert_eq!(reply, "HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the sidecar is still waiting for a newline: {e}"
        ),
    }
    drop(hostile);

    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut http = String::new();
    BufReader::new(scrape).read_to_string(&mut http).unwrap();
    assert!(http.starts_with("HTTP/1.1 200 OK\r\n"), "{http}");
    assert!(http.contains("\nyv_store_records "), "{http}");

    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

/// A connection cut mid-`BATCH_ADD`-frame must leave the store exactly
/// as the last *complete* frame left it: the torn frame applies nothing
/// (the checksum gate never admits it), an earlier acknowledged batch on
/// the same connection stays durable, and the store reopens cleanly from
/// disk afterwards (group commit never leaves a WAL sequence gap).
#[test]
fn mid_frame_connection_drop_applies_nothing_from_the_torn_batch() {
    let dir = ScratchDir::new("torn-batch");
    let store = Store::create(&dir, trained_resolver(200, 33), 4).unwrap();
    let records_before = store.stats().records;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server =
        std::thread::spawn(move || ServeOptions::new(store).workers(2).serve(listener).unwrap());

    let batch = |base: u64, n: u64| -> Vec<yv_records::Record> {
        (0..n)
            .map(|i| {
                yv_records::RecordBuilder::new(base + i, yv_records::SourceId(0))
                    .first_name("Sara")
                    .last_name("Levi")
                    .build()
            })
            .collect()
    };

    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw_hello(&mut raw, &mut reader);
        // First batch: complete frame, acknowledged per record.
        let first = RequestFrame::BatchAdd(batch(920_000, 3)).encode().unwrap();
        raw.write_all(&first).unwrap();
        let reply = yv_store::ResponseFrame::read(&mut reader).unwrap().unwrap();
        let yv_store::ResponseFrame::Batch(statuses) = reply else {
            panic!("expected batch statuses, got {reply:?}");
        };
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|s| matches!(s, BatchStatus::Ok { .. })), "{statuses:?}");
        // Second batch: cut inside the payload, then drop the socket.
        let second = RequestFrame::BatchAdd(batch(920_100, 5)).encode().unwrap();
        raw.write_all(&second[..second.len() / 2]).unwrap();
        raw.flush().unwrap();
        // Connection drops here (FIN mid-frame).
    }

    // The server is still alive and serves the truth: the acknowledged
    // batch persists, the torn one contributed nothing.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.records, records_before + 3, "{stats:?}");
    assert_eq!(stats.wal_entries, 3, "{stats:?}");
    client.shutdown().unwrap();
    let store = server.join().unwrap();
    assert_eq!(store.stats().records, records_before + 3);
    drop(store);

    // The WALs merged cleanly — reopening must not report a gap.
    let reopened = Store::open(&dir).unwrap();
    assert_eq!(reopened.stats().records, records_before + 3);
}

/// Group commit is still write-ahead: a batch applied through
/// [`Store::add_records`] survives a kill (no snapshot) byte-for-byte —
/// the replayed store answers queries identically, because replay
/// applies the same shard-grouped arrival order the batch committed in.
#[test]
fn group_committed_batches_replay_after_a_kill() {
    let dir = ScratchDir::new("batch-kill-replay");
    let store = Store::create(&dir, trained_resolver(150, 55), 3).unwrap();
    let records_before = store.stats().records;
    let records: Vec<_> = (0..10u64)
        .map(|i| {
            yv_records::RecordBuilder::new(930_000 + i, yv_records::SourceId(0))
                .first_name("Guido")
                .last_name("Foa")
                .build()
        })
        .collect();
    let outcomes = store.add_records(records);
    assert_eq!(outcomes.len(), 10);
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    let query = PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() };
    let before = store.query(&query);
    assert_eq!(store.stats().records, records_before + 10);
    assert_eq!(store.stats().wal_entries, 10);

    // "Kill": drop without snapshotting; the group-committed WAL frames
    // are the only trace of the batch.
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().records, records_before + 10);
    assert_eq!(store.stats().wal_entries, 10, "the batch came back via replay");
    assert_eq!(store.query(&query), before, "replayed store answers identically");
}

#[test]
fn store_queries_match_person_query_run() {
    let dir = ScratchDir::new("index-equivalence");
    let resolver = trained_resolver(250, 44);
    let store = Store::create(&dir, resolver, 4).unwrap();
    let resolution = store.resolution();
    let queries = [
        PersonQuery::default(),
        PersonQuery { first_name: Some("Guido".into()), ..PersonQuery::default() },
        PersonQuery {
            last_name: Some("Levi".into()),
            certainty: 1.0,
            ..PersonQuery::default()
        },
        PersonQuery {
            first_name: Some("Sara".into()),
            last_name: Some("Levi".into()),
            name_similarity: 0.8,
            ..PersonQuery::default()
        },
    ];
    for q in queries {
        assert_eq!(
            store.query(&q),
            store.with_dataset(|ds| q.run(ds, &resolution)),
            "sharded fan-out must equal the linear scan for {q:?}"
        );
    }
}

/// `SHUTDOWN` always brings `serve` back. The worker that answers it
/// returns to the connection queue just as the acceptor hangs the queue
/// up; a queue that signals the hang-up without holding its lock loses
/// that wakeup about once in 300 shutdowns and `serve` never returns.
#[test]
fn every_shutdown_returns_from_serve() {
    let dir = ScratchDir::new("shutdown-cycles");
    let mut store = Store::create(&dir, trained_resolver(60, 5), 1).unwrap();
    for cycle in 0..200 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            done.send(ServeOptions::new(store).workers(4).serve(listener)).ok();
        });
        Client::connect(addr).unwrap().shutdown().unwrap();
        store = returned
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("cycle {cycle}: serve did not return within 5 s"))
            .unwrap();
    }
}
