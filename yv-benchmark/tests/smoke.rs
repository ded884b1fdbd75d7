//! Every workload at toy size, untraced and traced, checked against the
//! definition in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use yv_benchmark::catalog::{Workload, END_TO_END, PER_LAYER};
use yv_benchmark::inputs::Sizes;
use yv_benchmark::report::{result_line, WorkloadReport};
use yv_benchmark::run::{repeat_rows, run_traced, run_untraced, Options};
use yv_benchmark::scratch::{default_root, ScratchDir};

// ------------------------------------------------------------ mini JSON

/// Just enough JSON to read `BENCHMARK.json`, a result line and a Chrome
/// trace; the workspace's `serde` is a stub.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Json::value(bytes, &mut pos);
        Json::skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing bytes after the JSON value");
        value
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, token: &str) {
        assert!(
            b[*pos..].starts_with(token.as_bytes()),
            "expected {token} at byte {pos}"
        );
        *pos += token.len();
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        Json::skip_ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(map);
                    }
                    if !map.is_empty() {
                        Json::expect(b, pos, ",");
                        Json::skip_ws(b, pos);
                    }
                    let key = Json::string(b, pos);
                    Json::skip_ws(b, pos);
                    Json::expect(b, pos, ":");
                    let value = Json::value(b, pos);
                    assert!(
                        map.insert(key.clone(), value).is_none(),
                        "duplicate key {key}"
                    );
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    if !items.is_empty() {
                        Json::expect(b, pos, ",");
                    }
                    items.push(Json::value(b, pos));
                }
            }
            b'"' => Json::Str(Json::string(b, pos)),
            b't' => {
                Json::expect(b, pos, "true");
                Json::Bool(true)
            }
            b'f' => {
                Json::expect(b, pos, "false");
                Json::Bool(false)
            }
            b'n' => {
                Json::expect(b, pos, "null");
                Json::Null
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).expect("utf8 number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?} at byte {start}")),
                )
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> String {
        Json::expect(b, pos, "\"");
        let mut out = Vec::new();
        loop {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return String::from_utf8(out).expect("utf8 string");
                }
                b'\\' => {
                    out.push(match b[*pos + 1] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other, // \" \\ \/
                    });
                    *pos += 2;
                }
                other => {
                    out.push(other);
                    *pos += 1;
                }
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

// ------------------------------------------------------------- fixtures

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

fn names_of(defs: &Json) -> Vec<String> {
    defs.items()
        .iter()
        .map(|d| d.get("name").str().to_owned())
        .collect()
}

fn toy(scratch: &ScratchDir) -> Options {
    Options {
        seed: 3,
        seconds: 0,
        sizes: Sizes::TOY,
        scratch_root: scratch.path().to_path_buf(),
    }
}

/// The allocator counters behind `peak_alloc_bytes` are process-wide, and
/// the test harness runs tests on parallel threads: runs take turns.
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(label: &str) -> ScratchDir {
    ScratchDir::new(&default_root().join("smoke"), label).expect("scratch directory")
}

fn assert_clean(report: &WorkloadReport) {
    let w = report.workload.name();
    assert_eq!(
        report.problems,
        Vec::<String>::new(),
        "{w}: correctness checks"
    );
    assert_eq!(report.failed, 0, "{w}: failed operations");
    assert!(report.attempted >= 1, "{w}: attempted");
    assert!(report.correct());
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
    }
}

// ---------------------------------------------------------------- tests

#[test]
fn benchmark_json_matches_the_catalogue_and_the_contract() {
    let bench = benchmark_json();
    assert_eq!(
        bench.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ],
        "exactly the contract's keys"
    );

    let workloads = bench.get("workloads").items();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (json, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(json.keys(), ["name", "why"]);
        assert_eq!(json.get("name").str(), workload.name());
        assert_eq!(json.get("why").str(), workload.why());
    }

    let end_to_end = bench.get("end_to_end").items();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(json.keys(), ["better", "bound", "name", "unit"]);
        assert_eq!(json.get("name").str(), def.name);
        assert_eq!(json.get("unit").str(), def.unit);
        assert_eq!(json.get("better").str(), def.better.as_str());
        assert_eq!(json.get("bound").num(), def.bound);
    }

    let per_layer = bench.get("per_layer").items();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (json, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(json.keys(), ["better", "name", "unit"]);
        assert_eq!(json.get("name").str(), def.name);
        assert_eq!(json.get("unit").str(), def.unit);
        assert_eq!(json.get("better").str(), def.better.as_str());
    }

    let paths: Vec<&str> = bench.get("paths").items().iter().map(Json::str).collect();
    assert_eq!(paths, ["yv-benchmark"]);
    let command: Vec<&str> = bench.get("command").items().iter().map(Json::str).collect();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|arg| arg.len() <= 200 && !arg.starts_with('/'))
    );
    assert!(
        command.contains(&"yv-benchmark/Cargo.toml"),
        "the command builds this package"
    );
    let run_seconds = bench.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    // 4 + 22 runs per workload, at most 3420 s with two builds.
    assert!((4.0 + 22.0 * workloads.len() as f64) * (run_seconds + 15.0) < 3_420.0);
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics_and_pass_their_checks() {
    let bench = benchmark_json();
    let expected = names_of(bench.get("end_to_end"));
    let _turn = take_turn();
    let dir = scratch("untraced");
    let mut reports = Vec::new();
    for name in names_of(bench.get("workloads")) {
        let workload = Workload::from_name(&name).expect("a workload the benchmark knows");
        let report = run_untraced(workload, &toy(&dir)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_clean(&report);
        let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            emitted, expected,
            "{name}: every end-to-end metric and nothing else"
        );
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metrics are never 0, {} is",
                m.name
            );
        }

        // The driver's line: exactly four keys, one entry per metric.
        let line = Json::parse(&result_line(std::slice::from_ref(&report)));
        assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), &Json::Bool(true));
        assert_eq!(line.get("failed").num(), 0.0);
        assert!(line.get("attempted").num() >= 1.0);
        let mut listed = line.get("metrics").keys();
        let mut wanted: Vec<&str> = expected.iter().map(String::as_str).collect();
        listed.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(listed, wanted);
        for def in &END_TO_END {
            let entry = line.get("metrics").get(def.name);
            assert_eq!(entry.keys(), ["unit", "value"]);
            assert_eq!(entry.get("unit").str(), def.unit);
        }
        reports.push(report);
    }
    // A set compared with itself is a perfect repeat.
    assert!(repeat_rows(&reports, &reports)
        .iter()
        .all(|row| row.within && row.worse_by == 0.0));
    assert_eq!(
        repeat_rows(&reports, &reports).len(),
        reports.len() * END_TO_END.len()
    );
    drop(dir);
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics_and_a_well_formed_trace() {
    let bench = benchmark_json();
    let expected = names_of(bench.get("per_layer"));
    let _turn = take_turn();
    let dir = scratch("traced");
    for workload in Workload::ALL {
        let name = workload.name();
        let trace_path = dir.path().join(format!("trace-{name}.json"));
        let report =
            run_traced(workload, &toy(&dir), dir.path()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_clean(&report);
        assert!(report.traced);
        let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            emitted, expected,
            "{name}: every per-layer metric and nothing else"
        );

        // Counts that must hold whatever the machine.
        let value = |metric: &str| {
            report
                .metric(metric)
                .unwrap_or_else(|| panic!("{metric}"))
                .value
        };
        assert!(value("blocking.candidate_pairs") > 0.0);
        assert!(value("core.insert_candidates_per_record") > 0.0);
        assert!(value("store.open_wal_entries_replayed") > 0.0);
        assert!((0.0..=1.0).contains(&value("blocking.pair_recall")));
        assert!(value("store.fsyncs_per_record") <= 1.0);
        let serves_queries = matches!(workload, Workload::ServeRead | Workload::ServeMixed);
        assert_eq!(
            value("client.query_p50_us") > 0.0,
            serves_queries,
            "{name}: client.query_p50_us"
        );
        assert_eq!(
            value("server.query_us_p50") > 0.0,
            serves_queries,
            "{name}: server.query_us_p50"
        );
        assert_eq!(
            value("client.add_p50_us") > 0.0,
            workload == Workload::ServeMixed
        );
        assert_eq!(
            value("client.restart_s") > 0.0,
            workload == Workload::IngestRestart
        );

        // The Chrome trace parses; every span has a parent or is a root.
        let trace = Json::parse(&std::fs::read_to_string(&trace_path).expect("trace file"));
        let events = trace.get("traceEvents").items();
        let spans: Vec<&Json> = events.iter().filter(|e| e.get("ph").str() == "X").collect();
        assert!(spans.len() > 10, "{name}: {} spans", spans.len());
        let ids: Vec<f64> = spans
            .iter()
            .map(|s| s.get("args").get("id").num())
            .collect();
        let mut roots = 0;
        for span in &spans {
            assert!(span.get("dur").num() >= 0.0 && span.get("ts").num() >= 0.0);
            match span.get("args").get("parent") {
                Json::Null => roots += 1,
                parent => {
                    let parent = parent.num();
                    assert!(
                        ids.contains(&parent),
                        "{name}: parent {parent} is not a span"
                    );
                    assert!(
                        parent < span.get("args").get("id").num(),
                        "parents start first"
                    );
                }
            }
        }
        assert!(
            roots >= 2,
            "{name}: the workload thread and the replay thread each have a root"
        );
        let named = |n: &str| spans.iter().any(|s| s.get("name").str() == n);
        assert!(
            named(&format!("workload.{name}")),
            "{name}: the traced repetition is in the trace"
        );
        assert!(named("replay.pipeline") && named("replay.store.write") && named("store.open"));
        assert!(
            events.iter().any(|e| e.get("ph").str() == "M"),
            "threads are labelled"
        );
    }
    drop(dir);
}
