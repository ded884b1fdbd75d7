//! The four workloads: set-up, repetitions and their correctness checks.
//!
//! Load is a **closed loop**: Names-database front ends and ingest
//! scripts wait for each reply before sending the next request. One
//! process holds [`CONNECTIONS`] client connections and the server
//! (`ServeOptions::new(store).workers(CONNECTIONS)`, trace capture off
//! unless the run is traced), the store has 4 shards on the checkout's
//! filesystem and keeps the shipped flush policy: `sync_data` per ADD,
//! one per dirty shard per BATCH_ADD. An open-loop rate sweep is left out
//! on purpose: on two shared cores it measures the scheduler.
//!
//! Every repetition starts from the same golden store directory (copied,
//! then `Store::open`ed) and performs the same operation sequence, so two
//! commits do equal work; repetitions repeat until `--seconds` of timed
//! work have been measured and the median repetition is reported.

use crate::catalog::Workload;
use crate::inputs::{
    lookup_for, misspell, record_id, round_resolves, Arrival, Inputs, ReadOp, Sizes, CERTAINTIES,
    CONNECTIONS,
};
use crate::report::{Metric, WorkloadReport};
use crate::samples::{Samples, Sorted};
use crate::scratch::ScratchDir;
use crate::spans::{spanned, Tracer};
use crate::{err, BenchResult};
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use yv_core::{PersonQuery, QueryHit};
use yv_datagen::PersonId;
use yv_obs::{Clock, MonotonicClock, Recorder};
use yv_records::RecordId;
use yv_store::client::CommandRow;
use yv_store::{
    BatchStatus, Client, ClientOptions, Protocol, RankedEntity, RequestFrame, ResolveOptions,
    ResolveRow, ServeOptions, Store,
};

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the throughput phase.
    pub wall_ns: u64,
    /// Completed work items of the timed phase: records for
    /// `batch_resolve` and `ingest_restart`, requests for the serving
    /// workloads.
    pub work_items: u64,
    /// Latencies of the workload's unit operation.
    pub unit: Samples,
    pub query: Samples,
    pub resolve: Samples,
    pub add: Samples,
    /// Peak live bytes during the timed phase, less what was live before
    /// the repetition opened its store (the harness's own inputs).
    pub peak_alloc_bytes: u64,
    pub quality: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Things worth telling that are not failures.
    pub notes: Vec<String>,
    /// QUERY hits received, for `client.hits_per_query`.
    pub hits: u64,
    /// `ingest_restart`: seconds to reopen the live directory.
    pub restart_s: f64,
    /// Fingerprint of the repetition's output, equal across repetitions
    /// where the workload is single-threaded.
    pub digest: u64,
    /// Server-side per-command rows, scraped over the wire (traced runs).
    pub server_commands: Vec<CommandRow>,
}

impl Rep {
    /// Work items per second of the throughput phase.
    #[must_use]
    pub fn per_second(&self) -> f64 {
        self.work_items as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Inputs plus, for the serving workloads, the golden store directory.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub inputs: Inputs,
    golden: Option<ScratchDir>,
    scratch_root: PathBuf,
    pub clock: Arc<MonotonicClock>,
    /// Wall time of each set-up pass.
    pub setup_s: Vec<f64>,
    /// `serve_read`: the expected answers, computed once after set-up.
    oracle: Option<ReadOracle>,
}

impl Prepared {
    /// Build the workload's set-up `sizes.setup_reps` times (the median
    /// is `setup_s`) and keep the last. Set-up is everything the product
    /// does before the first timed operation: train the ADT, generate and
    /// split the corpus and, for the serving workloads, bootstrap the
    /// golden store (a batch resolution), write it, and open a copy the
    /// way each repetition will.
    pub fn new(
        workload: Workload,
        seed: u64,
        sizes: Sizes,
        scratch_root: &Path,
    ) -> BenchResult<Prepared> {
        let clock = Arc::new(MonotonicClock::new());
        let mut setup_s = Vec::new();
        let mut last = None;
        for pass in 0..sizes.setup_reps.max(1) {
            drop(last.take());
            let t0 = clock.now_nanos();
            let inputs = Inputs::build(seed, sizes, clock.as_ref());
            let golden = if workload == Workload::BatchResolve {
                None
            } else {
                let label = format!("{}-golden{pass}", workload.name());
                let golden = ScratchDir::new(scratch_root, &label)?;
                inputs.create_golden(golden.path())?;
                let copy =
                    ScratchDir::copy_of(scratch_root, &format!("{label}-open"), golden.path())?;
                drop(Store::open(copy.path()).map_err(err)?);
                Some(golden)
            };
            setup_s.push(clock.now_nanos().saturating_sub(t0) as f64 / 1e9);
            last = Some((inputs, golden));
        }
        let (inputs, golden) = last.ok_or("no set-up pass ran")?;
        let mut prepared = Prepared {
            workload,
            inputs,
            golden,
            scratch_root: scratch_root.to_path_buf(),
            clock,
            setup_s,
            oracle: None,
        };
        if workload == Workload::ServeRead {
            prepared.oracle = Some(ReadOracle::compute(&prepared)?);
        }
        Ok(prepared)
    }

    /// A fresh copy of the golden directory, opened.
    pub fn open_copy(&self, label: &str) -> BenchResult<(ScratchDir, Store)> {
        let golden = self
            .golden
            .as_ref()
            .ok_or("this workload has no golden store")?;
        let dir = ScratchDir::copy_of(&self.scratch_root, label, golden.path())?;
        let store = Store::open(dir.path()).map_err(err)?;
        Ok((dir, store))
    }

    pub fn scratch(&self, label: &str) -> BenchResult<ScratchDir> {
        ScratchDir::new(&self.scratch_root, label)
    }

    /// A scratch copy of a store directory.
    pub fn copy_dir(&self, label: &str, from: &Path) -> BenchResult<ScratchDir> {
        ScratchDir::copy_of(&self.scratch_root, label, from)
    }

    fn now(&self) -> u64 {
        self.clock.now_nanos()
    }
}

/// Run `workload`'s repetitions: at least `sizes.min_reps`, then until
/// `seconds` of timed work have accumulated. `tracer` turns on harness
/// spans and server trace capture.
pub fn run_reps(p: &Prepared, seconds: u64, tracer: Option<&Tracer>) -> BenchResult<Vec<Rep>> {
    let budget_ns = seconds.saturating_mul(1_000_000_000);
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed_ns = 0u64;
    while reps.len() < p.inputs.sizes.min_reps.max(1) || timed_ns < budget_ns {
        let n = reps.len();
        let rep = match p.workload {
            Workload::BatchResolve => batch_resolve(p, tracer)?,
            Workload::ServeRead => serve_read(p, n, tracer)?,
            Workload::ServeMixed => serve_mixed(p, n, tracer)?,
            Workload::IngestRestart => ingest_restart(p, n, tracer)?,
        };
        // `ingest_restart` times two things: the stream and the reopen.
        timed_ns += rep.wall_ns.max(1) + (rep.restart_s * 1e9) as u64;
        reps.push(rep);
    }
    Ok(reps)
}

/// Fold repetitions into the six end-to-end metrics.
#[must_use]
pub fn end_to_end_report(p: &Prepared, reps: &[Rep]) -> WorkloadReport {
    let per_rep = |f: &dyn Fn(&Rep, &Sorted) -> f64| -> Vec<f64> {
        reps.iter().map(|r| f(r, &r.unit.sorted())).collect()
    };
    let metrics = vec![
        Metric::of_reps("setup_s", "s", &p.setup_s),
        Metric::of_reps("throughput_per_s", "1/s", &per_rep(&|r, _| r.per_second())),
        Metric::of_reps(
            "latency_p50_us",
            "us",
            &per_rep(&|_, unit| unit.percentile_us(50)),
        ),
        Metric::of_reps(
            "latency_tail_us",
            "us",
            &per_rep(&|_, unit| unit.percentile_us(unit.supported_tail(90))),
        ),
        Metric::of_reps(
            "peak_alloc_bytes",
            "bytes",
            &per_rep(&|r, _| r.peak_alloc_bytes as f64),
        ),
        Metric::of_reps("quality", "ratio", &per_rep(&|r, _| r.quality)),
    ];
    let mut problems: Vec<String> = reps
        .iter()
        .flat_map(|r| r.problems.iter().cloned())
        .collect();
    // Single-threaded workloads must reproduce their output exactly.
    if matches!(p.workload, Workload::BatchResolve | Workload::IngestRestart)
        && reps.iter().any(|r| r.digest != reps[0].digest)
    {
        problems.push("output digest differs between repetitions".to_owned());
    }
    WorkloadReport {
        workload: p.workload,
        traced: false,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        problems,
        metrics,
        notes: std::iter::once(format!(
            "repetitions={} unit_samples_per_repetition={} tail=p{}",
            reps.len(),
            reps.first().map_or(0, |r| r.unit.len()),
            reps.first()
                .map_or(50, |r| r.unit.sorted().supported_tail(90)),
        ))
        .chain(reps.iter().flat_map(|r| r.notes.iter().cloned()))
        .collect(),
    }
}

/// Bytes currently allocated, process-wide.
fn live_bytes() -> u64 {
    yv_obs::alloc_stats().live_bytes
}

/// Peak live bytes since the last `reset_peak`, less `baseline`.
fn peak_since(baseline: u64) -> u64 {
    yv_obs::alloc_stats().peak_bytes.saturating_sub(baseline)
}

// ---------------------------------------------------------------- batch

/// `batch_resolve`: the paper's offline pipeline (Fig. 9) over the base.
fn batch_resolve(p: &Prepared, tracer: Option<&Tracer>) -> BenchResult<Rep> {
    let inputs = &p.inputs;
    let rec = tracer.map(|t| t.thread("batch_resolve"));
    let baseline = live_bytes();
    yv_obs::reset_peak();
    let t0 = p.now();
    let resolution = match &rec {
        // `Pipeline::resolve` is `resolve_recorded` over a private
        // recorder, so both arms run the same code.
        Some(rec) => spanned(Some(rec), "workload.batch_resolve", &[], || {
            inputs
                .pipeline
                .resolve_recorded(&inputs.base, &inputs.config, rec)
        }),
        None => inputs.pipeline.resolve(&inputs.base, &inputs.config),
    };
    let wall_ns = p.now().saturating_sub(t0);
    let peak_alloc_bytes = peak_since(baseline);

    let mut fingerprint = Vec::with_capacity(resolution.matches.len() * 16);
    for m in &resolution.matches {
        fingerprint.extend_from_slice(&m.a.0.to_le_bytes());
        fingerprint.extend_from_slice(&m.b.0.to_le_bytes());
        fingerprint.extend_from_slice(&m.score.to_bits().to_le_bytes());
    }
    let positive: Vec<(RecordId, RecordId)> =
        resolution.crisp_matches().map(|m| (m.a, m.b)).collect();
    let quality = yv_eval::prf(&positive, &inputs.gold_base_pairs()).f1;

    let mut unit = Samples::default();
    unit.push_ns(wall_ns);
    let empty = resolution.matches.is_empty();
    Ok(Rep {
        wall_ns,
        work_items: inputs.base.len() as u64,
        unit,
        peak_alloc_bytes,
        quality,
        attempted: 1,
        failed: u64::from(empty),
        problems: if empty {
            vec!["resolve produced no matches".to_owned()]
        } else {
            Vec::new()
        },
        digest: yv_store::codec::fnv1a64(&fingerprint),
        ..Rep::default()
    })
}

// -------------------------------------------------------------- serving

/// How long a server may take to stop after `SHUTDOWN` (its final
/// snapshot takes about 0.2 s) before it is given up on.
const SHUTDOWN_GRACE: std::time::Duration = std::time::Duration::from_secs(20);

/// What [`serve`] hands back.
pub struct Served<R> {
    pub result: R,
    /// The store as the server returned it — `None` when the server did
    /// not stop within [`SHUTDOWN_GRACE`].
    pub store: Option<Store>,
}

/// Serve `store` in this process while `body` drives it, then shut the
/// server down and hand the store back. `body` must drop every
/// connection it opened before returning: the server has exactly
/// `workers` workers, each pinned to a connection until it closes, so a
/// `SHUTDOWN` sent while the load connections are still open would queue
/// behind them forever.
///
/// The server thread is not scoped, because about one shutdown in 300
/// never completes: the worker that answered `SHUTDOWN` re-enters
/// `recv` on the vendored `crossbeam` channel just as the acceptor drops
/// the last sender, whose `notify_all` is sent without the queue lock and
/// is lost, so the worker sleeps for good and `serve` never returns.
/// Measurements are complete by then, so such a server is left behind
/// (it is idle and dies with the process) and the checks that need the
/// returned store are skipped with a note; a benchmark that hung with it
/// would fail every fiftieth run.
pub fn serve<R>(
    store: Store,
    workers: usize,
    trace_capture: bool,
    body: impl FnOnce(SocketAddr) -> BenchResult<R>,
) -> BenchResult<Served<R>> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let served = ServeOptions::new(store)
            .workers(workers)
            .trace_capture(trace_capture)
            .serve(listener);
        // The receiver only goes away if this function already gave up.
        let _ = done_tx.send(served);
    });
    let outcome = body(addr);
    let stopped = Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .map_err(err);
    let store = match done_rx.recv_timeout(SHUTDOWN_GRACE) {
        Ok(served) => {
            server
                .join()
                .map_err(|_| "the server thread panicked".to_owned())?;
            Some(served.map_err(err)?)
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            stopped.as_ref().map_err(Clone::clone)?;
            drop(server); // detached on purpose, see above
            None
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            return Err("the server thread panicked".to_owned());
        }
    };
    stopped?;
    Ok(Served {
        result: outcome?,
        store,
    })
}

/// The note a repetition carries when its server was left behind.
const LEFT_BEHIND: &str =
    "the server did not stop after SHUTDOWN (lost wakeup in the vendored channel); checks on the returned store skipped";

/// What one client connection measured.
#[derive(Debug, Default)]
struct ConnOutcome {
    start_ns: u64,
    end_ns: u64,
    requests: u64,
    unit: Samples,
    query: Samples,
    resolve: Samples,
    add: Samples,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    hits: u64,
    resolve_found: u64,
    resolve_probes: u64,
}

impl ConnOutcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // Keep the report readable when a dead connection fails every
        // remaining request.
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// Merge connection outcomes into the repetition.
fn fold_connections(conns: Vec<ConnOutcome>) -> Rep {
    let mut rep = Rep::default();
    let start = conns.iter().map(|c| c.start_ns).min().unwrap_or(0);
    let end = conns.iter().map(|c| c.end_ns).max().unwrap_or(0);
    rep.wall_ns = end.saturating_sub(start);
    for c in conns {
        rep.work_items += c.requests;
        rep.unit.extend(&c.unit);
        rep.query.extend(&c.query);
        rep.resolve.extend(&c.resolve);
        rep.add.extend(&c.add);
        rep.attempted += c.attempted;
        rep.failed += c.failed;
        rep.problems.extend(c.problems);
        rep.hits += c.hits;
    }
    rep
}

fn connect(addr: SocketAddr, protocol: Protocol) -> BenchResult<Client> {
    ClientOptions::new()
        .protocol(protocol)
        .connect(addr)
        .map_err(err)
}

/// Per-command rows as the server counted them, over a fresh connection.
fn scrape_commands(addr: SocketAddr) -> BenchResult<Vec<CommandRow>> {
    Ok(Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(err)?
        .commands)
}

fn same_candidates(rows: &[ResolveRow], expected: &[RankedEntity]) -> bool {
    rows.len() == expected.len()
        && rows.iter().zip(expected).all(|(row, e)| {
            row.entity == e.entity
                && row.score.to_bits() == e.score.to_bits()
                && row.name == e.name
                && row.members == e.members
        })
}

/// The in-process answers `serve_read` replies are compared with,
/// computed on the golden store before anything is served.
#[derive(Debug)]
struct ReadOracle {
    /// Per connection: the operation sequence and its expected answers.
    connections: Vec<(Vec<ReadOp>, Vec<Answer>)>,
}

#[derive(Debug)]
enum Answer {
    Hits(Vec<QueryHit>),
    Candidates(Vec<RankedEntity>),
}

impl ReadOracle {
    fn compute(p: &Prepared) -> BenchResult<ReadOracle> {
        let (_dir, store) = p.open_copy("serve_read-oracle")?;
        let connections = (0..CONNECTIONS)
            .map(|c| {
                let ops = p.inputs.read_ops(c);
                let answers = ops
                    .iter()
                    .map(|op| match op {
                        ReadOp::Query(q) => Answer::Hits(store.query(q)),
                        ReadOp::Resolve { name, .. } => {
                            Answer::Candidates(store.resolve(name, &ResolveOptions::default()).hits)
                        }
                    })
                    .collect();
                (ops, answers)
            })
            .collect();
        Ok(ReadOracle { connections })
    }
}

/// One `serve_read` connection: warm the memos, wait for the other
/// connection, then send the sequence one request at a time.
fn read_connection(
    p: &Prepared,
    addr: SocketAddr,
    connection: usize,
    (ops, answers): &(Vec<ReadOp>, Vec<Answer>),
    barrier: &Barrier,
    rec: Option<&Recorder>,
) -> BenchResult<ConnOutcome> {
    let mut client = connect(addr, Protocol::Binary)?;
    // One query per certainty and one RESOLVE build every memo the
    // sequence uses; users pay that once per write, not per request.
    if let Some(ReadOp::Query(first)) = ops.iter().find(|op| matches!(op, ReadOp::Query(_))) {
        for certainty in CERTAINTIES {
            client
                .query(&PersonQuery {
                    certainty,
                    ..first.clone()
                })
                .map_err(err)?;
        }
    }
    client.resolve("warmup", None, None).map_err(err)?;

    let mut out = ConnOutcome::default();
    let _conn_span = rec.map(|r| r.span_with("connection", &[("connection", connection as u64)]));
    barrier.wait();
    out.start_ns = p.now();
    for (i, (op, expected)) in ops.iter().zip(answers).enumerate() {
        let req = (connection * ops.len() + i) as u64;
        out.attempted += 1;
        let t0 = p.now();
        match (op, expected) {
            (ReadOp::Query(query), Answer::Hits(expected)) => {
                let reply = spanned(rec, "client.query", &[("req", req)], || client.query(query));
                let ns = p.now().saturating_sub(t0);
                out.unit.push_ns(ns);
                out.query.push_ns(ns);
                match reply {
                    Ok(hits) if &hits == expected => out.hits += hits.len() as u64,
                    Ok(_) => out.fail(format!("QUERY #{i} differs from the in-process answer")),
                    Err(e) => out.fail(format!("QUERY #{i}: {e}")),
                }
            }
            (ReadOp::Resolve { name, original }, Answer::Candidates(expected)) => {
                let reply = spanned(rec, "client.resolve", &[("req", req)], || {
                    client.resolve(name, None, None)
                });
                let ns = p.now().saturating_sub(t0);
                out.unit.push_ns(ns);
                out.resolve.push_ns(ns);
                out.resolve_probes += 1;
                match reply {
                    Ok(rows) if same_candidates(&rows, expected) => {
                        out.resolve_found +=
                            u64::from(rows.iter().any(|row| &row.name == original));
                    }
                    Ok(_) => out.fail(format!("RESOLVE #{i} differs from the in-process answer")),
                    Err(e) => out.fail(format!("RESOLVE #{i}: {e}")),
                }
            }
            _ => out.fail(format!(
                "operation #{i} and its oracle answer are of different kinds"
            )),
        }
        out.requests += 1;
    }
    out.end_ns = p.now();
    Ok(out)
}

/// Run one closure per connection on its own thread, released together.
fn on_connections<F>(tracer: Option<&Tracer>, run: F) -> BenchResult<Vec<ConnOutcome>>
where
    F: Fn(usize, &Barrier, Option<&Recorder>) -> BenchResult<ConnOutcome> + Sync,
{
    let barrier = Barrier::new(CONNECTIONS);
    let recorders: Vec<Option<Arc<Recorder>>> = (0..CONNECTIONS)
        .map(|c| tracer.map(|t| t.thread(&format!("connection-{c}"))))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .iter()
            .enumerate()
            .map(|(c, rec)| {
                let (run, barrier) = (&run, &barrier);
                scope.spawn(move || run(c, barrier, rec.as_deref()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect()
    })
}

/// `serve_read`: binary transport, 80 % QUERY / 20 % RESOLVE, no writes.
fn serve_read(p: &Prepared, n: usize, tracer: Option<&Tracer>) -> BenchResult<Rep> {
    let oracle = p.oracle.as_ref().ok_or("serve_read needs its oracle")?;
    let baseline = live_bytes();
    let (_dir, store) = p.open_copy(&format!("serve_read-rep{n}"))?;
    let records_before = store.stats().records;
    let main = tracer.map(|t| t.thread("serve_read"));
    let served = serve(store, CONNECTIONS, tracer.is_some(), |addr| {
        let _span = main.as_deref().map(|r| r.span("workload.serve_read"));
        yv_obs::reset_peak();
        let conns = on_connections(tracer, |c, barrier, rec| {
            read_connection(p, addr, c, &oracle.connections[c], barrier, rec)
        })?;
        let peak = peak_since(baseline);
        let commands = if tracer.is_some() {
            scrape_commands(addr)?
        } else {
            Vec::new()
        };
        Ok((conns, peak, commands))
    })?;
    let (conns, peak, commands) = served.result;
    let found: u64 = conns.iter().map(|c| c.resolve_found).sum();
    let probes: u64 = conns.iter().map(|c| c.resolve_probes).sum();
    let mut rep = fold_connections(conns);
    rep.peak_alloc_bytes = peak;
    rep.quality = found as f64 / probes.max(1) as f64;
    rep.server_commands = commands;
    match served.store {
        Some(store) if store.stats().records != records_before => {
            rep.problems
                .push("a read-only workload changed the record count".to_owned());
        }
        Some(_) => {}
        None => rep.notes.push(LEFT_BEHIND.to_owned()),
    }
    Ok(rep)
}

/// One `serve_mixed` connection: file an arrival, look its name up
/// (read-your-write), and one round in five RESOLVE it misspelled.
fn mixed_connection(
    p: &Prepared,
    addr: SocketAddr,
    connection: usize,
    arrivals: &[Arrival],
    barrier: &Barrier,
    rec: Option<&Recorder>,
) -> BenchResult<ConnOutcome> {
    let first_arrival = record_id(p.inputs.base.len());
    let mut client = connect(addr, Protocol::Text)?;
    if let Some(first) = arrivals.first() {
        client.query(&lookup_for(&first.record)).map_err(err)?;
    }
    let mut out = ConnOutcome::default();
    let _conn_span = rec.map(|r| r.span_with("connection", &[("connection", connection as u64)]));
    barrier.wait();
    out.start_ns = p.now();
    for (round, arrival) in arrivals.iter().enumerate() {
        let req = (connection * arrivals.len() + round) as u64;
        let _round_span = rec.map(|r| r.span_with("round", &[("req", req)]));
        let t0 = p.now();

        out.attempted += 1;
        let added = spanned(rec, "client.add", &[("req", req)], || {
            client.add(&arrival.record)
        });
        let t1 = p.now();
        out.add.push_ns(t1.saturating_sub(t0));
        if let Err(e) = added {
            out.fail(format!("ADD round {round}: {e}"));
        }

        out.attempted += 1;
        let query = lookup_for(&arrival.record);
        let reply = spanned(rec, "client.query", &[("req", req)], || {
            client.query(&query)
        });
        let t2 = p.now();
        out.query.push_ns(t2.saturating_sub(t1));
        match reply {
            Ok(hits) if hits.iter().any(|h| h.seed >= first_arrival) => {
                out.hits += hits.len() as u64
            }
            Ok(_) => out.fail(format!(
                "round {round}: the record just filed is not in its own look-up"
            )),
            Err(e) => out.fail(format!("QUERY round {round}: {e}")),
        }
        out.requests += 2;

        if round_resolves(&arrival.record) {
            out.attempted += 1;
            let last = arrival.record.last_names.first().map_or("", String::as_str);
            let probe = misspell(last, arrival.record.book_id / 5);
            let t2 = p.now();
            let reply = spanned(rec, "client.resolve", &[("req", req)], || {
                client.resolve(&probe, None, None)
            });
            out.resolve.push_ns(p.now().saturating_sub(t2));
            if let Err(e) = reply {
                out.fail(format!("RESOLVE round {round}: {e}"));
            }
            out.requests += 1;
        }
        out.unit.push_ns(p.now().saturating_sub(t0));
    }
    out.end_ns = p.now();
    Ok(out)
}

/// Share of the true arrival↔base pairs the store holds with a positive
/// score, over the arrivals in `filed`.
fn arrival_pair_recall<'a>(
    store: &Store,
    inputs: &Inputs,
    filed: impl Iterator<Item = &'a Arrival>,
) -> f64 {
    let by_person = inputs.base_by_person();
    let mut person_of_book: HashMap<u64, PersonId> = HashMap::new();
    let mut gold = 0usize;
    for arrival in filed {
        person_of_book.insert(arrival.record.book_id, arrival.person);
        gold += by_person.get(&arrival.person).map_or(0, Vec::len);
    }
    let base_len = inputs.base.len();
    let found = store.with_resolver(|resolver| {
        let ds = resolver.dataset();
        resolver
            .matches()
            .iter()
            .filter(|m| m.score > 0.0 && m.a.index() < base_len && m.b.index() >= base_len)
            .filter(|m| {
                person_of_book.get(&ds.record(m.b).book_id)
                    == Some(&inputs.base_person[m.a.index()])
            })
            .count()
    });
    found as f64 / gold.max(1) as f64
}

/// `serve_mixed`: text transport, every read follows a write.
fn serve_mixed(p: &Prepared, n: usize, tracer: Option<&Tracer>) -> BenchResult<Rep> {
    let baseline = live_bytes();
    let (live_dir, store) = p.open_copy(&format!("serve_mixed-rep{n}"))?;
    let records_before = store.stats().records;
    let arrivals: Vec<Vec<Arrival>> = (0..CONNECTIONS)
        .map(|c| p.inputs.mixed_arrivals(c))
        .collect();
    let main = tracer.map(|t| t.thread("serve_mixed"));
    let served = serve(store, CONNECTIONS, tracer.is_some(), |addr| {
        let _span = main.as_deref().map(|r| r.span("workload.serve_mixed"));
        yv_obs::reset_peak();
        let conns = on_connections(tracer, |c, barrier, rec| {
            mixed_connection(p, addr, c, &arrivals[c], barrier, rec)
        })?;
        let peak = peak_since(baseline);
        let commands = if tracer.is_some() {
            scrape_commands(addr)?
        } else {
            Vec::new()
        };
        Ok((conns, peak, commands))
    })?;
    let (conns, peak, commands) = served.result;
    let mut rep = fold_connections(conns);
    rep.peak_alloc_bytes = peak;
    rep.server_commands = commands;
    // Every ADD was acknowledged after its fsync, so when the server was
    // left behind the live directory still holds all of them.
    let store = match served.store {
        Some(store) => store,
        None => {
            rep.notes.push(LEFT_BEHIND.to_owned());
            let copy = p.copy_dir(&format!("serve_mixed-reopen{n}"), live_dir.path())?;
            Store::open(copy.path()).map_err(err)?
        }
    };
    rep.quality = arrival_pair_recall(&store, &p.inputs, arrivals.iter().flatten());
    let filed: usize = arrivals.iter().map(Vec::len).sum();
    let records = store.stats().records;
    if records != records_before + filed {
        rep.problems.push(format!(
            "store holds {records} records after {filed} ADDs onto {records_before}"
        ));
    }
    Ok(rep)
}

// --------------------------------------------------------------- ingest

/// `ingest_restart`: stream every arrival as pipelined `BATCH_ADD`, copy
/// the live directory once all are acknowledged (acks follow the fsync,
/// so the copy holds every acked frame), and time `Store::open` on the
/// copy: snapshot load plus WAL replay.
fn ingest_restart(p: &Prepared, n: usize, tracer: Option<&Tracer>) -> BenchResult<Rep> {
    let inputs = &p.inputs;
    let baseline = live_bytes();
    let (live_dir, store) = p.open_copy(&format!("ingest_restart-rep{n}"))?;
    let records_before = store.stats().records;
    let rec = tracer.map(|t| t.thread("ingest_restart"));
    let rec = rec.as_deref();
    let arrivals = &inputs.ingest_arrivals();

    let served = serve(store, CONNECTIONS, tracer.is_some(), |addr| {
        let _span = rec.map(|r| r.span("workload.ingest_restart"));
        let mut rep = Rep::default();
        let mut client = connect(addr, Protocol::Binary)?;
        yv_obs::reset_peak();
        let t0 = p.now();
        let replies = spanned(rec, "client.batch_add_stream", &[], || {
            let mut pipe = client.pipeline(inputs.sizes.ingest_window);
            for (req, chunk) in arrivals
                .chunks(inputs.sizes.ingest_batch.max(1))
                .enumerate()
            {
                let records = chunk.iter().map(|a| a.record.clone()).collect();
                spanned(rec, "client.batch_add_push", &[("req", req as u64)], || {
                    pipe.push(&RequestFrame::BatchAdd(records))
                })?;
            }
            pipe.flush()
        })
        .map_err(err)?;
        rep.wall_ns = p.now().saturating_sub(t0);
        rep.peak_alloc_bytes = peak_since(baseline);
        rep.attempted = arrivals.len() as u64;
        let mut acked = 0u64;
        for reply in replies {
            for status in reply.batch().map_err(err)? {
                match status {
                    BatchStatus::Ok { .. } => acked += 1,
                    BatchStatus::Err(e) => {
                        rep.failed += 1;
                        rep.problems
                            .push(format!("BATCH_ADD refused a record: {e}"));
                    }
                }
            }
        }
        rep.work_items = acked;
        rep.failed += rep.attempted.saturating_sub(acked + rep.failed);
        if tracer.is_some() {
            rep.server_commands = scrape_commands(addr)?;
        }
        drop(client);

        // The restart: a byte copy of the live directory, as a crashed
        // process would leave it, opened cold.
        let crashed = p.copy_dir(&format!("ingest_restart-crash{n}"), live_dir.path())?;
        let t0 = p.now();
        let reopened =
            spanned(rec, "store.open", &[], || Store::open(crashed.path())).map_err(err)?;
        let restart_ns = p.now().saturating_sub(t0);
        rep.unit.push_ns(restart_ns);
        rep.restart_s = restart_ns as f64 / 1e9;

        let records = reopened.stats().records;
        if records as u64 != records_before as u64 + acked {
            rep.problems.push(format!(
                "reopened copy holds {records} records; {records_before} + {acked} acked expected"
            ));
        }
        let books: HashSet<u64> = reopened.with_dataset(|ds| {
            ds.records()[records_before.min(ds.len())..]
                .iter()
                .map(|r| r.book_id)
                .collect()
        });
        let lost = arrivals
            .iter()
            .filter(|a| !books.contains(&a.record.book_id))
            .count();
        if lost > 0 {
            rep.problems.push(format!(
                "{lost} acknowledged records are missing after the restart"
            ));
        }
        rep.quality = arrival_pair_recall(&reopened, inputs, arrivals.iter());
        let state = reopened.state_bytes().map_err(err)?;
        rep.digest = yv_store::codec::fnv1a64(&state);
        Ok((rep, state))
    })?;
    let (mut rep, reopened_state) = served.result;
    match served.store {
        Some(store) if store.state_bytes().map_err(err)? != reopened_state => {
            rep.problems
                .push("state_bytes of the reopened copy differ from the served store's".to_owned());
        }
        Some(_) => {}
        None => rep.notes.push(LEFT_BEHIND.to_owned()),
    }
    Ok(rep)
}
