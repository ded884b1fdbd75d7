//! The traced run's per-layer metrics.
//!
//! Two sources. The workload's traced repetition yields what the client
//! saw per command (`client.*`) and what the server counted (`server.*`,
//! scraped through `Client::stats`). Everything else comes from
//! **replays**: the same seeded inputs fed directly to one layer at a
//! time — string similarity, feature extraction, ADT scoring, blocking,
//! the incremental resolver, the fuzzy index, the store in process, the
//! WAL, the wire codecs — each under a harness span, single-threaded, so
//! counts repeat exactly.

use crate::catalog::{Workload, PER_LAYER};
use crate::inputs::{clone_dataset, lookup_for, misspell, record_id, stream, ReadOp, Rng, SHARDS};
use crate::report::Metric;
use crate::samples::Samples;
use crate::scratch::dir_bytes;
use crate::spans::{spanned, Tracer};
use crate::workloads::{serve, Prepared, Rep};
use crate::{err, BenchResult};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use yv_core::{IncrementalConfig, IncrementalResolver, PersonQuery};
use yv_fuzzy::{rank_entities, FuzzyIndex, ScoreBlend, DEFAULT_QGRAM_BOUND};
use yv_obs::{Clock, Recorder};
use yv_records::{Dataset, Record, RecordId};
use yv_similarity::{
    extract, jaccard::qgram_jaccard, jaro_winkler, strings::levenshtein, FEATURE_COUNT,
};
use yv_store::{
    protocol, shard_of_record, ClientOptions, Protocol, QueryIndex, RequestFrame, ResolveOptions,
    ResponseFrame, Store, Wal,
};

/// Label of the harness thread the replays run on.
pub const REPLAY_THREAD: &str = "replay";

/// Collects `name → (value, samples)` and checks the catalogue is
/// covered exactly.
#[derive(Debug, Default)]
struct Collected(BTreeMap<&'static str, (f64, usize)>);

impl Collected {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    fn into_metrics(self) -> BenchResult<Vec<Metric>> {
        if let Some(stray) = self
            .0
            .keys()
            .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
        {
            return Err(format!("layer metric {stray} is not in the catalogue"));
        }
        PER_LAYER
            .iter()
            .map(|def| {
                let (value, samples) = self
                    .0
                    .get(def.name)
                    .ok_or(format!("layer metric {} was not measured", def.name))?;
                Ok(Metric::single(def.name, def.unit, *value, *samples))
            })
            .collect()
    }
}

/// Shared state of the replays.
struct Replay<'a> {
    p: &'a Prepared,
    rec: &'a Recorder,
    iters: usize,
    out: Collected,
}

impl Replay<'_> {
    fn now(&self) -> u64 {
        self.p.clock.now_nanos()
    }

    /// Time each call of `f` over `items`.
    fn each<T>(&self, items: &[T], mut f: impl FnMut(&T)) -> Samples {
        let mut samples = Samples::with_capacity(items.len());
        for item in items {
            let t0 = self.now();
            f(item);
            samples.push_ns(self.now().saturating_sub(t0));
        }
        samples
    }

    /// Mean nanoseconds (and allocator calls) per call of `f` over
    /// `items`, timed as one block so the clock reads do not count.
    fn mean<T>(&self, items: &[T], mut f: impl FnMut(&T)) -> (f64, f64) {
        let allocs = yv_obs::alloc_stats().alloc_calls;
        let t0 = self.now();
        for item in items {
            f(item);
        }
        let ns = self.now().saturating_sub(t0);
        let allocs = yv_obs::alloc_stats().alloc_calls.saturating_sub(allocs);
        let n = items.len().max(1) as f64;
        (ns as f64 / n, allocs as f64 / n)
    }
}

/// Build every per-layer metric for a traced run of `p.workload`.
pub fn per_layer_metrics(
    p: &Prepared,
    tracer: &Tracer,
    untraced: &Rep,
    traced: &Rep,
) -> BenchResult<Vec<Metric>> {
    let rec = tracer.thread(REPLAY_THREAD);
    let mut r = Replay {
        p,
        rec: &rec,
        iters: p.inputs.sizes.layer_iters.max(1),
        out: Collected::default(),
    };
    from_the_traced_repetition(&mut r.out, p.workload, untraced, traced);
    generated_inputs(&mut r);
    let pairs = pipeline_stages(&mut r)?;
    similarity_and_scoring(&mut r, &pairs);
    if p.workload == Workload::BatchResolve {
        // The other replays need a golden store, which this workload's
        // set-up does not build; build one here, outside any timing.
        let golden = p.scratch("batch_resolve-golden")?;
        p.inputs.create_golden(golden.path())?;
        store_layers(&mut r, golden.path())?;
    } else {
        let (dir, store) = p.open_copy("replay-golden")?;
        drop(store);
        store_layers(&mut r, dir.path())?;
    }
    r.out.into_metrics()
}

/// `client.*`, `server.*` and `obs.*`: read off the workload's own
/// traced (and, for the overhead, untraced) repetition.
fn from_the_traced_repetition(
    out: &mut Collected,
    workload: Workload,
    untraced: &Rep,
    traced: &Rep,
) {
    let (query, resolve, add) = (
        traced.query.sorted(),
        traced.resolve.sorted(),
        traced.add.sorted(),
    );
    out.put("client.query_p50_us", query.percentile_us(50), query.len());
    out.put("client.query_p90_us", query.percentile_us(90), query.len());
    out.put("client.query_p99_us", query.percentile_us(99), query.len());
    out.put("client.query_max_us", query.max_us(), query.len());
    out.put(
        "client.resolve_p50_us",
        resolve.percentile_us(50),
        resolve.len(),
    );
    out.put(
        "client.resolve_p90_us",
        resolve.percentile_us(90),
        resolve.len(),
    );
    out.put(
        "client.resolve_p99_us",
        resolve.percentile_us(99),
        resolve.len(),
    );
    out.put("client.add_p50_us", add.percentile_us(50), add.len());
    out.put("client.add_p90_us", add.percentile_us(90), add.len());
    out.put("client.add_p99_us", add.percentile_us(99), add.len());
    out.put(
        "client.hits_per_query",
        traced.hits as f64 / query.len().max(1) as f64,
        query.len(),
    );
    out.put(
        "client.restart_s",
        traced.restart_s,
        usize::from(traced.restart_s > 0.0),
    );

    let records = matches!(workload, Workload::BatchResolve | Workload::IngestRestart);
    out.put(
        "client.records_per_s",
        if records { traced.per_second() } else { 0.0 },
        1,
    );
    out.put(
        "client.ops_per_s",
        if records { 0.0 } else { traced.per_second() },
        1,
    );
    out.put(
        "obs.trace_overhead_pct",
        100.0 * (untraced.per_second() - traced.per_second()) / untraced.per_second().max(1e-9),
        2,
    );

    for (metric, command) in [
        ("server.query_us_p50", "QUERY"),
        ("server.resolve_us_p50", "RESOLVE"),
        ("server.add_us_p50", "ADD"),
    ] {
        let row = traced.server_commands.iter().find(|c| c.name == command);
        out.put(
            metric,
            row.map_or(0.0, |c| c.p50_us as f64),
            row.map_or(0, |c| usize::try_from(c.count).unwrap_or(usize::MAX)),
        );
    }
}

/// yv-datagen / yv-records.
fn generated_inputs(r: &mut Replay<'_>) {
    let inputs = &r.p.inputs;
    r.out.put("datagen.generate_s", inputs.generate_s, 1);
    r.out.put("adt.train_s", inputs.train_s, 1);
    r.out.put(
        "gen.skipped_unencodable",
        inputs.skipped_unencodable as f64,
        1,
    );
    r.out.put(
        "gen.arrivals_with_duplicate_share",
        inputs.arrivals_with_duplicate_share(),
        inputs.arrivals.len(),
    );

    let records: Vec<Record> = inputs
        .base
        .records()
        .iter()
        .take(r.iters * 8)
        .cloned()
        .collect();
    let mut ds = Dataset::new();
    for source in inputs.base.sources() {
        ds.add_source(source.clone());
    }
    let n = records.len();
    let t0 = r.now();
    spanned(Some(r.rec), "replay.records.add_record", &[], || {
        for record in records {
            ds.add_record(record);
        }
    });
    r.out.put(
        "records.add_record_ns",
        r.now().saturating_sub(t0) as f64 / n.max(1) as f64,
        n,
    );
}

/// yv-mfi, yv-blocking and the pipeline's fused extract/score loop: one
/// `resolve_recorded` over the base, read through the product's own
/// spans and counters. Returns the scored candidate pairs.
fn pipeline_stages(r: &mut Replay<'_>) -> BenchResult<Vec<(RecordId, RecordId)>> {
    let inputs = &r.p.inputs;
    // The product's spans land on a recorder of their own, so their
    // names and counters cannot mix with the other replays'.
    let rec = Recorder::new(Arc::clone(&r.p.clock) as Arc<dyn Clock>);
    let resolution = spanned(Some(r.rec), "replay.pipeline", &[], || {
        inputs
            .pipeline
            .resolve_recorded(&inputs.base, &inputs.config, &rec)
    });
    let secs = |name: &str| rec.sum_ns(name) as f64 / 1e9;
    let iterations = rec.spans().iter().filter(|s| s.name == "iteration").count();
    r.out.put("mfi.mine_s", secs("mine"), iterations);
    r.out
        .put("mfi.mfis_mined", rec.counter("mfis_mined") as f64, 1);
    r.out.put("blocking.total_s", secs("blocking"), 1);
    r.out.put("blocking.prune_items_s", secs("prune_items"), 1);
    r.out
        .put("blocking.find_support_s", secs("find_support"), iterations);
    r.out
        .put("blocking.score_blocks_s", secs("score_blocks"), iterations);
    r.out
        .put("blocking.ng_filter_s", secs("ng_filter"), iterations);
    let considered = rec.counter("blocks_considered");
    r.out
        .put("blocking.blocks_considered", considered as f64, 1);
    r.out.put(
        "blocking.blocks_kept_ratio",
        rec.counter("blocks_kept") as f64 / considered.max(1) as f64,
        1,
    );
    r.out.put(
        "blocking.candidate_pairs",
        rec.counter("candidate_pairs") as f64,
        1,
    );
    r.out.put("core.extract_s", secs("extract"), 1);
    r.out.put("core.score_s", secs("score"), 1);

    // The default configuration keeps every scored candidate as a ranked
    // match, so the match list is the candidate-pair list.
    let pairs: Vec<(RecordId, RecordId)> = resolution.matches.iter().map(|m| (m.a, m.b)).collect();
    if pairs.len() as u64 != rec.counter("candidate_pairs") {
        return Err(format!(
            "{} ranked matches from {} candidate pairs: the pipeline configuration filters, \
             so blocking.pair_recall cannot be read off the matches",
            pairs.len(),
            rec.counter("candidate_pairs")
        ));
    }
    let gold = inputs.gold_base_pairs();
    r.out.put(
        "blocking.pair_recall",
        yv_eval::prf(&pairs, &gold).recall,
        gold.len(),
    );
    Ok(pairs)
}

/// yv-similarity, yv-adt and `Pipeline::score_pair` over real candidate
/// pairs.
fn similarity_and_scoring(r: &mut Replay<'_>, pairs: &[(RecordId, RecordId)]) {
    let inputs = &r.p.inputs;
    let base = &inputs.base;
    // Spread the sample over the whole (sorted) pair list.
    let step = (pairs.len() / (r.iters * 8).max(1)).max(1);
    let sample: Vec<(RecordId, RecordId)> = pairs.iter().step_by(step).copied().collect();
    let names: Vec<(&str, &str)> = sample
        .iter()
        .filter_map(|&(a, b)| {
            Some((
                base.record(a).last_names.first()?.as_str(),
                base.record(b).last_names.first()?.as_str(),
            ))
        })
        .collect();

    let rec = r.rec;
    let _span = rec.span("replay.similarity");
    let (ns, _) = r.mean(&names, |(a, b)| {
        black_box(jaro_winkler(black_box(a), black_box(b)));
    });
    r.out.put("similarity.jaro_winkler_ns", ns, names.len());
    let (ns, _) = r.mean(&names, |(a, b)| {
        black_box(levenshtein(black_box(a), black_box(b)));
    });
    r.out.put("similarity.levenshtein_ns", ns, names.len());
    let (ns, _) = r.mean(&names, |(a, b)| {
        black_box(qgram_jaccard(black_box(a), black_box(b), 2));
    });
    r.out.put("similarity.qgram_jaccard_ns", ns, names.len());

    let (ns, allocs) = r.mean(&sample, |&(a, b)| {
        black_box(extract(base.record(a), base.record(b)));
    });
    r.out
        .put("similarity.extract_ns_per_pair", ns, sample.len());
    r.out
        .put("similarity.extract_allocs_per_pair", allocs, sample.len());

    let rows: Vec<Vec<Option<f64>>> = sample
        .iter()
        .map(|&(a, b)| {
            let fv = extract(base.record(a), base.record(b));
            (0..FEATURE_COUNT).map(|i| fv.get(i)).collect()
        })
        .collect();
    let model = &inputs.pipeline.model;
    let (ns, _) = r.mean(&rows, |row| {
        black_box(model.score(black_box(row)));
    });
    r.out.put("adt.score_ns_per_pair", ns, rows.len());
    r.out
        .put("adt.features_used", model.features_used().len() as f64, 1);

    let (ns, allocs) = r.mean(&sample, |&(a, b)| {
        black_box(inputs.pipeline.score_pair(base, a, b));
    });
    r.out.put("core.score_pair_ns", ns, sample.len());
    r.out.put("core.score_pair_allocs", allocs, sample.len());
}

/// The first + last name look-ups and misspelled probes of connection 0,
/// capped at the replay size.
fn read_sequences(r: &Replay<'_>) -> (Vec<PersonQuery>, Vec<String>) {
    let ops = r.p.inputs.read_ops(0);
    let mut queries = Vec::new();
    let mut probes = Vec::new();
    for op in ops {
        match op {
            ReadOp::Query(q) => queries.push(q),
            ReadOp::Resolve { name, .. } => probes.push(name),
        }
    }
    // `serve_read` sends few RESOLVEs; top the probes up to the replay
    // size from the same name population.
    let mut rng = Rng::new(r.p.inputs.seed, stream::PROBES);
    let base = &r.p.inputs.base;
    while probes.len() < r.iters {
        let record = base.record(record_id(rng.below(base.len())));
        if let Some(last) = record.last_names.first() {
            probes.push(misspell(last, rng.next_u64()));
        }
    }
    queries.truncate(r.iters);
    probes.truncate(r.iters);
    (queries, probes)
}

/// yv-core's resolver, yv-fuzzy, and yv-store in process, on the WAL and
/// on the wire — everything that starts from the golden directory.
fn store_layers(r: &mut Replay<'_>, golden: &std::path::Path) -> BenchResult<()> {
    let rec = r.rec;
    let inputs = &r.p.inputs;
    let sizes = inputs.sizes;
    let (queries, probes) = read_sequences(r);
    let live = r.p.copy_dir("replay-live", golden)?;
    let store = Store::open(live.path()).map_err(err)?;
    let base_matches = store.with_resolver(|resolver| resolver.matches().to_vec());

    // -- yv-core: the resolver outside the store --------------------------
    {
        let _span = rec.span("replay.core");
        let mut resolver = IncrementalResolver::from_parts(
            clone_dataset(&inputs.base),
            inputs.pipeline.clone(),
            inputs.config.clone(),
            IncrementalConfig::default(),
            base_matches.clone(),
        );
        let arrivals: Vec<Record> = inputs
            .arrivals
            .iter()
            .take(r.iters)
            .map(|a| a.record.clone())
            .collect();
        let mut candidates = 0usize;
        let inserts = r.each(&arrivals, |record| {
            candidates += resolver.insert(record.clone()).len()
        });
        let inserts = inserts.sorted();
        r.out.put(
            "core.insert_us_p50",
            inserts.percentile_us(50),
            inserts.len(),
        );
        r.out.put(
            "core.insert_us_p99",
            inserts.percentile_us(99),
            inserts.len(),
        );
        r.out.put(
            "core.insert_candidates_per_record",
            candidates as f64 / arrivals.len().max(1) as f64,
            arrivals.len(),
        );
        r.out
            .put("core.matches_total", resolver.matches().len() as f64, 1);
        let rebuilds = r.each(&[(); 5], |()| drop(black_box(resolver.resolution())));
        r.out.put(
            "core.resolution_rebuild_us",
            rebuilds.sorted().percentile_us(50),
            rebuilds.len(),
        );
        let resolution = resolver.resolution();
        let maps = r.each(&[(); 5], |()| drop(black_box(resolution.entity_map(0.0))));
        r.out.put(
            "core.entity_map_us",
            maps.sorted().percentile_us(50),
            maps.len(),
        );
    }

    // -- yv-fuzzy ----------------------------------------------------------
    {
        let _span = rec.span("replay.fuzzy");
        let mut index = FuzzyIndex::new();
        for rid in inputs.base.record_ids() {
            index.add_record(rid, inputs.base.record(rid));
        }
        let resolution = store.resolution();
        let entity_map = resolution.entity_map(0.0);
        let mut certainty = vec![0.0f64; inputs.base.len()];
        for m in &resolution.matches {
            for rid in [m.a, m.b] {
                certainty[rid.index()] = certainty[rid.index()].max(m.score);
            }
        }
        let (mut examined, mut pruned) = (0u64, 0u64);
        let scans = r.each(&probes, |probe| {
            let (_, stats) = black_box(index.candidates(probe, DEFAULT_QGRAM_BOUND));
            examined += stats.examined;
            pruned += stats.pruned_length + stats.pruned_jaccard;
        });
        r.out.put(
            "fuzzy.candidates_us_p50",
            scans.sorted().percentile_us(50),
            scans.len(),
        );
        r.out.put(
            "fuzzy.examined_per_query",
            examined as f64 / probes.len().max(1) as f64,
            probes.len(),
        );
        r.out.put(
            "fuzzy.pruned_ratio",
            pruned as f64 / examined.max(1) as f64,
            probes.len(),
        );
        let scanned: Vec<_> = probes
            .iter()
            .map(|p| (p, index.candidates(p, DEFAULT_QGRAM_BOUND).0))
            .collect();
        let blend = ScoreBlend::default();
        let ranks = r.each(&scanned, |(probe, names)| {
            drop(black_box(rank_entities(
                probe,
                names.iter().map(|c| (c.name, c.jaccard, c.records)),
                |rid| {
                    entity_map
                        .entity_of(rid)
                        .map_or_else(|| vec![rid], <[RecordId]>::to_vec)
                },
                |rid| certainty.get(rid.index()).copied().unwrap_or(0.0),
                &blend,
                yv_store::DEFAULT_RESOLVE_K,
                f64::NEG_INFINITY,
            )));
        });
        r.out.put(
            "fuzzy.rank_us_p50",
            ranks.sorted().percentile_us(50),
            ranks.len(),
        );
    }

    // -- yv-store in process: the read path, warm ------------------------
    let warm_p50_us;
    let hit_lists;
    {
        let _span = rec.span("replay.store.read");
        let index = QueryIndex::build(&inputs.base);
        let seeds = r.each(&queries, |q| drop(black_box(index.seeds(q))));
        r.out.put(
            "store.index_seeds_us_p50",
            seeds.sorted().percentile_us(50),
            seeds.len(),
        );
        for q in queries.iter().take(3) {
            for certainty in crate::inputs::CERTAINTIES {
                drop(store.query(&PersonQuery {
                    certainty,
                    ..q.clone()
                }));
            }
        }
        drop(store.resolve("warmup", &ResolveOptions::default()));
        let warm = r.each(&queries, |q| drop(black_box(store.query(q))));
        warm_p50_us = warm.sorted().percentile_us(50);
        r.out
            .put("store.query_warm_us_p50", warm_p50_us, warm.len());
        let options = ResolveOptions::default();
        let resolves = r.each(&probes, |probe| {
            drop(black_box(store.resolve(probe, &options)))
        });
        r.out.put(
            "store.resolve_warm_us_p50",
            resolves.sorted().percentile_us(50),
            resolves.len(),
        );
        hit_lists = queries.iter().map(|q| store.query(q)).collect::<Vec<_>>();
    }

    // -- the wire codecs ---------------------------------------------------
    {
        let _span = rec.span("replay.wire.codecs");
        let lines: Vec<String> = queries
            .iter()
            .map(|q| {
                let first = q
                    .first_name
                    .as_ref()
                    .map_or_else(String::new, |f| format!(" first={f}"));
                let last = q
                    .last_name
                    .as_ref()
                    .map_or_else(String::new, |l| format!(" last={l}"));
                format!(
                    "QUERY{first}{last} similarity={} certainty={}",
                    q.name_similarity, q.certainty
                )
            })
            .collect();
        if let Some(bad) = lines
            .iter()
            .find(|line| protocol::parse_request(line).is_err())
        {
            return Err(format!(
                "the replay rendered a request line the server refuses: {bad}"
            ));
        }
        let (ns, _) = r.mean(&lines, |line| {
            drop(black_box(protocol::parse_request(black_box(line))))
        });
        r.out.put("wire.parse_request_ns", ns, lines.len());
        let (ns, _) = r.mean(&hit_lists, |hits| {
            drop(black_box(protocol::format_hits(black_box(hits))))
        });
        r.out
            .put("wire.format_hits_us", ns / 1_000.0, hit_lists.len());
        let blocks: Vec<ResponseFrame> = hit_lists
            .iter()
            .map(|hits| ResponseFrame::Block(protocol::format_hits(hits)))
            .collect();
        let (ns, _) = r.mean(&blocks, |frame| drop(black_box(frame.encode())));
        r.out.put("wire.frame_encode_ns", ns, blocks.len());
        let encoded: Vec<Vec<u8>> = blocks
            .iter()
            .map(|f| f.encode().map_err(err))
            .collect::<BenchResult<_>>()?;
        let (ns, _) = r.mean(&encoded, |bytes| {
            drop(black_box(ResponseFrame::read(&mut bytes.as_slice())))
        });
        r.out.put("wire.frame_decode_ns", ns, encoded.len());
        let batch: Vec<Record> = inputs
            .arrivals
            .iter()
            .take(sizes.ingest_batch)
            .map(|a| a.record.clone())
            .collect();
        let frames = vec![RequestFrame::BatchAdd(batch); 5];
        let (ns, _) = r.mean(&frames, |frame| drop(black_box(frame.encode())));
        r.out
            .put("wire.batch_add_frame_encode_us", ns / 1_000.0, frames.len());
    }

    // -- the wire end to end: one connection per transport ----------------
    let served = {
        let _span = rec.span("replay.wire.overhead");
        serve(store, 1, false, |addr| {
            [Protocol::Text, Protocol::Binary]
                .into_iter()
                .map(|protocol| {
                    let mut client = ClientOptions::new()
                        .protocol(protocol)
                        .connect(addr)
                        .map_err(err)?;
                    let mut failed = None;
                    let seen = r.each(&queries, |q| {
                        if let Err(e) = client.query(q) {
                            failed = Some(e.to_string());
                        }
                    });
                    failed.map_or(Ok(seen.sorted().percentile_us(50)), Err)
                })
                .collect::<BenchResult<Vec<f64>>>()
        })?
    };
    let observed = served.result;
    r.out.put(
        "wire.query_text_overhead_us",
        observed[0] - warm_p50_us,
        queries.len(),
    );
    r.out.put(
        "wire.query_binary_overhead_us",
        observed[1] - warm_p50_us,
        queries.len(),
    );
    // Nothing was written, so a server that would not stop (see `serve`)
    // costs only a reopen.
    let store = match served.store {
        Some(store) => store,
        None => Store::open(live.path()).map_err(err)?,
    };

    // -- yv-store in process: the write path -----------------------------
    let _span = rec.span("replay.store.write");
    let singles: Vec<Record> = inputs
        .arrivals
        .iter()
        .take(r.iters)
        .map(|a| a.record.clone())
        .collect();
    let mut adds = Samples::with_capacity(singles.len());
    let mut after_write = Samples::with_capacity(singles.len());
    for record in &singles {
        let t0 = r.now();
        store.add_record(record.clone()).map_err(err)?;
        let t1 = r.now();
        drop(black_box(store.query(&lookup_for(record))));
        adds.push_ns(t1.saturating_sub(t0));
        after_write.push_ns(r.now().saturating_sub(t1));
    }
    r.out.put(
        "store.add_record_us_p50",
        adds.sorted().percentile_us(50),
        adds.len(),
    );
    r.out.put(
        "store.query_after_write_us_p50",
        after_write.sorted().percentile_us(50),
        after_write.len(),
    );

    let batch: Vec<Record> = inputs
        .arrivals
        .iter()
        .skip(singles.len())
        .take(sizes.ingest_batch)
        .map(|a| a.record.clone())
        .collect();
    let batch_len = batch.len();
    let t0 = r.now();
    let outcomes = store.add_records(batch);
    let batch_ns = r.now().saturating_sub(t0);
    if let Some(Err(e)) = outcomes.into_iter().find(Result::is_err) {
        return Err(format!("add_records refused a replay record: {e}"));
    }
    r.out.put(
        "store.add_records_us_per_record",
        batch_ns as f64 / 1_000.0 / batch_len.max(1) as f64,
        batch_len,
    );

    // One `sync_data` per ADD; per BATCH_ADD frame one per shard it
    // dirties. Computed from the routing function over the ingest
    // stream's frames, not counted at the device.
    let stream = inputs.ingest_arrivals();
    let frames = stream.chunks(sizes.ingest_batch.max(1));
    let syncs: usize = frames
        .map(|chunk| {
            chunk
                .iter()
                .map(|a| shard_of_record(&a.record, SHARDS))
                .collect::<HashSet<_>>()
                .len()
        })
        .sum();
    r.out.put(
        "store.fsyncs_per_record",
        syncs as f64 / stream.len().max(1) as f64,
        stream.len(),
    );

    let stats = store.stats();
    let header_bytes = 12 * stats.shards.len() as u64;
    r.out.put(
        "store.wal_bytes_per_record",
        stats.wal_bytes.saturating_sub(header_bytes) as f64 / stats.wal_entries.max(1) as f64,
        stats.wal_entries,
    );
    r.out.put(
        "store.disk_bytes_per_record",
        dir_bytes(live.path())? as f64 / stats.records.max(1) as f64,
        stats.records,
    );

    // Restart with a WAL to replay, then fold it into a snapshot.
    let crashed = r.p.copy_dir("replay-crash", live.path())?;
    let t0 = r.now();
    let reopened = spanned(Some(r.rec), "store.open", &[], || {
        Store::open(crashed.path())
    })
    .map_err(err)?;
    r.out
        .put("store.open_s", r.now().saturating_sub(t0) as f64 / 1e9, 1);
    r.out.put(
        "store.open_wal_entries_replayed",
        reopened.stats().wal_entries as f64,
        1,
    );
    drop(reopened);
    let t0 = r.now();
    spanned(Some(r.rec), "store.snapshot", &[], || store.snapshot()).map_err(err)?;
    r.out.put(
        "store.snapshot_s",
        r.now().saturating_sub(t0) as f64 / 1e9,
        1,
    );
    r.out
        .put("store.snapshot_bytes", dir_bytes(live.path())? as f64, 1);
    drop(store);

    // -- the WAL alone ---------------------------------------------------
    let wal_dir = r.p.scratch("replay-wal")?;
    let mut wal = Wal::create(&wal_dir.path().join("wal.yvl")).map_err(err)?;
    let mut failed = None;
    let mut seq = 0u64;
    let synced = r.each(&singles, |record| {
        failed = failed.take().or(wal.append_record(seq, record).err());
        seq += 1;
    });
    let synced = synced.sorted();
    r.out.put(
        "store.wal_append_sync_us_p50",
        synced.percentile_us(50),
        synced.len(),
    );
    r.out.put(
        "store.wal_append_sync_us_p99",
        synced.percentile_us(99),
        synced.len(),
    );
    let (ns, _) = r.mean(&singles, |record| {
        failed = failed
            .take()
            .or(wal.append_record_nosync(seq, record).err());
        seq += 1;
    });
    r.out.put("store.wal_append_nosync_ns", ns, singles.len());
    wal.sync().map_err(err)?;
    failed.map_or(Ok(()), |e| Err(format!("WAL append failed: {e}")))?;
    Ok(())
}
