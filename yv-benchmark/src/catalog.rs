//! The benchmark's fixed vocabulary: workloads and metric definitions.
//!
//! `BENCHMARK.json` at the repository root carries the same names, units,
//! directions and bounds for the driver; `tests/smoke.rs` fails when the
//! two disagree.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchResolve,
    ServeRead,
    ServeMixed,
    IngestRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchResolve,
        Workload::ServeRead,
        Workload::ServeMixed,
        Workload::IngestRestart,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchResolve => "batch_resolve",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
            Workload::IngestRestart => "ingest_restart",
        }
    }

    /// Why the workload exists: which layers do its work and which do
    /// none, so an optimisation has one workload that must show it and
    /// one that must not move.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchResolve => {
                "offline Pipeline::resolve over the base corpus: mining, blocking and pair scoring do all the work, store and wire none"
            }
            Workload::ServeRead => {
                "binary transport, 80% QUERY / 20% RESOLVE, zero writes: memos stay warm, so index, ranking, rendering and framing do all the work"
            }
            Workload::ServeMixed => {
                "text transport, ADD then QUERY the filed name: every read follows a write, so resolution rebuilds, insert and per-record fsync dominate"
            }
            Workload::IngestRestart => {
                "pipelined binary BATCH_ADD of held-out arrivals, then a timed reopen: candidate scoring, group commit, snapshot load and WAL replay"
            }
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these, each read the way that
/// workload's user meets it (see the README's glossary):
///
/// | metric | batch_resolve | serve_read | serve_mixed | ingest_restart |
/// |---|---|---|---|---|
/// | `throughput_per_s` | base records per second of `resolve` | requests/s | requests/s | acked arrivals/s |
/// | `latency_p50_us`, `latency_tail_us` | one `resolve` call | one request | one file-then-look-up round | one reopen of the live directory |
/// | `quality` | pair F1 against ground truth | share of RESOLVE probes that find the misspelled record | recall of true arrival↔base pairs | same |
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_alloc_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "quality",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
];

/// A metric of a single layer, reported by the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer metrics, grouped by the crate that does the work. A traced run
/// of any workload emits all of them; the ones read off the workload's
/// own repetition (`client.*`, `server.*`) are 0
/// for commands that workload does not send.
pub const PER_LAYER: [PerLayer; 78] = [
    // yv-datagen / yv-records
    lower("datagen.generate_s", "s"),
    lower("records.add_record_ns", "ns"),
    lower("gen.skipped_unencodable", "count"),
    higher("gen.arrivals_with_duplicate_share", "ratio"),
    // yv-similarity
    lower("similarity.jaro_winkler_ns", "ns"),
    lower("similarity.levenshtein_ns", "ns"),
    lower("similarity.qgram_jaccard_ns", "ns"),
    lower("similarity.extract_ns_per_pair", "ns"),
    lower("similarity.extract_allocs_per_pair", "count"),
    // yv-adt
    lower("adt.train_s", "s"),
    lower("adt.score_ns_per_pair", "ns"),
    lower("adt.features_used", "count"),
    // yv-mfi / yv-blocking
    lower("mfi.mine_s", "s"),
    lower("mfi.mfis_mined", "count"),
    lower("blocking.total_s", "s"),
    lower("blocking.prune_items_s", "s"),
    lower("blocking.find_support_s", "s"),
    lower("blocking.score_blocks_s", "s"),
    lower("blocking.ng_filter_s", "s"),
    lower("blocking.blocks_considered", "count"),
    higher("blocking.blocks_kept_ratio", "ratio"),
    lower("blocking.candidate_pairs", "count"),
    higher("blocking.pair_recall", "ratio"),
    // yv-core
    lower("core.extract_s", "s"),
    lower("core.score_s", "s"),
    lower("core.score_pair_ns", "ns"),
    lower("core.score_pair_allocs", "count"),
    lower("core.insert_us_p50", "us"),
    lower("core.insert_us_p99", "us"),
    lower("core.insert_candidates_per_record", "count"),
    lower("core.matches_total", "count"),
    lower("core.resolution_rebuild_us", "us"),
    lower("core.entity_map_us", "us"),
    // yv-fuzzy
    lower("fuzzy.candidates_us_p50", "us"),
    lower("fuzzy.examined_per_query", "count"),
    higher("fuzzy.pruned_ratio", "ratio"),
    lower("fuzzy.rank_us_p50", "us"),
    // yv-store, in process
    lower("store.index_seeds_us_p50", "us"),
    lower("store.query_warm_us_p50", "us"),
    lower("store.query_after_write_us_p50", "us"),
    lower("store.resolve_warm_us_p50", "us"),
    lower("store.add_record_us_p50", "us"),
    lower("store.add_records_us_per_record", "us"),
    lower("store.wal_append_sync_us_p50", "us"),
    lower("store.wal_append_sync_us_p99", "us"),
    lower("store.wal_append_nosync_ns", "ns"),
    lower("store.wal_bytes_per_record", "bytes"),
    lower("store.fsyncs_per_record", "ratio"),
    lower("store.snapshot_s", "s"),
    lower("store.snapshot_bytes", "bytes"),
    lower("store.open_s", "s"),
    lower("store.open_wal_entries_replayed", "count"),
    lower("store.disk_bytes_per_record", "bytes"),
    // yv-store, wire
    lower("wire.parse_request_ns", "ns"),
    lower("wire.format_hits_us", "us"),
    lower("wire.frame_encode_ns", "ns"),
    lower("wire.frame_decode_ns", "ns"),
    lower("wire.batch_add_frame_encode_us", "us"),
    lower("wire.query_text_overhead_us", "us"),
    lower("wire.query_binary_overhead_us", "us"),
    lower("server.query_us_p50", "us"),
    lower("server.resolve_us_p50", "us"),
    lower("server.add_us_p50", "us"),
    // client side of the workload's traced repetition
    lower("client.query_p50_us", "us"),
    lower("client.query_p90_us", "us"),
    lower("client.query_p99_us", "us"),
    lower("client.query_max_us", "us"),
    lower("client.resolve_p50_us", "us"),
    lower("client.resolve_p90_us", "us"),
    lower("client.resolve_p99_us", "us"),
    lower("client.add_p50_us", "us"),
    lower("client.add_p90_us", "us"),
    lower("client.add_p99_us", "us"),
    lower("client.hits_per_query", "count"),
    lower("client.restart_s", "s"),
    higher("client.records_per_s", "1/s"),
    higher("client.ops_per_s", "1/s"),
    // yv-obs
    lower("obs.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn workloads_round_trip_through_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
