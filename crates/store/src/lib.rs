//! # yv-store
//!
//! The serving layer the paper's deployment section gestures at: "Yad
//! Vashem is actively engaged in integrating the results of the project
//! into its databases and applications" (Section 7). The batch pipeline
//! resolves a corpus once; this crate keeps that resolution **alive** —
//! durable across restarts, queryable concurrently, and open to the
//! Pages of Testimony that still arrive.
//!
//! The store's files are **sharded by name-hash**: records route to one
//! of N shards by `fnv1a64(lowercase(last name)) % N` (see [`shard`]),
//! each shard owning its own WAL file and snapshot segment behind its
//! own lock, so writers on distinct shards overlap their fsyncs. What is
//! served from memory — the match graph and one pair of name indexes —
//! sits behind one lock that reads share and never hold across I/O (see
//! [`store`]). The pieces:
//!
//! - [`shard`] — the routing function and the store manifest recording
//!   the shard count (fixed at [`Store::create`]);
//! - [`snapshot`] — versioned, checksummed files: one base snapshot
//!   (sources, matches, trained ADT model, pipeline configuration) plus
//!   one record segment per shard (hand-rolled binary, same philosophy
//!   as `yv_adt::persist`);
//! - [`wal`] — per-shard write-ahead logs of incremental arrivals, each
//!   frame carrying its global arrival sequence number so restart can
//!   merge the shard logs back into one deterministic order;
//! - [`server`] — a line-protocol TCP front end over a shared [`Store`],
//!   with a scoped worker pool, per-request and per-shard metrics in a
//!   [`yv_obs::MetricsRegistry`] (scraped via the `METRICS` command or a
//!   `GET /metrics` sidecar listener), optional slow-request JSON
//!   logging, and request-scoped tracing: every request carries a trace
//!   id accept-to-reply, completed traces land in a bounded capture
//!   window with a second one for slow-or-ERR requests, and the `TOP` /
//!   `TRACE <id>` commands expose them live — see [`ServeOptions`]. Per-command
//!   latencies additionally roll into windowed telemetry (60 × 1s and
//!   60 × 1m rings) served by `HISTORY`, evaluated against `--slo`
//!   burn-rate rules, and persisted via [`telemetry`]. A first-request
//!   `HELLO proto=binary` line upgrades a connection to the
//!   length-prefixed, checksummed binary framing in [`frame`] (text
//!   stays for telnet-style inspection), adding a `BATCH_ADD` frame
//!   that streams many records per round trip;
//! - [`client`] — a typed client for both transports: a [`Connection`]
//!   trait with text and binary backends, a [`ClientOptions`] builder
//!   (timeouts, `Text`/`Binary` protocol choice) and a
//!   [`Pipeline`] for order-preserving pipelined requests with a
//!   bounded in-flight window.
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::path::Path;
//! use yv_store::{ServeOptions, Store};
//!
//! let store = Store::open(Path::new("people.store"))?;
//! let listener = TcpListener::bind("127.0.0.1:7878")?;
//! // Serves until a client sends SHUTDOWN; flushes the WALs on the way out.
//! let _store = ServeOptions::new(store).workers(4).serve(listener)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code behind `yv serve` propagates errors; it does not panic.
// (`unwrap_used` is denied workspace-wide; tests are exempt via clippy.toml.)
// Nor does it print: what an operator reads goes through a sink the
// caller handed in, so a victim's name cannot reach a terminal or a log
// by way of a stray `println!`.
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod index;
pub mod protocol;
#[cfg(test)]
mod scratch;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod store;
mod sync;
pub mod telemetry;
pub mod wal;

pub use client::{
    Client, ClientError, ClientOptions, Connection, Pipeline, Protocol, Reply, HistoryBucketRow,
    HistoryReport, HistorySloRow, HistorySummaryRow, ResolveRow, RingRow, SlowRow, SpanRow,
    TopReport, TraceReport,
};
pub use error::StoreError;
pub use frame::{
    frame_checksum, BatchStatus, RequestFrame, ResponseFrame, HEADER_LEN, HELLO_LINE,
    HELLO_OK, MAX_PAYLOAD, TRAILER_LEN,
};
pub use index::QueryIndex;
pub use protocol::{CommandStats, Request, DEFAULT_TOP_SLOW};
pub use server::{
    CommandMetrics, ServeOptions, ServerMetrics, DEFAULT_SLOW_LOG_CAP_BYTES,
    DEFAULT_TRACE_CAPACITY, DEFAULT_TRACE_SEED,
};
pub use telemetry::{TelemetryLog, DEFAULT_CAP_BYTES as DEFAULT_TELEMETRY_CAP_BYTES};
pub use shard::{shard_of_name, shard_of_record, Manifest, ShardStats, MANIFEST_FILE, ROUTING_RULE};
pub use store::{
    segment_file_name, wal_file_name, ResolveOptions, ResolveOutcome, Store, StoreStats,
    DEFAULT_RESOLVE_K, SNAPSHOT_FILE,
};
pub use yv_fuzzy::{RankedEntity, ScoreBlend};
pub use wal::{Wal, WalEntry, WalScan};
