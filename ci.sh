#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Tier-1's bare `cargo test -q` covers the root package and every crates/*
# member (`default-members` in Cargo.toml); --workspace adds the vendored
# stubs' own tests, so one run gates both.
cargo test --workspace -q
# yv-benchmark is a package of its own, outside the workspace, driving the
# product crates' public APIs (`extract`, `AdTree::score`,
# `Pipeline::score_pair`/`resolve_recorded`, the string kernels, the store,
# the wire). Its unit tests and a toy-size run of all four workloads gate
# here, so breaking one of those APIs fails CI, not the next benchmark run.
cargo test --offline -q --manifest-path yv-benchmark/Cargo.toml
# The one lint line, and what it gates (DESIGN.md §10): hash-order
# iteration (`iter_over_hash_type`, workspace-wide), narrowing casts in the
# nine modules whose bytes are persisted or cross the wire (their
# `#![deny(clippy::cast_possible_truncation)]` outranks the `-A` below, which
# only keeps the workspace-level warn on index casts out of `-D warnings`),
# printing in the serving crates (`print_stdout` / `print_stderr` in
# yv-store, yv-obs, yv-fuzzy), panics (`unwrap_used` workspace-wide, the
# `#![deny(clippy::expect_used, clippy::panic, …)]` of the seven serving
# crates) and wall-clock reads (`disallowed-methods` in clippy.toml).
cargo clippy --workspace --all-targets -- -D warnings -A clippy::cast_possible_truncation

# Every key under [workspace.dependencies] must be inherited by at least
# one manifest (`<key>.workspace = true`), so an orphaned stub or crate
# entry fails here instead of waiting for a review.
for dep in $(sed -n '/^\[workspace\.dependencies\]/,/^\[/p' Cargo.toml \
        | sed -n 's/^\([A-Za-z0-9_-]*\) *=.*/\1/p'); do
    if ! grep -qx "${dep}\.workspace = true" Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
        echo "manifest gate: [workspace.dependencies] entry '${dep}' is used by no manifest" >&2
        exit 1
    fi
done

# Observability smoke test: `yv block --trace-json` must emit a valid
# Chrome-trace file carrying the span taxonomy (DESIGN.md §11).
trace_file="$(mktemp -t yv-trace-XXXXXX.json)"
serve_log="$(mktemp -t yv-serve-XXXXXX.log)"
store_dir="$(mktemp -d -t yv-ci-store-XXXXXX)"
shard_log_fill="$(mktemp -t yv-shard-fill-XXXXXX.log)"
shard_log_replay="$(mktemp -t yv-shard-replay-XXXXXX.log)"
trap 'rm -f "$trace_file" "$serve_log" "$shard_log_fill" "$shard_log_replay"; rm -rf "$store_dir"' EXIT
cargo run -q --release -p yv-cli --bin yv -- \
    block --records 300 --trace-json "$trace_file" > /dev/null
python3 - "$trace_file" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
names = {e["name"] for e in events if e.get("ph") == "X"}
for span in ["blocking", "prune_items", "iteration", "mine", "find_support", "score_blocks", "ng_filter"]:
    assert span in names, f"trace is missing span {span!r}: {sorted(names)}"
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert "candidate_pairs" in counters, f"missing counter: {sorted(counters)}"
print(f"trace smoke test: {len(events)} events, span taxonomy present")
PYEOF

# Metrics exposition smoke test: serve a small store with the Prometheus
# scrape sidecar, a 1µs slow-request threshold, an (unmeetable) 1µs SLO
# on QUERY over a 12-second window, and persisted telemetry; drive a
# QUERY burst, scrape GET /metrics, validate the text format, and walk
# the SLO through ok → firing → ok (DESIGN.md §11). Both listeners bind
# port 0; the printed startup lines carry the real ports.
cargo run -q --release -p yv-cli --bin yv -- \
    serve --dir "$store_dir/store" --records 300 \
    --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --slow-us 1 \
    --telemetry-dir "$store_dir/telemetry" --slo 'query:p99<1/12' \
    > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 150); do
    grep -q "^metrics: " "$serve_log" && break
    sleep 0.2
done
python3 - "$serve_log" <<'PYEOF'
import re, socket, sys, time, urllib.request

log = open(sys.argv[1]).read()
addr = re.search(r"on (127\.0\.0\.1:\d+) with \d+ workers", log).group(1)
url = re.search(r"^metrics: (http://\S+)", log, re.M).group(1)
host, port = addr.rsplit(":", 1)

sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", newline="\n")

def request(line):
    f.write(line + "\n")
    f.flush()
    lines = []
    while True:
        got = f.readline()
        assert got, "server closed mid-response"
        if got.rstrip("\n") == ".":
            return lines
        lines.append(got.rstrip("\n"))

def scrape():
    return urllib.request.urlopen(url, timeout=10).read().decode()

def gauge(body, name):
    rows = [l for l in body.splitlines() if l.startswith(name + " ")]
    assert rows, f"missing {name}"
    return int(rows[0].split()[-1])

# Before any QUERY traffic the SLO is clean: state 0 (ok).
assert gauge(scrape(), "yv_slo_query_state") == 0

resp = request("QUERY first=Abramo")
assert resp[0].startswith("OK"), resp[:1]
# A burst of queries, then wait out the 1-second bucket boundary so the
# burst lands in *closed* windows.
for _ in range(8):
    assert request("QUERY first=Abramo")[0].startswith("OK")
time.sleep(1.4)

# HISTORY after the burst: the recent window holds every query, while a
# metric that saw no traffic reports an empty window.
hist = request("HISTORY query window=60")
assert hist[0].startswith("OK history metric=query"), hist[0]
window = [l for l in hist[1:] if l.startswith("WINDOW ")][0]
recent = int(re.search(r"count=(\d+)", window).group(1))
assert recent >= 9, f"recent window lost the burst: {window!r}"
assert any(l.startswith("SLO metric=query") for l in hist), hist
assert any(l.startswith("BUCKET ") for l in hist), hist
stale = request("HISTORY resolve window=60")
stale_window = [l for l in stale[1:] if l.startswith("WINDOW ")][0]
assert "count=0" in stale_window, f"idle metric reports traffic: {stale_window!r}"

body = scrape()
for kind in ["query", "resolve", "add", "stats", "metrics", "top", "trace",
             "history", "snapshot", "shutdown"]:
    needle = f'yv_cmd_{kind}_latency_us_bucket{{le="+Inf"}}'
    assert needle in body, f"missing histogram series for {kind}"
count = [l for l in body.splitlines() if l.startswith("yv_cmd_query_latency_us_count ")]
assert count and int(count[0].split()[-1]) >= 1, count
for name in ["yv_store_records", "yv_store_wal_bytes", "yv_store_postings",
             "yv_alloc_live_bytes", "yv_alloc_peak_bytes",
             "yv_trace_ring_capacity", "yv_trace_ring_occupancy",
             "yv_trace_ring_captured_total", "yv_trace_ring_evicted_total",
             "yv_trace_ring_sampled_total", "yv_trace_last_slow_id",
             "yv_telemetry_log_bytes", "yv_telemetry_frames_total",
             "yv_telemetry_log_rotations_total", "yv_slow_log_rotations",
             "yv_window_parse_errors_60s", "yv_slo_query_threshold_us"]:
    assert any(l.startswith(name + " ") for l in body.splitlines()), f"missing {name}"
# Every query breaches the injected 1µs threshold, so both burn windows
# are saturated and the SLO fires (state 2).
assert gauge(body, "yv_slo_query_state") == 2, "SLO did not fire under 1us threshold"
assert gauge(body, "yv_slo_query_burn_long_pct") >= 100
assert gauge(body, "yv_telemetry_frames_total") >= 1, "no telemetry frames persisted"
# --slow-us 1 makes the QUERY above slow, so the tail sampler must have
# retained it and published its id.
captured = [l for l in body.splitlines() if l.startswith("yv_trace_ring_captured_total ")]
assert captured and int(captured[0].split()[-1]) >= 1, captured
last_slow = [l for l in body.splitlines() if l.startswith("yv_trace_last_slow_id ")]
assert last_slow and int(last_slow[0].split()[-1]) != 0, last_slow
total = [l for l in body.splitlines() if l.startswith("yv_alloc_bytes_total ")]
assert total and int(total[0].split()[-1]) > 0, "counting allocator not installed"
sample = re.compile(r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? \d+$')
for line in body.splitlines():
    if line and not line.startswith("#"):
        assert sample.match(line), f"malformed sample line: {line!r}"

# Once the 12-second rule window drains, the SLO recovers: ok again.
time.sleep(13)
assert gauge(scrape(), "yv_slo_query_state") == 0, "SLO did not recover to ok"

resp = request("SHUTDOWN")
assert resp[0].startswith("OK"), resp
print(f"metrics smoke test: scrape ok, {len(body.splitlines())} exposition lines,"
      f" HISTORY count={recent}, SLO walked ok -> firing -> ok")
PYEOF
wait "$serve_pid"
# With --telemetry-dir the slow log moves to a size-capped JSONL file; the
# 1µs threshold makes every request slow, so it must have fired there.
grep -q '"slow_request":true' "$store_dir/telemetry/slow.jsonl" || {
    echo "slow-request log never fired despite --slow-us 1" >&2
    exit 1
}
# ...and the closed buckets must have been persisted as telemetry frames.
if [ ! -s "$store_dir/telemetry/telemetry.yvt" ]; then
    echo "telemetry smoke test: telemetry.yvt missing or empty after shutdown" >&2
    exit 1
fi
echo "telemetry smoke test: slow.jsonl + telemetry.yvt persisted"

# Sharded-store smoke test (DESIGN.md §9, §13): bootstrap a 4-shard
# store, fire concurrent ADDs through the typed client over both
# transports (`yv load` text, then `yv load --binary` streaming
# BATCH_ADD frames), shut down (folding the per-shard WALs into the
# snapshot), restart on the same directory, and require the identical
# logical state back: same record count, same shard count, and the same
# query-battery digest — which must also be transport-independent.
serve_on_shard_dir() {
    cargo run -q --release -p yv-cli --bin yv -- \
        serve --dir "$store_dir/shards" --records 300 --shards 4 \
        --addr 127.0.0.1:0 > "$1" 2>&1 &
    shard_pid=$!
    for _ in $(seq 1 150); do
        grep -q "^serving " "$1" && break
        sleep 0.2
    done
    shard_addr="$(sed -n 's/^serving .* on \(127\.0\.0\.1:[0-9]*\) with .*/\1/p' "$1")"
    if [ -z "$shard_addr" ]; then
        echo "sharded smoke test: server never came up:" >&2
        cat "$1" >&2
        exit 1
    fi
    grep -q "4 shards" "$1" || {
        echo "sharded smoke test: store did not come up with 4 shards:" >&2
        cat "$1" >&2
        exit 1
    }
}
serve_on_shard_dir "$shard_log_fill"
fill="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --adds 24 --threads 4)"
# Fuzzy-resolution smoke test (DESIGN.md §12): the load battery planted
# "Levi" records; a misspelled RESOLVE must surface that entity in the
# top 3 ranked candidates, and k=0 misuse must be refused with a typed
# protocol error (nonzero exit).
resolve_out="$(cargo run -q --release -p yv-cli --bin yv -- \
    resolve --addr "$shard_addr" --name Lewi --k 3)"
grep -q "levi" <<< "$resolve_out" || {
    echo "resolve smoke test: 'Lewi' did not surface the levi entity in the" \
        "top 3: $resolve_out" >&2
    exit 1
}
if cargo run -q --release -p yv-cli --bin yv -- \
    resolve --addr "$shard_addr" --name Lewi --k 0 > /dev/null 2>&1; then
    echo "resolve smoke test: k=0 must be refused as a protocol error" >&2
    exit 1
fi
echo "resolve smoke test: misspelled RESOLVE ranked the gold entity, k=0 refused"
# Trace smoke test (DESIGN.md §11): every RESOLVE hands back a trace id
# on its status line; TRACE <id> must replay the accept→candidates→rank
# span tree, and the raw name must never appear in the trace. A read
# touches no shard; the request that does is an ADD, whose `apply` span
# must name the shard that owns its last name (fnv1a64(lowercase last) %
# shards — the routing rule, computed here from outside the process).
# That ADD files one record: 325 from here on.
python3 - "$shard_addr" <<'PYEOF'
import socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", newline="\n")

def request(line):
    f.write(line + "\n")
    f.flush()
    lines = []
    while True:
        got = f.readline()
        assert got, "server closed mid-response"
        if got.rstrip("\n") == ".":
            return lines
        lines.append(got.rstrip("\n"))

def traced(line):
    status = request(line)[0]
    assert status.startswith("OK"), status
    token = [t for t in status.split() if t.startswith("trace=")]
    assert token, f"status line carries no trace id: {status!r}"
    trace_id = token[0].split("=", 1)[1]
    assert trace_id != "0" * 16, "trace ids must never be zero"
    lines = request(f"TRACE {trace_id}")
    assert lines[0].startswith(f"OK trace={trace_id}"), lines[0]
    for raw in ["Levi", "Sara"]:
        assert raw not in "\n".join(lines), "raw name leaked into the trace"
    spans = [l.split() for l in lines[1:] if l.lstrip().startswith("SPAN ")]
    return trace_id, spans

def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

trace_id, spans = traced("RESOLVE Levi k=3")
names = [s[1].split("=", 1)[1] for s in spans]
assert names == ["accept", "parse", "candidates", "rank", "reply"], names
assert not any(t.startswith("shard=") for s in spans for t in s), spans

owner = fnv1a64(b"levi") % 4
_, spans = traced("ADD book=990001 source=0 first=Sara last=Levi")
apply = [s for s in spans if "name=apply" in s]
assert apply and f"shard={owner}" in apply[0], \
    f"ADD's apply span does not name owning shard {owner}: {spans}"
print(f"trace smoke test: trace {trace_id} replays {len(names)} spans,"
      f" ADD applied on owner shard {owner}")
PYEOF
# Binary wire smoke test (DESIGN.md §13): one socket sends the HELLO
# line and upgrades to checksummed binary frames (STATS, then QUERY);
# a plain-text session on a second socket keeps working before, during
# and after — the two transports coexist on one server, and the binary
# QUERY block must be byte-identical to the text one (modulo the
# per-request trace id).
python3 - "$shard_addr" <<'PYEOF'
import re, socket, struct, sys

host, port = sys.argv[1].rsplit(":", 1)

def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

def frame(tag, payload=b""):
    return (bytes([tag]) + struct.pack("<I", len(payload)) + payload
            + struct.pack("<Q", fnv1a64(bytes([tag]) + payload)))

def read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        got = sock.recv(n - len(buf))
        assert got, "server closed mid-frame"
        buf += got
    return buf

def read_block(sock):
    tag = read_exact(sock, 1)[0]
    assert tag == 0x20, f"expected BLOCK frame, got tag {tag:#04x}"
    (length,) = struct.unpack("<I", read_exact(sock, 4))
    payload = read_exact(sock, length)
    (checksum,) = struct.unpack("<Q", read_exact(sock, 8))
    assert checksum == fnv1a64(bytes([tag]) + payload), "frame checksum mismatch"
    (strlen,) = struct.unpack("<I", payload[:4])
    assert strlen == length - 4, "BLOCK string length disagrees with payload"
    return payload[4:].decode()

def opt_str(value):
    if value is None:
        return b"\x00"
    raw = value.encode()
    return b"\x01" + struct.pack("<I", len(raw)) + raw

# Plain-text session first: capture the reference QUERY block.
text = socket.create_connection((host, int(port)), timeout=10)
tf = text.makefile("rw", newline="\n")

def text_request(line):
    tf.write(line + "\n")
    tf.flush()
    lines = []
    while True:
        got = tf.readline()
        assert got, "server closed mid-response"
        lines.append(got)
        if got == ".\n":
            return "".join(lines)

text_block = text_request("QUERY first=Abramo")
assert text_block.startswith("OK"), text_block

# Second socket: HELLO upgrade, then binary frames.
bin_sock = socket.create_connection((host, int(port)), timeout=10)
bin_sock.sendall(b"HELLO proto=binary\n")
hello = b""
while not hello.endswith(b".\n"):
    got = bin_sock.recv(256)
    assert got, "server closed during HELLO"
    hello += got
assert hello == b"OK hello proto=binary\n.\n", hello

# Binary STATS (tag 0x04, empty payload).
bin_sock.sendall(frame(0x04))
stats = read_block(bin_sock)
assert stats.startswith("OK records="), stats

# Binary QUERY (tag 0x01) with the text protocol's defaults
# (similarity=0.88, certainty=0.0): same block as the text session.
payload = (opt_str("Abramo") + opt_str(None)
           + struct.pack("<d", 0.88) + struct.pack("<d", 0.0))
bin_sock.sendall(frame(0x01, payload))
bin_block = read_block(bin_sock)
strip = lambda s: re.sub(r" trace=[0-9a-f]{16}", "", s)
assert strip(bin_block) == strip(text_block), f"{bin_block!r} != {text_block!r}"

# The text session is still alive and unupgraded after the binary
# traffic on the other socket: same answer again.
again = text_request("QUERY first=Abramo")
assert strip(again) == strip(text_block), f"{again!r} != {text_block!r}"
text.close()
bin_sock.close()
hits = max(0, len(text_block.splitlines()) - 2)
print(f"binary wire smoke: HELLO upgrade ok, STATS/QUERY framed+checksummed,"
      f" text and binary blocks identical ({hits} hits), text session undisturbed")
PYEOF
# Binary pipelined load (DESIGN.md §13): 24 more records over HELLO-
# upgraded connections streaming BATCH_ADD frames, then the query
# battery over the same binary transport. A text battery on the same
# store state must print the identical digest — the battery digest is
# transport-independent (README promises CI enforces this).
fill_bin="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --adds 24 --threads 4 --binary --batch 8 \
    --book-base 950000)"
grep -q "via binary BATCH_ADD x8" <<< "$fill_bin" || {
    echo "binary load smoke test: the binary wire was not used: $fill_bin" >&2
    exit 1
}
fill_text="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --adds 0)"
cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --shutdown > /dev/null
wait "$shard_pid"
serve_on_shard_dir "$shard_log_replay"
replay="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --shutdown)"
wait "$shard_pid"
for run in fill fill_bin fill_text replay; do
    grep -q "shards=4" <<< "${!run}" || {
        echo "sharded smoke test: $run run lost the shard count: ${!run}" >&2
        exit 1
    }
done
records_fill="$(grep -o 'records=[0-9]*' <<< "$fill")"
records_bin="$(grep -o 'records=[0-9]*' <<< "$fill_bin")"
records_replay="$(grep -o 'records=[0-9]*' <<< "$replay")"
if [ "$records_fill" != "records=324" ]; then
    echo "sharded smoke test: expected records=324 after the text ADDs," \
        "got '$records_fill'" >&2
    exit 1
fi
if [ "$records_bin" != "records=349" ] || [ "$records_replay" != "records=349" ]; then
    echo "sharded smoke test: expected records=349 after the binary load and" \
        "after restart, got '$records_bin' / '$records_replay'" >&2
    exit 1
fi
digest_bin="$(grep '^battery digest:' <<< "$fill_bin")"
digest_text="$(grep '^battery digest:' <<< "$fill_text")"
digest_replay="$(grep '^battery digest:' <<< "$replay")"
if [ -z "$digest_bin" ] || [ "$digest_bin" != "$digest_text" ]; then
    echo "sharded smoke test: battery digest depends on the transport:" \
        "binary '$digest_bin' vs text '$digest_text'" >&2
    exit 1
fi
if [ "$digest_bin" != "$digest_replay" ]; then
    echo "sharded smoke test: query battery diverged across restart:" \
        "'$digest_bin' vs '$digest_replay'" >&2
    exit 1
fi
echo "sharded smoke test: 24 + 1 text ADDs + 24 binary BATCH_ADDs over 4 shards," \
    "text/binary digests identical, restart identical ($digest_bin)"

# Shard-routing hash gate: fnv1a64 is the only hash the store may route
# records with (DESIGN.md §9) — a stray std/fast hasher would re-route
# records between builds or processes and silently split entities across
# shards. Comment lines are exempt so docs may *warn* about RandomState.
if grep -rn "DefaultHasher\|RandomState\|SipHasher\|ahash\|fxhash" crates/store/src \
        | grep -v ':[0-9]*: *//'; then
    echo "shard routing gate: a non-fnv hasher is referenced in yv-store" >&2
    exit 1
fi
grep -q "fnv1a64" crates/store/src/shard.rs || {
    echo "shard routing gate: shard.rs no longer routes with fnv1a64" >&2
    exit 1
}
grep -q 'ROUTING_RULE: &str = "fnv1a64' crates/store/src/shard.rs || {
    echo "shard routing gate: the manifest routing rule is no longer fnv1a64" >&2
    exit 1
}
echo "shard routing gate: fnv1a64 is the only routing hash"
