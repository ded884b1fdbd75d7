#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Tier-1's bare `cargo test -q` covers the root package and every crates/*
# member (`default-members` in Cargo.toml); --workspace adds the vendored
# stubs' own tests, so one run gates both.
cargo test --workspace -q
# The allocation guards are the one test binary whose assertions read
# process-wide state (the counting allocator), so a flake there would hide
# in a single run: run it ten times and stop at the first failure.
for _ in $(seq 1 10); do
    cargo test -q -p yv-cli --test alloc_guards > /dev/null
done
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
# The docs build clean: a doc link to a deleted or private item, or a paper
# citation like `[18]` left unescaped, is a rustdoc warning and fails here.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

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
shard_log_crash="$(mktemp -t yv-shard-crash-XXXXXX.log)"
shard_log_replay="$(mktemp -t yv-shard-replay-XXXXXX.log)"
trap 'rm -f "$trace_file" "$serve_log" "$shard_log_fill" "$shard_log_crash" "$shard_log_replay"; rm -rf "$store_dir"' EXIT
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
# scrape sidecar, a 1µs slow-request threshold logging into a telemetry
# directory, and an (unmeetable) 1µs SLO on QUERY over a 12-second
# window; drive a QUERY burst and one malformed line, scrape GET
# /metrics, validate the text format, and walk the SLO through ok →
# firing → ok (DESIGN.md §11). Both listeners bind port 0; the printed
# startup lines carry the real ports.
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
# One malformed line: the only parse error of this server's life.
bad = request("FROB")
assert bad[0].startswith("ERR unknown command FROB"), bad

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
             "yv_slow_log_rotations", "yv_slo_query_threshold_us"]:
    assert any(l.startswith(name + " ") for l in body.splitlines()), f"missing {name}"
# Every query breaches the injected 1µs threshold, so both burn windows
# are saturated and the SLO fires (state 2).
assert gauge(body, "yv_slo_query_state") == 2, "SLO did not fire under 1us threshold"
assert gauge(body, "yv_slo_query_burn_long_pct") >= 100
assert gauge(body, "yv_slo_query_burn_short_pct") >= 100
assert gauge(body, "yv_slo_query_threshold_us") == 1
assert gauge(body, "yv_cmd_parse_errors_total") == 1, "the FROB line is the one parse error"
# --slow-us 1 makes the QUERY above slow, so the tail sampler must have
# retained it and published its id.
captured = [l for l in body.splitlines() if l.startswith("yv_trace_ring_captured_total ")]
assert captured and int(captured[0].split()[-1]) >= 1, captured
last_slow = [l for l in body.splitlines() if l.startswith("yv_trace_last_slow_id ")]
assert last_slow and int(last_slow[0].split()[-1]) != 0, last_slow
total = [l for l in body.splitlines() if l.startswith("yv_alloc_bytes_total ")]
assert total and int(total[0].split()[-1]) > 0, "counting allocator not installed"
alloc_total = gauge(body, "yv_alloc_bytes_total")
assert 0 < gauge(body, "yv_dealloc_bytes_total") <= alloc_total
assert gauge(body, "yv_alloc_live_bytes") > 0 and gauge(body, "yv_alloc_peak_bytes") > 0
# Nine QUERYs answered, none refused; far under the 8 MiB cap, the slow
# log has not rotated.
assert gauge(body, "yv_cmd_query_ok_total") == 9
assert gauge(body, "yv_cmd_query_errors_total") == 0
assert gauge(body, "yv_slow_log_rotations") == 0
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
echo "telemetry smoke test: slow.jsonl written"

# Sharded-store smoke test (DESIGN.md §9, §13): bootstrap a 4-shard
# store, fire concurrent ADDs through the typed client over both
# transports (`yv load` text, then `yv load --binary` streaming
# BATCH_ADD frames), kill it, restart on the same directory (replaying
# the per-shard WALs), shut down (folding them into the snapshot),
# restart again, and require the identical logical state back every
# time: same record count, same shard count, and the same query-battery
# digest — which must also be transport-independent.
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

# Transposition QUERY smoke (DESIGN.md §9 "Query index"): "lvei" keeps
# every letter of "levi" (Jaro-Winkler 0.925 >= 0.88) but shares one
# padded bigram in four, so a q-gram candidate step would drop it while
# the letter-count sketch must not. A NaN threshold is a protocol error.
def seeds(line):
    lines = request(line)
    assert lines[0].startswith("OK"), lines
    return {l.split()[1] for l in lines[1:] if l.startswith("HIT ")}

levi = seeds("QUERY last=Levi")
assert levi, "QUERY last=Levi found none of the planted Levi records"
lost = levi - seeds("QUERY last=Lvei")
assert not lost, f"QUERY last=Lvei lost seeds of QUERY last=Levi: {sorted(lost)}"
refused = request("QUERY last=Levi similarity=NaN")
assert refused[0].startswith("ERR"), refused
# The seed span counts the vocabulary scan: last names scanned, passed by
# the letter sketch, and matched (DESIGN.md §9 "Query index").
_, spans = traced("QUERY last=Levi")
seed = [s for s in spans if "name=seed" in s]
assert seed, f"QUERY's trace has no seed span: {spans}"
counts = dict(t.split("=", 1) for t in seed[0][1:])
scanned, admitted, matched = (int(counts[k]) for k in ("names", "admitted", "matched"))
assert 1 <= matched <= admitted <= scanned, counts
print(f"query smoke test: the transposition kept all {len(levi)} Levi seeds, NaN refused,"
      f" seed span matched {matched} of {admitted} admitted of {scanned} names")
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
# A crash, not a shutdown: the restart must replay every arrival the
# STATS above counted, find no torn tail and score none of them again —
# the page cache keeps the unsynced matches frames through a kill -9
# (replay report, DESIGN.md §9). An independent reader of the store
# formats (DESIGN.md §9 "Byte layer") then parses snapshot.yvs and the
# four shard WALs by hand: every checksum holds, every matches payload
# is in ranked order and follows its record frame, one per record frame,
# and the seqs of the record and source frames across the WALs are
# exactly folded_seq..folded_seq+n-1 with n the arrivals replayed.
# The WAL sync count the server about to be killed exposes.
syncs_before="$(python3 - "$shard_addr" <<'PYEOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
f = socket.create_connection((host, int(port)), timeout=10).makefile("rw", newline="\n")
f.write("METRICS\n")
f.flush()
for line in iter(f.readline, ""):
    if line.startswith("yv_store_wal_syncs_total "):
        print(line.split()[-1])
    if line.rstrip("\n") == ".":
        break
PYEOF
)"
kill -9 "$shard_pid"
wait "$shard_pid" 2> /dev/null || true
serve_on_shard_dir "$shard_log_crash"
python3 - "$shard_addr" "$(grep -o ' wal=[0-9]*' <<< "$fill_text" | head -1)" \
    "$store_dir/shards" "$syncs_before" <<'PYEOF'
import glob, os, socket, struct, sys

host, port = sys.argv[1].rsplit(":", 1)
wal_before = int(sys.argv[2].split("=")[1])
# yv_store_wal_syncs_total of the killed server: its ADDs and BATCH_ADDs
# synced the WALs.
syncs_before = int(sys.argv[4] or 0)
assert syncs_before > 0, "the killed server's yv_store_wal_syncs_total is not > 0"
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", newline="\n")
f.write("METRICS\n")
f.flush()
body = []
while True:
    got = f.readline()
    assert got, "server closed mid-response"
    if got.rstrip("\n") == ".":
        break
    body.append(got.rstrip("\n"))
assert body[0] == "OK metrics", body[:1]

def gauge(name):
    rows = [l for l in body if l.startswith(name + " ")]
    assert rows, f"missing {name}"
    return int(rows[0].split()[-1])

replayed = gauge("yv_store_open_frames_replayed")
assert wal_before > 0, "the fill left nothing in the WALs to replay"
assert replayed == wal_before, f"reopen replayed {replayed} frames; STATS counted wal={wal_before}"
assert gauge("yv_store_open_torn_bytes") == 0, "a killed idle server left a torn WAL tail"
assert gauge("yv_store_open_replay_us") > 0, "a reopen that replayed frames took no time"
rescored = gauge("yv_store_open_rescored")
assert rescored == 0, f"a kill -9 lost {rescored} matches frames the page cache held"
# Nothing has been appended since the reopen: the count starts at open.
assert gauge("yv_store_wal_syncs_total") == 0, "a reopen that appended nothing synced a WAL"
print(f"replay report smoke: reopen after kill -9 replayed all {replayed} WAL arrivals from"
      f" their logged matches, 0 rescored, 0 torn bytes ({syncs_before} WAL syncs before the kill)")

def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

# magic "YVSTORE\0", u32 version 3, u64 len, payload, fnv1a64(payload),
# where payload = u64 folded_seq || state_bytes.
snap = open(os.path.join(sys.argv[3], "snapshot.yvs"), "rb").read()
assert snap[:12] == b"YVSTORE\0" + struct.pack("<I", 3), "snapshot.yvs: bad header"
(snap_len,) = struct.unpack_from("<Q", snap, 12)
assert len(snap) == 20 + snap_len + 8, f"snapshot.yvs: {len(snap)} bytes, header says {snap_len}"
(checksum,) = struct.unpack_from("<Q", snap, 20 + snap_len)
assert checksum == fnv1a64(snap[20:20 + snap_len]), "snapshot.yvs: checksum mismatch"
(folded_seq,) = struct.unpack_from("<Q", snap, 20)

def varint(data, pos):
    """Unsigned LEB128, shortest form, at most 5 bytes for a u32."""
    value = 0
    for i in range(5):
        byte = data[pos + i]
        assert not (i == 4 and byte > 0x0F) and not (i > 0 and byte == 0), "malformed varint"
        value |= (byte & 0x7F) << (7 * i)
        if byte & 0x80 == 0:
            return value, pos + i + 1
    raise AssertionError("malformed varint")

def check_matches(path, payload):
    """u32 groups || (f64 score || varint n || n x varint gap)*: scores
    strictly descending; a group's first gap is its first partner, each
    later one the (positive) step to the next partner."""
    (groups,) = struct.unpack_from("<I", payload, 0)
    pos, last_score, partners = 4, None, []
    for _ in range(groups):
        (score,) = struct.unpack_from("<d", payload, pos)
        assert last_score is None or score < last_score, f"{path}: scores not descending"
        n, pos = varint(payload, pos + 8)
        assert n > 0, f"{path}: empty match group"
        partner = None
        for _ in range(n):
            gap, pos = varint(payload, pos)
            assert partner is None or gap > 0, f"{path}: partners not ascending"
            partner = gap if partner is None else partner + gap
            partners.append(partner)
        last_score = score
    assert pos == len(payload), f"{path}: trailing bytes in a matches payload"
    assert len(set(partners)) == len(partners), f"{path}: a partner listed twice"
    return len(partners)

# magic "YVWAL\0\0\0", u32 version 3, then frames of
# tag u8 | seq u64 | len u32 | payload | fnv1a64(tag || seq || payload);
# tag 1 = record, 2 = source, 3 = the matches of the record frame with
# the same seq, earlier in the same file (DESIGN.md §9 "WAL format").
paths = sorted(glob.glob(os.path.join(sys.argv[3], "wal.*.yvl")))
assert len(paths) == 4, paths
seqs, records, matches_frames, partners = [], 0, 0, 0
for path in paths:
    data = open(path, "rb").read()
    assert data[:12] == b"YVWAL\0\0\0" + struct.pack("<I", 3), f"{path}: bad header"
    pos, unmatched = 12, set()
    while pos < len(data):
        tag, seq, length = struct.unpack_from("<BQI", data, pos)
        end = pos + 13 + length
        assert end + 8 <= len(data), f"{path}: torn frame at byte {pos}"
        (checksum,) = struct.unpack_from("<Q", data, end)
        assert checksum == fnv1a64(data[pos:pos + 9] + data[pos + 13:end]), \
            f"{path}: checksum mismatch at byte {pos}"
        assert tag in (1, 2, 3), f"{path}: unknown entry tag {tag}"
        if tag == 3:
            assert seq in unmatched, f"{path}: matches frame {seq} without its record frame"
            unmatched.remove(seq)
            matches_frames += 1
            partners += check_matches(path, data[pos + 13:end])
        else:
            if tag == 1:
                unmatched.add(seq)
                records += 1
            seqs.append(seq)
        pos = end + 8
    assert not unmatched, f"{path}: record frames {sorted(unmatched)} have no matches frame"
assert sorted(seqs) == list(range(folded_seq, folded_seq + len(seqs))), \
    f"WAL seqs are not exactly {folded_seq}..{folded_seq}+n"
assert len(seqs) == replayed, f"{len(seqs)} arrivals on disk; reopen replayed {replayed}"
assert matches_frames == records > 0, f"{matches_frames} matches frames for {records} records"
print(f"store reader smoke: snapshot.yvs (v3, {snap_len}-byte payload, folded_seq {folded_seq})"
      f" and {len(paths)} shard WALs (v3) parsed by hand,"
      f" {len(seqs) + matches_frames + 1} checksums hold, one matches frame per record frame"
      f" ({partners} partners), WAL seqs exactly {folded_seq}..{folded_seq + len(seqs) - 1}")
PYEOF
crash="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --shutdown)"
wait "$shard_pid"
serve_on_shard_dir "$shard_log_replay"
replay="$(cargo run -q --release -p yv-cli --bin yv -- \
    load --addr "$shard_addr" --shutdown)"
wait "$shard_pid"
for run in fill fill_bin fill_text crash replay; do
    grep -q "shards=4" <<< "${!run}" || {
        echo "sharded smoke test: $run run lost the shard count: ${!run}" >&2
        exit 1
    }
done
records_fill="$(grep -o 'records=[0-9]*' <<< "$fill")"
records_bin="$(grep -o 'records=[0-9]*' <<< "$fill_bin")"
records_crash="$(grep -o 'records=[0-9]*' <<< "$crash")"
records_replay="$(grep -o 'records=[0-9]*' <<< "$replay")"
if [ "$records_fill" != "records=324" ]; then
    echo "sharded smoke test: expected records=324 after the text ADDs," \
        "got '$records_fill'" >&2
    exit 1
fi
if [ "$records_bin" != "records=349" ] || [ "$records_crash" != "records=349" ] \
        || [ "$records_replay" != "records=349" ]; then
    echo "sharded smoke test: expected records=349 after the binary load and" \
        "after both restarts, got '$records_bin' / '$records_crash' / '$records_replay'" >&2
    exit 1
fi
digest_bin="$(grep '^battery digest:' <<< "$fill_bin")"
digest_text="$(grep '^battery digest:' <<< "$fill_text")"
digest_crash="$(grep '^battery digest:' <<< "$crash")"
digest_replay="$(grep '^battery digest:' <<< "$replay")"
if [ -z "$digest_bin" ] || [ "$digest_bin" != "$digest_text" ]; then
    echo "sharded smoke test: battery digest depends on the transport:" \
        "binary '$digest_bin' vs text '$digest_text'" >&2
    exit 1
fi
if [ "$digest_bin" != "$digest_crash" ] || [ "$digest_bin" != "$digest_replay" ]; then
    echo "sharded smoke test: query battery diverged across restart:" \
        "'$digest_bin' vs '$digest_crash' (WAL replay) vs '$digest_replay' (snapshot)" >&2
    exit 1
fi
echo "sharded smoke test: 24 + 1 text ADDs + 24 binary BATCH_ADDs over 4 shards," \
    "text/binary digests identical, crash and clean restarts identical ($digest_bin)"

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
