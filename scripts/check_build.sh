#!/usr/bin/env bash
# Tier-1 verification plus the cross-PR performance tracker.
#
#   scripts/check_build.sh [build-dir]
#
# Runs the canonical configure/build/test sequence from ROADMAP.md and
# then regenerates the performance trackers:
#
#   BENCH_machine.json  hot-path throughput of the top-down machine,
#                       plus a 64-bit model signature over all model
#                       outputs. The signature must match the committed
#                       file bit-for-bit — any semantic change to the
#                       model fails here unless it is explicitly
#                       acknowledged with ALBERTA_ALLOW_MODEL_CHANGE=1.
#   BENCH_table2.json   serial vs suite-scheduled vs cache-warm wall
#                       time of the full Table II characterization.
#   BENCH_serve.json    daemon throughput and latency percentiles
#                       over the dispatchers x clients grid; gated on
#                       the cold/warm aggregates, per-cell rows
#                       report only.
#
# In between it smoke-tests the CLI: traced characterization and run
# (JSON spans), persistent cache (disk-warm bit-identity), and the
# serving daemon (suite and run payloads byte-identical to the CLI's).
#
# After regenerating, each tracker is diffed against the committed
# snapshot with scripts/bench_diff.py: a >20% regression of any
# suite-level metric (uops/s, seconds, speedups) fails the build
# unless explicitly acknowledged with ALBERTA_ALLOW_PERF_REGRESSION=1.
# 20%, not the script's 10% default, because the shared 1-core CI box
# shows ±8-15% run-to-run variance even when idle; per-benchmark rows
# are noisier still and report without gating.
#
# Set ALBERTA_SKIP_BENCH=1 to stop after ctest, and ALBERTA_JOBS to
# control the worker-pool size.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Observability smoke test: one traced characterization through the
# CLI. The trace must be JSON-parseable line by line with at least one
# span per workload, and the Table II row must be a JSON document.
trace_file="$BUILD_DIR/check_trace.jsonl"
table2_json="$BUILD_DIR/check_table2_row.json"
"$BUILD_DIR"/examples/alberta_cli characterize 505.mcf_r \
    --trace "$trace_file" --metrics --format json \
    > "$table2_json" 2> /dev/null
if command -v python3 > /dev/null; then
    python3 - "$trace_file" "$table2_json" << 'EOF'
import json, sys
trace, table2 = sys.argv[1], sys.argv[2]
spans = []
with open(trace) as f:
    for n, line in enumerate(f, 1):
        try:
            spans.append(json.loads(line))
        except ValueError as e:
            sys.exit(f"check_build: trace line {n} is not JSON: {e}")
for key in ("id", "parent", "name", "cat", "start_s", "dur_s"):
    if any(key not in s for s in spans):
        sys.exit(f"check_build: trace span missing key '{key}'")
runs = [s for s in spans if s["cat"] in ("model_run", "refrate_rep")]
roots = [s for s in spans if s["cat"] == "characterize_suite"]
if len(roots) != 1:
    sys.exit(f"check_build: {len(roots)} characterize_suite root spans "
             "in trace, expected 1")
row = json.load(open(table2))
if row[0]["benchmark"] != "505.mcf_r":
    sys.exit("check_build: bad JSON Table II row")
workloads = row[0].get("workloads", 0)
if workloads <= 0:
    sys.exit("check_build: JSON Table II row has no workload count")
if len({r["name"] for r in runs}) < workloads:
    sys.exit(f"check_build: {len(runs)} run spans for "
             f"{workloads} workloads")
print(f"check_build: trace OK ({len(spans)} spans, "
      f"{workloads} workloads), JSON Table II row OK")
EOF
else
    echo "check_build: python3 not found, skipping trace validation"
fi

# A run is a one-workload characterization: its trace holds exactly
# one characterize_suite root and one model_run span.
run_trace="$BUILD_DIR/check_run_trace.jsonl"
"$BUILD_DIR"/examples/alberta_cli run 505.mcf_r test \
    --trace "$run_trace" > /dev/null
if command -v python3 > /dev/null; then
    python3 - "$run_trace" << 'EOF'
import json, sys
spans = [json.loads(line) for line in open(sys.argv[1])]
for cat in ("characterize_suite", "model_run"):
    n = sum(1 for s in spans if s["cat"] == cat)
    if n != 1:
        sys.exit(f"check_build: run trace has {n} {cat} spans, "
                 "expected 1")
print("check_build: run trace OK (one characterize_suite root, "
      "one model_run span)")
EOF
fi

# Persistent-cache smoke test: the same characterization through a
# fresh cache directory twice. The second process must hit the disk
# cache and produce a bit-identical JSON Table II row.
cache_dir="$(mktemp -d "${TMPDIR:-/tmp}/alberta-check-cache.XXXXXX")"
trap 'rm -rf "$cache_dir"' EXIT
cold_row="$BUILD_DIR/check_cache_cold.json"
warm_row="$BUILD_DIR/check_cache_warm.json"
cold_stats="$BUILD_DIR/check_cache_cold.stats"
warm_stats="$BUILD_DIR/check_cache_warm.stats"
"$BUILD_DIR"/examples/alberta_cli characterize 505.mcf_r \
    --cache-dir "$cache_dir" --stats --format json \
    > "$cold_row" 2> "$cold_stats"
"$BUILD_DIR"/examples/alberta_cli characterize 505.mcf_r \
    --cache-dir "$cache_dir" --stats --format json \
    > "$warm_row" 2> "$warm_stats"
if ! cmp -s "$cold_row" "$warm_row"; then
    echo "check_build: FAIL: disk-warm Table II row differs from" \
         "the cold one" >&2
    exit 1
fi
warm_hits="$(sed -n 's/.* disk_hits=\([0-9]*\).*/\1/p' "$warm_stats")"
if [[ -z "$warm_hits" || "$warm_hits" -eq 0 ]]; then
    echo "check_build: FAIL: second run reported no disk-cache hits" >&2
    cat "$warm_stats" >&2
    exit 1
fi
echo "check_build: persistent cache OK ($warm_hits disk hits," \
     "identical JSON row)"

# Serving-layer smoke test: a daemon on a temp socket — with a
# 4-thread dispatcher pool — must answer a Table II suite request
# and three run requests with bytes identical to the CLI run against
# the same cache directory, answer the CLI's --emit-request line,
# answer /metrics out of the registry, and drain cleanly on SIGTERM
# without leaving the socket or any temp files behind.
serve_dir="$(mktemp -d "${TMPDIR:-/tmp}/alberta-check-serve.XXXXXX")"
trap 'rm -rf "$cache_dir" "$serve_dir"' EXIT
serve_sock="$serve_dir/daemon.sock"
serve_cache="$serve_dir/cache"
serve_log="$BUILD_DIR/check_serve.log"
served_suite="$BUILD_DIR/check_serve_suite.json"
cli_suite="$BUILD_DIR/check_cli_suite.json"
serve_runs=("505.mcf_r test" "557.xz_r refrate" "541.leela_r train")
if command -v python3 > /dev/null; then
    emitted="$("$BUILD_DIR"/examples/alberta_cli run 505.mcf_r test \
        --emit-request)"
    "$BUILD_DIR"/examples/alberta_serve --socket "$serve_sock" \
        --cache-dir "$serve_cache" --dispatchers 4 \
        > "$serve_log" 2>&1 &
    serve_pid=$!
    python3 - "$serve_sock" "$served_suite" "$BUILD_DIR" \
        "$emitted" "${serve_runs[@]}" << 'EOF'
import json, socket, sys, time
path, out, build_dir, emitted = sys.argv[1:5]
runs = [pair.split() for pair in sys.argv[5:]]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
deadline = time.time() + 10
while True:
    try:
        s.connect(path)
        break
    except OSError:
        if time.time() > deadline:
            sys.exit("check_build: daemon socket never came up")
        time.sleep(0.05)
f = s.makefile("rwb")

def ask(line):
    f.write(line.encode() + b"\n")
    f.flush()
    resp = f.readline()
    if not resp:
        sys.exit("check_build: daemon hung up mid-conversation")
    return resp.decode()

def save_payload(resp, id, kind, name):
    env = json.loads(resp)
    if env["id"] != id or not env["ok"] or env["kind"] != kind:
        sys.exit(f"check_build: bad {kind} envelope: {resp[:200]}")
    body = resp.rstrip("\r\n")
    start = body.index(',"payload":') + len(',"payload":')
    with open(name, "w") as fh:
        fh.write(body[start:-1] + "\n")

save_payload(ask('{"op":"run","id":1,"run":{"kind":"suite"}}'), 1,
             "suite", out)
for n, (bm, wl) in enumerate(runs, 2):
    line = json.dumps({"op": "run", "id": n, "run": {
        "kind": "run", "benchmark": bm, "workload": wl}})
    save_payload(ask(line), n, "run",
                 f"{build_dir}/check_serve_run_{n}.json")
env = json.loads(ask(emitted))
if not env["ok"] or env["kind"] != "run":
    sys.exit(f"check_build: --emit-request line not answered: {env}")
env = json.loads(ask("/metrics"))
if not env["ok"] or env["kind"] != "metrics":
    sys.exit("check_build: bad /metrics envelope")
rendered = json.dumps(env["payload"])
for counter in ("serve.requests", "serve.responses"):
    if counter not in rendered:
        sys.exit(f"check_build: /metrics is missing {counter}")
s.close()
print("check_build: daemon answered the suite, run and "
      "--emit-request lines and /metrics")
EOF
    "$BUILD_DIR"/examples/alberta_cli suite --format json \
        --cache-dir "$serve_cache" > "$cli_suite" 2> /dev/null
    if ! cmp -s "$served_suite" "$cli_suite"; then
        echo "check_build: FAIL: served suite JSON differs from the" \
             "CLI run on the same cache" >&2
        exit 1
    fi
    n=2
    for pair in "${serve_runs[@]}"; do
        cli_run="$BUILD_DIR/check_cli_run_$n.json"
        # $pair is deliberately split into benchmark and workload.
        # shellcheck disable=SC2086
        "$BUILD_DIR"/examples/alberta_cli run $pair --format json \
            --cache-dir "$serve_cache" > "$cli_run"
        if ! cmp -s "$BUILD_DIR/check_serve_run_$n.json" "$cli_run"; then
            echo "check_build: FAIL: served run JSON for $pair" \
                 "differs from the CLI run on the same cache" >&2
            exit 1
        fi
        n=$((n + 1))
    done
    kill -TERM "$serve_pid"
    serve_rc=0
    wait "$serve_pid" || serve_rc=$?
    if [[ "$serve_rc" != "0" ]]; then
        echo "check_build: FAIL: daemon exited $serve_rc on SIGTERM" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    if [[ -e "$serve_sock" ]]; then
        echo "check_build: FAIL: daemon left its socket behind" >&2
        exit 1
    fi
    if find "$serve_dir" -name '*.tmp*' | grep -q .; then
        echo "check_build: FAIL: daemon left temp files behind" >&2
        exit 1
    fi
    echo "check_build: serving layer OK (byte-identical suite and" \
         "run JSON, clean SIGTERM drain)"
else
    echo "check_build: python3 not found, skipping daemon check"
fi

if [[ "${ALBERTA_SKIP_BENCH:-0}" != "1" ]]; then
    committed_sig=""
    if [[ -f BENCH_machine.json ]]; then
        committed_sig="$(sed -n \
            's/.*"model_signature": "\(0x[0-9a-f]*\)".*/\1/p' \
            BENCH_machine.json)"
        cp BENCH_machine.json "$BUILD_DIR/bench_machine_baseline.json"
    fi
    if [[ -f BENCH_table2.json ]]; then
        cp BENCH_table2.json "$BUILD_DIR/bench_table2_baseline.json"
    fi
    if [[ -f BENCH_serve.json ]]; then
        cp BENCH_serve.json "$BUILD_DIR/bench_serve_baseline.json"
    fi
    "$BUILD_DIR"/bench/bench_machine --json BENCH_machine.json \
        > /dev/null
    new_sig="$(sed -n \
         's/.*"model_signature": "\(0x[0-9a-f]*\)".*/\1/p' \
        BENCH_machine.json)"
    echo "== BENCH_machine.json =="
    cat BENCH_machine.json
    if [[ -n "$committed_sig" && "$committed_sig" != "$new_sig" ]]; then
        if [[ "${ALBERTA_ALLOW_MODEL_CHANGE:-0}" == "1" ]]; then
            echo "check_build: model signature changed" \
                 "($committed_sig -> $new_sig), allowed by" \
                 "ALBERTA_ALLOW_MODEL_CHANGE=1"
        else
            echo "check_build: FAIL: model signature changed" \
                 "($committed_sig -> $new_sig)." >&2
            echo "The top-down model no longer produces bit-identical" \
                 "outputs. If intentional, rerun with" \
                 "ALBERTA_ALLOW_MODEL_CHANGE=1 and commit the new" \
                 "BENCH_machine.json." >&2
            exit 1
        fi
    fi

    "$BUILD_DIR"/bench/bench_table2 --json BENCH_table2.json \
        > /dev/null
    echo "== BENCH_table2.json =="
    cat BENCH_table2.json

    # Serving throughput: the daemon grid (dispatchers x clients).
    # Gated metrics are the cold/warm aggregates; per_cell.* rows and
    # the scaling ratio report without gating (dispatcher scaling is
    # meaningless on a 1-core box).
    "$BUILD_DIR"/bench/bench_serve --json BENCH_serve.json \
        2> /dev/null
    echo "== BENCH_serve.json =="
    cat BENCH_serve.json

    # Performance-regression gate: diff each regenerated tracker
    # against the committed snapshot. bench_diff.py fails on a
    # regression of any suite-level metric beyond the tolerance;
    # per-benchmark rows, counts, and signatures are reported but
    # never fail here (the signature gate above already handles
    # model changes).
    if command -v python3 > /dev/null; then
        perf_fail=0
        for pair in \
            "bench_machine_baseline.json BENCH_machine.json" \
            "bench_table2_baseline.json BENCH_table2.json" \
            "bench_serve_baseline.json BENCH_serve.json"; do
            baseline="$BUILD_DIR/${pair%% *}"
            current="${pair##* }"
            [[ -f "$baseline" ]] || continue
            echo "== bench_diff: $current vs committed =="
            if ! python3 scripts/bench_diff.py "$baseline" \
                "$current" --tolerance 0.20; then
                perf_fail=1
            fi
        done
        if [[ "$perf_fail" == "1" ]]; then
            if [[ "${ALBERTA_ALLOW_PERF_REGRESSION:-0}" == "1" ]]; then
                echo "check_build: performance regressed beyond tolerance," \
                     "allowed by ALBERTA_ALLOW_PERF_REGRESSION=1"
            else
                echo "check_build: FAIL: performance regressed beyond" \
                     "tolerance versus the committed trackers." >&2
                echo "If the slowdown is intentional, rerun with" \
                     "ALBERTA_ALLOW_PERF_REGRESSION=1 and commit the" \
                     "regenerated BENCH_*.json." >&2
                exit 1
            fi
        fi
    else
        echo "check_build: python3 not found, skipping bench diff"
    fi
fi

echo "check_build: OK"
