"""Summaries and checks of the benchmark: turns the raw record that
perfbench_harness writes into the reported metrics, and checks every
output against the pinned references in reference.json.

Everything here is a pure function of its arguments, so the unit tests
in tests/test_benchlib.py can pin it down without a build.
"""

import hashlib
import json
import math
import statistics

MIB = 1024.0 * 1024.0

# The end-to-end metrics (reported with --trace 0), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "table2_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

# The per-layer metrics (reported with --trace 1), name -> unit.
PER_LAYER = {
    "benchmarks.generate_s": "s",
    "benchmarks.workloads_generated": "count",
    "benchmarks.generated_mib": "MiB",
    "cache.fingerprint_s": "s",
    "cache.fingerprint_mib": "MiB",
    "cache.probe_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.disk_hits": "count",
    "cache.disk_misses": "count",
    "cache.disk_writes": "count",
    "cache.disk_corrupt": "count",
    "model.runs": "count",
    "model.uops_executed": "count",
    "model.run_s": "s",
    "model.ns_per_uop": "ns",
    "executor.tasks": "count",
    "executor.queue_wait_s": "s",
    "executor.busy_frac": "fraction",
    "scheduler.longest_task_s": "s",
    "scheduler.serial_prefix_s": "s",
    "core.summarize_s": "s",
    "core.render_s": "s",
    "core.unattributed_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p95_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.render_ms": "ms",
    "serve.execute_p50_ms": "ms",
    "serve.execute_p95_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.rejected": "count",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
}

MODEL_METRICS = ("model.runs", "model.uops_executed", "model.run_s",
                 "model.ns_per_uop")

CACHE_COUNTERS = ("cache.hits", "cache.misses", "cache.disk_hits",
                  "cache.disk_misses", "cache.disk_writes",
                  "cache.disk_corrupt")


# ------------------------------------------------------------ statistics

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Returns (value, n, beyond), where
    beyond counts the samples strictly after the chosen rank."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1], n, n - rank


def median(values):
    return statistics.median(values)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end)
    intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


# ----------------------------------------------------------- correctness

def normalize_table2(payload):
    """The deterministic part of a Table II payload: every row without
    its refrate_seconds wall-time member, re-encoded canonically."""
    rows = json.loads(payload)
    if not isinstance(rows, list):
        raise ValueError("Table II payload is not an array")
    for row in rows:
        row.pop("refrate_seconds", None)
    return json.dumps(rows, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def table2_digest(payload):
    return digest(normalize_table2(payload))


class Failures:
    """Counts checked operations and names every failed one."""

    def __init__(self):
        self.attempted = 0
        self.names = []

    def check(self, ok, name):
        self.attempted += 1
        if not ok:
            self.names.append(name)

    @property
    def failed(self):
        return len(self.names)

    @property
    def frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def check_table2_reps(reps, ref_digest, failures):
    for rep in reps:
        name = "table2 call %d" % rep["phase"]
        if not rep["ok"]:
            failures.check(False, "%s: error: %s" % (name, rep["error"]))
            continue
        try:
            got = table2_digest(rep["payload"])
        except ValueError as e:
            failures.check(False, "%s: unparsable payload: %s" % (name, e))
            continue
        failures.check(got == ref_digest,
                       "%s: Table II digest %s != pinned %s"
                       % (name, got[:12], ref_digest[:12]))


def check_served(records, ref_runs, failures):
    """Each served run payload must equal the reference for its pair;
    a refusal or an error envelope is a failure too."""
    for rec in records:
        bench, workload, payload = ref_runs[rec["pair"]]
        name = "request %d (phase %d, %s %s)" % (
            rec["id"], rec["phase"], bench, workload)
        if not rec["ok"]:
            failures.check(False, "%s: %s %s" % (
                name, rec.get("code") or "error", rec.get("error", "")))
        else:
            failures.check(rec["payload"] == payload,
                           "%s: payload differs from reference" % name)


# ------------------------------------------------------------ end to end

def table2_end_to_end(record):
    reps = [r for r in record["reps"] if not r["traced"]]
    walls = [r["wall_s"] for r in reps]
    table2_s = median(walls)
    p95, _, _ = percentile(walls, 95)
    return {
        "setup_s": median(record["setup_s"]),
        "table2_s": table2_s,
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "req_per_s": 1.0 / table2_s,
        "latency_p50_ms": table2_s * 1e3,
        "latency_p95_ms": p95 * 1e3,
    }, {"table2_calls": len(reps), "setups": len(record["setup_s"])}


def serve_end_to_end(record):
    phase = record["phases"][0]
    lat = [r["latency_ms"] for r in phase["requests"]]
    p50, n, _ = percentile(lat, 50)
    p95, _, beyond = percentile(lat, 95)
    passes = phase["passes"]
    return {
        "setup_s": median(record["setup_s"]),
        "table2_s": phase["wall_s"] / passes,
        "cpu_s": phase["cpu_s"] / passes,
        "peak_rss_mb": phase["peak_rss_mb"],
        "req_per_s": len(lat) / phase["wall_s"],
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
    }, {"requests": n, "beyond_p95": beyond, "passes": passes,
        "setups": len(record["setup_s"])}


# ------------------------------------------------------------- per layer

def zero_layers():
    return {name: 0.0 for name in PER_LAYER}


def _self_time(span, children):
    return span["dur"] - covered(
        [(c["start"], c["start"] + c["dur"]) for c in children],
        span["start"], span["start"] + span["dur"])


def model_runs(task_spans, misses, ref_uops):
    """Executed model runs and their uops. A refrate_rep task always
    executes (it exists only when the refrate probe missed); a
    model_run task executes exactly when its cache probe misses, and
    every probe is one lookup, so the misses not spent on refrate
    probes are the model_run tasks that executed. Returns None when
    some but not all model_run tasks executed: which ones is not
    observable from outside."""
    reps = [s for s in task_spans if s["category"] == "refrate_rep"]
    runs = [s for s in task_spans if s["category"] == "model_run"]
    refrate_keys = {s["name"] for s in reps}
    model_misses = misses - len(refrate_keys)
    if model_misses == len(runs):
        executed = runs
    elif model_misses == 0:
        executed = []
    else:
        return None
    uops = sum(int(s["attrs"].get("uops", 0)) for s in executed)
    for s in reps:
        uops += ref_uops[(s["name"].split("/", 1)[0], "refrate")]
    seconds = sum(s["dur"] for s in executed + reps)
    return len(executed) + len(reps), uops, seconds


def table2_rep_layers(rep, spans, jobs, ref_uops, absent):
    """Per-layer metrics of one traced suite call from its spans and
    its engine's metrics snapshot."""
    out = {}
    m = rep["metrics"]
    for name in CACHE_COUNTERS:
        out[name] = m.get(name, 0.0)
    out["executor.tasks"] = m.get("executor.tasks", 0.0)
    out["executor.queue_wait_s"] = m.get("executor.queue_seconds", 0.0)

    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    roots = [s for s in spans if s["category"] == "characterize_suite"]
    batches = [s for s in spans if s["name"] == "suite_batch"]
    tasks = [t for b in batches for t in by_parent.get(b["id"], [])]

    wall = rep["wall_s"]
    out["executor.busy_frac"] = sum(t["dur"] for t in tasks) / (jobs * wall)
    out["scheduler.longest_task_s"] = max((t["dur"] for t in tasks),
                                          default=0.0)
    out["scheduler.serial_prefix_s"] = (
        batches[0]["start"] - roots[0]["start"] if batches and roots
        else 0.0)
    out["core.summarize_s"] = sum(s["dur"] for s in spans
                                  if s["category"] == "summarize")
    out["cache.probe_s"] = sum(_self_time(s, by_parent.get(s["id"], []))
                               for s in spans
                               if s["category"] == "cache_probe")
    out["core.render_s"] = median(rep["render_s"])
    # The root suite span is the umbrella of the whole call: its self
    # time is exactly the part no stage span explains.
    stages = [(s["start"], s["start"] + s["dur"]) for s in spans
              if s["category"] != "characterize_suite"]
    out["core.unattributed_s"] = wall - covered(
        stages, rep["trace_start"], rep["trace_end"])

    model = model_runs(tasks, int(m.get("cache.misses", 0)), ref_uops)
    if model is None:
        for name in MODEL_METRICS:
            absent[name] = ("some but not all model_run tasks hit the "
                            "cache; which ones executed is not observable "
                            "from outside")
    else:
        runs, uops, seconds = model
        out["model.runs"] = runs
        out["model.uops_executed"] = uops
        out["model.run_s"] = seconds
        out["model.ns_per_uop"] = seconds * 1e9 / uops if uops else 0.0
    return out


def table2_per_layer(record, spans, ref_uops):
    """Per-layer metrics of a traced table2_cold run: the median over its
    traced suite calls, plus the one-off generation and fingerprint
    timings. Returns (metrics, absent-with-reason)."""
    absent = {}
    jobs = record["env"]["engine_jobs"]
    traced = [r for r in record["reps"] if r["traced"]]
    untraced = [r for r in record["reps"] if not r["traced"]]
    per_rep = [table2_rep_layers(
        r, [s for s in spans if s["phase"] == r["phase"]], jobs,
        ref_uops, absent) for r in traced]

    out = zero_layers()
    for name in per_rep[0]:
        out[name] = median([p[name] for p in per_rep if name in p])
    for name in absent:
        out.pop(name, None)

    gens = record["layers"]["generate"]
    out["benchmarks.generate_s"] = sum(g["seconds"] for g in gens)
    out["benchmarks.workloads_generated"] = sum(g["workloads"] for g in gens)
    out["benchmarks.generated_mib"] = sum(g["bytes"] for g in gens) / MIB
    fp = record["layers"]["fingerprint"]
    out["cache.fingerprint_s"] = fp["seconds"]
    out["cache.fingerprint_mib"] = fp["bytes"] / MIB
    out["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced]) /
        median([r["wall_s"] for r in untraced]) - 1.0)
    return out, absent


def serve_per_layer(record, spans):
    """Per-layer metrics of a traced serve_run: the traced phase's
    server counters (per pass), the queue's wait samples, and the
    stage replay of the first pass's request sequence."""
    absent = {}
    untraced, traced = record["phases"][0], record["phases"][1]
    replay = record["replay"]["requests"]
    passes = traced["passes"]
    m = traced["metrics"]
    out = zero_layers()

    out["benchmarks.generate_s"] = sum(r["generate_s"] for r in replay)
    out["benchmarks.workloads_generated"] = sum(r["workloads"]
                                                for r in replay)
    out["benchmarks.generated_mib"] = sum(r["generated_bytes"]
                                          for r in replay) / MIB
    out["cache.fingerprint_s"] = sum(r["fingerprint_s"] for r in replay)
    out["cache.fingerprint_mib"] = sum(r["fingerprint_bytes"]
                                       for r in replay) / MIB
    out["cache.probe_s"] = sum(
        s["dur"] for s in spans
        if s["phase"] == traced["phase"] and s["category"] == "cache_probe")
    for name in CACHE_COUNTERS:
        out[name] = m.get(name, 0.0) / passes
    out["executor.tasks"] = m.get("executor.tasks", 0.0) / passes
    out["executor.queue_wait_s"] = m.get("executor.queue_seconds",
                                         0.0) / passes

    # A run request executes its model exactly when its probe misses;
    # with no misses every model.* metric stays 0.
    misses = int(m.get("cache.misses", 0))
    if misses:
        reason = ("%d run requests executed a model; run-kind model "
                  "runs carry no span, so their count is known but not "
                  "which ran or for how long" % misses)
        out["model.runs"] = misses / passes
        for name in MODEL_METRICS[1:]:
            absent[name] = reason
            out.pop(name)

    waits = traced["queue_wait_ms"]
    if waits:
        out["serve.queue_wait_p50_ms"] = percentile(waits, 50)[0]
        out["serve.queue_wait_p95_ms"] = percentile(waits, 95)[0]
    out["serve.parse_ms"] = median([r["parse_ms"] for r in replay])
    out["serve.render_ms"] = median([r["render_ms"] for r in replay])
    execute = [r["execute_ms"] for r in replay]
    out["serve.execute_p50_ms"] = percentile(execute, 50)[0]
    out["serve.execute_p95_ms"] = percentile(execute, 95)[0]
    lat = [r["latency_ms"] for r in traced["requests"]]
    out["serve.transport_ms"] = (
        statistics.fmean(lat) - (statistics.fmean(waits) if waits else 0.0)
        - statistics.fmean(execute)
        - statistics.fmean([r["parse_ms"] for r in replay])
        - statistics.fmean([r["render_ms"] for r in replay]))
    out["serve.rejected"] = float(traced["rejected"])
    out["trace.overhead_frac"] = (
        (len(untraced["requests"]) / untraced["wall_s"]) /
        (len(lat) / traced["wall_s"]) - 1.0)
    return out, absent


def metric_block(values, units):
    return {name: {"value": values[name], "unit": units[name]}
            for name in units if name in values}
