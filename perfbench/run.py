#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload table2_cold --seed 1 \\
        --seconds 40 --trace 0

builds perfbench_harness from the sources of this checkout, runs one
workload, checks every output against reference.json, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. A line before it ("perfbench details") records the
environment, sample counts and the name of every failed operation.

Everything it writes stays under .perfbench/ at the root of the
checkout. `--write-reference` re-pins reference.json from the current
build; do that only for a deliberate change of the model's outputs.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the benchmark's directory as checked out

import benchlib  # noqa: E402

WORKLOADS = ("table2_cold", "serve_run")
ROOT = HERE.parent
STATE = Path(".perfbench")  # relative to ROOT: keeps socket paths short
BUILD = STATE / "build"
HARNESS = BUILD / "perfbench_harness"
REFERENCE = HERE / "reference.json"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd):
    """Run a child to completion; its output goes to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: failed (%d): %s"
                         % (proc.returncode, " ".join(map(str, cmd))))


def build():
    # Configure until a configure has succeeded (it writes the build
    # file last), then let the build tool track what changed.
    if not any((ROOT / BUILD / f).exists() for f in ("build.ninja",
                                                      "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"] + gen)
    run(["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
         "-j", str(os.cpu_count() or 1)])


def file_sha256(path):
    return hashlib.sha256((ROOT / path).read_bytes()).hexdigest()


def reference_cache():
    """The complete Table II cache the served runs start from,
    prepared by a cold suite in a separate process once per build of
    the harness (and reused by later runs in this checkout)."""
    cache = STATE / "refcache"
    stamp = STATE / "refcache.stamp"
    want = file_sha256(HARNESS)
    if (ROOT / stamp).exists() and (ROOT / stamp).read_text() == want:
        return cache, 0.0
    shutil.rmtree(ROOT / cache, ignore_errors=True)
    (ROOT / stamp).unlink(missing_ok=True)
    start = time.monotonic()
    run([str(HARNESS), "prepare", "--cache", str(cache)])
    (ROOT / stamp).write_text(want)
    return cache, time.monotonic() - start


def load_reference():
    ref = json.loads(REFERENCE.read_text())
    runs = [tuple(r) for r in ref["runs"]]
    return ref["table2_sha256"], runs


def write_pairs(runs):
    path = STATE / "pairs.tsv"
    (ROOT / path).write_text("".join("%s\t%s\n" % (b, w)
                                     for b, w, _ in runs))
    return path


def run_uops(runs):
    return {(b, w): int(json.loads(p)["uops"]) for b, w, p in runs}


def write_reference():
    out = STATE / "reference-raw.json"
    run([str(HARNESS), "reference", "--out", str(out)])
    raw = json.loads((ROOT / out).read_text())
    bad = [r for r in raw["runs"] if not r["ok"]]
    if not raw["suite_ok"] or bad:
        raise SystemExit("perfbench: reference run failed")
    ref = {
        "table2_sha256": benchlib.table2_digest(raw["suite_payload"]),
        "runs": [[r["benchmark"], r["workload"], r["payload"]]
                 for r in raw["runs"]],
    }
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log("perfbench: wrote", REFERENCE, "with", len(ref["runs"]), "runs")


def read_spans(record):
    if not record["spans_file"]:
        return []
    with open(ROOT / record["spans_file"]) as f:
        return [json.loads(line) for line in f]


def measure(args):
    table2_sha, runs = load_reference()
    work = STATE / "work" / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    out = STATE / "out" / ("%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace))
    (ROOT / out.parent).mkdir(parents=True, exist_ok=True)
    common = ["--work", str(work), "--seconds", str(args.seconds),
              "--seed", str(args.seed), "--trace", str(args.trace),
              "--out", str(out)]
    prep_s = 0.0
    if args.workload == "table2_cold":
        run([str(HARNESS), "table2"] + common)
    else:
        cache, prep_s = reference_cache()
        run([str(HARNESS), "serve", "--ref-cache", str(cache),
             "--pairs", str(write_pairs(runs))] + common)
    record = json.loads((ROOT / out).read_text())
    spans = read_spans(record)

    failures = benchlib.Failures()
    if args.workload == "serve_run":
        with open(ROOT / record["served_file"]) as f:
            served = [json.loads(line) for line in f]
        benchlib.check_served(served, runs, failures)
        e2e, counts = benchlib.serve_end_to_end(record)
        if args.trace:
            layers, absent = benchlib.serve_per_layer(record, spans)
    else:
        benchlib.check_table2_reps(record["reps"], table2_sha, failures)
        e2e, counts = benchlib.table2_end_to_end(record)
        if args.trace:
            layers, absent = benchlib.table2_per_layer(
                record, spans, run_uops(runs))
    shutil.rmtree(ROOT / work, ignore_errors=True)

    if args.trace:
        layers["failed_frac"] = failures.frac
        metrics = benchlib.metric_block(layers, benchlib.PER_LAYER)
    else:
        absent = {}
        metrics = benchlib.metric_block(e2e, benchlib.END_TO_END)
    details = {
        "workload": args.workload,
        "env": record["env"],
        "samples": counts,
        "reference_cache_prepare_s": prep_s,
        "failed_frac": failures.frac,
        "failures": failures.names[:50],
        "absent": absent,
        "record": str(out),
    }
    print("perfbench details " + json.dumps(details))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin reference.json from this build")
    args = parser.parse_args()
    if not args.write_reference and not args.workload:
        parser.error("--workload is required")
    (ROOT / STATE).mkdir(exist_ok=True)
    build()
    if args.write_reference:
        write_reference()
    else:
        measure(args)


if __name__ == "__main__":
    main()
