#!/usr/bin/env python3
"""Workflow benchmark runner: builds `wfbench`, runs one workload, reports.

    python3 wfbench/run.py --workload identify --seed 7 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark package (and through it
the library) from source with cargo, then runs workload processes, each a
fresh process that sets the workload up from the seed:

* ``--trace 0`` — *full* processes (set-up, workflow, untimed correctness
  gate) in passes over the run's data sets until ``--seconds`` of workflow
  time are measured, each followed by a short process that stops after the
  first answer, so ``setup_s`` and ``first_answer_s`` are medians over many
  set-ups. Prints the end-to-end metrics.
* ``--trace 1`` — one untraced pass, then one traced full process per data
  set (spans around every call into a layer, replays of the calls that hide
  several layers). Prints the per-layer metrics (medians over the traced
  processes).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A steadiness report (per-metric sample count,
median and quartiles, round path composition, cluster-margin flags, source
stamp) goes to ``.bench_out/`` and to stderr. Any failed operation or gate
mismatch makes the run exit non-zero.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("identify", "debug", "learn")
# Data sets per run, each made from the run's seed.
DATASETS = 8
# No new pass starts after this much wall time, so a run ends well within
# three minutes even on a slow machine.
PASS_DEADLINE_S = 90
PROCESS_TIMEOUT_S = 150
# A percentile closer than this many samples to a boundary between two
# path clusters is flagged: a little noise could move it across.
CLUSTER_MARGIN = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        return None
    binary = os.path.join(target, "release", "wfbench")
    return binary if os.path.isfile(binary) else None


def run_process(binary, workload, seed, threads, scratch, env, trace_path=None, short=False,
                gate=True):
    cmd = [binary, workload, "--seed", str(seed), "--threads", str(threads),
           "--scratch", scratch]
    if trace_path:
        cmd += ["--trace", trace_path]
    if short:
        cmd += ["--stop-after-first-answer", "1"]
    if not gate:
        cmd += ["--gate", "0"]
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"wfbench {workload}: process timed out")
        return None
    if res.stderr:
        log(res.stderr.rstrip())
    if res.returncode != 0:
        log(f"wfbench {workload}: process exited {res.returncode}")
    try:
        return json.loads(res.stdout)
    except ValueError:
        return None


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def percentile(values, p):
    """`p`-th percentile (0-100) of `values`, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[p - 1]


def cluster_report(procs):
    """Round path composition, pooled over the run, and flags for p50/p90
    sitting closer than CLUSTER_MARGIN samples to a cluster boundary."""
    latency = {}
    for p in procs:
        for label, ms in zip(p["round_paths"], p["rounds_ms"]):
            latency.setdefault(label, []).append(ms)
    n = sum(len(v) for v in latency.values())
    composition = {k: len(v) for k, v in sorted(latency.items())}
    # Clusters ordered by median latency; a boundary is where one ends.
    order = sorted(latency, key=lambda k: statistics.median(latency[k]))
    bounds, acc = [], 0
    for k in order[:-1]:
        acc += composition[k]
        bounds.append(acc)
    overlaps = [{"lower": lo, "upper": hi, "overlap": max(latency[lo]) >= min(latency[hi])}
                for lo, hi in zip(order, order[1:])]
    flags = []
    for p in (50, 90):
        pos = p / 100 * n
        for b in bounds:
            if abs(pos - b) < CLUSTER_MARGIN:
                flags.append(f"p{p} sits {abs(pos - b):.1f} samples from a cluster boundary at {b}")
        if n - pos < CLUSTER_MARGIN:
            flags.append(f"p{p} has fewer than {CLUSTER_MARGIN} samples beyond it")
    return {
        "rounds": n,
        "composition": composition,
        "cluster_order": order,
        "cluster_median_ms": {k: statistics.median(v) for k, v in latency.items()},
        "boundaries": bounds,
        "overlaps": overlaps,
        "flags": flags,
    }


def source_stamp():
    """Commit plus dirty flag when a git checkout is at hand, and always a
    digest of the sources the benchmark built."""
    stamp = {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            stamp["commit"] = head.stdout.strip()
            st = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
            stamp["dirty"] = bool(st.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("crates", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    stamp["source_sha256"] = digest.hexdigest()
    return stamp


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def layer_value(name, doc):
    """Per-layer metric `name` from one traced process."""
    self_ms, counts = doc["self_ms"], doc["counts"]
    if name == "trace.overhead_s":
        return None  # filled in from the untraced twin
    if name == "uncertain.certain_fraction":
        q = counts.get("uncertain.certain_queries", 0.0)
        return counts.get("uncertain.certain_found", 0.0) / q if q else 0.0
    if name == "uncertain.worlds_per_s":
        ms = self_ms.get("uncertain.worlds", 0.0)
        return counts.get("uncertain.worlds", 0.0) / (ms / 1e3) if ms else 0.0
    if name == "trace.round_accounted":
        total = doc["total_ms"].get("cleaning.round", 0.0)
        glue = self_ms.get("cleaning.round", 0.0)
        return (total - glue) / total if total else 0.0
    if name.endswith("_self_ms"):
        return self_ms.get(name[: -len("_self_ms")], 0.0)
    if "_ms." in name:  # pipeline.delta_ms.splice -> span pipeline.delta.splice
        return self_ms.get(name.replace("_ms.", "."), 0.0)
    if name.endswith("_ms"):
        return self_ms.get(name[: -len("_ms")], 0.0)
    return counts.get(name, 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if binary is None:
        log("wfbench: build failed")
        return 2

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, NDE_POOL_WORKERS=str(max(threads - 1, 0)))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(OUT_DIR, f"scratch-{tag}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)

    # Messages for every failure; `lost` counts operations that failed
    # outside a process's own gate (no result, answers that disagree).
    failures, lost = [], 0
    # Each run averages over DATASETS inputs made from its seed: the cost of
    # a workflow depends on the data it meets, and one data set per run
    # would make that dependence the run-to-run spread.
    datasets = [args.seed * DATASETS + i for i in range(DATASETS)]
    full, short, traced = [], [], []
    measured = 0.0

    def launch(bucket, child, **kw):
        nonlocal lost
        doc = run_process(binary, args.workload, child, threads, scratch, env, **kw)
        if doc is None:
            failures.append(f"dataset {child}: process failed without a result")
            lost += 1
            return False
        doc["dataset"] = child
        bucket.append(doc)
        for f in doc.get("failures") or ([] if not doc.get("failed") else ["gate failed"]):
            failures.append(f"dataset {child}: {f}")
        return True

    # --trace 0: full processes in complete passes over the data sets until
    # --seconds of workflow time are measured, each followed by a short
    # process on the same data set, so set-up and first-answer samples are
    # spread over the whole run. The first pass gates every data set; later
    # passes must reproduce its answers bit for bit.
    # --trace 1: one untraced pass (the answers and the overhead baseline),
    # then one traced process per data set.
    passes, started = 0, time.monotonic()
    while not failures and (passes == 0 or (args.trace == 0 and measured < args.seconds
                                            and time.monotonic() - started < PASS_DEADLINE_S)):
        for child in datasets:
            if not launch(full, child, gate=passes == 0):
                break
            measured += full[-1]["workflow_s"]
            if args.trace == 0 and not launch(short, child, short=True):
                break
        passes += 1
    if args.trace == 1:
        for i, child in enumerate(datasets):
            if not failures:
                spans = os.path.join(OUT_DIR, f"spans-{tag}-{i}.json")
                launch(traced, child, trace_path=spans)
    try:
        os.rmdir(scratch)
    except OSError:
        pass

    # Every process on one data set must give the same answers: the traced
    # replays and the short processes included.
    first = {}
    mismatches = []
    for doc in full:
        ref = first.setdefault(doc["dataset"], doc)
        if doc["answers"] != ref["answers"]:
            mismatches.append(f"dataset {doc['dataset']}: answers differ between processes")
    for doc in traced:
        ref = first.get(doc["dataset"])
        if ref is None or doc["answers"] != ref["answers"]:
            mismatches.append(f"dataset {doc['dataset']}: traced replay answers differ")
    for doc in short:
        ref = first.get(doc["dataset"])
        if ref is None or doc["answers"] != ref["answers"][: len(doc["answers"])]:
            mismatches.append(f"dataset {doc['dataset']}: first answer differs")
    failures += mismatches
    lost += len(mismatches)
    attempted = sum(d["attempted"] for d in full + short + traced) + lost
    failed = sum(d["failed"] for d in full + short + traced) + lost
    correct = not failures and bool(full)

    metrics, steadiness = {}, {}
    if correct and args.trace == 0:
        rounds = [ms for d in full for ms in d["rounds_ms"]]
        samples = {
            "setup_s": [d["setup_s"] for d in full + short],
            "first_answer_s": [d["first_answer_s"] for d in full + short],
            "workflow_s": [d["workflow_s"] for d in full],
            "peak_rss_mb": [d["peak_rss_mb"] for d in full],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["round_p50_ms"] = percentile(rounds, 50)
        values["round_p90_ms"] = percentile(rounds, 90)
        steadiness = {k: summary(v) for k, v in samples.items()}
        steadiness["rounds_ms"] = summary(rounds)
        steadiness["round_clusters"] = cluster_report(full)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    elif correct:
        untraced = statistics.median(d["workflow_s"] for d in full)
        per_layer = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                vals = [d["workflow_s"] - untraced for d in traced]
            else:
                vals = [layer_value(name, d) for d in traced]
            per_layer[name] = vals
            metrics[name] = {"value": statistics.median(vals), "unit": m["unit"]}
        steadiness = {k: summary(v) for k, v in per_layer.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": threads,
        "pool_workers": (full or [{}])[0].get("pool_workers"),
        "explicit_pool_workers": threads - 1,
        "datasets": datasets,
        "processes": {"full": len(full), "short": len(short), "traced": len(traced)},
        "stamp": source_stamp(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "steadiness": steadiness,
        "counts": (traced or full or [{}])[0].get("counts", {}),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    log(json.dumps({k: report[k] for k in ("workload", "seed", "trace", "nproc",
                                            "pool_workers", "processes", "stamp",
                                            "failed_frac")}))
    for k, v in steadiness.items():
        log(f"  {k}: {json.dumps(v)}")

    for f in failures[:20]:
        log(f"wfbench {args.workload}: {f}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
