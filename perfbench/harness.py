"""Benchmark harness: inputs, the measured process, the checks and the result line.

``run.py`` is the command-line entry; this module holds the work so that the
benchmark's own tests can run a workload at a tiny size.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from flinng import dataio, lsh, oracle
from flinng.index import FlinngIndex
from run import THREAD_VARS
from workloads import K, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_inputs(work, workload, seed, points, queries):
    if workload.metric == "jaccard":
        dataio.save_tokens(work / "points.txt", points)
        dataio.save_tokens(work / "queries.txt", queries)
        dim = None
    else:
        dataio.save_dense(work / "points.bin", points)
        dataio.save_dense(work / "queries.bin", queries)
        dim = points.shape[1]
    cfg = {"metric": workload.metric, "m": workload.m, "l_bits": workload.l_bits,
           "num_cells": workload.num_cells, "repetitions": workload.repetitions,
           "seed": seed, "dim": dim, "k": K, "t": workload.t, "reps": workload.reps}
    return cfg


def run_measured(work, trace):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"), str(work)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads((work / "timings.json").read_text())


def unpack(answers, key):
    flat, lengths = answers[key], answers[key + "_len"]
    return np.split(flat, np.cumsum(lengths)[:-1]) if lengths.size else []


def run(workload, seed, seconds, trace, base_dir):
    """One benchmark run; returns (result dict, failure messages)."""
    work = base_dir / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        points, queries, truth = workload.make_inputs(seed)
        cfg = write_inputs(work, workload, seed, points, queries)
        cfg["seconds"] = seconds
        (work / "config.json").write_text(json.dumps(cfg))
        timings = run_measured(work, trace)
        result, failures = evaluate(workload, seed, work, timings, points, queries, truth, trace)
        if trace:
            traces = base_dir / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(work / "spans.jsonl", traces / f"{workload.name}-seed{seed}.jsonl")
        return result, failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def hash_points(index, points):
    if index.config.metric == "jaccard":
        return lsh.hash_set_many(index.family, points)
    return lsh.hash_dense_many(index.family, np.asarray(points))


def evaluate(workload, seed, work, timings, points, queries, truth, trace):
    fails = []
    attempted = 0

    def check(total, bad, what):
        """Count ``total`` checked operations, ``bad`` of them failed."""
        nonlocal attempted
        attempted += total
        if bad:
            fails.append(f"{what}: {bad} of {total} failed")
        return bad

    reps = timings["reps"]
    images = [(work / f"index-{i}.flinng").read_bytes() for i in range(reps)]
    failed = check(reps, sum(img != images[0] for img in images), "set-up gives the seed's image")
    index = FlinngIndex.from_bytes(images[-1])
    failed += check(1, int(index.to_bytes() != images[-1]), "load -> to_bytes round trip")

    # reference decodes, once per query, from cell_counts and members_of
    Q, k, t = len(queries), K, workload.t
    ref_topk, ref_thr = [], []
    gather_bad = 0
    counters = {"bucket_entries": [], "cells_touched": [], "members_in_touched": [],
                "members_to_kth": []}
    sizes = np.diff(index.cell_offsets)
    for qc in hash_points(index, queries):
        counts = index.cell_counts(qc)
        gather_bad += not np.array_equal(counts, checks.reference_counts(index, qc))
        ids, read = checks.reference_topk(index, counts, k)
        ref_topk.append(ids)
        ref_thr.append(checks.reference_threshold(index, counts, t))
        touched = np.flatnonzero(counts)
        counters["bucket_entries"].append(sum(b.size for b in checks.bucket_lists(index, qc)))
        counters["cells_touched"].append(touched.size)
        counters["members_in_touched"].append(int(sizes[touched].sum()))
        counters["members_to_kth"].append(read)
    failed += check(Q, gather_bad, "cell_counts equals the counts the tables give")

    answers = np.load(work / "answers.npz")
    topk = unpack(answers, "topk")
    thr = unpack(answers, "threshold")
    rounds = timings["rounds"]
    if len(topk) != rounds * Q or len(thr) != rounds * Q:
        raise RuntimeError(f"measured process answered {len(topk)}/{len(thr)} of {rounds} x {Q}")
    failed += check(len(topk), len(checks.answer_failures(topk, ref_topk * rounds)),
                    "top-k equals the reference")
    failed += check(len(thr), len(checks.answer_failures(thr, ref_thr * rounds)),
                    "threshold equals the reference")
    built_bad = (len(checks.answer_failures(unpack(answers, "built_topk"), ref_topk))
                 + len(checks.answer_failures(unpack(answers, "built_threshold"), ref_thr)))
    failed += check(2 * Q, built_bad, "the index before save answers as the loaded one")

    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(index.n_points, size=min(index.n_points, 256), replace=False))
    build_fails = checks.build_failures(index, sample, hash_points(index, [points[i] for i in sample]))
    fails.extend(build_fails)
    failed += check(1, int(bool(build_fails)), "build properties")

    recall = oracle.evaluate(topk[:Q], truth, [k]).recall_at_k[k]
    n = index.n_points
    thr_recall = oracle.evaluate(thr[:Q], truth, [n]).recall_at_k[n]
    failed += check(1, int(recall < workload.recall_floor),
                    f"recall_at_10 {recall:.4f} >= {workload.recall_floor}")
    failed += check(1, int(thr_recall < workload.threshold_recall_floor),
                    f"threshold_recall {thr_recall:.4f} >= {workload.threshold_recall_floor}")

    if trace:
        metrics = dict(timings["layers"])
        per_query = {name: float(np.mean(v)) for name, v in counters.items()}
        per_query["ids_emitted"] = float(np.mean([a.size for a in ref_topk]))
        per_query["threshold_ids"] = float(np.mean([a.size for a in ref_thr]))
        for name, v in per_query.items():
            metrics[f"index.{name}"] = {"value": v, "unit": "count"}
        metrics["index.short_results"] = {"value": sum(int(a.size < min(k, n)) for a in ref_topk),
                                          "unit": "count"}
        for name in ("cell_offsets", "cell_members", "table_offsets", "table_payload"):
            metrics[f"index.{name}_bytes"] = {"value": getattr(index, name).nbytes, "unit": "B"}
        metrics["index.nonempty_buckets"] = {
            "value": int(np.count_nonzero(np.diff(index.table_offsets))), "unit": "count"}
    else:
        metrics = end_to_end(timings, len(images[-1]), recall, thr_recall)
    metrics = {name: metrics[name] for name in sorted(metrics)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, fails


def end_to_end(timings, index_bytes, recall, thr_recall):
    setups = timings["setups"]

    def med(key):
        return statistics.median(s[key] for s in setups)

    topk_ns = np.asarray(timings["topk_ns"], dtype=np.float64)
    values = {
        "setup_s": (timings["import_s"] + med("total"), "s"),
        "build_s": (med("build"), "s"),
        "load_s": (med("load"), "s"),
        "index_bytes": (index_bytes, "B"),
        "peak_rss_mb": (timings["peak_rss_mb"], "MiB"),
        "topk_p95_us": (float(np.percentile(topk_ns, 95)) / 1e3, "us"),
        "topk_qps": (topk_ns.size / (timings["topk_wall_ns"] / 1e9), "1/s"),
        "threshold_qps": (len(timings["threshold_ns"]) / (timings["threshold_wall_ns"] / 1e9), "1/s"),
        "recall_at_10": (recall, "fraction"),
        "threshold_recall": (thr_recall, "fraction"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv):
    args = parse_args(argv)
    result, failures = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                           ROOT / ".bench_work")
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
