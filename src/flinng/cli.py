"""Command-line front end: build, inspect, query, topk, groundtruth, plan, simulate, bench.

Exit codes are stable per error class: 0 success, 2 configuration/usage,
3 bad input data, 4 corrupt file format, 5 formula domain violation,
1 unexpected failure. Output files are deterministic for fixed flags apart
from timing columns.
"""

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
import time

import numpy as np

from . import dataio, oracle, theory
from .errors import ConfigError, DomainError, FlinngError, FormatError, InputError
from .index import IMAGE_PARTS, VERSION, FlinngConfig, FlinngIndex
from .lsh import HashFamilySpec

EXIT_CODES = (
    (ConfigError, 2),
    (InputError, 3),
    (FormatError, 4),
    (DomainError, 5),
)


def _require_file(path, flag):
    if not os.path.exists(path):
        raise InputError(f"{flag}: no such file: {path}")
    return path


def _load_dataset(path, metric, flag):
    _require_file(path, flag)
    if metric == "jaccard":
        return dataio.load_tokens(path)
    return dataio.load_dense(path)


def _build_index(points, args, B, R, m):
    if len(points) == 0:
        raise InputError("--dataset holds no points; an index needs at least one")
    dim = None if args.metric == "jaccard" else int(np.asarray(points).shape[1])
    spec = HashFamilySpec(
        kind="minhash" if args.metric == "jaccard" else "srp",
        m=m, l_bits=args.l_bits, seed=args.seed, dim=dim,
    )
    config = FlinngConfig(num_cells=B, repetitions=R, hash_spec=spec, metric=args.metric)
    start = time.perf_counter()
    index = FlinngIndex.build(points, config)
    return index, time.perf_counter() - start


def cmd_build(args):
    points = _load_dataset(args.dataset, args.metric, "--dataset")
    index, seconds = _build_index(points, args, args.B, args.R, args.m)
    index.save(args.index)
    print(f"n_points={index.n_points}")
    print(f"build_seconds={seconds:.6f}")
    print(f"index_bytes={index.nbytes}")
    print(f"path={args.index}")
    return 0


def cmd_inspect(args):
    index = FlinngIndex.load(_require_file(args.index, "INDEX"))
    cfg = index.config
    spec = cfg.hash_spec
    cell_sizes = np.diff(index.cell_offsets)
    report = {
        "version": VERSION,
        "hash_kind": spec.kind,
        "metric": cfg.metric,
        "cell_id_width": np.dtype(cfg.cell_dtype).itemsize,
        "num_cells": cfg.num_cells,
        "repetitions": cfg.repetitions,
        "m": spec.m,
        "l_bits": spec.l_bits,
        "seed": spec.seed,
        "dim": spec.dim or 0,
        "n_points": index.n_points,
        "payload_length": int(index.table_payload.size),
        "part_bytes": {name: memoryview(part).nbytes
                       for name, part in zip(IMAGE_PARTS, index._image_parts())},
        "buckets": spec.m << spec.l_bits,
        "nonempty_buckets": int(np.bitwise_count(index.bucket_bits).sum()),
        "min_cell_size": int(cell_sizes.min()),
        "max_cell_size": int(cell_sizes.max()),
    }
    print(json.dumps(report))
    return 0


def _write_lines(path, lines):
    """Write one line per query; called once every query is answered, so a failed run leaves path as it was."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _ids_line(ids):
    return " ".join(map(str, ids.tolist()))


def cmd_query(args):
    index = FlinngIndex.load(_require_file(args.index, "--index"))
    queries = _load_dataset(args.queries, index.config.metric, "--queries")
    _write_lines(args.out, [_ids_line(index.query_threshold(q, args.t)) for q in queries])
    return 0


def cmd_topk(args):
    index = FlinngIndex.load(_require_file(args.index, "--index"))
    queries = _load_dataset(args.queries, index.config.metric, "--queries")
    lines = []
    for q in queries:
        start = time.perf_counter_ns()
        ids = index.query_topk(q, args.k)
        elapsed = time.perf_counter_ns() - start
        lines.append(f"{_ids_line(ids)}\t{elapsed}" if args.latency else _ids_line(ids))
    _write_lines(args.out, lines)
    return 0


def cmd_groundtruth(args):
    points = _load_dataset(args.dataset, args.metric, "--dataset")
    queries = _load_dataset(args.queries, args.metric, "--queries")
    oracle.write_ground_truth(args.out, oracle.exact_topk_batch(points, queries, args.k, args.metric))
    return 0


# ParamPlan fields printed under the paper's names; the others keep their own
PLAN_RENAMES = {"num_cells": "B", "repetitions_raw": "R_raw", "repetitions": "R"}


def cmd_plan(args):
    plan = theory.plan_parameters(args.n, args.delta, args.gamma, args.sk, args.sk1)
    pairs = [(PLAN_RENAMES.get(key, key), value) for key, value in dataclasses.asdict(plan).items()]
    for key, value in pairs:
        print(f"{key}={value}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([k for k, _ in pairs])
            writer.writerow([v for _, v in pairs])
    return 0


def cmd_simulate(args):
    tpr, fpr = theory.simulate_group_test(
        args.n, args.K, args.B, args.R, args.p, args.q, args.trials, seed=args.seed
    )
    print(f"tpr={tpr}")
    print(f"fpr={fpr}")
    try:
        bounds = theory.group_testing_bounds(args.p, args.q, args.B, args.R, args.n, args.K)
        print(f"tpr_lower={bounds.tpr_lower}")
        print(f"fpr_upper={bounds.fpr_upper}")
    except InputError:
        pass  # rates outside the bound's domain: report measurements only
    return 0


def _pareto_flags(rows):
    """Non-dominated on (recall max, p50 latency min)."""
    flags = []
    for i, a in enumerate(rows):
        dominated = any(
            (b["recall"] >= a["recall"] and b["latency_p50_ns"] <= a["latency_p50_ns"])
            and (b["recall"] > a["recall"] or b["latency_p50_ns"] < a["latency_p50_ns"])
            for j, b in enumerate(rows)
            if j != i
        )
        flags.append(not dominated)
    return flags


BENCH_COLUMNS = [
    "B", "R", "m", "l_bits", "seed", "metric", "k", "n_points", "n_queries",
    "recall", "build_seconds", "index_bytes",
    "latency_p50_ns", "latency_p95_ns", "pareto",
]


def cmd_bench(args):
    points = _load_dataset(args.dataset, args.metric, "--dataset")
    queries = _load_dataset(args.queries, args.metric, "--queries")
    if len(queries) == 0:
        raise InputError("--queries holds no queries; bench needs at least one")
    truth = oracle.read_ground_truth(_require_file(args.truth, "--truth"))
    if len(truth) != len(queries):
        raise InputError(f"--truth has {len(truth)} rows but --queries has {len(queries)}")
    rows = []
    for B, R, m in itertools.product(args.B, args.R, args.m):
        index, build_seconds = _build_index(points, args, B, R, m)
        index.query_topk(queries[0], args.k)  # keep first-call costs out of the latencies
        latencies = []
        results = []
        for q in queries:
            start = time.perf_counter_ns()
            ids = index.query_topk(q, args.k)
            latencies.append(time.perf_counter_ns() - start)
            results.append(ids)
        report = oracle.evaluate(results, truth, [args.k])
        lat = np.asarray(latencies, dtype=np.float64)
        rows.append({
            "B": B, "R": R, "m": m, "l_bits": args.l_bits, "seed": args.seed,
            "metric": args.metric, "k": args.k, "n_points": len(points),
            "n_queries": len(queries),
            "recall": report.recall_at_k[args.k],
            "build_seconds": round(build_seconds, 6),
            "index_bytes": index.nbytes,
            "latency_p50_ns": int(np.percentile(lat, 50)),
            "latency_p95_ns": int(np.percentile(lat, 95)),
        })
    for row, flag in zip(rows, _pareto_flags(rows)):
        row["pareto"] = int(flag)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"configs={len(rows)}")
    print(f"path={args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flinng",
        description="Group-tested near neighbor search: build and query indexes, "
        "plan parameters, compute ground truth, and benchmark configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_hash(p):
        p.add_argument("--metric", choices=["jaccard", "cosine"], default="jaccard")
        p.add_argument("--m", type=int, default=32, help="hash codes per point")
        p.add_argument("--l-bits", dest="l_bits", type=int, default=16, help="bits per code")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build", help="build an index file from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--B", type=int, default=256, help="cells per repetition")
    p.add_argument("--R", type=int, default=3, help="repetitions")
    common_hash(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("inspect", help="print an index file's header, bytes per part and occupancy as JSON")
    p.add_argument("index", metavar="INDEX")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("query", help="threshold query: ids passing count >= t everywhere")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("topk", help="top-k query via threshold relaxation")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--latency", action="store_true", help="append a per-query latency column (ns)")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("groundtruth", help="exact top-k by brute force")
    p.add_argument("--dataset", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--metric", choices=["jaccard", "cosine"], default="jaccard")
    p.set_defaults(func=cmd_groundtruth)

    p = sub.add_parser("plan", help="derive (B, R, L, m, t, p, q) for a failure target")
    p.add_argument("--n", type=int, required=True, help="dataset size")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--gamma", type=float, required=True, help="query stability")
    p.add_argument("--sk", type=float, required=True, help="k-th neighbor similarity")
    p.add_argument("--sk1", type=float, required=True, help="(k+1)-th neighbor similarity")
    p.add_argument("--out", help="also write the plan as a one-row CSV")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="Monte Carlo decode rates for a noisy test grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=1, help="planted positives")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="per-test true positive rate")
    p.add_argument("--q", type=float, required=True, help="per-test false positive rate")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="sweep configurations, emit a recall/latency CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--B", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--R", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--m", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--l-bits", dest="l_bits", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=["jaccard", "cosine"], default="jaccard")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlinngError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
