"""Tests of the benchmark itself: its checks reject wrong answers, and every
workload runs end to end at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
from flinng.index import FlinngConfig, FlinngIndex
from flinng.lsh import HashFamilySpec
from workloads import K, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def tiny(name):
    # small enough to finish in seconds, dense enough that the recall floors still hold
    return dataclasses.replace(WORKLOADS[name], n_points=600, n_queries=20, num_cells=16)


def benchmark_names(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[key]}


@pytest.fixture(scope="module")
def small_index():
    rng = np.random.default_rng(3)
    points = [np.unique(rng.integers(0, 400, size=40)).astype(np.uint64) for _ in range(60)]
    spec = HashFamilySpec("minhash", m=8, l_bits=4, seed=5)
    index = FlinngIndex.build(points, FlinngConfig(6, 3, spec, "jaccard"))
    return index, points


def corruptions(ids, n_points):
    """A dropped id, a swapped-in foreign id and a reversed order of ``ids``."""
    foreign = next(p for p in range(n_points) if p not in set(ids.tolist()))
    swapped = ids.copy()
    swapped[0] = foreign
    return {"dropped": ids[1:], "swapped": swapped, "reordered": ids[::-1]}


def test_reference_decodes_match_the_index(small_index):
    index, points = small_index
    for q in points[:20]:
        codes = index.hash_query(q)
        counts = index.cell_counts(codes)
        assert np.array_equal(counts, checks.reference_counts(index, codes))
        ref_topk, _ = checks.reference_topk(index, counts, 5)
        assert np.array_equal(index.query_topk(q, 5), ref_topk)
        assert np.array_equal(index.query_threshold(q, 2), checks.reference_threshold(index, counts, 2))


@pytest.mark.parametrize("kind", ["topk", "threshold"])
def test_answer_check_rejects_corrupted_results(small_index, kind):
    index, points = small_index
    q = points[7]
    counts = index.cell_counts(index.hash_query(q))
    if kind == "topk":
        ref, _ = checks.reference_topk(index, counts, 5)
    else:  # the highest threshold that still passes two ids
        ref = next(r for r in (checks.reference_threshold(index, counts, t) for t in range(8, 0, -1))
                   if r.size >= 2)
    assert 2 <= ref.size < index.n_points
    assert checks.answer_failures([ref.copy()], [ref]) == []
    for what, bad in corruptions(ref, index.n_points).items():
        assert checks.answer_failures([ref, bad], [ref, ref]) == [1], what


def test_build_check_rejects_corrupted_indexes(small_index):
    index, points = small_index
    sample = np.arange(index.n_points)
    codes = harness.hash_points(index, points)
    assert checks.build_failures(index, sample, codes) == []

    def corrupt(**arrays):
        fields = {name: getattr(index, name).copy() for name in
                  ("cell_offsets", "cell_members", "table_offsets", "table_payload")}
        for name, edit in arrays.items():
            edit(fields[name])
        return FlinngIndex(index.config, index.n_points, family=index.family, **fields)

    def swap_first_two(a):
        a[[0, 1]] = a[[1, 0]]

    def duplicate_point(a):
        a[0] = a[1]

    def out_of_range(a):
        a[0] = index.config.total_cells

    def move_point(a):
        a[-1] = a[-2]  # last cell of the last repetition: a point lost, one seen twice

    for name, bad in {
        "ids not ascending": corrupt(cell_members=swap_first_two),
        "point twice in a repetition": corrupt(cell_members=duplicate_point),
        "payload id out of range": corrupt(table_payload=out_of_range),
        "point missing from its bucket": corrupt(table_payload=lambda a: a.fill(0)),
        "unbalanced cells": corrupt(cell_offsets=lambda a: a.__setitem__(1, a[1] + 2)),
        "lost point": corrupt(cell_members=move_point),
    }.items():
        assert checks.build_failures(bad, sample, codes), name


@pytest.mark.parametrize("corruption", ["dropped", "swapped", "reordered"])
def test_run_fails_when_an_answer_is_corrupted(tmp_path, corruption):
    workload = tiny("cosine-planted")
    points, queries, truth = workload.make_inputs(seed=1)
    cfg = harness.write_inputs(tmp_path, workload, 1, points, queries)
    (tmp_path / "config.json").write_text(json.dumps(dict(cfg, seconds=0.01)))
    timings = harness.run_measured(tmp_path, trace=False)
    good, _ = harness.evaluate(workload, 1, tmp_path, timings, points, queries, truth, False)
    assert good["correct"] and good["failed"] == 0

    answers = dict(np.load(tmp_path / "answers.npz"))
    topk = harness.unpack(answers, "topk")
    topk[0] = corruptions(topk[0], workload.n_points)[corruption]
    answers["topk"], answers["topk_len"] = (np.concatenate(topk),
                                            np.array([a.size for a in topk]))
    np.savez(tmp_path / "answers.npz", **answers)
    bad, fails = harness.evaluate(workload, 1, tmp_path, timings, points, queries, truth, False)
    assert not bad["correct"] and bad["failed"] >= 1
    assert bad["attempted"] == good["attempted"]
    assert any("top-k" in msg for msg in fails)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_of_every_workload(tmp_path, name, trace):
    result, fails = harness.run(tiny(name), seed=2, seconds=0.01, trace=trace, base_dir=tmp_path)
    assert fails == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == benchmark_names(key)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert (tmp_path / "traces" / f"{name}-seed2.jsonl").stat().st_size > 0


def test_inputs_depend_only_on_the_seed():
    for name in WORKLOADS:
        a = tiny(name).make_inputs(seed=4)
        b = tiny(name).make_inputs(seed=4)
        for x, y in zip(a[1], b[1]):
            assert np.array_equal(x, y)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(a[2], b[2]))
        assert len(a[2][0][0]) == K


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cosine-planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
