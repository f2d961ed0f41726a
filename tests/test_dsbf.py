import math

import numpy as np
import pytest

from flinng.dsbf import DistanceSensitiveFilter, membership_error_bounds
from flinng.errors import BoundInvalidError, ConfigError, InputError


def ideal_codes(rng, query_codes, collide_prob, l_bits, n=None):
    """Codes equal to the query's with the given probability, else a different bucket."""
    m = query_codes.shape[0]
    size = 1 << l_bits
    shape = m if n is None else (n, m)
    out = rng.integers(0, size - 1, shape).astype(np.uint32)
    out[out >= query_codes] += 1  # uniform over the other size-1 buckets
    hit = rng.random(shape) < collide_prob
    out[hit] = np.broadcast_to(query_codes, np.shape(out))[hit]
    return out


def measure_rates(m, t, l_bits, s_high, s_low, n_points, trials, seed=0):
    """Empirical (TPR, FPR) for synthesized codes with exact per-hash collision rates."""
    rng = np.random.default_rng(seed)
    hi = s_high**l_bits
    lo = s_low**l_bits
    tp = fp = 0
    for _ in range(trials):
        q = rng.integers(0, 1 << l_bits, m).astype(np.uint32)
        background = ideal_codes(rng, q, lo, l_bits, n=n_points)
        neg = DistanceSensitiveFilter(m, l_bits, t)
        neg.insert_many(background)
        fp += neg.test(q)
        pos = DistanceSensitiveFilter(m, l_bits, t)
        pos.insert_many(background)
        pos.insert(ideal_codes(rng, q, hi, l_bits))
        tp += pos.test(q)
    return tp / trials, fp / trials


def test_insert_then_self_query_hits_every_array():
    f = DistanceSensitiveFilter(m=8, l_bits=6, t=1)
    codes = np.arange(8, dtype=np.uint32)
    f.insert(codes)
    assert f.count_collisions(codes) == 8
    assert f.test(codes)


def test_insert_is_bit_idempotent():
    f = DistanceSensitiveFilter(m=4, l_bits=4, t=2)
    codes = np.array([1, 2, 3, 4], dtype=np.uint32)
    f.insert(codes)
    snapshot = f.arrays.copy()
    f.insert(codes)
    assert np.array_equal(f.arrays, snapshot)


def test_disjoint_codes_do_not_collide():
    f = DistanceSensitiveFilter(m=4, l_bits=4, t=1)
    f.insert(np.array([1, 2, 3, 4], dtype=np.uint32))
    assert f.count_collisions(np.array([5, 6, 7, 8], dtype=np.uint32)) == 0


def test_fresh_filter_counts_zero():
    f = DistanceSensitiveFilter(m=6, l_bits=5, t=3)
    assert f.count_collisions(np.zeros(6, dtype=np.uint32)) == 0
    assert not f.test(np.zeros(6, dtype=np.uint32))


def test_threshold_boundary_is_inclusive():
    m, t = 8, 3
    f = DistanceSensitiveFilter(m=m, l_bits=8, t=t)
    q = np.arange(m, dtype=np.uint32)
    stored = q.copy()
    stored[t:] += 100  # shares exactly t code positions with q
    f.insert(stored)
    assert f.count_collisions(q) == t
    assert f.test(q)
    f2 = DistanceSensitiveFilter(m=m, l_bits=8, t=t)
    stored2 = q.copy()
    stored2[t - 1 :] += 100  # shares exactly t - 1
    f2.insert(stored2)
    assert f2.count_collisions(q) == t - 1
    assert not f2.test(q)


def test_counts_monotone_under_insertions():
    rng = np.random.default_rng(1)
    f = DistanceSensitiveFilter(m=16, l_bits=8, t=4)
    q = rng.integers(0, 256, 16).astype(np.uint32)
    last = 0
    for _ in range(50):
        f.insert(rng.integers(0, 256, 16).astype(np.uint32))
        now = f.count_collisions(q)
        assert now >= last
        last = now


def test_bad_inputs():
    with pytest.raises(ConfigError):
        DistanceSensitiveFilter(m=4, l_bits=4, t=0)
    with pytest.raises(ConfigError):
        DistanceSensitiveFilter(m=4, l_bits=4, t=5)
    f = DistanceSensitiveFilter(m=4, l_bits=4, t=1)
    with pytest.raises(InputError):
        f.insert(np.array([1, 2, 3], dtype=np.uint32))
    with pytest.raises(InputError):
        f.insert(np.array([1, 2, 3, 16], dtype=np.uint32))


@pytest.mark.parametrize("m, l_bits, t", [(4.7, 4, 2), (4, 3.9, 2), (4, 4, 2.5)], ids=["m", "l_bits", "t"])
def test_non_integer_sizes_rejected(m, l_bits, t):
    # unchecked, each would be truncated and the filter's t could disagree with the index's
    with pytest.raises(ConfigError, match="must be an integer"):
        DistanceSensitiveFilter(m, l_bits, t)


def test_numpy_integer_sizes_accepted():
    f = DistanceSensitiveFilter(np.int64(4), np.uint8(4), np.int32(2))
    assert (f.m, f.l_bits, f.t) == (4, 4, 2) and type(f.t) is int


@pytest.mark.parametrize(
    "method, codes",
    [
        ("insert_many", [[-1, 0, 0, 0]]),
        ("insert_many", [[0, 0, 0, 16]]),
        ("insert", [1.5, 2.0, 3.0, 4.0]),
        ("count_collisions", [1.5, 2.0, 3.0, 4.0]),
    ],
    ids=["many-negative", "many-2^l_bits", "insert-float", "count-float"],
)
def test_bad_codes_rejected(method, codes):
    # unchecked, -1 sets the last bit, 16 indexes past the array and a float is truncated
    f = DistanceSensitiveFilter(m=4, l_bits=4, t=1)
    with pytest.raises(InputError, match="codes"):
        getattr(f, method)(codes)
    assert not f.arrays.any()


def test_random_occupancy_matches_analytic_mean():
    # analytic oracle: E[count] = m * (1 - (1 - 2**-l_bits)**n)
    m, l_bits, n, trials = 32, 16, 1000, 1000
    p_bit = 1.0 - (1.0 - 2.0**-l_bits) ** n
    expect = m * p_bit
    rng = np.random.default_rng(7)
    total = 0
    for _ in range(trials):
        f = DistanceSensitiveFilter(m, l_bits, t=1)
        f.insert_many(rng.integers(0, 1 << l_bits, (n, m)).astype(np.uint32))
        total += f.count_collisions(rng.integers(0, 1 << l_bits, m).astype(np.uint32))
    mean = total / trials
    sigma = math.sqrt(m * p_bit * (1 - p_bit) / trials)
    assert abs(mean - expect) <= 3 * sigma, (mean, expect, sigma)


def test_bound_values_match_direct_evaluation():
    # oracle: direct formula evaluation with plain floats
    b = membership_error_bounds(m=8, t=4, l_bits=1, s_high=0.75, s_low=0.25, n_points=1)
    assert b.p_lower == pytest.approx(1 - math.exp(-2 * 8 * (0.75 - 0.5) ** 2))
    assert b.p_lower == pytest.approx(1 - math.exp(-1.0))
    assert b.q_upper == pytest.approx(math.exp(-2 * 8 * (0.5 - 0.25) ** 2))

    # t/m = 0.9 with n * s_low**L = 0.5 gives exp(-2.56); t may be fractional, as the planner's t is
    b = membership_error_bounds(m=8, t=7.2, l_bits=2, s_high=0.95, s_low=0.25, n_points=8)
    assert b.q_upper == pytest.approx(math.exp(-2.56), rel=1e-12)


@pytest.mark.parametrize("m, l_bits, n", [(8.5, 1, 1), (8, 1.5, 1), (8, 1, 1.5)], ids=["m", "l_bits", "n_points"])
def test_bound_non_integer_sizes_rejected(m, l_bits, n):
    # unchecked, each gave a bound for a filter that cannot exist
    with pytest.raises(InputError, match="must be an integer"):
        membership_error_bounds(m, 4, l_bits, 0.75, 0.25, n)


def test_bound_boundary_is_vacuous_not_error():
    b = membership_error_bounds(m=8, t=8, l_bits=1, s_high=1.0, s_low=0.0, n_points=10)
    assert b.p_lower == 0.0


def test_bound_window_violations_name_the_side():
    with pytest.raises(BoundInvalidError, match="true-positive"):
        membership_error_bounds(m=8, t=8, l_bits=2, s_high=0.5, s_low=0.0, n_points=1)
    with pytest.raises(BoundInvalidError, match="false-positive"):
        membership_error_bounds(m=8, t=1, l_bits=1, s_high=0.9, s_low=0.5, n_points=10)


def test_empirical_rates_respect_bounds_small():
    m, t, l_bits, s_high, s_low, n = 16, 8, 2, 0.9, 0.15, 10
    bounds = membership_error_bounds(m, t, l_bits, s_high, s_low, n)
    trials = 400
    tpr, fpr = measure_rates(m, t, l_bits, s_high, s_low, n, trials, seed=5)
    s_t = math.sqrt(max(bounds.p_lower * (1 - bounds.p_lower), 1e-9) / trials)
    s_f = math.sqrt(max(bounds.q_upper * (1 - bounds.q_upper), 1e-9) / trials)
    assert tpr >= bounds.p_lower - 3 * s_t
    assert fpr <= bounds.q_upper + 3 * s_f


def test_report_monotone_in_threshold():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 64, (40, 12)).astype(np.uint32)
    q = rng.integers(0, 64, 12).astype(np.uint32)
    results = []
    for t in range(1, 13):
        f = DistanceSensitiveFilter(m=12, l_bits=6, t=t)
        f.insert_many(codes)
        results.append(f.test(q))
    assert all(a >= b for a, b in zip(results, results[1:]))
