import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flinng import oracle
from flinng.errors import InputError
from tests.conftest import random_token_points


def quadratic_topk(points, query, k, metric):
    """Independent reimplementation: plain double loop plus a full sort."""
    sims = []
    for p in points:
        sims.append(oracle.jaccard(query, p) if metric == "jaccard" else oracle.cosine(query, p))
    order = sorted(range(len(points)), key=lambda i: (-sims[i], i))[:k]
    return order, [sims[i] for i in order]


def test_jaccard_known_values():
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([2, 3, 4], dtype=np.uint64)
    assert oracle.jaccard(a, a) == 1.0
    assert oracle.jaccard(a, np.array([7, 8], dtype=np.uint64)) == 0.0
    assert oracle.jaccard(a, b) == 0.5


def test_jaccard_rejects_empty():
    with pytest.raises(InputError):
        oracle.jaccard(np.empty(0, np.uint64), np.array([1], dtype=np.uint64))


@pytest.mark.parametrize("tokens", [[1.5, 2.0], [-1, 2], np.array([-1, 2])],
                         ids=["float", "negative-list", "negative-array"])
def test_bad_tokens_rejected(tokens):
    # unchecked, 1.5 is truncated to 1 and -1 wraps to 2**64 - 1
    good = np.array([1, 2], dtype=np.uint64)
    with pytest.raises(InputError):
        oracle.jaccard(tokens, good)
    with pytest.raises(InputError):
        oracle.jaccard(good, tokens)
    with pytest.raises(InputError):
        oracle.exact_topk_batch([good, tokens], [good], 1, "jaccard")
    with pytest.raises(InputError):
        oracle.exact_topk_batch([good], [tokens], 1, "jaccard")


def test_cosine_known_values():
    assert oracle.cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert oracle.cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert oracle.cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2))


def test_cosine_errors():
    with pytest.raises(InputError):
        oracle.cosine([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(InputError):
        oracle.cosine([0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("x", [[math.nan, 1.0], ["1", "2"]], ids=["nan", "strings"])
def test_cosine_rejects_non_numbers(x):
    # unchecked, the nan pair scores nan and the strings parse as floats
    with pytest.raises(InputError, match="vector entries"):
        oracle.cosine(x, [1.0, 1.0])
    with pytest.raises(InputError, match="vector entries"):
        oracle.cosine([1.0, 1.0], x)
    with pytest.raises(InputError, match="vector entries"):
        oracle.exact_topk_batch([[1.0, 1.0], x], [[1.0, 1.0]], 1, "cosine")
    with pytest.raises(InputError, match="vector entries"):
        oracle.exact_topk_batch([[1.0, 1.0]], [x], 1, "cosine")


def test_exact_topk_self_query(token_corpus_50=None):
    points = random_token_points(20, 15, seed=2)
    ids, sims = oracle.exact_topk(points, points[5], k=3, metric="jaccard")
    assert ids[0] == 5
    assert sims[0] == 1.0


def test_exact_topk_full_ordering_is_total():
    points = random_token_points(30, 12, seed=4)
    ids, sims = oracle.exact_topk(points, points[0], k=30, metric="jaccard")
    assert sorted(ids.tolist()) == list(range(30))
    assert (np.diff(sims) <= 0).all()


def test_exact_topk_matches_quadratic_reimplementation():
    points = random_token_points(100, 20, seed=9, universe=2000)  # small universe: real overlaps
    for qi in range(0, 100, 7):
        ids, sims = oracle.exact_topk(points, points[qi], k=10, metric="jaccard")
        ref_ids, ref_sims = quadratic_topk(points, points[qi], 10, "jaccard")
        assert ids.tolist() == ref_ids
        assert np.allclose(sims, ref_sims)


def test_exact_topk_cosine_matches_quadratic():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((60, 8))
    for qi in range(0, 60, 11):
        ids, sims = oracle.exact_topk(points, points[qi], k=5, metric="cosine")
        ref_ids, ref_sims = quadratic_topk(list(points), points[qi], 5, "cosine")
        assert ids.tolist() == ref_ids
        assert np.allclose(sims, ref_sims)


def test_exact_topk_tie_break_ascending_id():
    points = [np.array([1, 2], dtype=np.uint64) for _ in range(5)]
    ids, sims = oracle.exact_topk(points, points[0], k=5, metric="jaccard")
    assert ids.tolist() == [0, 1, 2, 3, 4]
    assert (sims == 1.0).all()


def test_evaluate_perfect_and_empty():
    truth = [(np.array([3, 1, 2]), np.array([0.9, 0.5, 0.4]))]
    perfect = oracle.evaluate([[3, 1, 2]], truth, [1, 3])
    assert perfect.recall_at_k == {1: 1.0, 3: 1.0}
    assert perfect.precision_at[3] == 1.0
    assert perfect.recall_at[3] == 1.0
    empty = oracle.evaluate([[]], truth, [1, 3])
    assert empty.recall_at_k == {1: 0.0, 3: 0.0}
    assert empty.precision_at[3] == 0.0


def test_evaluate_half_hit():
    truth = [
        (np.array([0]), np.array([1.0])),
        (np.array([1]), np.array([1.0])),
    ]
    results = [[0, 5, 6], [7, 8, 9]]
    rep = oracle.evaluate(results, truth, [3])
    assert rep.recall_at_k[3] == 0.5


def test_evaluate_recall_monotone_in_k():
    rng = np.random.default_rng(8)
    truth = [(np.array([int(rng.integers(10))]), np.array([1.0])) for _ in range(40)]
    results = [rng.permutation(10).tolist() for _ in range(40)]
    rep = oracle.evaluate(results, truth, [1, 2, 5, 10])
    values = [rep.recall_at_k[k] for k in (1, 2, 5, 10)]
    assert values == sorted(values)
    assert rep.recall_at_k[10] == 1.0


def test_evaluate_misaligned_raises():
    with pytest.raises(InputError):
        oracle.evaluate([[1]], [], [1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=20),
    st.lists(st.integers(0, 50), min_size=1, max_size=20),
)
def test_jaccard_symmetric_bounded(xs, ys):
    x = np.unique(np.asarray(xs, dtype=np.uint64))
    y = np.unique(np.asarray(ys, dtype=np.uint64))
    j = oracle.jaccard(x, y)
    assert 0.0 <= j <= 1.0
    assert j == oracle.jaccard(y, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32))
def test_cosine_symmetric_bounded(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    c = oracle.cosine(x, y)
    assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
    assert c == pytest.approx(oracle.cosine(y, x))


def test_ground_truth_file_roundtrip(tmp_path):
    points = random_token_points(12, 8, seed=1)
    rows = oracle.exact_topk_batch(points, points[:4], k=5, metric="jaccard")
    path = tmp_path / "truth.txt"
    oracle.write_ground_truth(path, rows)
    back = oracle.read_ground_truth(path)
    assert len(back) == 4
    for (ids_a, sims_a), (ids_b, sims_b) in zip(rows, back):
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(sims_a, sims_b)  # 17 significant digits round-trip exactly


def test_ground_truth_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3:0.5 nonsense\n")
    with pytest.raises(InputError, match="field 2"):
        oracle.read_ground_truth(bad)
