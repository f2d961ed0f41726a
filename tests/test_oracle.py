import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


@pytest.mark.parametrize("row", [[0.7], np.array([0.7]), [-1], ["0"]], ids=["float-list", "float-array",
                                                                            "negative", "string"])
def test_evaluate_rejects_non_integer_ids(row):
    # a float id of 0.7 was truncated to 0 and counted as a hit
    with pytest.raises(InputError):
        oracle.evaluate([row], [(np.array([0]), np.array([1.0]))], [1])


@pytest.mark.parametrize("k", [-1, 0, 2.5], ids=["negative", "zero", "float"])
def test_cutoffs_must_be_positive_integers(k):
    # unchecked, evaluate scored k = -1 on all but the last id, and k = 2.5 raised numpy's TypeError
    truth = [(np.array([0, 1, 2]), np.array([1.0, 0.5, 0.25]))]
    with pytest.raises(InputError, match="k must be"):
        oracle.evaluate([[0, 1, 2]], truth, [1, k])
    with pytest.raises(InputError, match="k must be"):
        oracle.exact_topk_batch([[1, 2], [2, 3], [3, 4]], [[1, 2]], k, "jaccard")
    with pytest.raises(InputError, match="k must be"):
        oracle.exact_topk_batch([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], k, "cosine")


@pytest.mark.parametrize("metric", ["jaccard", "cosine"])
def test_exact_topk_on_empty_corpus_rejected(metric):
    query = [1, 2, 3] if metric == "jaccard" else [1.0, 2.0]
    with pytest.raises(InputError, match="empty corpus"):
        oracle.exact_topk_batch([], [query], 1, metric)


@pytest.mark.parametrize(
    "points, query, message",
    [
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "2-d matrix"),
        (np.eye(3), [1.0, 2.0, 3.0, 4.0], "query 0: shape"),
        (np.eye(3), np.ones((3, 2)), "query 0: shape"),
    ],
    ids=["1-d-corpus", "longer-query", "2-d-query"],
)
def test_cosine_topk_checks_shapes(points, query, message):
    # unchecked, these raised numpy's AxisError, a bare ValueError from the product, and a broadcast error
    with pytest.raises(InputError, match=message):
        oracle.exact_topk_batch(points, [query], 1, "cosine")


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


def test_ground_truth_empty_file_is_zero_rows(tmp_path):
    path = tmp_path / "truth.txt"
    oracle.write_ground_truth(path, [])
    assert path.read_bytes() == b""
    assert oracle.read_ground_truth(path) == []


@pytest.mark.parametrize(
    "row",
    [([2.7], [0.5]), ([1, 2], [0.5]), ([], []), ([-1], [0.5]), ([2**63], [0.5]), ([1], ["0.5"]), ([1], [[0.5]])],
    ids=["float-id", "unequal-lengths", "no-pair", "negative-id", "past-int64", "string-similarity",
         "2-d-similarities"],
)
def test_write_ground_truth_refuses_rows_that_would_not_read_back(tmp_path, row):
    # unchecked, 2.7 was written as 2, zip dropped id 2, and a row without a pair was a blank line
    path = tmp_path / "truth.txt"
    with pytest.raises(InputError, match="row 1"):
        oracle.write_ground_truth(path, [([0], [1.0]), row])
    assert not path.exists()


@pytest.mark.parametrize("text", ["-1:0.5\n", f"{2**63}:0.5\n"], ids=["negative-id", "past-int64"])
def test_read_ground_truth_rejects_ids_out_of_range(tmp_path, text):
    # unchecked, -1 was read as an id and 2**63 raised OverflowError
    path = tmp_path / "truth.txt"
    path.write_text(text)
    with pytest.raises(InputError, match=":1: field 1"):
        oracle.read_ground_truth(path)


@pytest.mark.parametrize("text", ["0:1.0\n1_0:0.5\n", "0:1.0\n+5:0.5\n", "0:1.0\n\u0661:0.5\n"],
                         ids=["underscore", "plus-sign", "arabic-indic-digit"])
def test_read_ground_truth_takes_ascii_digit_ids_only(tmp_path, text):
    # int() read "1_0" as 10, "+5" as 5 and the Arabic-Indic one as 1
    path = tmp_path / "truth.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=":2: field 1"):
        oracle.read_ground_truth(path)


@pytest.mark.parametrize("text", ["0:1.0 1:1_0\n", "0:1.0 1:\u0661\n"], ids=["underscore", "arabic-indic-digit"])
def test_read_ground_truth_takes_written_similarities_only(tmp_path, text):
    # float() read "1_0" as 10.0 and the Arabic-Indic one as 1.0
    path = tmp_path / "truth.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=":1: field 2"):
        oracle.read_ground_truth(path)


@pytest.mark.parametrize("text", [" 0.5", "0.5 ", "+0.5", "1_0", "\u0661", ".5", "1E5", "-nan", "Infinity", ""])
def test_similarity_parse_rejects_forms_write_never_writes(text):
    # a field of a line cannot hold whitespace, so the spaced forms are checked on the parse itself
    with pytest.raises(ValueError):
        oracle._similarity(text)


_truth_row = st.integers(1, 6).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(0, 2**63 - 1)),
    hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False)),
))


@settings(max_examples=60, deadline=None)
@given(st.lists(_truth_row, max_size=5))
def test_ground_truth_files_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("truth") / "truth.txt"
    oracle.write_ground_truth(path, rows)
    back = oracle.read_ground_truth(path)
    assert len(back) == len(rows)
    for (ids_a, sims_a), (ids_b, sims_b) in zip(rows, back):
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(sims_a.view(np.uint64), sims_b.view(np.uint64))  # 17 significant digits, -0.0 kept
