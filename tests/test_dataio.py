import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flinng import dataio, oracle
from flinng.errors import ConfigError, FlinngError, FormatError, InputError


def test_load_tokens_basic(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("1 2 3\n4 5\n")
    pts = dataio.load_tokens(f)
    assert [p.tolist() for p in pts] == [[1, 2, 3], [4, 5]]


def test_load_tokens_collapses_duplicates(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("1 1 2\n")
    assert dataio.load_tokens(f)[0].tolist() == [1, 2]


def test_load_tokens_roundtrip_large(tmp_path):
    rng = np.random.default_rng(0)
    points = [np.unique(rng.integers(0, 2**63, 20).astype(np.uint64)) for _ in range(10_000)]
    f = tmp_path / "big.txt"
    dataio.save_tokens(f, points)
    back = dataio.load_tokens(f)
    assert len(back) == len(points)
    assert all(np.array_equal(a, b) for a, b in zip(points, back))


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("1 2\n\n3\n", ":2:"),  # blank line, numbered
        ("1 -4\n", "negative"),
        (f"{2**64}\n", "overflows"),
        ("1 apple\n", "column 2"),
        ("", "empty"),
    ],
)
def test_load_tokens_positioned_errors(tmp_path, content, fragment):
    f = tmp_path / "bad.txt"
    f.write_text(content)
    with pytest.raises(InputError, match=fragment):
        dataio.load_tokens(f)


@pytest.mark.parametrize(
    "content",
    ["1\x0c2\n3\n", "1 2\r\n3\r\n", "1\r2\n3", "1\u20282\n3\n"],
    ids=["form-feed", "crlf", "lone-cr", "line-separator"],
)
def test_load_tokens_ends_lines_at_newline_only(tmp_path, content):
    # every other line-break character is whitespace inside a line, so ids follow "\n" lines
    f = tmp_path / "pts.txt"
    f.write_bytes(content.encode("utf-8"))
    assert [p.tolist() for p in dataio.load_tokens(f)] == [[1, 2], [3]]


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=400))
def test_token_parser_is_total(tmp_path_factory, data):
    f = tmp_path_factory.mktemp("fuzz") / "blob"
    f.write_bytes(data)
    try:
        pts = dataio.load_tokens(f)
        assert all(p.dtype == np.uint64 for p in pts)
    except FlinngError:
        pass


def test_dense_roundtrip_single(tmp_path):
    f = tmp_path / "one.dense"
    dataio.save_dense(f, np.array([[1.0, 2.0]], dtype=np.float32))
    mat = dataio.load_dense(f)
    assert mat.shape == (1, 2)
    assert mat.tolist() == [[1.0, 2.0]]


def test_dense_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((1000, 17)).astype(np.float32)
    f = tmp_path / "big.dense"
    dataio.save_dense(f, mat)
    back = dataio.load_dense(f)
    assert back.dtype == np.float32 and back.flags.writeable
    assert np.array_equal(back.view(np.uint32), mat.view(np.uint32))


def test_dense_file_bytes_are_the_documented_records(tmp_path):
    f = tmp_path / "golden.dense"
    dataio.save_dense(f, np.array([[1.0, -2.5, 3.0], [0.0, 4.0, 1e-3]]))
    assert f.read_bytes() == struct.pack("<i3f", 3, 1.0, -2.5, 3.0) + struct.pack("<i3f", 3, 0.0, 4.0, 1e-3)


@pytest.mark.parametrize(
    "blob, message",
    [
        (struct.pack("<i2f", 2, 1.0, 2.0) + struct.pack("<i3f", 3, 1.0, 2.0, 3.0), "record 1: dimension 3 != 2"),
        (struct.pack("<i2f", 2, 1.0, 2.0)[:-3], "record 0: truncated"),
        (struct.pack("<i2f", 2, 1.0, float("nan")), "record 0: non-finite"),
        (struct.pack("<i2f", 2, float("nan"), 1.0) + struct.pack("<i3f", 3, 1.0, 2.0, 3.0),
         "record 0: non-finite"),
        (struct.pack("<i2f", 2, 1.0, 2.0) + b"\x02\x00", "record 1: truncated"),
        (struct.pack("<i2f", 2, 1.0, 2.0) + struct.pack("<i2f", -2, 1.0, 2.0), "record 1: dimension -2 != 2"),
        (struct.pack("<ii", 2**31 - 1, 0), "record 0: truncated"),
    ],
    ids=["dim-mismatch", "truncated-payload", "non-finite", "earliest-bad-record", "short-tail", "negative-dim",
         "huge-header-dim"],
)
def test_dense_first_bad_record_named(tmp_path, blob, message):
    f = tmp_path / "bad.dense"
    f.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=message):
            dataio.load_dense(f)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20  # nothing sized from the header
    finally:
        tracemalloc.stop()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_dense_parser_is_total(tmp_path_factory, data):
    f = tmp_path_factory.mktemp("fuzz") / "blob"
    f.write_bytes(data)
    try:
        dataio.load_dense(f)
    except FlinngError:
        pass


# -- synthetic fixtures --------------------------------------------------------


def spec(**kw):
    base = dict(
        n_points=40, universe=10**7, tokens_per_point=100, n_queries=8, s_high=0.8, seed=1
    )
    base.update(kw)
    return dataio.SyntheticSpec(**base)


def test_synthetic_exact_copy_when_s_high_one():
    points, queries, truth = dataio.generate_synthetic(spec(s_high=1.0))
    for q, (ids, sims) in zip(queries, truth):
        assert sims[0] == 1.0
        assert np.array_equal(q, points[ids[0]])


def test_synthetic_planted_similarity_in_band():
    points, queries, truth = dataio.generate_synthetic(spec())
    for q, (ids, sims) in zip(queries, truth):
        measured = oracle.jaccard(q, points[ids[0]])
        assert 0.72 <= measured <= 0.88
        assert measured == sims[0]


def test_synthetic_background_similarity_exactly_zero():
    points, queries, truth = dataio.generate_synthetic(spec(n_points=10, n_queries=3))
    for q, (ids, sims) in zip(queries, truth):
        for i, p in enumerate(points):
            j = oracle.jaccard(q, p)
            assert j == (sims[0] if i == ids[0] else 0.0)


def test_synthetic_truth_names_planted_source():
    points, queries, truth = dataio.generate_synthetic(spec(n_queries=40, n_points=40))
    sources = {int(ids[0]) for ids, _ in truth}
    assert len(sources) == 40  # distinct planted points, each the true top-1


def test_synthetic_infeasible_precision():
    with pytest.raises(ConfigError, match="too small to realize"):
        dataio.generate_synthetic(spec(tokens_per_point=3, s_high=0.85))


def test_synthetic_universe_too_small():
    with pytest.raises(ConfigError, match="universe"):
        dataio.generate_synthetic(spec(universe=100))


def test_synthetic_invalid_band():
    with pytest.raises(ConfigError):
        dataio.generate_synthetic(spec(s_high=0.0))
