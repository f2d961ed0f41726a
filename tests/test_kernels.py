"""The hash kernels and the query path against plain per-point and per-cell references."""

from collections import Counter

import numpy as np
import pytest

from flinng import lsh
from flinng._prng import key_stream, mix64
from flinng.errors import InputError
from flinng.index import FlinngConfig, FlinngIndex
from flinng.index import _ragged as _ragged_gather
from tests.conftest import random_token_points, small_index


def _ragged(points):
    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    for i, p in enumerate(points):
        offsets[i + 1] = offsets[i] + len(p)
    return np.concatenate(points).astype(np.uint64), offsets


@pytest.mark.parametrize("l_bits", [1, 6, 16])
def test_minhash_codes_match_per_point_reference(monkeypatch, l_bits):
    # bit j of code i is the parity of min over tokens of mix64(token ^ key)
    monkeypatch.setattr(lsh, "_SLAB_BUDGET", 64)  # many slabs
    points = random_token_points(40, 25, seed=5)
    flat, offsets = _ragged(points)
    m = 4
    keys = key_stream(7, m * l_bits)
    expect = [
        [sum(int(mix64(p ^ keys[i * l_bits + j]).min() & 1) << j for j in range(l_bits)) for i in range(m)]
        for p in points
    ]
    assert lsh.minhash_codes(flat, offsets, keys, l_bits).tolist() == expect


def test_dense_codes_match_whole_matrix_reference(monkeypatch):
    # bit j of code i is the sign of the projection on direction i * l_bits + j
    monkeypatch.setattr(lsh, "_SLAB_BUDGET", 64)  # slabs of 4 rows, the last one short
    m, l_bits = 4, 4
    fam = lsh.build_family(lsh.HashFamilySpec("srp", m=m, l_bits=l_bits, seed=3, dim=8))
    mat = np.random.default_rng(2).standard_normal((30, 8)).astype(np.float32)
    bits = mat.astype(np.float64) @ fam.directions.T >= 0
    expect = [
        [sum(int(bits[p, i * l_bits + j]) << j for j in range(l_bits)) for i in range(m)]
        for p in range(30)
    ]
    assert lsh.hash_dense_many(fam, mat).tolist() == expect
    mat[9] = 0  # third slab: the error names the row, not its slab position
    with pytest.raises(InputError, match="point 9 is a zero vector"):
        lsh.hash_dense_many(fam, mat)


def test_ragged_over_uint32_offsets_matches_plain_concatenation():
    rng = np.random.default_rng(4)
    sizes = rng.integers(0, 5, 40)
    offsets = np.zeros(41, dtype=np.uint32)
    np.cumsum(sizes, out=offsets[1:])
    values = rng.integers(0, 1000, int(offsets[-1])).astype(np.uint16)
    rows = np.array([31, 2, 2, 17, 0, 39, 5, 30])  # non-ascending, with a repeat
    expect = [v for r in rows.tolist() for v in values[offsets[r] : offsets[r + 1]].tolist()]
    got = _ragged_gather(values, offsets[rows], offsets[rows + 1])
    assert got.tolist() == expect
    assert got.dtype == values.dtype


def test_build_of_one_shared_code_keeps_one_entry_per_cell_and_table():
    # every point has the same codes: each table has one bucket, holding every cell once, so the
    # dedup leaves m * B * R payload entries of the R * n * m pairs, in an array the index owns
    B, R, m = 5, 3, 6
    codes = np.tile(np.arange(m, dtype=np.uint32), (40, 1))
    spec = lsh.HashFamilySpec("minhash", m=m, l_bits=4, seed=1)
    idx = FlinngIndex.from_codes(codes, FlinngConfig(B, R, spec, "jaccard"))
    assert idx.table_payload.shape == (m * B * R,)
    assert idx.table_payload.flags.owndata and idx.table_payload.base is None
    assert idx.table_payload.tolist() == list(range(B * R)) * m
    assert FlinngIndex.from_bytes(idx.to_bytes()).to_bytes() == idx.to_bytes()


def _reference_counts(idx, codes):
    table_size = 1 << idx.config.hash_spec.l_bits
    counts = np.zeros(idx.config.total_cells, dtype=np.int64)
    for i, code in enumerate(codes):
        b = i * table_size + int(code)
        for cell in idx.table_payload[idx.table_offsets[b] : idx.table_offsets[b + 1]]:
            counts[cell] += 1
    return counts


def _reference_emission(idx, counts, k):
    """Walk non-zero cells by descending count, ties by ascending id; emit at the R-th sighting."""
    order = sorted(np.flatnonzero(counts).tolist(), key=lambda c: (-counts[c], c))
    seen = Counter()
    ids, at = [], []
    for cell in order:
        for p in idx.members_of(cell).tolist():
            seen[p] += 1
            if seen[p] == idx.config.repetitions:
                ids.append(p)
                at.append(int(counts[cell]))
                if len(ids) == k:
                    return ids, at
    return ids, at


@pytest.mark.parametrize("R", [1, 2, 3])
def test_gather_and_emit_match_plain_references(R):
    rng = np.random.default_rng(0)
    for l_bits in (8, 2):  # a 2-bit alphabet fires most cells, with frequent count ties
        points, idx = small_index(n=80, B=10, R=R, m=12, l_bits=l_bits, seed=2)
        # random codes fire few cells; the points' own codes fire many
        fixtures = [rng.integers(0, 1 << l_bits, 12).astype(np.uint32) for _ in range(10)]
        fixtures += [idx.hash_query(p) for p in points[:10]]
        for codes in fixtures:
            counts = _reference_counts(idx, codes)
            assert np.array_equal(idx.cell_counts(codes), counts)
            for k in (1, 3, idx.n_points):
                ids = idx.query_topk_codes(codes, k)
                at = idx.cell_counts(codes)[idx.point_cells[:, ids]].min(0)
                assert (ids.tolist(), at.tolist()) == _reference_emission(idx, counts, k)
