"""The numpy kernels against plain per-point and per-cell references."""

from collections import Counter

import numpy as np
import pytest

from flinng import _kernels
from flinng._prng import key_stream, mix64
from flinng.index import QueryScratch
from tests.conftest import random_token_points, small_index


def _ragged(points):
    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    for i, p in enumerate(points):
        offsets[i + 1] = offsets[i] + len(p)
    return np.concatenate(points).astype(np.uint64), offsets


@pytest.mark.parametrize("l_bits", [1, 6, 16])
def test_minhash_codes_match_per_point_reference(monkeypatch, l_bits):
    # bit j of code i is the parity of min over tokens of mix64(token ^ key)
    monkeypatch.setattr(_kernels, "_SLAB_BUDGET", 64)  # many slabs
    points = random_token_points(40, 25, seed=5)
    flat, offsets = _ragged(points)
    m = 4
    keys = key_stream(7, m * l_bits)
    expect = [
        [sum(int(mix64(p ^ keys[i * l_bits + j]).min() & 1) << j for j in range(l_bits)) for i in range(m)]
        for p in points
    ]
    assert _kernels.minhash_codes(flat, offsets, keys, l_bits).tolist() == expect


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
        scratch = QueryScratch(idx)
        for codes in fixtures:
            counts = _reference_counts(idx, codes)
            assert np.array_equal(idx.cell_counts(codes, scratch), counts)
            scratch.assert_clean()
            for k in (1, 3, idx.n_points):
                ids, at = idx.query_topk_codes_trace(codes, k, scratch)
                scratch.assert_clean()
                assert (ids.tolist(), at.tolist()) == _reference_emission(idx, counts, k)
