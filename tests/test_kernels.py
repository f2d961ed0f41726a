"""Backend parity: the numba kernels and the numpy fallbacks must agree bit-for-bit."""

import numpy as np
import pytest

from flinng import _kernels
from flinng._prng import key_stream
from tests.conftest import random_token_points, small_index

pytestmark = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


def _ragged(points):
    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    for i, p in enumerate(points):
        offsets[i + 1] = offsets[i] + len(p)
    return np.concatenate(points).astype(np.uint64), offsets


def test_minhash_codes_parity():
    points = random_token_points(60, 30, seed=11)
    flat, offsets = _ragged(points)
    for l_bits in (1, 8, 16):
        keys = key_stream(99, 12 * l_bits)
        a = _kernels.nb_minhash_codes(flat, offsets, keys, l_bits)
        b = _kernels.np_minhash_codes(flat, offsets, keys, l_bits)
        assert np.array_equal(a, b)


def test_minhash_codes_parity_tiny_slab(monkeypatch):
    # force the fallback to take many slab iterations
    monkeypatch.setattr(_kernels, "_SLAB_BUDGET", 64)
    points = random_token_points(40, 25, seed=5)
    flat, offsets = _ragged(points)
    keys = key_stream(7, 4 * 6)
    assert np.array_equal(
        _kernels.np_minhash_codes(flat, offsets, keys, 6),
        _kernels.nb_minhash_codes(flat, offsets, keys, 6),
    )


def test_gather_and_emit_parity():
    points, idx = small_index(n=80, B=10, R=3, m=12, l_bits=8, seed=2)
    table_size = 1 << idx.config.hash_spec.l_bits
    total = idx.config.total_cells
    rng = np.random.default_rng(0)
    for trial in range(20):
        codes = rng.integers(0, table_size, idx.config.hash_spec.m).astype(np.uint32)
        counts_a = np.zeros(total, np.int32)
        counts_b = np.zeros(total, np.int32)
        touched_a = np.empty(total, np.int64)
        touched_b = np.empty(total, np.int64)
        na = _kernels.nb_gather_counts(
            idx.table_offsets, idx.table_payload, codes, table_size, counts_a, touched_a
        )
        nb = _kernels.np_gather_counts(
            idx.table_offsets, idx.table_payload, codes, table_size, counts_b, touched_b
        )
        assert na == nb
        assert np.array_equal(counts_a, counts_b)
        assert set(touched_a[:na]) == set(touched_b[:nb])

        for k in (1, 3, 80):
            ids_a = np.empty(min(k, 80), np.int64)
            cnt_a = np.empty(min(k, 80), np.int32)
            ids_b = np.empty(min(k, 80), np.int64)
            cnt_b = np.empty(min(k, 80), np.int32)
            pc = np.zeros(80, np.uint8)
            ca = counts_a.copy()
            ta = touched_a.copy()
            ea = _kernels.nb_emit_topk(
                ta, na, ca, idx.cell_offsets, idx.cell_members, 3, min(k, 80), 12, pc, ids_a, cnt_a
            )
            assert not ca.any() and not pc.any()  # touched-list reset left no residue
            cb = counts_b.copy()
            tb = touched_b.copy()
            eb = _kernels.np_emit_topk(
                tb, nb, cb, idx.cell_offsets, idx.cell_members, 3, min(k, 80), 12, None, ids_b, cnt_b
            )
            assert not cb.any()
            assert ea == eb
            assert np.array_equal(ids_a[:ea], ids_b[:eb])
            assert np.array_equal(cnt_a[:ea], cnt_b[:eb])

