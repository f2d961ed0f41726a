"""Hot inner loops: numba-compiled kernels with pure-numpy fallbacks.

numba is used when importable and numpy otherwise. Both backends compute
identical integer math, so indexes and query results are bit-for-bit the
same either way; only speed differs.

Kernels (same calling convention in both backends):

  minhash_codes(flat_tokens, offsets, keys, l_bits) -> (n, m) uint32 codes
  gather_counts(table_offsets, payload, codes, table_size, counts, touched)
      accumulate per-cell collision counts for one query; returns the number
      of touched cells and leaves counts[touched[:n]] populated
  emit_topk(...)
      threshold-relaxation emission over cells ordered by descending count;
      resets every scratch slot it touched before returning
"""

import numpy as np

from ._prng import mix64

try:
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


def set_build_threads(n):
    """Cap the numba thread pool used by the parallel build kernel (no-op on numpy)."""
    if HAVE_NUMBA:
        numba.set_num_threads(max(1, int(n)))


# ---------------------------------------------------------------------------
# pure-numpy fallbacks (always defined; also serve as the parity reference)

# u64 elements allowed per intermediate slab in the fallback hash kernel
_SLAB_BUDGET = 1 << 23


def np_minhash_codes(flat_tokens, offsets, keys, l_bits):
    n = offsets.shape[0] - 1
    m = keys.shape[0] // l_bits
    out = np.empty((n, m), dtype=np.uint32)
    shifts = np.arange(l_bits, dtype=np.uint32)
    one = np.uint64(1)
    max_tokens = max(1, _SLAB_BUDGET // l_bits)
    start = 0
    while start < n:
        # grow the point slab until its token span hits the budget
        stop = int(np.searchsorted(offsets, offsets[start] + max_tokens, side="right")) - 1
        stop = min(n, max(stop, start + 1))
        toks = flat_tokens[offsets[start] : offsets[stop]]
        local = offsets[start : stop + 1] - offsets[start]
        for i in range(m):
            mixed = mix64(toks[:, None] ^ keys[i * l_bits : (i + 1) * l_bits][None, :])
            mins = np.minimum.reduceat(mixed, local[:-1], axis=0)
            bits = (mins & one).astype(np.uint32)
            out[start:stop, i] = np.bitwise_or.reduce(bits << shifts, axis=1)
        start = stop
    return out


def np_gather_counts(table_offsets, payload, codes, table_size, counts, touched):
    m = codes.shape[0]
    buckets = np.arange(m, dtype=np.int64) * table_size + codes.astype(np.int64)
    hits = [payload[table_offsets[b] : table_offsets[b + 1]] for b in buckets]
    flat = np.concatenate(hits) if hits else np.empty(0, np.int64)
    if flat.size == 0:
        return 0
    binc = np.bincount(flat.astype(np.int64), minlength=counts.shape[0])
    cells = np.flatnonzero(binc)
    counts[cells] = binc[cells]
    touched[: cells.size] = cells
    return cells.size


def _np_cell_order(touched, n_touched, counts):
    # descending count, ascending cell id within equal counts
    cells = np.sort(touched[:n_touched])
    return cells[np.argsort(-counts[cells], kind="stable")]


def np_emit_topk(
    touched, n_touched, counts, cell_offsets, cell_members, reps, k, m, _scratch, out_ids, out_counts
):
    order = _np_cell_order(touched, n_touched, counts)
    if order.size == 0:
        counts[touched[:n_touched]] = 0
        return 0
    spans = [np.arange(cell_offsets[c], cell_offsets[c + 1]) for c in order]
    stream = cell_members[np.concatenate(spans)].astype(np.int64)
    pos = np.argsort(stream, kind="stable")
    vals = stream[pos]
    group_start = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    group_len = np.diff(np.r_[group_start, vals.size])
    full = group_len >= reps
    # a point is emitted at the stream position of its reps-th appearance
    emit_pos = pos[group_start[full] + reps - 1]
    ids = vals[group_start[full]]
    first = np.argsort(emit_pos, kind="stable")[: min(k, ids.size)]
    ids = ids[first]
    emit_pos = emit_pos[first]
    cum = np.cumsum(cell_offsets[order + 1] - cell_offsets[order])
    emitted_in = order[np.searchsorted(cum, emit_pos, side="right")]
    out_ids[: ids.size] = ids
    out_counts[: ids.size] = counts[emitted_in]
    counts[touched[:n_touched]] = 0
    return ids.size


# ---------------------------------------------------------------------------
# numba kernels

if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def nb_minhash_codes(flat_tokens, offsets, keys, l_bits):
        n = offsets.shape[0] - 1
        m = keys.shape[0] // l_bits
        out = np.empty((n, m), dtype=np.uint32)
        for p in prange(n):
            a = offsets[p]
            b = offsets[p + 1]
            for i in range(m):
                code = np.uint32(0)
                for j in range(l_bits):
                    key = keys[i * l_bits + j]
                    mn = np.uint64(0xFFFFFFFFFFFFFFFF)
                    for ti in range(a, b):
                        z = flat_tokens[ti] ^ key
                        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
                        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
                        z = z ^ (z >> np.uint64(31))
                        if z < mn:
                            mn = z
                    code |= np.uint32(mn & np.uint64(1)) << np.uint32(j)
                out[p, i] = code
        return out

    @njit(cache=True)
    def nb_gather_counts(table_offsets, payload, codes, table_size, counts, touched):
        m = codes.shape[0]
        n_touched = 0
        for i in range(m):
            bucket = i * table_size + np.int64(codes[i])
            for idx in range(table_offsets[bucket], table_offsets[bucket + 1]):
                cell = np.int64(payload[idx])
                if counts[cell] == 0:
                    touched[n_touched] = cell
                    n_touched += 1
                counts[cell] += 1
        return n_touched

    @njit(cache=True)
    def _nb_cell_order(touched, n_touched, counts, m):
        cells = np.sort(touched[:n_touched])
        hist = np.zeros(m + 2, np.int64)
        for ii in range(cells.shape[0]):
            hist[counts[cells[ii]]] += 1
        starts = np.zeros(m + 2, np.int64)
        acc = 0
        for c in range(m, 0, -1):
            starts[c] = acc
            acc += hist[c]
        order = np.empty(cells.shape[0], np.int64)
        for ii in range(cells.shape[0]):
            c = counts[cells[ii]]
            order[starts[c]] = cells[ii]
            starts[c] += 1
        return order

    @njit(cache=True)
    def nb_emit_topk(
        touched, n_touched, counts, cell_offsets, cell_members, reps, k, m, point_counts, out_ids, out_counts
    ):
        order = _nb_cell_order(touched, n_touched, counts, m)
        emitted = 0
        processed = 0
        done = False
        for oi in range(order.shape[0]):
            cell = order[oi]
            cnt = counts[cell]
            for mi in range(cell_offsets[cell], cell_offsets[cell + 1]):
                p = np.int64(cell_members[mi])
                pc = point_counts[p] + np.uint8(1)
                point_counts[p] = pc
                if pc == reps:
                    out_ids[emitted] = p
                    out_counts[emitted] = cnt
                    emitted += 1
                    if emitted == k:
                        done = True
                        break
            processed = oi + 1
            if done:
                break
        for oi in range(processed):
            cell = order[oi]
            for mi in range(cell_offsets[cell], cell_offsets[cell + 1]):
                point_counts[np.int64(cell_members[mi])] = np.uint8(0)
        for ii in range(n_touched):
            counts[touched[ii]] = 0
        return emitted

    minhash_codes = nb_minhash_codes
    gather_counts = nb_gather_counts
    emit_topk = nb_emit_topk
else:
    minhash_codes = np_minhash_codes
    gather_counts = np_gather_counts
    emit_topk = np_emit_topk
