"""Hot inner loops, one numpy kernel per stage.

All kernels are integer math, so indexes and query results are bit-for-bit
reproducible.

  minhash_codes(flat_tokens, offsets, keys, l_bits) -> (n, m) uint32 codes
  gather_counts(table_offsets, payload, codes, table_size, counts, touched)
      accumulate per-cell collision counts for one query; returns the number
      of touched cells and leaves counts[touched[:n]] populated
  emit_topk(touched, counts, cell_offsets, cell_members, reps, k) -> (ids, counts)
      threshold-relaxation emission over cells ordered by descending count;
      resets every count slot it touched before returning
"""

import numpy as np

from ._prng import mix64

# u64 elements allowed per intermediate slab in the hash kernel
_SLAB_BUDGET = 1 << 23


def minhash_codes(flat_tokens, offsets, keys, l_bits):
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


def gather_counts(table_offsets, payload, codes, table_size, counts, touched):
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


def _cell_order(touched, counts):
    # descending count, ascending cell id within equal counts
    cells = np.sort(touched)
    return cells[np.argsort(-counts[cells], kind="stable")]


def emit_topk(touched, counts, cell_offsets, cell_members, reps, k):
    order = _cell_order(touched, counts)
    if order.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int32)
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
    first = np.argsort(emit_pos, kind="stable")[:k]
    ids = ids[first]
    emit_pos = emit_pos[first]
    cum = np.cumsum(cell_offsets[order + 1] - cell_offsets[order])
    emitted_in = order[np.searchsorted(cum, emit_pos, side="right")]
    out_counts = counts[emitted_in]
    counts[touched] = 0
    return ids, out_counts
