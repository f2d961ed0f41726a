"""Independent answer checks: reference decodes and structural build properties.

The references follow the method the ``flinng.index`` docstring documents,
written out plainly so that they share no code with the kernels:

  * threshold: keep the cells with count >= t, take the union of their
    members within a repetition, then the intersection across repetitions;
  * top-k: walk the cells with a non-zero count by descending count, ties by
    ascending cell id, and emit a point at its R-th sighting, until k are out.

Every function returns plain values or a list of failure messages; none of
them raises on a wrong answer, so a run can count failed checks.
"""

import numpy as np


def bucket_lists(index, codes):
    """The m reverse-table buckets a query's codes select, as cell-id arrays."""
    table_size = 1 << index.config.hash_spec.l_bits
    out = []
    for i, code in enumerate(np.asarray(codes, dtype=np.int64)):
        b = i * table_size + int(code)
        out.append(index.table_payload[index.table_offsets[b] : index.table_offsets[b + 1]])
    return out


def reference_counts(index, codes):
    """Per-cell collision counts recomputed from the table arrays."""
    counts = np.zeros(index.config.total_cells, dtype=np.int64)
    for cells in bucket_lists(index, codes):
        counts[cells.astype(np.int64)] += 1  # cells are deduplicated within a bucket
    return counts


def reference_threshold(index, counts, t):
    B, R = index.config.num_cells, index.config.repetitions
    survivors = None
    for r in range(R):
        rep = set()
        for c in range(r * B, (r + 1) * B):
            if counts[c] >= t:
                rep.update(int(p) for p in index.members_of(c))
        survivors = rep if survivors is None else survivors & rep
    return np.array(sorted(survivors), dtype=np.int64)


def reference_topk(index, counts, k):
    """(ids in emission order, members read up to the last emission)."""
    R = index.config.repetitions
    cap = min(k, index.n_points)
    cells = sorted((c for c in range(counts.size) if counts[c] > 0), key=lambda c: (-counts[c], c))
    seen = {}
    ids = []
    read = 0
    for c in cells:
        for p in index.members_of(c):
            read += 1
            p = int(p)
            seen[p] = seen.get(p, 0) + 1
            if seen[p] == R:
                ids.append(p)
                if len(ids) == cap:
                    return np.array(ids, dtype=np.int64), read
    return np.array(ids, dtype=np.int64), read


def build_failures(index, sample_ids, sample_codes):
    """Structural properties of a built index; the bucket check uses sampled points.

    ``sample_codes[j]`` are the m codes of point ``sample_ids[j]``.
    """
    cfg = index.config
    B, R, n = cfg.num_cells, cfg.repetitions, index.n_points
    fails = []
    offsets = index.cell_offsets
    if offsets[0] != 0 or offsets[-1] != R * n or (np.diff(offsets) < 0).any():
        return ["cell offsets are not a partition of R * n slots"]
    sizes = np.diff(offsets).reshape(R, B)
    if (sizes.max(axis=1) - sizes.min(axis=1) > 1).any():
        fails.append("cell sizes within a repetition differ by more than 1")
    members = index.cell_members.astype(np.int64)
    cell_of = np.full((R, n), -1, dtype=np.int64)
    for r in range(R):
        rep = members[offsets[r * B] : offsets[(r + 1) * B]]
        if not np.array_equal(np.sort(rep), np.arange(n)):
            fails.append(f"repetition {r} does not hold every point exactly once")
            continue
        for c in range(r * B, (r + 1) * B):
            cell = index.members_of(c)
            if cell.size > 1 and (np.diff(cell.astype(np.int64)) <= 0).any():
                fails.append(f"cell {c} ids do not ascend")
            cell_of[r, cell.astype(np.int64)] = c
    payload = index.table_payload.astype(np.int64)
    if payload.size and payload.max() >= B * R:
        fails.append("a reverse-table payload id is not below B * R")
    if fails:
        return fails
    for p, codes in zip(sample_ids, sample_codes):
        buckets = bucket_lists(index, codes)
        for r in range(R):
            c = cell_of[r, p]
            if not all(np.any(cells == c) for cells in buckets):
                fails.append(f"point {p}: cell {c} is missing from one of its buckets")
    return fails


def answer_failures(got, want):
    """Indices of answers that differ from the reference (ids and their order)."""
    return [i for i, (g, w) in enumerate(zip(got, want)) if not np.array_equal(g, w)]
