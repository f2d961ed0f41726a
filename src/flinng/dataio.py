"""Dataset ingestion and synthetic planted-neighbor fixtures.

Token files are text, one point per line, whitespace-separated unsigned
64-bit token ids. Dense files are binary: per vector, a little-endian int32
dimension followed by that many little-endian float32 values; every record
must share the dimension. Parsers are total: any byte stream either parses
or raises a positioned error.
"""

from dataclasses import dataclass

import numpy as np

from . import lsh, oracle
from .errors import ConfigError, FormatError, InputError


def load_tokens(path):
    """Parse a token file into a list of sorted duplicate-free uint64 arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not valid UTF-8 text ({exc})") from exc
    lines = text.split("\n")  # only "\n" ends a line; "\r" and the rest are whitespace in it
    if not lines[-1]:
        lines.pop()  # the empty text after a final "\n", or an empty file
    points = []
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            raise InputError(f"{path}:{lineno}: blank line (every line must hold a point)")
        for col, tok in enumerate(fields, 1):
            # int() alone would also take "+5", "1_0" and non-ASCII digits
            if not (tok.isascii() and tok.isdigit()):
                raise InputError(f"{path}:{lineno}: column {col}: {tok!r} is not a non-negative integer "
                                 "in ASCII digits")
        values = list(map(int, fields))
        if max(values) > lsh._U64_MAX:
            col, value = next((c, v) for c, v in enumerate(values, 1) if v > lsh._U64_MAX)
            raise InputError(f"{path}:{lineno}: column {col}: token {value} overflows 64 bits")
        points.append(np.unique(np.asarray(values, dtype=np.uint64)))
    return points


def save_tokens(path, points):
    """Write one point per line; InputError, before the file is opened, for a point load_tokens would reject."""
    rows = [lsh._token_ids(p, f"point {i}: token ids") for i, p in enumerate(points)]
    empty = [i for i, row in enumerate(rows) if row.size == 0]
    if empty:
        raise InputError(f"point {empty[0]} is an empty token set")
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(" ".join(map(str, row.tolist())))
            fh.write("\n")


def _dense_record(dim):
    """The dense file's record: an int32 dimension, then dim float32 values, little-endian."""
    return np.dtype([("dim", "<i4"), ("vec", "<f4", (dim,))])


def load_dense(path):
    """Parse a dense binary file into a (n, dim) float32 view of its vectors in one writable buffer."""
    data = np.fromfile(path, np.uint8)
    if data.size == 0:
        return np.empty((0, 0), np.float32)  # zero records carry no dim
    if data.size < 4:
        raise FormatError(f"{path}: record 0: truncated before the dimension field")
    dim = int(data[:4].view("<i4")[0])
    if dim <= 0:
        raise FormatError(f"{path}: record 0: non-positive dimension {dim}")
    # sized before numpy sees the dim: a header may ask for a record past numpy's dtype limit
    n, tail = divmod(data.size, 4 + 4 * dim)
    if n == 0:
        raise FormatError(f"{path}: record 0: truncated record")
    recs = np.frombuffer(data, _dense_record(dim), n)
    wrong_dim = recs["dim"] != dim
    bad = np.flatnonzero(wrong_dim | ~np.isfinite(recs["vec"]).all(1))
    if bad.size:
        i = bad[0]
        what = f"dimension {recs['dim'][i]} != {dim}" if wrong_dim[i] else "non-finite value"
        raise FormatError(f"{path}: record {i}: {what}")
    if tail:
        raise FormatError(f"{path}: record {n}: truncated record")
    return recs["vec"]


def save_dense(path, matrix):
    """Write the rows of a 2-d matrix as dense records.

    InputError, before the file is opened, for what load_dense would reject:
    zero columns, or entries that are not numbers, not finite or past the
    float32 range.
    """
    mat = lsh._numeric(matrix)
    if mat.ndim != 2 or (mat.shape[0] and not mat.shape[1]):
        raise InputError(f"dense data must be a 2-d matrix of at least one column, got shape {mat.shape}")
    if mat.size and np.abs(lsh._finite(mat)).max() > np.finfo(np.float32).max:
        raise InputError("vector entries must lie in the float32 range")
    recs = np.empty(mat.shape[0], _dense_record(mat.shape[1]))
    recs["dim"] = mat.shape[1]
    recs["vec"] = mat
    with open(path, "wb") as fh:
        fh.write(recs.data)


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-neighbor fixture: disjoint token blocks make background Jaccard exactly 0."""

    n_points: int
    universe: int
    tokens_per_point: int
    n_queries: int
    s_high: float
    seed: int = 0


def planted_similarity(tokens_per_point, s_high):
    """Exact Jaccard realized by keeping round(2 T s / (1 + s)) of T tokens."""
    keep = round(2 * tokens_per_point * s_high / (1.0 + s_high))
    keep = min(tokens_per_point, max(0, keep))
    return keep, keep / (2 * tokens_per_point - keep) if keep else 0.0


def generate_synthetic(spec: SyntheticSpec, truth_depth=10):
    """Build (points, queries, truth) with planted neighbors of known similarity.

    Point i owns the token block [i*T, (i+1)*T). Each query resamples one
    planted point: it keeps a random subset of the point's tokens and fills
    the rest from the query's own private block, so the pair's Jaccard is
    exactly keep / (2T - keep) and every other point sits at exactly 0.
    """
    if not (0.0 < spec.s_high <= 1.0):
        raise ConfigError(f"need 0 < s_high <= 1, got {spec.s_high}")
    n_points = lsh._count(spec.n_points, "n_points", error=ConfigError)
    T = lsh._count(spec.tokens_per_point, "tokens_per_point", error=ConfigError)
    n_queries = lsh._count(spec.n_queries, "n_queries", high=n_points, error=ConfigError)
    # disjoint blocks: T tokens for every point and every query
    lsh._count(spec.universe, "universe", (n_points + n_queries) * T, error=ConfigError)
    keep, realized = planted_similarity(T, spec.s_high)
    if abs(realized - spec.s_high) > 0.05:
        raise ConfigError(
            f"tokens_per_point={T} too small to realize "
            f"s_high={spec.s_high} (closest achievable is {realized:.4f})"
        )

    base = np.arange(T, dtype=np.uint64)
    points = [base + np.uint64(i * T) for i in range(n_points)]

    rng = np.random.default_rng(spec.seed)
    planted = rng.choice(n_points, size=n_queries, replace=False)
    queries = []
    for j, src in enumerate(planted):
        kept = rng.choice(T, size=keep, replace=False)
        fresh_block = np.uint64((n_points + j) * T)
        fresh = fresh_block + base[: T - keep]
        queries.append(np.unique(np.concatenate([points[src][kept], fresh])))
    truth = oracle.exact_topk_batch(points, queries, truth_depth, "jaccard")
    return points, queries, truth
