"""Dataset ingestion and synthetic planted-neighbor fixtures.

Token files are text, one point per line, whitespace-separated unsigned
64-bit token ids. Dense files are binary: per vector, a little-endian int32
dimension followed by that many little-endian float32 values; every record
must share the dimension. Parsers are total: any byte stream either parses
or raises a positioned error.
"""

from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import ConfigError, FormatError, InputError

_U64_MAX = 0xFFFFFFFFFFFFFFFF


def load_tokens(path):
    """Parse a token file into a list of sorted duplicate-free uint64 arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 text ({exc})") from exc
    lines = text.split("\n")  # only "\n" ends a line; "\r" and the rest are whitespace in it
    if not lines[-1]:
        lines.pop()  # the empty text after a final "\n", or an empty file
    points = []
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            raise InputError(f"{path}:{lineno}: blank line (every line must hold a point)")
        toks = []
        for col, tok in enumerate(fields, 1):
            try:
                value = int(tok)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: column {col}: {tok!r} is not an integer") from exc
            if value < 0:
                raise InputError(f"{path}:{lineno}: column {col}: negative token {value}")
            if value > _U64_MAX:
                raise InputError(f"{path}:{lineno}: column {col}: token {value} overflows 64 bits")
            toks.append(value)
        points.append(np.unique(np.asarray(toks, dtype=np.uint64)))
    if not points:
        raise InputError(f"{path}: empty token file")
    return points


def save_tokens(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        for p in points:
            fh.write(" ".join(str(int(t)) for t in np.asarray(p).ravel()))
            fh.write("\n")


def _dense_record(dim):
    """The dense file's record: an int32 dimension, then dim float32 values, little-endian."""
    return np.dtype([("dim", "<i4"), ("vec", "<f4", (dim,))])


def load_dense(path):
    """Parse a dense binary file into a (n, dim) float32 view of its vectors in one writable buffer."""
    data = np.fromfile(path, np.uint8)
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
    mat = np.asarray(matrix, dtype="<f4")
    if mat.ndim != 2:
        raise InputError("dense data must be a 2-d matrix")
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
    if spec.n_points < 1 or spec.tokens_per_point < 1:
        raise ConfigError("n_points and tokens_per_point must be positive")
    if not (1 <= spec.n_queries <= spec.n_points):
        raise ConfigError(f"need 1 <= n_queries <= n_points, got {spec.n_queries}")
    blocks_needed = (spec.n_points + spec.n_queries) * spec.tokens_per_point
    if spec.universe < blocks_needed:
        raise ConfigError(
            f"universe {spec.universe} too small: disjoint blocks need {blocks_needed} tokens"
        )
    keep, realized = planted_similarity(spec.tokens_per_point, spec.s_high)
    if abs(realized - spec.s_high) > 0.05:
        raise ConfigError(
            f"tokens_per_point={spec.tokens_per_point} too small to realize "
            f"s_high={spec.s_high} (closest achievable is {realized:.4f})"
        )

    T = spec.tokens_per_point
    base = np.arange(T, dtype=np.uint64)
    points = [base + np.uint64(i * T) for i in range(spec.n_points)]

    rng = np.random.default_rng(spec.seed)
    planted = rng.choice(spec.n_points, size=spec.n_queries, replace=False)
    queries = []
    for j, src in enumerate(planted):
        kept = rng.choice(T, size=keep, replace=False)
        fresh_block = np.uint64((spec.n_points + j) * T)
        fresh = fresh_block + base[: T - keep]
        queries.append(np.unique(np.concatenate([points[src][kept], fresh])))
    truth = oracle.exact_topk_batch(points, queries, truth_depth, "jaccard")
    return points, queries, truth
