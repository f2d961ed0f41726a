"""Seeded LSH families emitting m independent l_bits-wide hash codes per point.

Two families are provided, one per similarity:

  * ``minhash``: for token sets under Jaccard similarity. Each single-bit
    hash is the parity of min-over-tokens of a keyed 64-bit mixer, so a pair
    with Jaccard J collides per bit with probability (1 + J) / 2 (the min
    collides with probability J, and non-colliding minima agree by chance
    half the time).
  * ``srp``: signed random projections for dense vectors under cosine
    similarity. Each bit is the sign of a dot product with a Gaussian
    direction, colliding with probability 1 - angle / pi.

A code packs its l_bits single-bit hashes with hash j at bit position j.
``minhash_codes`` is the MinHash kernel: integer math over slabs of tokens, so
codes are bit-for-bit reproducible. A slab is an (l_bits, tokens) array, one
row per key of a table, mixed in place: one slab buffer and one scratch
buffer, allocated once per call, serve every table and every slab.
``hash_dense_many`` projects row slabs of the same budget.
Families are frozen after construction and safe to share across query
threads. Same spec means bit-identical family, codes, and downstream index.

This module also holds the one check of each kind of outside input, which
the index, the filter and the oracle call too: ``_token_ids`` for token
sets, ``_numeric`` and ``_finite`` for vectors, ``_code_array`` for codes,
``_count`` for integer counts such as k, t, grid and filter sizes, trials and
spec fields, each in its range. A ``HashFamilySpec`` checks its fields when
it is constructed (a minhash spec takes no dim), so a spec that exists is
valid, holds ints, and needs no later check.
"""

from dataclasses import dataclass

import numpy as np

from ._prng import (
    TAG_MINHASH_KEYS,
    TAG_SRP_DIRECTIONS,
    derive,
    gaussian_stream,
    key_stream,
    mix64,
)
from .errors import ConfigError, InputError

KIND_MINHASH = "minhash"
KIND_SRP = "srp"

MAX_L_BITS = 24
# srp direction floats (m * l_bits * dim) a spec may ask for: 128 MiB
MAX_SRP_FLOATS = 1 << 24

_U64_MAX = 0xFFFFFFFFFFFFFFFF
# 8-byte elements per slab in the hash kernels; the MinHash kernel holds one
# slab buffer and one scratch buffer of this size (or of one wider point)
_SLAB_BUDGET = 1 << 16


def _token_ids(values, name="token ids"):
    """Token ids as a 1-d uint64 array, in their order and with duplicates kept.

    InputError unless every id is an integer in [0, 2**64). A list is read id
    by id, because numpy would turn a list holding 2**63 or more into floats.
    """
    if isinstance(values, np.ndarray):
        if values.size == 0:
            return np.empty(0, dtype=np.uint64)
        if values.dtype.kind not in "iu" or values.ndim != 1:
            raise InputError(f"{name} must be a 1-d integer array, got {values.dtype} of shape {values.shape}")
        if values.dtype.kind == "i" and values.min() < 0:
            raise InputError(f"{name} must lie in [0, 2**64), got {values.min()}")
        return values.astype(np.uint64, copy=False)
    vals = list(values)
    out = np.empty(len(vals), dtype=np.uint64)
    for i, v in enumerate(vals):
        if not isinstance(v, (int, np.integer)):
            raise InputError(f"{name} must be integers, got {type(v).__name__}")
        if not 0 <= v <= _U64_MAX:
            raise InputError(f"{name} must lie in [0, 2**64), got {v}")
        out[i] = v
    return out


def token_set(values):
    """Normalize an iterable of token ids to a sorted, duplicate-free uint64 array."""
    return np.unique(_token_ids(values))


def _as_array(x, name):
    """``np.asarray(x)``; InputError for a ragged nesting of lists."""
    try:
        return np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape" for ragged lists
        raise InputError(f"{name} must form a regular array: {exc}") from exc


def _count(value, name, low=1, high=None, error=InputError):
    """A Python or numpy integer in [low, high] as int (no upper end when high is None).

    ``error`` for anything else: a float count would be truncated, and one out
    of range would size, cut off or address the wrong thing.
    """
    if not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        raise error(f"{name} must be {f'>= {low}' if high is None else f'in [{low}, {high}]'}, got {value}")
    return int(value)


def _code_array(codes, m, l_bits, name="codes", matrix=False):
    """Codes of shape (m,), or (n, m) for a matrix, as uint32.

    InputError unless they are integers in [0, 2**l_bits): a float code would
    be truncated, a negative one wrap, and a code past the range address
    another table's buckets.
    """
    arr = _as_array(codes, name)
    if arr.dtype.kind not in "iu":
        raise InputError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.ndim != (2 if matrix else 1) or arr.shape[-1] != m:
        raise InputError(f"expected {name} of shape {f'(n, {m})' if matrix else f'({m},)'}, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= 1 << l_bits):
        raise InputError(f"{name} must lie in [0, 2**{l_bits})")
    return arr.astype(np.uint32, copy=False)


@dataclass(frozen=True)
class HashFamilySpec:
    """Parameters of an LSH family: kind, codes per point (m), bits per code, seed, and the srp dim.

    ConfigError at construction for a bad field; m, l_bits, seed and dim are held as ints.
    """

    kind: str
    m: int
    l_bits: int
    seed: int
    dim: int | None = None

    def __post_init__(self):
        if self.kind not in (KIND_MINHASH, KIND_SRP):
            raise ConfigError(f"unknown hash family kind {self.kind!r}")
        m = _count(self.m, "m", error=ConfigError)
        l_bits = _count(self.l_bits, "l_bits", high=MAX_L_BITS, error=ConfigError)
        seed = _count(self.seed, "seed", 0, _U64_MAX, ConfigError)
        dim = self.dim
        if self.kind == KIND_SRP:
            dim = _count(dim, "srp dim", error=ConfigError)
            if m * l_bits * dim > MAX_SRP_FLOATS:
                raise ConfigError(f"srp m * l_bits * dim exceeds {MAX_SRP_FLOATS} direction floats")
        elif dim is not None:
            # hashing would ignore it, but the image would store it
            raise ConfigError(f"a minhash spec takes no dim, got {dim!r}")
        # the dataclass is frozen
        for name, value in (("m", m), ("l_bits", l_bits), ("seed", seed), ("dim", dim)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class HashFamily:
    spec: HashFamilySpec
    keys: np.ndarray | None  # (m * l_bits,) uint64 mixer keys, minhash only
    directions: np.ndarray | None  # (m * l_bits, dim) float64, srp only


def build_family(spec: HashFamilySpec) -> HashFamily:
    """Materialize the family deterministically from its spec.

    minhash: m * l_bits mixer keys drawn from the seed's key stream.
    srp: m * l_bits Gaussian directions of length dim (unnormalized; only the
    sign of the projection is used).
    """
    n_bits = spec.m * spec.l_bits
    if spec.kind == KIND_MINHASH:
        keys = key_stream(derive(spec.seed, TAG_MINHASH_KEYS), n_bits)
        return HashFamily(spec=spec, keys=keys, directions=None)
    flat = gaussian_stream(derive(spec.seed, TAG_SRP_DIRECTIONS), n_bits * spec.dim)
    return HashFamily(spec=spec, keys=None, directions=flat.reshape(n_bits, spec.dim))


def minhash_codes(flat_tokens, offsets, keys, l_bits):
    """(n, m) uint32 codes of the n token sets flat_tokens[offsets[i]:offsets[i + 1]]."""
    n = offsets.shape[0] - 1
    m = keys.shape[0] // l_bits
    out = np.empty((n, m), dtype=np.uint32)
    if n == 0:
        return out
    keys = keys.reshape(m, l_bits, 1)
    shifts = np.arange(l_bits, dtype=np.uint64)[:, None]
    one = np.uint64(1)
    max_tokens = max(1, _SLAB_BUDGET // l_bits)
    # a slab holds at most max_tokens tokens, or one point wider than that, and
    # never more than the call's tokens (a query is one small point)
    width = min(max(max_tokens, int(np.diff(offsets).max())), int(offsets[-1] - offsets[0]))
    slab_buf = np.empty(l_bits * width, dtype=np.uint64)
    tmp_buf = np.empty_like(slab_buf)
    start = 0
    while start < n:
        # grow the point slab until its token span hits the budget
        stop = int(np.searchsorted(offsets, offsets[start] + max_tokens, side="right")) - 1
        stop = min(n, max(stop, start + 1))
        toks = flat_tokens[offsets[start] : offsets[stop]]
        local = offsets[start:stop] - offsets[start]
        slab = slab_buf[: l_bits * toks.shape[0]].reshape(l_bits, toks.shape[0])
        tmp = tmp_buf[: l_bits * toks.shape[0]].reshape(slab.shape)
        # the per-point minima reuse the scratch buffer, free once a slab is mixed
        mins = tmp_buf[: l_bits * (stop - start)].reshape(l_bits, stop - start)
        for i in range(m):
            # row j of the slab mixes every token with key j of table i
            mix64(np.bitwise_xor(keys[i], toks, out=slab), tmp)
            np.minimum.reduceat(slab, local, axis=1, out=mins)
            mins &= one
            mins <<= shifts
            out[start:stop, i] = np.bitwise_or.reduce(mins, axis=0)
        start = stop
    return out


def hash_set_many(family: HashFamily, points) -> np.ndarray:
    """Hash a list of token sets; returns an (n, m) uint32 code matrix."""
    if family.spec.kind != KIND_MINHASH:
        raise InputError("hash_set requires a minhash family")
    sets = [_token_ids(p, f"point {i}: token ids") for i, p in enumerate(points)]
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    for i, s in enumerate(sets):
        if s.size == 0:
            raise InputError(f"point {i} is an empty token set")
        offsets[i + 1] = offsets[i] + s.size
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    return minhash_codes(flat, offsets, family.keys, family.spec.l_bits)


def hash_set(family: HashFamily, x) -> np.ndarray:
    """Hash one token set to its m codes."""
    return hash_set_many(family, [x])[0]


def _numeric(x):
    """``np.asarray(x)``; InputError unless a regular array of ints, uints or floats."""
    arr = _as_array(x, "vectors")
    if arr.dtype.kind not in "iuf":
        raise InputError(f"vector entries must be numbers, got dtype {arr.dtype}")
    return arr


def _finite(arr):
    """A numeric array as float64; InputError on NaN or infinite entries."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InputError("vector entries must be finite")
    return arr


def hash_dense_many(family: HashFamily, matrix) -> np.ndarray:
    """Hash rows of an (n, dim) matrix; returns an (n, m) uint32 code matrix."""
    if family.spec.kind != KIND_SRP:
        raise InputError("hash_dense requires an srp family")
    mat = _numeric(matrix)
    if mat.ndim != 2 or mat.shape[1] != family.spec.dim:
        raise InputError(f"matrix must be (n, {family.spec.dim})")
    n, m, l_bits = mat.shape[0], family.spec.m, family.spec.l_bits
    out = np.empty((n, m), dtype=np.uint32)
    shifts = np.arange(l_bits, dtype=np.uint32)
    rows = max(1, _SLAB_BUDGET // (m * l_bits))
    for start in range(0, n, rows):
        # one slab of rows: its projections stay within the budget
        slab = _finite(mat[start : start + rows])
        zero = np.flatnonzero(~slab.any(axis=1))
        if zero.size:
            raise InputError(f"point {start + int(zero[0])} is a zero vector")
        bits = (slab @ family.directions.T >= 0.0).astype(np.uint32)
        grouped = bits.reshape(slab.shape[0], m, l_bits)
        out[start : start + rows] = np.bitwise_or.reduce(grouped << shifts, axis=2)
    return out


def hash_dense(family: HashFamily, v) -> np.ndarray:
    """Hash one dense vector to its m codes."""
    v = _numeric(v)
    if v.ndim != 1:
        raise InputError(f"expected one vector, got an array of shape {v.shape}")
    return hash_dense_many(family, v[None, :])[0]


def estimate_collision(kind, x, y, trials, seed=0):
    """Monte Carlo estimate of the single-bit collision probability of a pair.

    Hashes x and y with the ``trials``-bit family ``HashFamilySpec(kind,
    m=trials, l_bits=1, seed=seed)`` and returns the fraction of bits on which
    they agree. An srp family holds trials * dim directions, so an srp
    estimate needs trials * dim <= MAX_SRP_FLOATS.
    """
    trials = _count(trials, "trials")
    if kind == KIND_SRP:
        pair = _numeric([x, y])
        if pair.ndim != 2:
            raise InputError("srp pairs must be 1-d vectors of equal dim")
        family = build_family(HashFamilySpec(kind, m=trials, l_bits=1, seed=seed, dim=pair.shape[1]))
        codes = hash_dense_many(family, pair)
    else:
        codes = hash_set_many(build_family(HashFamilySpec(kind, m=trials, l_bits=1, seed=seed)), [x, y])
    return float(np.mean(codes[0] == codes[1]))
