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
codes are bit-for-bit reproducible. ``hash_dense_many`` projects row slabs of
the same budget, so neither kernel holds more than one slab's intermediates.
Families are frozen after construction and safe to share across query
threads. Same spec means bit-identical family, codes, and downstream index.
"""

from dataclasses import dataclass

import numpy as np

from ._prng import (
    TAG_ESTIMATOR,
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
# 8-byte elements allowed per intermediate slab in the hash kernels
_SLAB_BUDGET = 1 << 16


def token_set(values):
    """Normalize an iterable of token ids to a sorted, duplicate-free uint64 array."""
    if isinstance(values, np.ndarray):
        if values.size == 0:
            return np.empty(0, dtype=np.uint64)
        if values.dtype.kind not in "iu":
            raise InputError("token ids must be integers")
        if values.dtype.kind == "i" and (values < 0).any():
            raise InputError("token ids must be non-negative")
        return np.unique(values.astype(np.uint64))
    vals = list(values)
    out = np.empty(len(vals), dtype=np.uint64)
    for i, v in enumerate(vals):
        if not isinstance(v, (int, np.integer)):
            raise InputError(f"token ids must be integers, got {type(v).__name__}")
        if v < 0:
            raise InputError(f"token ids must be non-negative, got {v}")
        if v > _U64_MAX:
            raise InputError(f"token id {v} overflows 64 bits")
        out[i] = v
    return np.unique(out)


@dataclass(frozen=True)
class HashFamilySpec:
    """Parameters of an LSH family: kind, codes per point (m), bits per code, seed."""

    kind: str
    m: int
    l_bits: int
    seed: int
    dim: int | None = None


@dataclass(frozen=True)
class HashFamily:
    spec: HashFamilySpec
    keys: np.ndarray | None  # (m * l_bits,) uint64 mixer keys, minhash only
    directions: np.ndarray | None  # (m * l_bits, dim) float64, srp only


def _validate_spec(spec):
    if spec.kind not in (KIND_MINHASH, KIND_SRP):
        raise ConfigError(f"unknown hash family kind {spec.kind!r}")
    if spec.m < 1:
        raise ConfigError(f"m must be positive, got {spec.m}")
    if not (1 <= spec.l_bits <= MAX_L_BITS):
        raise ConfigError(f"l_bits must be in [1, {MAX_L_BITS}], got {spec.l_bits}")
    if not (0 <= spec.seed <= _U64_MAX):
        raise ConfigError("seed must fit in 64 bits")
    if spec.kind == KIND_SRP and (spec.dim is None or spec.dim < 1):
        raise ConfigError("srp families require a positive dim")
    if spec.kind == KIND_SRP and spec.m * spec.l_bits * spec.dim > MAX_SRP_FLOATS:
        raise ConfigError(f"srp m * l_bits * dim exceeds {MAX_SRP_FLOATS} direction floats")


def build_family(spec: HashFamilySpec) -> HashFamily:
    """Materialize the family deterministically from its spec.

    minhash: m * l_bits mixer keys drawn from the seed's key stream.
    srp: m * l_bits Gaussian directions of length dim (unnormalized; only the
    sign of the projection is used).
    """
    _validate_spec(spec)
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


def hash_set_many(family: HashFamily, points) -> np.ndarray:
    """Hash a list of token sets; returns an (n, m) uint32 code matrix."""
    if family.spec.kind != KIND_MINHASH:
        raise InputError("hash_set requires a minhash family")
    offsets = np.zeros(len(points) + 1, dtype=np.int64)
    for i, p in enumerate(points):
        if len(p) == 0:
            raise InputError(f"point {i} is an empty token set")
        offsets[i + 1] = offsets[i] + len(p)
    flat = np.empty(offsets[-1], dtype=np.uint64)
    for i, p in enumerate(points):
        arr = np.asarray(p)
        if arr.dtype.kind not in "iu" or arr.ndim != 1:
            raise InputError(f"point {i}: token sets must be 1-d integer arrays, got {arr.dtype}")
        if arr.dtype.kind == "i" and arr.min() < 0:
            raise InputError(f"point {i}: token ids must be non-negative")
        flat[offsets[i] : offsets[i + 1]] = arr
    return minhash_codes(flat, offsets, family.keys, family.spec.l_bits)


def hash_set(family: HashFamily, x) -> np.ndarray:
    """Hash one token set to its m codes."""
    return hash_set_many(family, [x])[0]


def _numeric(x):
    """``np.asarray(x)``; InputError unless a regular array of ints, uints or floats."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape" for ragged lists
        raise InputError(f"vectors must form a regular array: {exc}") from exc
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
        zero = np.flatnonzero(np.einsum("ij,ij->i", slab, slab) == 0)
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

    Draws ``trials`` fresh one-bit hashes (fresh mixer key or fresh Gaussian
    direction per trial) and returns the fraction on which x and y agree.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    sub = derive(seed, TAG_ESTIMATOR)
    if kind == KIND_MINHASH:
        x = token_set(x)
        y = token_set(y)
        if x.size == 0 or y.size == 0:
            raise InputError("cannot hash an empty token set")
        keys = key_stream(sub, trials)
        bx = mix64(x[:, None] ^ keys[None, :]).min(axis=0) & np.uint64(1)
        by = mix64(y[:, None] ^ keys[None, :]).min(axis=0) & np.uint64(1)
        return float(np.mean(bx == by))
    if kind == KIND_SRP:
        x = _finite(_numeric(x))
        y = _finite(_numeric(y))
        if x.shape != y.shape or x.ndim != 1:
            raise InputError("srp pairs must be 1-d vectors of equal dim")
        if not x.any() or not y.any():
            raise InputError("cannot hash the zero vector")
        dirs = gaussian_stream(sub, trials * x.shape[0]).reshape(trials, x.shape[0])
        return float(np.mean((dirs @ x >= 0.0) == (dirs @ y >= 0.0)))
    raise ConfigError(f"unknown hash family kind {kind!r}")
