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
Families are frozen after construction and safe to share across query
threads. Same spec means bit-identical family, codes, and downstream index.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
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


def _check_tokens(x):
    x = np.asarray(x, dtype=np.uint64)
    if x.size == 0:
        raise InputError("cannot hash an empty token set")
    return x


def _check_dense(family, v):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != family.spec.dim:
        raise InputError(
            f"vector has dim {v.shape[-1] if v.ndim else 0}, family expects {family.spec.dim}"
        )
    if not np.isfinite(v).all():
        raise InputError("vector entries must be finite")
    if not v.any():
        raise InputError("cannot hash the zero vector")
    return v


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
        if arr.dtype.kind not in "iu":
            raise InputError(f"point {i}: token sets must hold integers, got {arr.dtype}")
        flat[offsets[i] : offsets[i + 1]] = arr.astype(np.uint64)
    return _kernels.minhash_codes(flat, offsets, family.keys, family.spec.l_bits)


def hash_set(family: HashFamily, x) -> np.ndarray:
    """Hash one token set to its m codes."""
    return hash_set_many(family, [_check_tokens(x)])[0]


def hash_dense_many(family: HashFamily, matrix) -> np.ndarray:
    """Hash rows of an (n, dim) matrix; returns an (n, m) uint32 code matrix."""
    if family.spec.kind != KIND_SRP:
        raise InputError("hash_dense requires an srp family")
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != family.spec.dim:
        raise InputError(f"matrix must be (n, {family.spec.dim})")
    if not np.isfinite(mat).all():
        raise InputError("vector entries must be finite")
    norms = np.einsum("ij,ij->i", mat, mat)
    if (norms == 0).any():
        raise InputError(f"point {int(np.flatnonzero(norms == 0)[0])} is a zero vector")
    bits = (mat @ family.directions.T >= 0.0).astype(np.uint32)
    l_bits = family.spec.l_bits
    shifts = np.arange(l_bits, dtype=np.uint32)
    grouped = bits.reshape(mat.shape[0], family.spec.m, l_bits)
    return np.bitwise_or.reduce(grouped << shifts, axis=2)


def hash_dense(family: HashFamily, v) -> np.ndarray:
    """Hash one dense vector to its m codes."""
    return hash_dense_many(family, _check_dense(family, v)[None, :])[0]


def estimate_collision(kind, x, y, trials, seed=0):
    """Monte Carlo estimate of the single-bit collision probability of a pair.

    Draws ``trials`` fresh one-bit hashes (fresh mixer key or fresh Gaussian
    direction per trial) and returns the fraction on which x and y agree.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    sub = derive(seed, TAG_ESTIMATOR)
    if kind == KIND_MINHASH:
        x = _check_tokens(x)
        y = _check_tokens(y)
        keys = key_stream(sub, trials)
        bx = mix64(x[:, None] ^ keys[None, :]).min(axis=0) & np.uint64(1)
        by = mix64(y[:, None] ^ keys[None, :]).min(axis=0) & np.uint64(1)
        return float(np.mean(bx == by))
    if kind == KIND_SRP:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise InputError("srp pairs must be 1-d vectors of equal dim")
        if not x.any() or not y.any():
            raise InputError("cannot hash the zero vector")
        dirs = gaussian_stream(sub, trials * x.shape[0]).reshape(trials, x.shape[0])
        return float(np.mean((dirs @ x >= 0.0) == (dirs @ y >= 0.0)))
    raise ConfigError(f"unknown hash family kind {kind!r}")
