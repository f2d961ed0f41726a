"""Deterministic seed derivation shared by hashing and index construction.

Everything reproducible in this package flows from one 64-bit seed through
the SplitMix64 finalizer:

  * ``key_stream(seed, n)``   -> n mixing keys, ``mix64(seed + i * GAMMA)``
  * ``derive(seed, tag)``     -> an independent sub-seed, ``mix64(seed ^ tag)``
  * ``gaussian_stream``       -> Box-Muller over a key stream
  * ``permutation``           -> argsort of a key stream

Integer paths are pure uint64 arithmetic and therefore bit-identical across
platforms.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# the finalizer's shifts, as uint64 scalars: a ufunc converts a Python int on every call
_S1, _S2, _S3 = np.uint64(30), np.uint64(27), np.uint64(31)
_U64 = 0xFFFFFFFFFFFFFFFF

# Domain-separation tags for the independent streams hanging off one seed.
TAG_MINHASH_KEYS = 0x6D696E68  # "minh"
TAG_SRP_DIRECTIONS = 0x73727064  # "srpd"
TAG_PERMUTATION = 0x7065726D  # "perm"; repetition r uses TAG_PERMUTATION + r


def mix64(x, tmp=None):
    """SplitMix64 finalizer over uint64 scalars or arrays (wrapping arithmetic).

    With ``tmp``, a uint64 array of x's shape, x must be a uint64 array: it is
    mixed in place, with tmp as scratch, and returned. Without, x is left as
    it is and a new value is returned.
    """
    if tmp is None:
        z = np.array(x, dtype=np.uint64)
        return mix64(z, np.empty_like(z))[()]
    with np.errstate(over="ignore"):
        for shift, mul in ((_S1, _MIX1), (_S2, _MIX2)):
            np.right_shift(x, shift, out=tmp)
            x ^= tmp
            x *= mul
        np.right_shift(x, _S3, out=tmp)
        x ^= tmp
    return x


def derive(seed, tag):
    """Sub-seed for an independent stream: mix64(seed ^ tag), as a Python int."""
    return int(mix64(np.uint64(seed & _U64) ^ np.uint64(tag & _U64)))


def key_stream(seed, n):
    """n pseudo-random uint64 keys: the finalizer applied to seed + (1..n) * GAMMA."""
    with np.errstate(over="ignore"):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        return mix64(np.uint64(seed & _U64) + idx * _GAMMA)


def gaussian_stream(seed, n):
    """n float64 standard normals, Box-Muller over key_stream(seed)."""
    pairs = (n + 1) // 2
    u = key_stream(seed, 2 * pairs)
    u1 = ((u[:pairs] >> 11) + 1) * 2.0**-53  # (0, 1]: safe for log
    u2 = (u[pairs:] >> 11) * 2.0**-53  # [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def permutation(seed, n):
    """Deterministic permutation of range(n): argsort of a key stream.

    The keys are distinct (mix64 is a bijection and GAMMA is odd), so every
    sort kind gives the same permutation."""
    return np.argsort(key_stream(seed, n))
