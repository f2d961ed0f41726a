"""Distance-sensitive Bloom filter: m bit arrays addressed by l_bits-wide codes.

The filter answers "does the set contain a point similar to the query" by
checking how many of the m arrays have the bit at the query's code set and
comparing that collision count against a threshold t. It is the reference
structure for the grouped index (which realizes the same semantics through a
reverse index) and the vehicle for validating the analytic error bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundInvalidError, ConfigError, InputError
from .lsh import MAX_L_BITS, _code_array, _integer


@dataclass(frozen=True)
class FilterBounds:
    """Lower bound on the true positive rate, upper bound on the false positive rate."""

    p_lower: float
    q_upper: float


class DistanceSensitiveFilter:
    """m binary arrays of length 2**l_bits with a positive-report threshold t."""

    def __init__(self, m, l_bits, t):
        m = _integer(m, "m", ConfigError)
        l_bits = _integer(l_bits, "l_bits", ConfigError)
        t = _integer(t, "t", ConfigError)
        if m < 1:
            raise ConfigError(f"m must be positive, got {m}")
        if not (1 <= l_bits <= MAX_L_BITS):
            raise ConfigError(f"l_bits must be in [1, {MAX_L_BITS}], got {l_bits}")
        if not (0 < t <= m):
            raise ConfigError(f"threshold t must satisfy 0 < t <= m, got t={t} m={m}")
        self.m, self.l_bits, self.t = m, l_bits, t
        self.arrays = np.zeros((self.m, 1 << self.l_bits), dtype=bool)
        self.count_inserted = 0
        self._rows = np.arange(self.m)

    def insert(self, codes):
        """Set bit codes[i] in array i for every i. Idempotent per code vector."""
        self.arrays[self._rows, _code_array(codes, self.m, self.l_bits)] = True
        self.count_inserted += 1

    def insert_many(self, code_matrix):
        """Insert every row of an (n, m) code matrix."""
        mat = _code_array(code_matrix, self.m, self.l_bits, matrix=True)
        self.arrays[self._rows[None, :], mat] = True
        self.count_inserted += mat.shape[0]

    def count_collisions(self, codes) -> int:
        """Number of arrays whose bit at the query's code is set (0..m)."""
        return int(self.arrays[self._rows, _code_array(codes, self.m, self.l_bits)].sum())

    def test(self, codes) -> bool:
        """True when at least t of the m addressed bits are set."""
        return self.count_collisions(codes) >= self.t


def membership_error_bounds(m, t, l_bits, s_high, s_low, n_points) -> FilterBounds:
    """Hoeffding-style error bounds for a filter over codes of l_bits concatenated hashes.

    ``s_high`` and ``s_low`` are the effective per-hash collision probabilities
    of a planted similar point and of any stored background point, so a whole
    code collides with probability s**l_bits. With ratio = t / m the bounds are

        p_lower = 1 - exp(-2 m (s_high**l_bits - ratio)^2)
        q_upper =     exp(-2 m (ratio - n_points * s_low**l_bits)^2)

    They are valid only while n_points * s_low**l_bits <= ratio <= s_high**l_bits;
    a ratio strictly outside that window raises BoundInvalidError naming the
    violated side. Boundary equality returns the vacuous bound (0 or 1).
    """
    if m < 1 or n_points < 0:
        raise InputError("m must be >= 1 and n_points >= 0")
    if not (0.0 <= s_low <= s_high <= 1.0):
        raise InputError(f"need 0 <= s_low <= s_high <= 1, got {s_low}, {s_high}")
    if not (0 < t <= m):
        raise InputError(f"threshold must satisfy 0 < t <= m, got t={t} m={m}")
    if l_bits < 1:
        raise InputError("l_bits must be >= 1")
    ratio = t / m
    hi = s_high**l_bits
    lo = n_points * s_low**l_bits
    if ratio > hi:
        raise BoundInvalidError(
            f"true-positive side invalid: t/m = {ratio:.6g} exceeds s_high**L = {hi:.6g}"
        )
    if ratio < lo:
        raise BoundInvalidError(
            f"false-positive side invalid: t/m = {ratio:.6g} is below "
            f"n_points * s_low**L = {lo:.6g}"
        )
    p_lower = 1.0 - math.exp(-2.0 * m * (hi - ratio) ** 2)
    q_upper = math.exp(-2.0 * m * (ratio - lo) ** 2)
    return FilterBounds(
        p_lower=min(1.0, max(0.0, p_lower)), q_upper=min(1.0, max(0.0, q_upper))
    )
