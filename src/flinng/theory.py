"""Closed-form error bounds, query stability, and the parameter planner.

All logarithms are natural. Where a paper-style quantity must become an
integer (repetitions, array count, threshold), it is rounded up: a larger
repetition count, more arrays, or a higher integer threshold only tighten
the error constraint the value was solved from. Probability bounds are
clamped to [0, 1] after evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateQueryError,
    DomainError,
    InfeasibleParameterError,
    InputError,
)

MIN_PLAN_POINTS = 150
DEFAULT_L_CAP = 64


@dataclass(frozen=True)
class GroupTestBounds:
    tpr_lower: float
    fpr_upper: float


@dataclass(frozen=True)
class ParamPlan:
    """Planner output: grid shape, filter parameters, and the error variable bound.

    footnote_ok records whether the closed-form derivation's own small-print
    assumptions hold (n_points >= 150 and repetitions >= 10 ln n_points); the
    plan is still returned when they do not.
    """

    n_points: int
    delta: float
    gamma: float
    s_k: float
    s_k1: float
    num_cells: int
    repetitions_raw: float
    repetitions: int
    p: float
    q: float
    m: int
    l_bits: int
    t: float
    t_int: int
    alpha_bound: float
    footnote_ok: bool


def group_testing_bounds(tpr, fpr, num_cells, repetitions, n_points, n_positives) -> GroupTestBounds:
    """Decode error bounds for a num_cells x repetitions grid of noisy tests.

    Tests fire with probability ``tpr`` on groups holding a positive and
    ``fpr`` on all-negative groups; decoding intersects the union of firing
    groups across repetitions. Returns

        tpr_lower = tpr**R
        fpr_upper = [fpr * (e N (B-1) / (B (N-1)))**K
                     + tpr * (1 - (N (B-1) / (e B (N-1)))**K)]**R

    clamped to [0, 1], with B = num_cells, R = repetitions, N = n_points,
    K = n_positives.
    """
    if not (0.0 <= fpr <= tpr <= 1.0):
        raise InputError(f"need 0 <= fpr <= tpr <= 1, got fpr={fpr} tpr={tpr}")
    if not (1 <= n_positives < n_points):
        raise InputError(f"need 1 <= n_positives < n_points, got {n_positives}, {n_points}")
    if not (2 <= num_cells <= n_points):
        raise InputError(f"need 2 <= num_cells <= n_points, got {num_cells}")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    B, R, N, K = num_cells, repetitions, n_points, n_positives
    co_high = (math.e * N * (B - 1) / (B * (N - 1))) ** K
    co_low = (N * (B - 1) / (math.e * B * (N - 1))) ** K
    per_rep = fpr * co_high + tpr * (1.0 - co_low)
    fpr_upper = min(1.0, max(0.0, per_rep)) ** R
    return GroupTestBounds(tpr_lower=tpr**R, fpr_upper=min(1.0, max(0.0, fpr_upper)))


def gamma_stability(s_k: float, s_k1: float) -> float:
    """Stability of a query from its neighbor/non-neighbor similarities.

    Returns ln(s_k) / (ln(s_k1) - ln(s_k)) for 0 < s_k1 < s_k < 1. Small
    values mean the closest points are well separated from the rest.
    """
    for name, v in (("s_k", s_k), ("s_k1", s_k1)):
        if not (0.0 < v < 1.0):
            raise InputError(f"{name} must lie strictly in (0, 1), got {v}")
    if s_k1 == s_k:
        raise DegenerateQueryError("s_k1 == s_k: zero similarity gap, stability undefined")
    if s_k1 > s_k:
        raise InputError(f"need s_k1 < s_k, got s_k1={s_k1} > s_k={s_k}")
    return math.log(s_k) / (math.log(s_k1) - math.log(s_k))


def alpha_bound(m, n_points, gamma) -> float:
    """Shared error-variable bound exp(-m * n_points**(-gamma) / 8)."""
    if m < 1 or n_points < 1:
        raise InputError("m and n_points must be >= 1")
    if gamma < 0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    return math.exp(-m * n_points ** (-gamma) / 8.0)


def plan_parameters(n_points, delta, gamma, s_k, s_k1, l_cap=DEFAULT_L_CAP) -> ParamPlan:
    """Solve the full parameter chain for a target failure probability delta.

    In order: repetitions from the closed-form ratio (rounded up), q =
    n_points**-1/2, p = 1 - delta / (2 R), num_cells = 2 ceil(sqrt n), l_bits
    as the smallest integer with s_k**L >= 2 (n/B) s_k1**L, m =
    ceil(-8 ln(min(q, 1-p)) n**gamma), and the threshold t = m * midpoint of
    the validity window, with t_int = ceil(t).
    """
    if n_points < MIN_PLAN_POINTS:
        raise DomainError(f"planner requires n_points >= {MIN_PLAN_POINTS}, got {n_points}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie strictly in (0, 1), got {delta}")
    if gamma < 0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    gamma_stability(s_k, s_k1)  # validates the similarity pair

    sqrt_n = math.sqrt(n_points)
    denom = math.log(4.80 * sqrt_n) - math.log(2.0 * math.e**2 + 3.44 * sqrt_n)
    r_raw = math.log(1.0 / delta) / denom
    if r_raw <= 0.0:
        raise DomainError(f"repetition formula yields {r_raw:.4g} <= 0 for delta={delta}")
    reps = max(1, math.ceil(r_raw))

    q = n_points**-0.5
    p = 1.0 - delta / (2.0 * reps)
    num_cells = 2 * math.ceil(sqrt_n)
    per_cell = n_points / num_cells

    # smallest L with s_k**L >= 2 * per_cell * s_k1**L
    target = 2.0 * per_cell
    l_bits = next((L for L in range(1, l_cap + 1) if s_k**L >= target * s_k1**L), None)
    if l_bits is None:
        raise InfeasibleParameterError(
            f"no l_bits <= {l_cap} separates s_k={s_k} from s_k1={s_k1} at n={n_points}"
        )

    m = max(1, math.ceil(-8.0 * math.log(min(q, 1.0 - p)) * n_points**gamma))
    t = m * (per_cell * s_k1**l_bits + s_k**l_bits) / 2.0
    t_int = max(1, math.ceil(t))
    return ParamPlan(
        n_points=n_points,
        delta=delta,
        gamma=gamma,
        s_k=s_k,
        s_k1=s_k1,
        num_cells=num_cells,
        repetitions_raw=r_raw,
        repetitions=reps,
        p=p,
        q=q,
        m=m,
        l_bits=l_bits,
        t=t,
        t_int=t_int,
        alpha_bound=alpha_bound(m, n_points, gamma),
        footnote_ok=(n_points >= MIN_PLAN_POINTS and reps >= 10.0 * math.log(n_points)),
    )


def simulate_group_test(n_points, n_positives, num_cells, repetitions, tpr, fpr, trials, seed=0):
    """Monte Carlo decode rates for the balanced grid with noisy tests.

    Per trial and repetition, points land in cells through a random balanced
    partition; each cell fires with probability ``tpr`` when it holds one of
    the ``n_positives`` planted positives and ``fpr`` otherwise, and a point
    is reported when its cell fired in every repetition. Returns the observed
    (tpr, fpr) pair aggregated over all trials.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not (0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0):
        raise InputError("tpr and fpr must lie in [0, 1]")
    if not (1 <= n_positives < n_points):
        raise InputError(f"need 1 <= n_positives < n_points, got {n_positives}, {n_points}")
    if not (2 <= num_cells <= n_points):
        raise InputError(f"need 2 <= num_cells <= n_points, got {num_cells}")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    rng = np.random.default_rng(seed)
    N, B, R, K = n_points, num_cells, repetitions, n_positives
    reported_pos = 0
    reported_neg = 0
    chunk = max(1, min(trials, 1 + (1 << 22) // (R * N)))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        order = rng.random((t, R, N)).argsort(axis=-1)
        cell_of = np.empty((t, R, N), dtype=np.int64)
        np.put_along_axis(cell_of, order, np.arange(N, dtype=np.int64)[None, None, :] % B, axis=-1)
        has_pos = np.zeros((t, R, B), dtype=bool)
        ti = np.arange(t)[:, None, None]
        ri = np.arange(R)[None, :, None]
        has_pos[ti, ri, cell_of[:, :, :K]] = True
        u = rng.random((t, R, B))
        fires = np.where(has_pos, u < tpr, u < fpr)
        passed = np.take_along_axis(fires, cell_of, axis=-1).all(axis=1)
        reported_pos += int(passed[:, :K].sum())
        reported_neg += int(passed[:, K:].sum())
        done += t
    return reported_pos / (trials * K), reported_neg / (trials * (N - K))
