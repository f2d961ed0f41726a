import math

import pytest

from flinng import theory
from flinng.errors import DegenerateQueryError, DomainError, InfeasibleParameterError, InputError


def binom_sigma(rate, n_obs):
    return math.sqrt(max(rate * (1 - rate), 1e-9) / n_obs)


# -- grid decode bounds --------------------------------------------------------


def test_bounds_perfect_tests():
    b = theory.group_testing_bounds(1.0, 0.0, num_cells=10, repetitions=4, n_points=100, n_positives=1)
    assert b.tpr_lower == 1.0


def test_bounds_tpr_is_simple_power():
    b = theory.group_testing_bounds(0.9, 0.0, num_cells=10, repetitions=3, n_points=100, n_positives=1)
    assert b.tpr_lower == pytest.approx(0.729)


def test_bounds_fpr_example_value():
    # frozen from direct evaluation: (1 - 900 / (990 e))**2
    b = theory.group_testing_bounds(1.0, 0.0, num_cells=10, repetitions=2, n_points=100, n_positives=1)
    assert b.fpr_upper == pytest.approx(0.4429756302970575, rel=1e-12)
    assert b.fpr_upper == pytest.approx((1 - 900 / (math.e * 990)) ** 2, rel=1e-12)


def test_bounds_domain_checks():
    with pytest.raises(InputError):
        theory.group_testing_bounds(0.5, 0.9, 10, 2, 100, 1)  # fpr > tpr
    with pytest.raises(InputError):
        theory.group_testing_bounds(0.9, 0.1, 10, 2, 100, 0)  # no positives
    with pytest.raises(InputError):
        theory.group_testing_bounds(0.9, 0.1, 1, 2, 100, 1)  # degenerate grid
    with pytest.raises(InputError):
        theory.group_testing_bounds(0.9, 0.1, 200, 2, 100, 1)  # more cells than points


@pytest.mark.parametrize("count", range(4), ids=["n_points", "n_positives", "num_cells", "repetitions"])
def test_grid_counts_must_be_integers(count):
    # unchecked, simulate_group_test(50.5, ...) raised numpy's TypeError and the bounds took any float
    grid = [100, 1, 10, 2]
    grid[count] += 0.5
    n, k, b, r = grid
    with pytest.raises(InputError, match="must be an integer"):
        theory.group_testing_bounds(0.9, 0.1, b, r, n, k)
    with pytest.raises(InputError, match="must be an integer"):
        theory.simulate_group_test(n, k, b, r, 0.9, 0.1, trials=10)


def test_bounds_clamped_to_unit_interval():
    b = theory.group_testing_bounds(1.0, 1.0, 2, 1, 10, 9)
    assert 0.0 <= b.fpr_upper <= 1.0


# -- stability -----------------------------------------------------------------


def test_gamma_known_values():
    assert theory.gamma_stability(0.5, 0.25) == pytest.approx(1.0)
    assert theory.gamma_stability(0.5, 0.125) == pytest.approx(0.5)


def test_gamma_shrinks_with_wider_gap():
    assert theory.gamma_stability(0.5, 1e-6) < 0.06
    last = math.inf
    for s1 in (0.45, 0.3, 0.1, 0.01):
        g = theory.gamma_stability(0.5, s1)
        assert g < last
        last = g


def test_gamma_errors():
    with pytest.raises(DegenerateQueryError):
        theory.gamma_stability(0.5, 0.5)
    with pytest.raises(InputError):
        theory.gamma_stability(1.0, 0.5)
    with pytest.raises(InputError):
        theory.gamma_stability(0.5, 0.0)
    with pytest.raises(InputError):
        theory.gamma_stability(0.25, 0.5)


# -- error variable --------------------------------------------------------------


def test_alpha_known_values():
    assert theory.alpha_bound(8, 12345, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert theory.alpha_bound(80, 10_000, 0.5) == pytest.approx(math.exp(-0.1), rel=1e-12)


def test_alpha_vanishes_for_huge_m():
    assert theory.alpha_bound(10**6, 100, 0.0) < 1e-10


def test_alpha_monotone_in_gamma():
    # looser stability (larger gamma) always loosens the bound
    for g_small, g_big in [(0.0, 0.1), (0.1, 0.5), (0.5, 1.0)]:
        assert theory.alpha_bound(64, 5000, g_big) >= theory.alpha_bound(64, 5000, g_small)


def test_alpha_domain():
    with pytest.raises(InputError):
        theory.alpha_bound(0, 10, 0.5)
    with pytest.raises(InputError):
        theory.alpha_bound(8, 10, -0.1)
    with pytest.raises(InputError, match="m must be an integer"):
        theory.alpha_bound(2.5, 100, 0.1)
    with pytest.raises(InputError, match="n_points must be an integer"):
        theory.alpha_bound(3, 100.5, 0.1)
    with pytest.raises(InputError, match="gamma must be >= 0"):
        theory.alpha_bound(8, 100, math.nan)


# -- planner ---------------------------------------------------------------------


def test_plan_regression_frozen_values():
    # frozen from an independent evaluation of the closed forms
    plan = theory.plan_parameters(10_000, 0.05, 0.25, 0.5, 0.125)
    assert plan.repetitions_raw == pytest.approx(10.291713318421381, rel=1e-12)
    assert plan.repetitions == 11
    assert plan.q == pytest.approx(0.01, abs=1e-12)
    assert plan.p == pytest.approx(0.9977272727272727, abs=1e-5)
    assert plan.num_cells == 200
    assert plan.l_bits == 4
    assert abs(plan.m - 487) <= 1
    assert plan.t == pytest.approx(plan.m * (50 * 0.125**4 + 0.5**4) / 2, rel=1e-12)
    assert plan.t_int == 19
    assert plan.alpha_bound == pytest.approx(math.exp(-plan.m * 10_000**-0.25 / 8), rel=1e-12)
    assert plan.footnote_ok is False  # 11 repetitions < 10 ln(10^4)


def test_plan_l_bits_is_smallest_feasible():
    grid = [
        (150, 0.1, 0.1, 0.5, 0.125),
        (1000, 0.05, 0.25, 0.8, 0.4),
        (10_000, 0.05, 0.25, 0.5, 0.125),
        (10_000, 0.01, 0.5, 0.9, 0.3),
        (100_000, 0.01, 0.5, 0.5, 0.125),
    ]
    for n, d, g, sk, sk1 in grid:
        plan = theory.plan_parameters(n, d, g, sk, sk1)
        per_cell = n / plan.num_cells
        L = plan.l_bits
        assert sk**L >= 2 * per_cell * sk1**L
        if L > 1:
            assert sk ** (L - 1) < 2 * per_cell * sk1 ** (L - 1)
        # integer threshold sits strictly inside the validity window
        assert plan.m * per_cell * sk1**L < plan.t_int < plan.m * sk**L


def test_plan_l_bits_with_underflowing_similarities():
    # 1e-30**11 and 0.7e-30**11 both underflow to 0, which a linear comparison takes as met
    assert (1e-30) ** 11 == (0.7e-30) ** 11 == 0.0
    plan = theory.plan_parameters(10_000, 0.05, 0.25, 1e-30, 0.7e-30)
    assert plan.l_bits == math.ceil(math.log(100) / math.log(1 / 0.7)) == 13


def test_plan_domain_errors():
    with pytest.raises(DomainError):
        theory.plan_parameters(100, 0.05, 0.25, 0.5, 0.125)
    with pytest.raises(DomainError):
        theory.plan_parameters(10_000, 1.5, 0.25, 0.5, 0.125)
    with pytest.raises(DomainError):
        theory.plan_parameters(10_000, 0.0, 0.25, 0.5, 0.125)
    with pytest.raises(DegenerateQueryError):
        theory.plan_parameters(10_000, 0.05, 0.25, 0.5, 0.5)
    with pytest.raises(InputError, match="n_points must be an integer"):
        theory.plan_parameters(10_000.5, 0.05, 0.25, 0.5, 0.125)
    with pytest.raises(InputError, match="gamma must be >= 0"):
        theory.plan_parameters(10_000, 0.05, math.nan, 0.5, 0.125)


def test_plan_infeasible_l_bits():
    # ratio barely above 1 forces an astronomically deep concatenation
    with pytest.raises(InfeasibleParameterError):
        theory.plan_parameters(10_000, 0.05, 0.25, 0.500001, 0.5)
    # needs L = 44, past the widest code a hash family takes
    with pytest.raises(InfeasibleParameterError, match="no l_bits <= 24"):
        theory.plan_parameters(10_000, 0.05, 0.25, 0.5, 0.45)


# -- simulator --------------------------------------------------------------------


def test_simulate_noiseless_tests():
    tpr, fpr = theory.simulate_group_test(100, 1, 10, 2, tpr=1.0, fpr=0.0, trials=400, seed=1)
    assert tpr == 1.0
    bound = theory.group_testing_bounds(1.0, 0.0, 10, 2, 100, 1)
    assert fpr <= bound.fpr_upper + 3 * binom_sigma(bound.fpr_upper, 400 * 99)


def test_simulate_dead_tests_report_nothing():
    tpr, fpr = theory.simulate_group_test(50, 2, 5, 2, tpr=0.0, fpr=0.0, trials=200, seed=2)
    assert tpr == 0.0
    assert fpr == 0.0


def test_simulate_within_bounds_mid_grid():
    n, k, b, r, p, q, trials = 200, 1, 20, 3, 0.95, 0.05, 3000
    tpr, fpr = theory.simulate_group_test(n, k, b, r, p, q, trials, seed=3)
    bound = theory.group_testing_bounds(p, q, b, r, n, k)
    assert tpr >= bound.tpr_lower - 3 * binom_sigma(bound.tpr_lower, trials * k)
    assert fpr <= bound.fpr_upper + 3 * binom_sigma(bound.fpr_upper, trials * (n - k))


def test_simulate_validates_inputs():
    with pytest.raises(InputError):
        theory.simulate_group_test(100, 1, 10, 2, 0.5, 0.1, trials=0)
    with pytest.raises(InputError):
        theory.simulate_group_test(100, 0, 10, 2, 0.5, 0.1, trials=10)
    with pytest.raises(InputError):
        theory.simulate_group_test(100, 1, 10, 2, 1.5, 0.1, trials=10)
    with pytest.raises(InputError, match="trials must be an integer"):
        theory.simulate_group_test(100, 1, 10, 2, 0.5, 0.1, trials=10.5)
