"""Lower bounds: closed forms, generic agreement, dominance."""

import math

import numpy as np
import pytest

from varidx.bounds import chebyshev_bound, exp_pair_bound, uniform_power_bound
from varidx.distributions import Exponential, Lognormal, Power, Uniform, Weibull2
from varidx.errors import InvalidParameterError, NotMonotoneError, OutOfRangeError
from varidx.measures import varinaccuracy

EPS_GRID = [0.5, 1.0, 1.5, 2.0]


class TestExpPairBound:
    def test_two_term_branch_value(self):
        # eps*lam <= eta: eps^2 (e^{-1-eps lam/eta} + 1 - e^{-1+eps lam/eta}).
        b = exp_pair_bound(1.0, 2.0, 1.0)
        expected = math.exp(-1.5) + 1.0 - math.exp(-0.5)
        assert b.branch == "two_term"
        assert abs(b.bound_value - expected) <= 1e-15
        assert abs(expected - 0.6165995004357965) <= 1e-15
        # Dominated by the exact dispersion value 4 for this pair.
        assert b.bound_value <= 4.0

    def test_one_term_branch_value(self):
        b = exp_pair_bound(4.0, 2.0, 1.0)
        assert b.branch == "one_term"
        assert abs(b.bound_value - math.exp(-3.0)) <= 1e-15

    def test_branch_boundary_continuity(self):
        # At eps*lam = eta the second probability term vanishes exactly.
        two = exp_pair_bound(2.0, 2.0, 1.0)
        assert two.branch == "two_term"
        one_formula = 1.0 * math.exp(-1.0 - 1.0)
        assert abs(two.bound_value - one_formula) <= 1e-15

    def test_invalid_parameters(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(InvalidParameterError):
                exp_pair_bound(*bad)

    def test_method_tag(self):
        assert exp_pair_bound(1.0, 1.0, 1.0).method == "closed_form"

    def test_overflowing_eps_squared_times_zero_is_zero(self):
        # eps^2 = inf and e^{-1 - eps lam/eta} = 0: the limit is 0, not nan.
        b = exp_pair_bound(1e200, 1.0, 1e200)
        assert (b.branch, b.bound_value) == ("one_term", 0.0)


class TestUniformPowerBound:
    def test_two_term_branch_value(self):
        b = uniform_power_bound(3.0, 1.0)
        expected = math.exp(-1.5) + 1.0 - math.exp(-0.5)
        assert b.branch == "two_term"
        assert abs(b.bound_value - expected) <= 1e-15
        # VarI for (uniform, power(3)) is (3-1)^2 = 4.
        assert b.bound_value <= 4.0

    def test_one_term_branch_value(self):
        b = uniform_power_bound(1.5, 1.0)
        assert b.branch == "one_term"
        assert abs(b.bound_value - math.exp(-3.0)) <= 1e-15

    def test_branch_boundary_continuity(self):
        two = uniform_power_bound(2.0, 1.0)  # alpha = 1 + eps exactly
        assert two.branch == "two_term"
        assert abs(two.bound_value - math.exp(-2.0)) <= 1e-15

    def test_overflowing_eps_squared_times_zero_is_zero(self):
        b = uniform_power_bound(2.0, 1e200)
        assert (b.branch, b.bound_value) == ("one_term", 0.0)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            uniform_power_bound(1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            uniform_power_bound(0.8, 0.5)


class TestChebyshevBound:
    def test_matches_exp_closed_form(self):
        worst = 0.0
        for eta in np.arange(0.5, 8.001, 0.5):
            for eps in EPS_GRID:
                g = chebyshev_bound(Exponential(4.0), Exponential(float(eta)), eps)
                c = exp_pair_bound(4.0, float(eta), eps)
                worst = max(worst, abs(g.bound_value - c.bound_value))
                assert g.branch == c.branch
        assert worst <= 1e-9

    def test_matches_uniform_power_closed_form(self):
        worst = 0.0
        for alpha in np.arange(1.25, 5.001, 0.25):
            for eps in EPS_GRID:
                g = chebyshev_bound(Uniform(0.0, 1.0), Power(float(alpha)), eps)
                c = uniform_power_bound(float(alpha), eps)
                worst = max(worst, abs(g.bound_value - c.bound_value))
                assert g.branch == c.branch
        assert worst <= 1e-9

    def test_dominance_on_figure_grids(self):
        for eta in np.arange(0.5, 8.001, 0.5):
            f, g = Exponential(4.0), Exponential(float(eta))
            vi = varinaccuracy(f, g).value
            for eps in EPS_GRID:
                assert chebyshev_bound(f, g, eps).bound_value <= vi + 1e-7
        for alpha in np.arange(1.25, 5.001, 0.25):
            f, g = Uniform(0.0, 1.0), Power(float(alpha))
            vi = varinaccuracy(f, g).value
            for eps in EPS_GRID:
                assert chebyshev_bound(f, g, eps).bound_value <= vi + 1e-7

    def test_dominance_with_bisection_inverse(self):
        # A decreasing Weibull forces the generic log-pdf bisection path.
        f, g = Exponential(0.8), Weibull2(0.7, 1.2)
        vi = varinaccuracy(f, g).value
        for eps in [0.25, 0.5, 1.0, 2.0, 3.0]:
            b = chebyshev_bound(f, g, eps)
            assert 0.0 <= b.bound_value <= vi + 1e-7
            assert b.method == "generic"

    def test_upper_level_past_float_range(self):
        # e^(eps - I) overflows a float: it lies above sup g, so the upper
        # term is 0 and the bound is the closed forms' one-term branch.
        eps = 800.0
        for eta in (1.0, 2.0):
            g = chebyshev_bound(Exponential(4.0), Exponential(eta), eps)
            c = exp_pair_bound(4.0, eta, eps)
            assert (g.branch, c.branch) == ("one_term", "one_term")
            assert abs(g.bound_value - c.bound_value) <= 1e-9
        for alpha in (2.0, 3.0):
            g = chebyshev_bound(Uniform(0.0, 1.0), Power(alpha), eps)
            c = uniform_power_bound(alpha, eps)
            assert (g.branch, c.branch) == ("one_term", "one_term")
            assert abs(g.bound_value - c.bound_value) <= 1e-9

    def test_underflowing_levels_match_closed_form(self):
        # I = 1000, so both levels e^{-1000 -+ 2} underflow a float.
        g = chebyshev_bound(Exponential(1e-3), Exponential(1.0), 2.0)
        c = exp_pair_bound(1e-3, 1.0, 2.0)
        assert g.branch == c.branch == "two_term"
        assert abs(g.bound_value - c.bound_value) <= 1e-12 * c.bound_value
        assert abs(c.bound_value - 3.9941139250) <= 1e-10

    def test_overflowing_eps_squared_times_zero_is_zero(self):
        b = chebyshev_bound(Exponential(1e200), Exponential(1.0), 1e200)
        assert (b.branch, b.bound_value) == ("one_term", 0.0)

    def test_overflowing_level_of_unbounded_pdf_rejected(self):
        # Power(0.5) has sup g = inf: no limit to read past the float range.
        with pytest.raises(OutOfRangeError, match="unbounded"):
            chebyshev_bound(Uniform(0.0, 1.0), Power(0.5), 800.0)

    def test_tiny_eps_vanishes(self):
        b = chebyshev_bound(Exponential(1.0), Exponential(2.0), 1e-6)
        assert b.bound_value <= 2e-12

    def test_non_monotone_hypothesis_rejected(self):
        with pytest.raises(NotMonotoneError):
            chebyshev_bound(Exponential(1.0), Lognormal(0.0, 1.0), 1.0)
        with pytest.raises(NotMonotoneError):
            chebyshev_bound(Exponential(1.0), Uniform(0.0, 1.0), 1.0)

    def test_infinite_inaccuracy_rejected(self):
        with pytest.raises(InvalidParameterError):
            chebyshev_bound(Uniform(0.0, 2.0), Power(2.0), 1.0)

    def test_bound_curves_finite_and_below_dispersion(self):
        # The figure configuration: rate 4 reference, margins 0.5..2.
        for eps in EPS_GRID:
            values = []
            for eta in np.arange(0.5, 8.001, 0.25):
                f, g = Exponential(4.0), Exponential(float(eta))
                b = chebyshev_bound(f, g, eps)
                assert math.isfinite(b.bound_value) and b.bound_value >= 0.0
                assert b.bound_value <= varinaccuracy(f, g).value + 1e-7
                values.append(b.bound_value)
            assert max(values) > 0.0
