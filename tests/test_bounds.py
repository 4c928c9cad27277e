"""Lower bounds: closed forms, generic agreement, dominance."""

import math

import numpy as np
import pytest

from varidx import bounds
from varidx.bounds import chebyshev_bound, exp_pair_bound, uniform_power_bound
from varidx.distributions import (
    Exponential,
    LogKernelDensity,
    Lognormal,
    Power,
    Uniform,
    Weibull2,
)
from varidx.errors import InvalidParameterError, NotMonotoneError, OutOfRangeError
from varidx.measures import info_moments, varinaccuracy

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


class TestMarginList:
    """A list of margins gives, bit for bit, one call per margin."""

    EPS = [1e-6, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 1e200]

    @pytest.mark.parametrize(
        "f,g",
        [
            (Exponential(4.0), Exponential(0.5)),
            (Exponential(4.0), Exponential(8.0)),
            (Uniform(0.0, 1.0), Power(0.5)),
            (Uniform(0.0, 1.0), Power(3.0)),
            (Power(1.5), Power(0.8)),
            # Weibull2 with shape <= 1 takes the bisection route.
            (Exponential(0.8), Weibull2(0.5, 1.2)),
            (Exponential(0.8), Weibull2(0.8, 1.2)),
            (Weibull2(1.5, 0.5), Weibull2(1.0, 2.0)),
            # I = 1000: the levels underflow a float.
            (Exponential(1e-3), Exponential(1.0)),
            # eps^2 overflows where the probabilities are 0.
            (Exponential(1e200), Exponential(1.0)),
        ],
        ids=repr,
    )
    def test_list_matches_one_call_per_margin(self, f, g):
        eps = self.EPS if math.isfinite(g.pdf_range()[1]) else self.EPS[:-1]
        one = [chebyshev_bound(f, g, e) for e in eps]
        assert all(isinstance(b, bounds.BoundResult) for b in one)
        # BoundResult equality compares the float fields exactly.
        assert chebyshev_bound(f, g, eps) == one
        assert chebyshev_bound(f, g, tuple(eps)) == one

    def test_kde_f_matches_one_call_per_margin_to_rounding(self):
        # A KDE's cdf sums each threshold over the kernel windows of the
        # whole batch, so the list agrees with one call per margin only
        # to rounding.
        data = np.random.default_rng(3).exponential(1.0, 200)
        f, g = LogKernelDensity(data, 0.3), Exponential(1.0)
        one = [chebyshev_bound(f, g, e) for e in self.EPS]
        many = chebyshev_bound(f, g, self.EPS)
        assert [b.branch for b in many] == [b.branch for b in one]
        assert {b.branch for b in one} == {"one_term", "two_term"}
        for b_many, b_one in zip(many, one):
            assert b_many.bound_value == pytest.approx(b_one.bound_value, rel=1e-12, abs=1e-14)

    def test_both_branches_and_zero_values_are_covered(self):
        rows = chebyshev_bound(Exponential(4.0), Exponential(8.0), self.EPS)
        assert {b.branch for b in rows} == {"one_term", "two_term"}
        last = chebyshev_bound(Exponential(1e200), Exponential(1.0), self.EPS)[-1]
        assert (last.branch, last.bound_value) == ("one_term", 0.0)

    def test_bad_margin_is_rejected_before_any_evaluation(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("I was computed before the margins were checked")

        monkeypatch.setattr(bounds, "inaccuracy", never)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                chebyshev_bound(Exponential(1.0), Exponential(2.0), [0.5, bad, 1.0])

    def test_overflowing_level_of_unbounded_pdf_rejected_in_a_list(self):
        with pytest.raises(OutOfRangeError, match="unbounded"):
            chebyshev_bound(Uniform(0.0, 1.0), Power(0.5), [0.5, 800.0, 1.0])


class TestBoundGrid:
    """A grid of gs is one call and one evaluation of f's cdf."""

    EPS = [0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize(
        "f,gs",
        [
            (Exponential(4.0), [Exponential(float(x)) for x in np.arange(0.5, 8.001, 0.25)]),
            (Uniform(0.0, 1.0), [Power(float(x)) for x in np.arange(1.25, 5.001, 0.25)]),
        ],
        ids=["exp", "power"],
    )
    def test_figure_grids_match_one_call_per_point(self, cdf_calls, f, gs):
        # BoundResult equality compares the float fields exactly.
        one = [[chebyshev_bound(f, g, e) for e in self.EPS] for g in gs]
        i_values = [r.I.value for r in info_moments(f, gs)]
        before = len(cdf_calls)
        assert bounds._generic_bounds(f, gs, self.EPS) == one
        assert bounds._generic_bounds(f, gs, self.EPS, i_values) == one
        assert len(cdf_calls) == before + 2

    def test_kde_f_matches_one_call_per_point_to_rounding(self):
        # A KDE's cdf sums each threshold over the kernel windows of the
        # whole batch, so the grid agrees with one call per point only to
        # rounding.
        data = np.random.default_rng(5).exponential(1.0, 200)
        f = LogKernelDensity(data, 0.3)
        gs = [Exponential(x) for x in (0.25, 0.5, 1.0, 2.0, 4.0)]
        grid = bounds._generic_bounds(f, gs, self.EPS)
        for g, row in zip(gs, grid, strict=True):
            for e, b in zip(self.EPS, row, strict=True):
                one = chebyshev_bound(f, g, e)
                assert b.branch == one.branch
                assert b.bound_value == pytest.approx(one.bound_value, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "f,gs,eps,error",
        [
            # Lognormal first, then a uniform: both fail the monotone check.
            (
                Exponential(1.0),
                [Exponential(2.0), Lognormal(0.0, 1.0), Uniform(0.0, 5.0)],
                EPS,
                NotMonotoneError,
            ),
            # Power(2) lives on (0, 1), so I is infinite under Uniform(0, 2).
            (
                Uniform(0.0, 2.0),
                [Exponential(1.0), Power(2.0), Lognormal(0.0, 1.0)],
                EPS,
                InvalidParameterError,
            ),
            # Both unbounded powers overflow their upper level, each its own.
            (
                Uniform(0.0, 1.0),
                [Power(2.0), Power(0.5), Power(0.25)],
                [0.5, 800.0],
                OutOfRangeError,
            ),
        ],
        ids=["not-monotone", "infinite-I", "overflowing-level"],
    )
    def test_first_failing_g_raises_as_a_loop_would(self, f, gs, eps, error):
        with pytest.raises(error) as loop:
            for g in gs:
                chebyshev_bound(f, g, eps)
        with pytest.raises(error) as grid:
            bounds._generic_bounds(f, gs, eps)
        assert str(grid.value) == str(loop.value)
        i_values = [r.I.value for r in info_moments(f, gs)]
        with pytest.raises(error) as read:
            bounds._generic_bounds(f, gs, eps, i_values)
        assert str(read.value) == str(loop.value)
