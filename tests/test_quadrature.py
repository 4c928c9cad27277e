"""Adaptive integrator checks against known closed forms."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varidx import quadrature
from varidx.errors import InvalidParameterError, QuadratureConvergenceError
from varidx.distributions import Exponential, Lognormal, Uniform, Weibull2
from varidx.quadrature import _mapped, expectations, integrate

FLOOR = 1e-300
LOG2 = math.log(2.0)


def test_exponential_tail_integral():
    r = integrate(lambda x: np.exp(-x), (0.0, math.inf), tol=1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    assert r.abs_error_estimate <= 1e-10
    assert r.subdivisions >= 1


def test_squared_log_integrand_on_half_line():
    # exp(-x) * log^2(2 exp(-2x)) integrates to log^2(2) - 4 log 2 + 8.
    def h(x):
        return np.exp(-x) * np.log(np.maximum(2.0 * np.exp(-2.0 * x), FLOOR)) ** 2

    expected = LOG2**2 - 4.0 * LOG2 + 8.0
    r = integrate(h, (0.0, math.inf), tol=1e-10)
    assert abs(r.value - expected) <= 1e-10


def test_squared_log_integrand_on_unit_interval():
    expected = LOG2**2 - 2.0 * LOG2 + 2.0
    r = integrate(lambda x: np.log(2.0 * x) ** 2, (0.0, 1.0), tol=1e-10)
    assert abs(r.value - expected) <= 1e-10


def test_gaussian_over_whole_line():
    r = integrate(
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        (-math.inf, math.inf),
        tol=1e-10,
    )
    assert abs(r.value - 1.0) <= 1e-10


def test_integrable_endpoint_singularity():
    r = integrate(lambda x: 1.0 / np.sqrt(x), (0.0, 1.0), tol=1e-9)
    assert abs(r.value - 2.0) <= 1e-8


def test_error_estimate_bounds_true_error():
    r = integrate(lambda x: np.sin(x), (0.0, math.pi), tol=1e-11)
    assert abs(r.value - 2.0) <= max(r.abs_error_estimate, 1e-11)


def test_divergent_integrand_raises_with_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureConvergenceError) as exc:
        integrate(lambda x: 1.0 / x, (0.0, 1.0), tol=1e-9)
    assert exc.value.subdivisions == 64
    assert exc.value.value > 10.0  # partial sums of a log-divergent integral


def test_convergence_error_names_its_interval(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureConvergenceError, match=r"on \(0, 1\)$"):
        integrate(lambda x: 1.0 / x, (0.0, 1.0))
    with pytest.raises(QuadratureConvergenceError, match=r"on \(-inf, 2\)$"):
        integrate(lambda x: 1.0 / (2.0 - x), (-math.inf, 2.0))


@pytest.mark.parametrize(
    "h", [lambda x: np.sin(1.0 / x), lambda x: np.sin(1.0 / x) / x], ids=["sin(1/x)", "sin(1/x)/x"]
)
def test_oscillation_stops_within_max_panels(h):
    # Near 0 these never settle.  No call takes more than _CALL_PANELS
    # panels, and the last round stops exactly at MAX_PANELS: the start
    # panels are evaluated once, every later panel as one of a pair.
    nodes = []

    def counted(x):
        nodes.append(x.size)
        return h(x)

    with pytest.raises(QuadratureConvergenceError, match="no convergence") as exc:
        integrate(counted, (0.0, 1.0))
    assert exc.value.subdivisions == quadrature.MAX_PANELS
    assert max(nodes) <= 15 * quadrature._CALL_PANELS
    assert sum(nodes) == 15 * (2 * quadrature.MAX_PANELS - quadrature._START_PANELS)


def test_width_floor_stops_at_once():
    # A simple pole at a float m whose last bit is odd, on an interval
    # symmetric about it: the integral is 0, so the goal is tol.  The
    # panels next to m narrow to adjacent floats, where every node
    # rounds onto the far end and the error stays at its rounding
    # floor, above tol.  Refinement stops there, not at MAX_PANELS.
    m = 0.75 + 2.0**-53
    calls = []

    def h(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return np.where(x == m, 0.0, 1.0 / (x - m))

    with pytest.raises(QuadratureConvergenceError, match="width floor") as exc:
        integrate(h, (m - 0.125, m + 0.125), tol=1e-15)
    assert exc.value.subdivisions < quadrature.MAX_PANELS // 4
    assert len(calls) < 60


def test_non_finite_integrand_names_the_lowest_panel():
    # Not finite on start panels on both sides of x = 0: the error names
    # the lowest of them in x, the one of t in (5/16, 6/16) among the
    # whole line's 16 start panels.
    def h(x):
        return np.where(np.abs(np.abs(x) - 1.0) < 0.5, np.nan, np.exp(-x * x))

    assert quadrature._START_PANELS == 8
    lo, hi = quadrature.change_of_variables(-math.inf, math.inf)[0](np.array([0.3125, 0.375])).tolist()
    with pytest.raises(InvalidParameterError, match=re.escape(f"inside ({lo!r}, {hi!r})")):
        integrate(h, (-math.inf, math.inf))
    assert -1.75 < lo < -1.5 < hi < -1.0
    # So it does whatever the order of the panels in the call.
    with pytest.raises(quadrature._NonFinite) as exc:
        quadrature._panel_rule(h, np.array([0.5, -2.0, 3.0]), np.array([1.5, -0.5, 4.0]))
    assert exc.value.panels.tolist() == [[-2.0, -0.5], [0.5, 1.5]]
    assert "inside (-2.0, -0.5)" in str(exc.value)


def test_tail_scale_keeps_zeros_at_the_infinite_end():
    # On the whole line, t = 0 and t = 1 are x = -inf and x = inf, where
    # dx/dt is infinite: a zero there stays an exact 0 and a nonzero
    # value becomes inf (rejected by the panel rule), silently.
    values = np.array([[1.0, 0.0, 0.0, 2.0, 2.0]])
    seen = []

    def h(x):
        seen.append(x)
        return values

    in_t, edges = _mapped(h, -math.inf, math.inf)
    out = in_t(np.array([0.5, 0.0, 1.0, 0.0, 1.0]))
    assert edges == (0.0, 0.5, 1.0)
    assert seen[0].tolist() == [0.0, -math.inf, math.inf, -math.inf, math.inf]
    assert out.tolist() == [[8.0, 0.0, 0.0, math.inf, math.inf]]


def test_invalid_interval_and_tolerance():
    with pytest.raises(InvalidParameterError):
        integrate(lambda x: x, (1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        integrate(lambda x: x, (0.0, 1.0), tol=0.0)


def test_non_finite_integrand_rejected():
    with pytest.raises(InvalidParameterError):
        integrate(lambda x: np.full(x.shape, np.nan), (0.0, 1.0))


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_linearity(a, scale):
    """integrate(a*h1 + h2) = a*integrate(h1) + integrate(h2) within 2 tol."""
    tol = 1e-10

    def h1(x):
        return np.exp(-scale * x)

    def h2(x):
        return x * np.exp(-x)

    lhs = integrate(lambda x: a * h1(x) + h2(x), (0.0, math.inf), tol=tol).value
    rhs = (
        a * integrate(h1, (0.0, math.inf), tol=tol).value
        + integrate(h2, (0.0, math.inf), tol=tol).value
    )
    assert abs(lhs - rhs) <= 2.0 * tol + 1e-12 * abs(rhs)


def test_substitution_stability():
    # Remapping (0, inf) through x = t/(1-t) by hand gives the same value.
    tol = 1e-10

    def h(x):
        return np.exp(-x) * x**2

    direct = integrate(h, (0.0, math.inf), tol=tol).value

    def remapped(t):
        w = 1.0 - t
        return h(t / w) / w**2

    manual = integrate(remapped, (0.0, 1.0), tol=tol).value
    assert abs(direct - manual) <= 2.0 * tol
    assert abs(direct - 2.0) <= 2.0 * tol  # Gamma(3) = 2


def test_expectation_of_exponential_mean():
    r = expectations(Exponential(1.0), [lambda x: x], tol=1e-10)[0]
    assert abs(r.value - 1.0) <= 1e-10


def test_expectation_matches_inaccuracy_integrands():
    # E_f[-log(2 e^{-2x})] under Exp(1) is 2 - log 2.
    r = expectations(
        Exponential(1.0),
        [lambda x: -np.log(np.maximum(2.0 * np.exp(-2.0 * x), FLOOR))],
        tol=1e-10,
    )[0]
    assert abs(r.value - (2.0 - LOG2)) <= 1e-10
    # E_f[-log(2x)] under U(0,1) is 1 - log 2.
    r = expectations(
        Uniform(0.0, 1.0), [lambda x: -np.log(np.maximum(2.0 * x, FLOOR))], tol=1e-10
    )[0]
    assert abs(r.value - (1.0 - LOG2)) <= 1e-10


def test_shared_partition_expectations_agree_with_singles():
    f = Exponential(1.3)

    def w(x):
        return np.log1p(x)

    joint = expectations(f, [w, lambda x: w(x) ** 2], tol=1e-10)
    single1 = expectations(f, [w], tol=1e-10)[0]
    single2 = expectations(f, [lambda x: w(x) ** 2], tol=1e-10)[0]
    assert abs(joint[0].value - single1.value) <= 1e-9
    assert abs(joint[1].value - single2.value) <= 1e-9
    # Both components report the same partition size.
    assert joint[0].subdivisions == joint[1].subdivisions


def test_refinement_follows_each_rows_own_goal():
    # The second row (about 1.4e10) has a relative goal near 1e-2
    # while the first needs 1e-9; panels must be picked by the error
    # relative to each row's goal, not by the raw error sum, or the
    # large row keeps drawing refinement it no longer needs (586 panels).
    b = Weibull2(2.68, 0.145).log_pdf
    m1, m2 = expectations(Lognormal(1.28, 1.191), [b, lambda x: b(x) ** 2])
    assert m1.subdivisions <= 100
    i, vari = 729.0743727035012, 14177393443.556719
    assert abs(m1.value + i) <= 1e-9 * i
    assert abs(m2.value - (vari + i * i)) <= 1e-9 * vari
