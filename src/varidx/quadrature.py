"""Adaptive numerical integration on open intervals.

A 15-point Kronrod rule nested over 7-point Gauss drives a globally
adaptive bisection.  An integrand may have several components (rows)
sharing one partition.  Every integral converges by one rule: each row
is done when its summed error estimate drops below its goal
``max(tol, 1e-12 * |value|)``, so paper-scale values are governed by
the absolute tolerance while values of order 1e8 and beyond (second
moments at extreme parameter ratios) stay computable.

Refinement goes in rounds; the start panels are round 0: each interval
between consecutive start edges is cut into ``_START_PANELS`` equal
panels, which count against ``MAX_PANELS``.  A call of the integrand
costs a fixed 0.3 ms or so of numpy work at the package's sizes, while
a parametric node costs about 1 us, so a round saved pays for some 300
nodes: starting from panels that already cover f's bulk (the variable
of :mod:`varidx.measures` is centred on it) takes fewer rounds than
halving down to it from one panel, and a narrow law no longer falls
between the nodes of the first call.  Each round
ranks the panels by their largest error relative to the goal of the
same row, so a row already within its goal draws no further
refinement, and splits the fewest of them, in that order, whose errors
together cover every row's excess over its goal.  The children of all
of them are evaluated in one call of the integrand, of at most
``_CALL_PANELS`` panels, and a round never takes the panel count past
``MAX_PANELS``.  A panel whose ends are adjacent floats cannot be split
and is parked, its value and error kept in the sums.  Refinement stops
with :class:`~varidx.errors.QuadratureConvergenceError`, which carries
the best estimate found and names the interval, after ``MAX_PANELS``
panels, or at once when the parked panels' error alone exceeds a row's
goal (the width floor), since no split can lower it.  All
quadrature nodes are strictly interior, so an integrable endpoint
singularity is never evaluated; bisection only approaches it, at a cost
of many panels.  :mod:`varidx.measures` therefore integrates a law on
(0, hi) in u = log x, where the power and log factors at 0 become
exponential tails.

Every interval goes through one change of variables,
:func:`change_of_variables`, before refinement starts: a finite
interval stays as it is, and an infinite end is mapped onto
``t in (0, 1)`` by QUADPACK's QAGI substitution.  The whole line is one
map whose two start intervals meet at x = 0, refined under one tolerance
and one convergence test.  The density probe grid in
:mod:`varidx.distributions` uses the same map.

:mod:`varidx.measures` drives the vector loop with its own rows: the
package's measures integrate nothing else.  :func:`expectations` runs
the same loop for E[w_i(X)] under one density, every w_i on one shared
partition, so that the error control applies to all of them at once.
Nothing in the package calls it: the tests use it as a reference that
is independent of the rows :mod:`varidx.measures` builds, for the
transform identity of a pushforward, and it stays public because
``bench/tracing.py`` counts panels by wrapping this name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureConvergenceError

__all__ = [
    "IntegralResult",
    "DEFAULT_TOL",
    "MAX_PANELS",
    "integrate",
    "expectations",
    "change_of_variables",
]

DEFAULT_TOL = 1e-9
MAX_PANELS = 1 << 15
# The relative floor of every row's goal.
_REL_TOL = 1e-12
# One call of the integrand evaluates at most _CALL_PANELS panels, so a
# round splits at most half as many: 3840 nodes per row, 30 KB per row
# of the integrand's output, however many panels the round's errors
# ask for.  The benchmark's largest call is 18 panels.
_CALL_PANELS = 256
# Round 0's equal panels per start interval (see the module docstring).
_START_PANELS = 8

_EPS = np.finfo(float).eps

# 15-point Kronrod abscissae on [-1, 1] (positive half) with their
# weights, and the weights of the embedded 7-point Gauss rule.
_XGK_HALF = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993945,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224,
        0.06309209262997855,
        0.10479001032225018,
        0.14065325971552592,
        0.1690047266392679,
        0.19035057806478542,
        0.20443294007529889,
        0.20948214108472783,
    ]
)
_WG_HALF = np.array(
    [
        0.1294849661688697,
        0.27970539148927664,
        0.3818300505051189,
        0.41795918367346935,
    ]
)

# Full symmetric node/weight arrays, nodes ascending.  The Gauss nodes
# sit at the odd positions of the Kronrod array.
_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class IntegralResult:
    """Value of a definite integral with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    subdivisions: int


class _NonFinite(InvalidParameterError):
    """The integrand was not finite on the panels ``ends``, a (k, 2)
    array; the message names the lowest of them.  Raised in the variable
    the panels cut, then again in the integrand's own variable by
    :func:`_integrate_vector` and by :mod:`varidx.measures` in x."""

    def __init__(self, ends):
        ends = np.sort(np.asarray(ends, dtype=float).reshape(-1, 2), axis=1)
        self.panels = ends[np.argsort(ends[:, 0], kind="stable")]
        a, b = (float(v) for v in self.panels[0])
        super().__init__(f"integrand returned a non-finite value inside ({a!r}, {b!r})")


def _panel_rule(h, a: np.ndarray, b: np.ndarray):
    """Apply the 15-point rule to the panels (a[i], b[i]) in one call of
    h, which returns shape (m, 15 P) data; returns (m, P) values and
    errors."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (center[:, None] + half[:, None] * _NODES).ravel()
    fx = np.atleast_2d(np.asarray(h(x), dtype=float)).reshape(-1, a.size, _NODES.size)
    bad = ~np.isfinite(fx).all(axis=(0, 2))
    if np.any(bad):
        raise _NonFinite(np.stack([a[bad], b[bad]], axis=1))
    fsum = fx @ _WGK
    resk = fsum * half
    resg = (fx[..., _GAUSS_IDX] @ _WG) * half
    resabs = (np.abs(fx) @ _WGK) * half
    resasc = (np.abs(fx - 0.5 * fsum[..., None]) @ _WGK) * half
    err = np.abs(resk - resg)
    rescale = (resasc > 0.0) & (err > 0.0)
    if np.any(rescale):
        safe_asc = np.where(rescale, resasc, 1.0)
        scaled = resasc * np.minimum(1.0, (200.0 * err / safe_asc) ** 1.5)
        err = np.where(rescale, scaled, err)
    # Never chase error below the attainable rounding level.
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def _adaptive(h, edges, tol: float):
    """Globally adaptive refinement of the integrals of the rows of h,
    in rounds, starting from ``_START_PANELS`` equal panels between each
    pair of consecutive edges (round 0).

    Converges when every row's summed error estimate drops below
    ``max(tol, _REL_TOL * |row value|)``, within ``MAX_PANELS`` panels.
    Returns the values, the errors and the panel count, start panels
    plus splits.
    """
    edges = np.asarray(edges, dtype=float)
    cuts = np.linspace(edges[:-1], edges[1:], _START_PANELS + 1, axis=1)
    a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    val, err = _panel_rule(h, a, b)
    n_panels = a.size
    # Sums over the parked panels, whose ends are adjacent floats.
    parked_val = parked_err = 0.0
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        if not np.all(live):
            parked_val += val[:, ~live].sum(axis=1)
            parked_err += err[:, ~live].sum(axis=1)
            a, b, mid, val, err = a[live], b[live], mid[live], val[:, live], err[:, live]
        value = val.sum(axis=1) + parked_val
        error = err.sum(axis=1) + parked_err
        goal = np.maximum(tol, _REL_TOL * np.abs(value))
        excess = error - goal
        if np.all(excess <= 0.0):
            return value, error, n_panels
        if np.any(parked_err > goal):
            raise QuadratureConvergenceError(
                f"panels exhausted at width floor with error "
                f"{float(error.max()):.3e} > tol {tol:.3e}",
                value=value,
                abs_error_estimate=error,
                subdivisions=n_panels,
            )
        if n_panels >= MAX_PANELS:
            raise QuadratureConvergenceError(
                f"no convergence after {n_panels} panels "
                f"(error {float(error.max()):.3e} > tol {tol:.3e})",
                value=value,
                abs_error_estimate=error,
                subdivisions=n_panels,
            )
        # Split the fewest panels, by largest error relative to the goal
        # of the same row, whose errors cover every row's excess.
        order = np.argsort(-np.max(err / goal[:, None], axis=0), kind="stable")
        short = np.cumsum(err[:, order], axis=1) < excess[:, None]
        k = int(short.sum(axis=1).max()) + 1
        split = order[: min(k, MAX_PANELS - n_panels, _CALL_PANELS // 2)]
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        new_a = np.concatenate([a[split], mid[split]])
        new_b = np.concatenate([mid[split], b[split]])
        new_val, new_err = _panel_rule(h, new_a, new_b)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        val = np.concatenate([val[:, keep], new_val], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        n_panels += split.size


def change_of_variables(lo: float, hi: float):
    """x(t), dx/dt and the start edges in t of an integral over (lo, hi).

    A finite interval is its own variable, with edges (lo, hi) and no
    Jacobian (dx/dt None).  An infinite end is removed by QUADPACK's
    QAGI substitution (Piessens et al., 1983) on t in (0, 1):
    x = c + t / (1 - t) toward +inf and x = c - (1 - t) / t toward
    -inf, c being the finite end.  The whole line takes their sum
    x = t / (1 - t) - (1 - t) / t, with edges (0, 1/2, 1): its two start
    intervals meet at x = 0.  A t that rounds to 0 or 1 maps onto the
    infinite end, and dx/dt there is inf, without a warning.
    """
    up, down = math.isinf(hi), math.isinf(lo)
    if not (up or down):
        return (lambda t: t), None, (lo, hi)
    c = 0.0 if up and down else (lo if up else hi)

    def x(t):
        with np.errstate(divide="ignore", over="ignore"):
            toward_hi = t / (1.0 - t) if up else 0.0
            toward_lo = (1.0 - t) / t if down else 0.0
            return c + toward_hi - toward_lo

    def dx_dt(t):
        with np.errstate(divide="ignore", over="ignore"):
            toward_hi = 1.0 / (1.0 - t) ** 2 if up else 0.0
            toward_lo = 1.0 / (t * t) if down else 0.0
            return toward_hi + toward_lo

    return x, dx_dt, (0.0, 0.5, 1.0) if up and down else (0.0, 1.0)


def _mapped(h, lo: float, hi: float):
    """The integrand of h over (lo, hi) in t, and its start edges.

    A zero of h stays an exact 0, also at a node where dx/dt is
    infinite (a t that rounds onto an infinite end); a nonzero value
    there gives inf, which the panel rule rejects.
    """
    x, dx_dt, edges = change_of_variables(lo, hi)
    if dx_dt is None:
        return h, edges

    def in_t(t):
        values = h(x(t))
        with np.errstate(over="ignore", invalid="ignore"):
            out = values * dx_dt(t)
        out[values == 0.0] = 0.0
        return out

    return in_t, edges


def _integrate_vector(h, lo, hi, tol):
    """:func:`_adaptive` over (lo, hi) through :func:`_mapped`; a
    non-finite integrand is reported on its panels in h's variable."""
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    try:
        return _adaptive(*_mapped(h, lo, hi), tol)
    except _NonFinite as exc:
        raise _NonFinite(change_of_variables(lo, hi)[0](exc.panels)) from None


def integrate(
    h: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> IntegralResult:
    """Integrate ``h`` over the open interval ``(lo, hi)``.

    Parameters
    ----------
    h : callable
        Vectorized integrand; receives an ndarray of strictly interior
        points and returns values of matching shape.  Endpoints are
        never evaluated, so integrable endpoint singularities are fine.
    interval : (float, float)
        Open integration interval; either endpoint may be infinite.
    tol : float
        Absolute tolerance on the total error estimate; convergence is
        declared at ``max(tol, 1e-12 * |value|)``.  Exceeding
        ``MAX_PANELS`` panels raises
        :class:`~varidx.errors.QuadratureConvergenceError` carrying the
        best estimate found.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise InvalidParameterError(f"empty interval ({lo}, {hi})")
    try:
        value, error, n = _integrate_vector(h, lo, hi, tol)
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(
            f"{exc} on ({lo:g}, {hi:g})",
            value=float(np.asarray(exc.value).ravel()[0]),
            abs_error_estimate=float(np.asarray(exc.abs_error_estimate).ravel()[0]),
            subdivisions=exc.subdivisions,
        ) from None
    return IntegralResult(float(value[0]), float(error[0]), n)


def expectations(
    density,
    ws: Sequence[Callable[[np.ndarray], np.ndarray]],
    tol: float = DEFAULT_TOL,
) -> list[IntegralResult]:
    """Expectations ``E[w_i(X)]`` under ``density``, on one shared partition
    of its support.

    Regions where the pdf vanishes contribute zero by convention, which
    matches treating the integrand as an expectation: the weight
    functions are only ever evaluated where there is mass.
    """
    lo, hi = density.support
    nw = len(ws)

    def h(x):
        fx = np.asarray(density.pdf(x), dtype=float)
        out = np.zeros((nw, x.size))
        mask = fx > 0.0
        if np.any(mask):
            xs = x[mask]
            fs = fx[mask]
            for i, w in enumerate(ws):
                out[i, mask] = fs * np.asarray(w(xs), dtype=float)
        return out

    value, error, n = _integrate_vector(h, float(lo), float(hi), tol)
    return [IntegralResult(float(v), float(e), n) for v, e in zip(value, error)]
