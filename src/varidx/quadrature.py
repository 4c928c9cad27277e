"""Adaptive numerical integration on open intervals.

A 15-point Kronrod rule nested over 7-point Gauss drives a globally
adaptive bisection.  An integrand may have several components (rows)
sharing one partition.  Every integral converges by one rule: each row
is done when its summed error estimate drops below its goal
``max(tol, 1e-12 * |value|)``, so paper-scale values are governed by
the absolute tolerance while values of order 1e8 and beyond (second
moments at extreme parameter ratios) stay computable.  The panel split
next is the one whose largest error relative to its row's goal is
greatest, so a row already within its goal draws no further
refinement.  Refinement stops after ``MAX_PANELS`` panels with
:class:`~varidx.errors.QuadratureConvergenceError`, which carries the
best estimate found.  All
quadrature nodes are strictly interior, so an integrable endpoint
singularity is never evaluated; bisection only approaches it, at a cost
of many panels.  :mod:`varidx.measures` therefore integrates a law on
(0, hi) in u = log x, where the power and log factors at 0 become
exponential tails.

Every interval goes through one change of variables,
:func:`change_of_variables`, before refinement starts: a finite
interval stays as it is, and an infinite end is mapped onto
``t in (0, 1)`` by QUADPACK's QAGI substitution.  The whole line is one
map whose two start panels meet at x = 0, refined under one tolerance
and one convergence test.  The density probe grid and the pdf-level
bisection in :mod:`varidx.distributions` use the same map.

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

import heapq
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
    """The integrand was not finite on the panel (a, b); raised in the
    variable the panels cut, then again by :func:`_integrate_vector`
    with the panel mapped back to the integrand's variable."""

    def __init__(self, a: float, b: float):
        super().__init__(f"integrand returned a non-finite value inside ({a!r}, {b!r})")
        self.panel = (a, b)


def _panel_rule(h, a: float, b: float):
    """Apply the 15-point rule to one panel; h returns shape (m, k) data."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center + half * _NODES
    fx = np.atleast_2d(np.asarray(h(x), dtype=float))
    if not np.all(np.isfinite(fx)):
        raise _NonFinite(a, b)
    fsum = fx @ _WGK
    resk = fsum * half
    resg = (fx[:, _GAUSS_IDX] @ _WG) * half
    resabs = (np.abs(fx) @ _WGK) * half
    resasc = (np.abs(fx - 0.5 * fsum[:, None]) @ _WGK) * half
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
    starting from one panel between each pair of consecutive edges.

    Converges when every component's summed error estimate drops below
    ``max(tol, _REL_TOL * |component value|)``, within ``MAX_PANELS``
    panels.
    """
    start = [(a, b, *_panel_rule(h, a, b)) for a, b in zip(edges[:-1], edges[1:])]
    tot_val = sum(val for _, _, val, _ in start)
    tot_err = sum(err for _, _, _, err in start)
    goal = np.maximum(tol, _REL_TOL * np.abs(tot_val))
    # Panels are keyed by their largest error relative to the goal of
    # the same component, the quantity the convergence test uses.
    heap = [
        (-float(np.max(err / goal)), i, a, b, val, err)
        for i, (a, b, val, err) in enumerate(start)
    ]
    heapq.heapify(heap)
    counter = n_panels = len(heap)
    frozen: list[tuple[np.ndarray, np.ndarray]] = []

    while heap:
        goal = np.maximum(tol, _REL_TOL * np.abs(tot_val))
        if np.all(tot_err <= goal):
            break
        if n_panels >= MAX_PANELS:
            value, error = _collect(heap, frozen)
            raise QuadratureConvergenceError(
                f"no convergence after {n_panels} panels "
                f"(error {float(error.max()):.3e} > tol {tol:.3e})",
                value=value,
                abs_error_estimate=error,
                subdivisions=n_panels,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not pa < mid < pb:
            # Panel endpoints are adjacent floats; park it as is.
            frozen.append((pval, perr))
            continue
        tot_val -= pval
        tot_err -= perr
        v1, e1 = _panel_rule(h, pa, mid)
        v2, e2 = _panel_rule(h, mid, pb)
        tot_val += v1 + v2
        tot_err += e1 + e2
        heapq.heappush(heap, (-float(np.max(e1 / goal)), counter, pa, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-float(np.max(e2 / goal)), counter, mid, pb, v2, e2))
        counter += 1
        n_panels += 1

    value, error = _collect(heap, frozen)
    goal = np.maximum(tol, _REL_TOL * np.abs(value))
    if not np.all(error <= goal):
        raise QuadratureConvergenceError(
            f"panels exhausted at width floor with error "
            f"{float(error.max()):.3e} > tol {tol:.3e}",
            value=value,
            abs_error_estimate=error,
            subdivisions=n_panels,
        )
    return value, error, n_panels


def _collect(heap, frozen):
    """Exact (non-incremental) sums over all live and parked panels."""
    parts = [(pval, perr) for _, _, _, _, pval, perr in heap] + frozen
    return sum(v for v, _ in parts), sum(e for _, e in parts)


def change_of_variables(lo: float, hi: float):
    """x(t), dx/dt and the start edges in t of an integral over (lo, hi).

    A finite interval is its own variable, with edges (lo, hi) and no
    Jacobian (dx/dt None).  An infinite end is removed by QUADPACK's
    QAGI substitution (Piessens et al., 1983) on t in (0, 1):
    x = c + t / (1 - t) toward +inf and x = c - (1 - t) / t toward
    -inf, c being the finite end.  The whole line takes their sum
    x = t / (1 - t) - (1 - t) / t, with edges (0, 1/2, 1): its two start
    panels meet at x = 0.  A t that rounds to 0 or 1 maps onto the
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
    non-finite integrand is reported on its panel in h's variable."""
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    try:
        return _adaptive(*_mapped(h, lo, hi), tol)
    except _NonFinite as exc:
        x = change_of_variables(lo, hi)[0](np.array(exc.panel))
        raise _NonFinite(*(float(v) for v in x)) from None


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
            str(exc),
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
