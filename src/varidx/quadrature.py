"""Adaptive numerical integration on open intervals.

A 15-point Kronrod rule nested over 7-point Gauss drives a globally
adaptive bisection.  An integrand may have several components (rows)
sharing one partition; each row converges when its summed error
estimate drops below its goal ``max(tol, rel_tol * |value|)``.  The
panel split next is the one whose largest error relative to its row's
goal is greatest, so a row already within its (possibly loose,
relative) goal draws no further refinement.  All
quadrature nodes are strictly interior, so an integrable endpoint
singularity is never evaluated; bisection only approaches it, at a cost
of many panels.  :mod:`varidx.measures` therefore integrates a law on
(0, hi) in u = log x, where the power and log factors at 0 become
exponential tails.

Infinite endpoints are removed before refinement starts by the change
of variable :func:`half_line`, ``x = lo + t / (1 - t)`` (mirrored for a
lower endpoint at minus infinity), which maps the tail onto
``t in (0, 1)``.  It is the package's one half-line map: the density
probe grid and the pdf-level bisection in :mod:`varidx.distributions`
use it too.

:mod:`varidx.measures` drives the vector loop with its own rows: the
package's measures integrate nothing else.  :func:`expectations` runs
the same loop for E[w_i(X)] under one density, every w_i on one shared
partition, so that the error control applies to all of them at once.
Nothing in the package calls it; it stays public because
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
    "half_line",
]

DEFAULT_TOL = 1e-9
MAX_PANELS = 1 << 15

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


def _panel_rule(h, a: float, b: float):
    """Apply the 15-point rule to one panel; h returns shape (m, k) data."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center + half * _NODES
    fx = np.atleast_2d(np.asarray(h(x), dtype=float))
    if not np.all(np.isfinite(fx)):
        raise InvalidParameterError(
            f"integrand returned a non-finite value inside ({a!r}, {b!r})"
        )
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


def _adaptive(h, a: float, b: float, tol: float, rel_tol: float, max_panels: int):
    """Globally adaptive refinement of the integrals of the rows of h.

    Converges when every component's summed error estimate drops below
    ``max(tol, rel_tol * |component value|)``.
    """
    val, err = _panel_rule(h, a, b)
    ncomp = val.shape[0]
    heap = [(0.0, 0, a, b, val, err)]
    counter = 1
    n_panels = 1
    frozen: list[tuple[np.ndarray, np.ndarray]] = []
    tot_val = val.copy()
    tot_err = err.copy()

    while heap:
        goal = np.maximum(tol, rel_tol * np.abs(tot_val))
        if np.all(tot_err <= goal):
            break
        if n_panels >= max_panels:
            value, error = _collect(heap, frozen, ncomp)
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
        # Panels are keyed by their largest error relative to the goal of
        # the same component, the quantity the convergence test uses.
        heapq.heappush(heap, (-float(np.max(e1 / goal)), counter, pa, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-float(np.max(e2 / goal)), counter, mid, pb, v2, e2))
        counter += 1
        n_panels += 1

    value, error = _collect(heap, frozen, ncomp)
    goal = np.maximum(tol, rel_tol * np.abs(value))
    if not np.all(error <= goal):
        raise QuadratureConvergenceError(
            f"panels exhausted at width floor with error "
            f"{float(error.max()):.3e} > tol {tol:.3e}",
            value=value,
            abs_error_estimate=error,
            subdivisions=n_panels,
        )
    return value, error, n_panels


def _collect(heap, frozen, ncomp):
    """Exact (non-incremental) sums over all live and parked panels."""
    value = np.zeros(ncomp)
    error = np.zeros(ncomp)
    for _, _, _, _, pval, perr in heap:
        value += pval
        error += perr
    for pval, perr in frozen:
        value += pval
        error += perr
    return value, error


def half_line(t, lo: float = 0.0):
    """Map t in (0, 1) onto (lo, inf) by x = lo + t / (1 - t).

    dx/dt = 1 / (1 - t)^2.  t = 1 maps to inf without a warning.
    """
    with np.errstate(divide="ignore"):
        return lo + t / (1.0 - t)


def _segments(h, lo: float, hi: float):
    """Rewrite an integral over (lo, hi) as finite-interval segments."""
    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)
    if not lo_inf and not hi_inf:
        return [(h, lo, hi)]
    if lo_inf and hi_inf:
        return _segments(h, lo, 0.0) + _segments(h, 0.0, hi)
    if hi_inf:

        def upper(t, _h=h, _lo=lo):
            return _tail_scale(_h(half_line(t, _lo)), t)

        return [(upper, 0.0, 1.0)]

    def lower(t, _h=h, _hi=hi):
        return _tail_scale(_h(-half_line(t, -_hi)), t)

    return [(lower, 0.0, 1.0)]


def _tail_scale(values, t):
    """Apply the half-line Jacobian 1/(1-t)^2; exact zeros stay zero,
    also at a node that rounds to t = 1 (the image of an infinite end),
    where the Jacobian is infinite; a nonzero value there gives inf,
    which the panel rule rejects.
    """
    w = 1.0 - t
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = values / (w * w)
    out[values == 0.0] = 0.0
    return out


def _integrate_vector(h, lo, hi, tol, rel_tol, max_panels):
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    segs = _segments(h, lo, hi)
    seg_tol = tol / len(segs)
    value = None
    error = None
    n_panels = 0
    for hseg, a, b in segs:
        v, e, n = _adaptive(hseg, a, b, seg_tol, rel_tol, max_panels)
        value = v if value is None else value + v
        error = e if error is None else error + e
        n_panels += n
    return value, error, n_panels


def integrate(
    h: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    tol: float = DEFAULT_TOL,
    max_panels: int = MAX_PANELS,
    rel_tol: float = 0.0,
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
        Absolute tolerance on the total error estimate.
    max_panels : int
        Subdivision budget; exceeding it raises
        :class:`~varidx.errors.QuadratureConvergenceError` carrying the
        best estimate found.
    rel_tol : float
        Optional relative escape hatch: convergence is declared at
        ``max(tol, rel_tol * |value|)``.  The default 0.0 keeps the
        tolerance purely absolute; callers integrating quantities of
        very large magnitude (where an absolute goal would sit below
        float resolution) can pass a small relative floor.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise InvalidParameterError(f"empty interval ({lo}, {hi})")

    def hv(x, _h=h):
        return np.atleast_2d(np.asarray(_h(x), dtype=float))

    try:
        value, error, n = _integrate_vector(hv, lo, hi, tol, rel_tol, max_panels)
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
    max_panels: int = MAX_PANELS,
    rel_tol: float = 0.0,
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

    value, error, n = _integrate_vector(
        h, float(lo), float(hi), tol, rel_tol, max_panels
    )
    return [IntegralResult(float(v), float(e), n) for v, e in zip(value, error)]
