"""Chebyshev-type lower bounds for the varinaccuracy index.

The generic bound evaluates, for a free margin eps > 0,

    eps^2 * [ P(g(X) <= e^{-eps - I}) + P(g(X) >= e^{eps - I}) ]

with I the inaccuracy of (f, g), by inverting the strictly monotone pdf
g at the log levels -eps - I and eps - I (so a level below the smallest
float is still inverted) and reading the probabilities off f's
cdf/survival function.  A threshold that falls outside the attainable
pdf range contributes its limit value (0 or 1) instead of erroring,
also when it overflows a float, which puts it above any finite sup g;
if g's pdf is unbounded, such a threshold raises OutOfRangeError.  The
bound is 0 when both probabilities are, even where eps^2 overflows.
A grid of margins is one call, ``chebyshev_bound(f, g, [eps1, eps2,
...])``: it checks every margin first, computes I once, inverts all
2k levels together and evaluates f's cdf once on all the thresholds,
and returns one result per margin.  The results equal a call per margin
bit for bit when f's cdf is pointwise, which holds for every family but
the kernel estimates: their cdf sums each threshold over the kernel
windows of the whole batch, so there the two agree to rounding.
Two families admit piecewise closed forms (exponential pair, uniform
against an increasing power density); both are cross-validated against
the generic route in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import Density, _inverse_log_pdf
from .errors import InvalidParameterError, NotMonotoneError, OutOfRangeError, finite_positive
from .measures import inaccuracy

__all__ = [
    "BoundResult",
    "chebyshev_bound",
    "exp_pair_bound",
    "uniform_power_bound",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class BoundResult:
    """A lower bound on varinaccuracy at a given margin eps."""

    epsilon: float
    bound_value: float
    branch: str  # two_term | one_term
    method: str  # closed_form | generic


def chebyshev_bound(f: Density, g: Density, eps) -> BoundResult | list[BoundResult]:
    """Generic lower bound on varinaccuracy(f, g) for monotone g.

    eps may also be a list or tuple of margins, which gives a list of
    results in its order: every margin is checked first, I is computed
    once, all 2k levels are inverted in one call and f's cdf is
    evaluated once on the thresholds.  A single margin takes the same
    route as a list of one.
    """
    many = isinstance(eps, (list, tuple))
    results = _generic_bounds(f, g, eps if many else [eps])
    return results if many else results[0]


def _generic_bounds(f: Density, g: Density, eps, i_value: float | None = None) -> list[BoundResult]:
    """The generic bounds of (f, g) at each margin of the sequence eps,
    given I of (f, g) as ``i_value`` or, without it, computing I once
    after the checks."""
    margins = np.array([finite_positive("eps", e) for e in eps])
    if g.monotonicity not in ("increasing", "decreasing"):
        raise NotMonotoneError(
            f"the bound needs a strictly monotone pdf for g; "
            f"family '{g.family}' is flagged '{g.monotonicity}'"
        )
    if i_value is None:
        i_value = inaccuracy(f, g).value
    if math.isinf(i_value):
        raise InvalidParameterError(
            "inaccuracy of (f, g) is infinite; the bound is undefined"
        )
    lo_r, hi_r = g.pdf_range()
    log_lo = math.log(lo_r) if lo_r > 0.0 else -math.inf
    log_hi = math.log(hi_r)
    k = margins.size
    # P(g(X) <= e^log_z) at the k lower levels, P(g(X) >= e^log_z) at
    # the k upper ones.
    log_z = np.concatenate([-margins - i_value, margins - i_value])
    le = np.arange(2 * k) < k
    if math.isinf(hi_r) and np.any(log_z[k:] > _LOG_FLOAT_MAX):
        raise OutOfRangeError(
            f"pdf level e^{log_z[k:].max():g} overflows a float and g's pdf is unbounded"
        )
    # A level above sup g gives P(g <= z) = 1 and P(g >= z) = 0, one at
    # or below inf g the reverse; the rest read f's cdf at g's inverse.
    prob = np.where(log_z > log_hi, le, ~le).astype(float)
    inside = (log_z > log_lo) & (log_z <= log_hi)
    if inside.any():
        c = f.cdf(_inverse_log_pdf(g, log_z[inside]))
        # For a decreasing g, X <= x is g(X) >= z.
        decreasing = g.monotonicity == "decreasing"
        prob[inside] = np.where(le[inside] == decreasing, 1.0 - c, c)
    return [
        # Classify with a hair of slack so exact branch boundaries (where
        # the upper threshold equals sup g) label the same way as the
        # closed forms.
        BoundResult(
            e,
            _scaled(e, float(prob[j]) + float(prob[k + j])),
            "one_term" if log_z[k + j] > log_hi + 1e-12 else "two_term",
            "generic",
        )
        for j, e in enumerate(margins.tolist())
    ]


def exp_pair_bound(lam: float, eta: float, eps: float) -> BoundResult:
    """Closed-form bound for f exponential(lam), g exponential(eta).

    Two-term branch eps^2 (e^{-1-eps lam/eta} + 1 - e^{-1+eps lam/eta})
    while eps*lam <= eta; beyond that the upper probability vanishes and
    only eps^2 e^{-1-eps lam/eta} survives.
    """
    eps = finite_positive("eps", eps)
    lam, eta = finite_positive("lam", lam), finite_positive("eta", eta)
    ratio = eps * lam / eta
    low_term = math.exp(-1.0 - ratio)
    if eps * lam > eta:
        return BoundResult(eps, _scaled(eps, low_term), "one_term", "closed_form")
    value = _scaled(eps, low_term + 1.0 - math.exp(-1.0 + ratio))
    return BoundResult(eps, value, "two_term", "closed_form")


def _scaled(eps: float, prob: float) -> float:
    """eps^2 * prob, and 0 when prob is 0 even if eps^2 overflows."""
    return 0.0 if prob == 0.0 else eps * eps * prob


def uniform_power_bound(alpha: float, eps: float) -> BoundResult:
    """Closed-form bound for f uniform(0,1), g power(alpha) with alpha > 1.

    Two-term branch eps^2 (e^{(1-eps-alpha)/(alpha-1)} + 1 -
    e^{(1+eps-alpha)/(alpha-1)}) for alpha >= 1 + eps; closer to the
    uniform case only the lower-tail term survives.
    """
    eps = finite_positive("eps", eps)
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise InvalidParameterError(
            f"alpha must be > 1 (increasing pdf required), got {alpha}"
        )
    low_term = math.exp((1.0 - eps - alpha) / (alpha - 1.0))
    if alpha < 1.0 + eps:
        return BoundResult(eps, _scaled(eps, low_term), "one_term", "closed_form")
    value = _scaled(
        eps, low_term + 1.0 - math.exp((1.0 + eps - alpha) / (alpha - 1.0))
    )
    return BoundResult(eps, value, "two_term", "closed_form")
