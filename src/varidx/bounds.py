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
Two families admit piecewise closed forms (exponential pair, uniform
against an increasing power density); both are cross-validated against
the generic route in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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


def chebyshev_bound(f: Density, g: Density, eps: float) -> BoundResult:
    """Generic lower bound on varinaccuracy(f, g) for monotone g."""
    eps = finite_positive("eps", eps)
    if g.monotonicity not in ("increasing", "decreasing"):
        raise NotMonotoneError(
            f"the bound needs a strictly monotone pdf for g; "
            f"family '{g.family}' is flagged '{g.monotonicity}'"
        )
    i_val = inaccuracy(f, g)
    if math.isinf(i_val.value):
        raise InvalidParameterError(
            "inaccuracy of (f, g) is infinite; the bound is undefined"
        )
    lo_r, hi_r = g.pdf_range()
    log_lo = math.log(lo_r) if lo_r > 0.0 else -math.inf
    log_hi = math.log(hi_r)
    log_z_lo = -eps - i_val.value
    log_z_hi = eps - i_val.value
    if log_z_hi > _LOG_FLOAT_MAX and math.isinf(hi_r):
        raise OutOfRangeError(
            f"pdf level e^{log_z_hi:g} overflows a float and g's pdf is unbounded"
        )
    decreasing = g.monotonicity == "decreasing"

    def prob_le(log_z: float) -> float:
        # P(g(X) <= e^log_z)
        if log_z > log_hi:
            return 1.0
        if log_z <= log_lo:
            return 0.0
        x = _inverse_log_pdf(g, log_z)
        return float(f.survival(x)) if decreasing else float(f.cdf(x))

    def prob_ge(log_z: float) -> float:
        # P(g(X) >= e^log_z)
        if log_z > log_hi:
            return 0.0
        if log_z <= log_lo:
            return 1.0
        x = _inverse_log_pdf(g, log_z)
        return float(f.cdf(x)) if decreasing else float(f.survival(x))

    # Classify with a hair of slack so exact branch boundaries (where the
    # upper threshold equals sup g) label the same way as the closed forms.
    branch = "one_term" if log_z_hi > log_hi + 1e-12 else "two_term"
    value = _scaled(eps, prob_le(log_z_lo) + prob_ge(log_z_hi))
    return BoundResult(eps, value, branch, "generic")


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
