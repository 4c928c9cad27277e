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
and returns one result per margin.  A grid of gs is one call too, and
one evaluation of f's cdf on the thresholds of every g and margin:
``chebyshev_bound`` is the grid of one g, and the CLI's bound curves
pass each grid whole, with the I of each g read off its record.  Each g
is checked in turn as a call of its own would check it, so the first g
that fails raises the error a loop of calls would.  The results equal a
call per margin and per g bit for bit when f's cdf is pointwise, which
holds for every family but the kernel estimates: their cdf sums each
threshold over the kernel windows of the whole batch, so there the two
agree to rounding.
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
    route as a list of one, and g the same route as a grid of one.
    """
    many = isinstance(eps, (list, tuple))
    (results,) = _generic_bounds(f, [g], eps if many else [eps])
    return results if many else results[0]


def _generic_bounds(f: Density, gs, eps, i_values=None) -> list[list[BoundResult]]:
    """The generic bounds of (f, g) at each margin of the sequence eps,
    one list per g of gs, from one evaluation of f's cdf.

    The margins are checked first.  Then each g in turn is checked as a
    call of its own would check it: a strictly monotone pdf, a finite I
    of (f, g), read from ``i_values`` or else computed, and upper levels
    that a pdf without bound can reach; the first g that fails raises.
    """
    margins = np.array([finite_positive("eps", e) for e in eps])
    k, top = margins.size, max(margins.tolist(), default=-math.inf)
    i_list, log_hi, log_lo = [], [], []
    for j, g in enumerate(gs):
        if g.monotonicity not in ("increasing", "decreasing"):
            raise NotMonotoneError(
                f"the bound needs a strictly monotone pdf for g; "
                f"family '{g.family}' is flagged '{g.monotonicity}'"
            )
        i_value = inaccuracy(f, g).value if i_values is None else i_values[j]
        if math.isinf(i_value):
            raise InvalidParameterError(
                "inaccuracy of (f, g) is infinite; the bound is undefined"
            )
        lo_r, hi_r = g.pdf_range()
        if math.isinf(hi_r) and top - i_value > _LOG_FLOAT_MAX:
            raise OutOfRangeError(
                f"pdf level e^{top - i_value:g} overflows a float and g's pdf is unbounded"
            )
        i_list.append(i_value)
        log_lo.append(math.log(lo_r) if lo_r > 0.0 else -math.inf)
        log_hi.append(math.log(hi_r))
    # Row j holds g_j's k lower log levels -eps - I, where the bound reads
    # P(g(X) <= e^log_z), then its k upper ones eps - I, where it reads
    # P(g(X) >= e^log_z).
    i_col, lo_col, hi_col = (np.array(v)[:, None] for v in (i_list, log_lo, log_hi))
    log_z = np.concatenate([-margins - i_col, margins - i_col], axis=1)
    le = np.arange(2 * k) < k
    # A level above sup g gives P(g <= z) = 1 and P(g >= z) = 0, one at
    # or below inf g the reverse; the rest read f's cdf at g's inverse,
    # all of them in one call.
    prob = np.where(log_z > hi_col, le, ~le).astype(float)
    inside = (log_z > lo_col) & (log_z <= hi_col)
    rows = zip(gs, log_z, inside, inside.any(axis=1).tolist())
    thresholds = [_inverse_log_pdf(g, z[m]) for g, z, m, any_inside in rows if any_inside]
    if thresholds:
        c = f.cdf(np.concatenate(thresholds))
        # For a decreasing g, X <= x is g(X) >= z.
        decreasing = np.array([g.monotonicity == "decreasing" for g in gs])[:, None]
        prob[inside] = np.where((le == decreasing)[inside], 1.0 - c, c)
    total = (prob[:, :k] + prob[:, k:]).tolist()
    # Classify with a hair of slack so exact branch boundaries (where the
    # upper threshold equals sup g) label the same way as the closed forms.
    one_term = (log_z[:, k:] > hi_col + 1e-12).tolist()
    eps_list = margins.tolist()
    return [
        [
            BoundResult(e, _scaled(e, p), "one_term" if one else "two_term", "generic")
            for e, p, one in zip(eps_list, probs, ones)
        ]
        for probs, ones in zip(total, one_term)
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
