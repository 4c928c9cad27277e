"""Maximum-likelihood fitting and kernel density estimation.

The Weibull fit works in the shape-rate parameterization
(pdf ``lam * a * x**(a-1) * exp(-lam * x**a)``): the shape solves the
profile likelihood equation

    sum(x^a log x) / sum(x^a) - 1/a - mean(log x) = 0

by safeguarded Newton iteration (bracketed bisection fallback), after
which the rate is ``n / sum(x^a)`` exactly.  Power sums are accumulated
in log space so large shapes cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import KernelDensity, LogKernelDensity, SampleData, _log_choose
from .errors import (
    DegenerateDataError,
    InvalidParameterError,
    NoConvergenceError,
    NonPositiveDataError,
)

__all__ = [
    "FitResult",
    "fit_weibull_mle",
    "fit_lognormal_mle",
    "fit_binomial_p",
    "silverman_bandwidth",
    "kde",
]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit."""

    family: str
    params: tuple
    log_likelihood: float
    iterations: int
    converged: bool


def _positive_values(data: SampleData) -> np.ndarray:
    if data.n < 2:
        raise InvalidParameterError("need at least two observations to fit")
    x = data.values
    if np.any(x <= 0.0):
        raise NonPositiveDataError("all observations must be strictly positive")
    return x


def fit_weibull_mle(data: SampleData, max_iter: int = 100) -> FitResult:
    """Fit the shape-rate Weibull by maximum likelihood."""
    x = _positive_values(data)
    if data.variance == 0.0:
        raise DegenerateDataError("observations are all equal; no Weibull fit")
    n = x.size
    logx = np.log(x)
    mlog = float(logx.mean())

    def profile(a: float):
        # h(a) and h'(a) with power sums kept in log space.
        s = a * logx
        m = float(s.max())
        w = np.exp(s - m)
        sw = float(w.sum())
        t1 = float((w * logx).sum()) / sw
        t2 = float((w * logx * logx).sum()) / sw
        h = t1 - 1.0 / a - mlog
        hp = (t2 - t1 * t1) + 1.0 / (a * a)
        return h, hp, m, sw

    # Moment-style start: Var[log X] = pi^2 / (6 a^2) for this family.
    var_log = float(logx.var())
    a = math.pi / math.sqrt(6.0 * var_log)
    a = min(max(a, 1e-2), 1e3)

    # Bracket the unique root of the increasing function h.
    lo = a
    for _ in range(80):
        if profile(lo)[0] < 0.0:
            break
        lo *= 0.5
    else:
        raise NoConvergenceError("could not bracket the shape equation from below")
    hi = a
    for _ in range(80):
        if profile(hi)[0] > 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergenceError("could not bracket the shape equation from above")

    a = min(max(a, lo), hi)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        h, hp, m, sw = profile(a)
        if abs(h) < 1e-13:
            converged = True
            break
        if h > 0.0:
            hi = a
        else:
            lo = a
        step = h / hp
        a_new = a - step
        if not lo < a_new < hi:
            a_new = 0.5 * (lo + hi)
        if abs(a_new - a) < 1e-15 * a:
            a = a_new
            converged = abs(profile(a)[0]) < 1e-10
            break
        a = a_new
    if not converged:
        raise NoConvergenceError(
            f"Weibull shape equation did not converge in {max_iter} iterations"
        )

    _, _, m, sw = profile(a)
    # lam = n / sum(x^a), with sum(x^a) = exp(m) * sw.
    lam = n * math.exp(-m) / sw
    loglik = n * math.log(lam) + n * math.log(a) + (a - 1.0) * float(logx.sum()) - n
    return FitResult("weibull2", (a, lam), loglik, iterations, True)


def fit_lognormal_mle(data: SampleData) -> FitResult:
    """Closed-form lognormal fit: mean and ML (divisor n) std of log data."""
    x = _positive_values(data)
    logx = np.log(x)
    mu = float(logx.mean())
    sigma = float(np.sqrt(np.mean((logx - mu) ** 2)))
    if sigma == 0.0:
        raise DegenerateDataError("log-observations are all equal; sigma-hat is 0")
    n = x.size
    loglik = -n * (math.log(sigma) + 0.5 * math.log(2.0 * math.pi) + 0.5) - float(
        logx.sum()
    )
    return FitResult("lognormal", (mu, sigma), loglik, 0, True)


def fit_binomial_p(counts, n_trials: int) -> FitResult:
    """ML success probability from outcome counts of Binomial(n_trials, p).

    A boundary estimate (all mass at 0 or at n_trials) is flagged as not
    converged: the likelihood has no interior stationary point there.
    """
    n_trials = int(n_trials)
    if n_trials < 1:
        raise InvalidParameterError(f"n_trials must be >= 1, got {n_trials}")
    counts = np.asarray(counts, dtype=float).ravel()
    if counts.size == 0:
        raise InvalidParameterError("counts must be non-empty")
    if counts.size != n_trials + 1:
        raise InvalidParameterError(
            f"expected {n_trials + 1} counts for n_trials={n_trials}, "
            f"got {counts.size}"
        )
    if np.any(counts < 0.0):
        raise InvalidParameterError("counts must be nonnegative")
    total = float(counts.sum())
    if not total > 0.0:
        raise InvalidParameterError("counts must have positive total")
    k = np.arange(n_trials + 1)
    p = float((k * counts).sum()) / (n_trials * total)
    interior = 0.0 < p < 1.0

    with np.errstate(divide="ignore", invalid="ignore"):
        logp = _log_choose(n_trials, k) + k * np.log(p) + (n_trials - k) * np.log1p(-p)
    mask = counts > 0.0
    loglik = float(np.sum(counts[mask] * logp[mask]))
    return FitResult("binomial", (n_trials, p), loglik, 0, interior)


def silverman_bandwidth(data: SampleData) -> float:
    """Normal-reference bandwidth sd * (4 / (3 n))**(1/5)."""
    if data.n < 2:
        raise InvalidParameterError("need at least two observations")
    sd = math.sqrt(data.variance)
    if sd == 0.0:
        raise DegenerateDataError("zero variance; bandwidth undefined")
    return sd * (4.0 / (3.0 * data.n)) ** 0.2


def _robust_normal_reference(values: np.ndarray) -> float:
    """Normal-reference width with a robust scale estimate.

    Scale is median absolute deviation / 0.6745 (the usual consistency
    factor for the normal), falling back to the sample std when the mad
    degenerates to zero.
    """
    n = values.size
    mad = float(np.median(np.abs(values - np.median(values))))
    scale = mad / 0.6745
    if scale == 0.0:
        scale = float(values.std(ddof=1))
    if scale == 0.0:
        raise DegenerateDataError("zero spread; bandwidth undefined")
    return scale * (4.0 / (3.0 * n)) ** 0.2


def kde(data: SampleData, bandwidth: float | None = None):
    """Gaussian-kernel density estimate of the data.

    Strictly positive data is estimated on the log scale and mapped
    back, which keeps all mass on (0, inf); ``bandwidth`` is then the
    kernel width for the log observations, defaulting to the
    normal-reference rule with a robust (mad-based) scale.  Data with
    non-positive values uses a plain Gaussian mixture on (min - 4h,
    max + 4h) with the Silverman default width; either way the estimate
    is renormalized over its reported support.
    """
    if data.n < 2:
        raise InvalidParameterError("need at least two observations")
    if data.variance == 0.0:
        raise DegenerateDataError("zero variance; kde undefined")
    x = data.values
    if np.all(x > 0.0):
        if bandwidth is None:
            h = _robust_normal_reference(np.log(x))
        else:
            h = float(bandwidth)
            if not (math.isfinite(h) and h > 0.0):
                raise InvalidParameterError(
                    f"bandwidth must be finite and > 0, got {h}"
                )
        return LogKernelDensity(x, h)
    if bandwidth is None:
        h = silverman_bandwidth(data)
    else:
        h = float(bandwidth)
        if not (math.isfinite(h) and h > 0.0):
            raise InvalidParameterError(f"bandwidth must be finite and > 0, got {h}")
    lo = float(x.min()) - 4.0 * h
    hi = float(x.max()) + 4.0 * h
    return KernelDensity(x, h, (lo, hi))
