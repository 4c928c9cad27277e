"""Uncertainty measures and their dispersion indices.

Continuous operations take :class:`~varidx.distributions.Density` pairs
and dispatch to closed forms where a (family, family) cell is known,
falling back to adaptive quadrature otherwise; `method="quadrature"`
forces the numerical path so both routes stay testable.  Discrete
counterparts operate on :class:`~varidx.distributions.FinitePMF` values
by direct summation.

Divergent values (mass of f where g vanishes) are returned as +inf
rather than raised: a diverging measure is a legitimate answer, and the
selection layer treats it as disqualifying.

Conventions: 0 * log 0 = 0 and 0 * log(0/0) = 0 in all sums; regions
where the reference density vanishes contribute nothing to integrals;
log-densities are evaluated analytically in log space (never through a
floored pdf, which would silently cap deep tails); variance-type
results within 1e-9 below zero are clamped to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .distributions import Density, Exponential, FinitePMF, Power, Uniform
from .errors import (
    DisjointSupportError,
    InvalidParameterError,
    SupportMismatchError,
)

__all__ = [
    "MeasureValue",
    "entropy",
    "varentropy",
    "inaccuracy",
    "varinaccuracy",
    "kl",
    "var_kl",
    "log_log_cov",
    "entropy_pmf",
    "varentropy_pmf",
    "inaccuracy_pmf",
    "varinaccuracy_pmf",
    "kl_pmf",
    "var_kl_pmf",
    "log_log_cov_pmf",
]

_NEG_CLAMP = 1e-9
_MASS_TOL = 1e-12
# Relative convergence floor for the underlying quadrature: paper-scale
# values are governed by the absolute tolerance, while extreme parameter
# ratios (second moments of order 1e8 and beyond) stay computable.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class MeasureValue:
    """A computed measure: value, evaluation route, error estimate."""

    value: float
    method: str  # closed_form | quadrature | summation
    abs_error_estimate: float = 0.0

    def __float__(self):
        return self.value

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


_INF = MeasureValue(math.inf, "closed_form", 0.0)


def _closed(value: float) -> MeasureValue:
    return MeasureValue(float(value), "closed_form", 0.0)


def _clamp_variance(value: float) -> float:
    if -_NEG_CLAMP <= value < 0.0:
        return 0.0
    return value


def _check_method(method: str):
    if method not in ("auto", "quadrature"):
        raise InvalidParameterError(f"method must be auto|quadrature, got {method!r}")


def _flat_level(d: Density):
    """Constant pdf height when d is uniform on its support, else None."""
    if isinstance(d, Uniform):
        return d._height
    if isinstance(d, Power) and d.alpha == 1.0:
        return 1.0
    return None


def _power_exponent(d: Density):
    """a when d is Power(a); Uniform(0, 1) is the flat case a = 1."""
    if isinstance(d, Power):
        return d.alpha
    if isinstance(d, Uniform) and d.support == (0.0, 1.0):
        return 1.0
    return None


def _common_support(f: Density, g: Density):
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    if not lo < hi:
        raise DisjointSupportError(
            f"supports {f.support} and {g.support} do not intersect"
        )
    return lo, hi


def _divergent(f: Density, lo: float, hi: float) -> bool:
    """True when f carries non-negligible mass outside (lo, hi)."""
    outside = float(f.cdf(lo)) + float(1.0 - f.cdf(hi))
    return outside > _MASS_TOL


def _neg_log_pdf(d: Density):
    return lambda x: -d.log_pdf(x)


def _mean_and_var(f, w, tol, interval):
    m1, m2 = quadrature.expectations(
        f, [w, lambda x: w(x) ** 2], tol=tol, interval=interval, rel_tol=_REL_TOL
    )
    var = _clamp_variance(m2.value - m1.value**2)
    err = m2.abs_error_estimate + 2.0 * abs(m1.value) * m1.abs_error_estimate
    return m1, var, err


# ----------------------------------------------------------------------
# Continuous measures
# ----------------------------------------------------------------------

def entropy(f: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Average information content E_f[-log f(X)]."""
    _check_method(method)
    if method == "auto":
        if isinstance(f, Exponential):
            return _closed(1.0 - math.log(f.rate))
        level = _flat_level(f)
        if level is not None:
            return _closed(-math.log(level))
        a = _power_exponent(f)
        if a is not None:
            return _closed(-math.log(a) + (a - 1.0) / a)
    r = quadrature.expectation(f, _neg_log_pdf(f), tol=tol, rel_tol=_REL_TOL)
    return MeasureValue(r.value, "quadrature", r.abs_error_estimate)


def varentropy(f: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Dispersion of the information content: Var_f[-log f(X)].

    Vanishes exactly when f is uniform on its support; equals 1 for
    every exponential law.
    """
    _check_method(method)
    if method == "auto":
        if isinstance(f, Exponential):
            return _closed(1.0)
        if _flat_level(f) is not None:
            return _closed(0.0)
        a = _power_exponent(f)
        if a is not None:
            return _closed(((a - 1.0) / a) ** 2)
    _, var, err = _mean_and_var(f, _neg_log_pdf(f), tol, None)
    return MeasureValue(var, "quadrature", err)


def inaccuracy(f: Density, g: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Cross entropy E_f[-log g(X)]; +inf when f has mass where g vanishes."""
    _check_method(method)
    lo, hi = _common_support(f, g)
    if _divergent(f, lo, hi):
        return _INF
    if method == "auto":
        closed = _inaccuracy_closed(f, g)
        if closed is not None:
            return closed
    r = quadrature.expectation(
        f, _neg_log_pdf(g), tol=tol, interval=(lo, hi), rel_tol=_REL_TOL
    )
    return MeasureValue(r.value, "quadrature", r.abs_error_estimate)


def _inaccuracy_closed(f, g):
    level = _flat_level(g)
    if level is not None:
        return _closed(-math.log(level))
    if isinstance(f, Exponential) and isinstance(g, Exponential):
        return _closed(-math.log(g.rate) + g.rate / f.rate)
    a = _power_exponent(f)
    if a is not None and isinstance(g, Power):
        return _closed(-math.log(g.alpha) + (g.alpha - 1.0) / a)
    return None


def varinaccuracy(f: Density, g: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Dispersion of the cross information: Var_f[-log g(X)].

    Zero exactly when g is uniform on the common support.
    """
    _check_method(method)
    lo, hi = _common_support(f, g)
    if _divergent(f, lo, hi):
        return _INF
    if method == "auto":
        closed = _varinaccuracy_closed(f, g)
        if closed is not None:
            return closed
    _, var, err = _mean_and_var(f, _neg_log_pdf(g), tol, (lo, hi))
    return MeasureValue(var, "quadrature", err)


def _varinaccuracy_closed(f, g):
    if _flat_level(g) is not None:
        return _closed(0.0)
    if isinstance(f, Exponential) and isinstance(g, Exponential):
        return _closed((g.rate / f.rate) ** 2)
    a = _power_exponent(f)
    if a is not None and isinstance(g, Power):
        return _closed(((g.alpha - 1.0) / a) ** 2)
    return None


def kl(f: Density, g: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Divergence E_f[log(f(X)/g(X))]; nonnegative, +inf without
    absolute continuity of f with respect to g."""
    _check_method(method)
    lo, hi = _common_support(f, g)
    if _divergent(f, lo, hi):
        return _INF
    if method == "auto":
        closed = _kl_closed(f, g)
        if closed is not None:
            return closed
    w = _log_ratio(f, g)
    r = quadrature.expectation(f, w, tol=tol, interval=(lo, hi), rel_tol=_REL_TOL)
    value = r.value
    if -_NEG_CLAMP <= value < 0.0:
        value = 0.0
    return MeasureValue(value, "quadrature", r.abs_error_estimate)


def _log_ratio(f, g):
    def w(x):
        return f.log_pdf(x) - g.log_pdf(x)

    return w


def _kl_closed(f, g):
    if f.same_law(g):
        return _closed(0.0)
    if isinstance(f, Exponential) and isinstance(g, Exponential):
        lam, eta = f.rate, g.rate
        return _closed(math.log(lam / eta) + eta / lam - 1.0)
    if isinstance(f, Power) and isinstance(g, Power):
        a, b = f.alpha, g.alpha
        return _closed(math.log(a / b) + (b - a) / a)
    return None


def var_kl(f: Density, g: Density, method: str = "auto", tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """Dispersion of the divergence: Var_f[log(f(X)/g(X))].

    Zero if and only if the two laws coincide.
    """
    _check_method(method)
    lo, hi = _common_support(f, g)
    if _divergent(f, lo, hi):
        return _INF
    if method == "auto":
        closed = _var_kl_closed(f, g)
        if closed is not None:
            return closed
    _, var, err = _mean_and_var(f, _log_ratio(f, g), tol, (lo, hi))
    return MeasureValue(var, "quadrature", err)


def _var_kl_closed(f, g):
    if f.same_law(g):
        return _closed(0.0)
    if isinstance(f, Exponential) and isinstance(g, Exponential):
        return _closed(((g.rate - f.rate) / f.rate) ** 2)
    if isinstance(f, Power) and isinstance(g, Power):
        return _closed(((f.alpha - g.alpha) / f.alpha) ** 2)
    return None


def log_log_cov(f: Density, g: Density, tol: float = quadrature.DEFAULT_TOL) -> MeasureValue:
    """cov_f(log f(X), log g(X)), always by quadrature on one partition."""
    lo, hi = _common_support(f, g)
    if _divergent(f, lo, hi):
        return _INF

    def lf(x):
        return f.log_pdf(x)

    def lg(x):
        return g.log_pdf(x)

    m_f, m_g, m_fg = quadrature.expectations(
        f,
        [lf, lg, lambda x: lf(x) * lg(x)],
        tol=tol,
        interval=(lo, hi),
        rel_tol=_REL_TOL,
    )
    cov = m_fg.value - m_f.value * m_g.value
    err = (
        m_fg.abs_error_estimate
        + abs(m_f.value) * m_g.abs_error_estimate
        + abs(m_g.value) * m_f.abs_error_estimate
    )
    return MeasureValue(cov, "quadrature", err)


# ----------------------------------------------------------------------
# Discrete measures (direct summation)
# ----------------------------------------------------------------------

def _check_pair(P: FinitePMF, Q: FinitePMF):
    if P.labels != Q.labels:
        raise SupportMismatchError(
            f"pmf supports differ: {P.labels!r} vs {Q.labels!r}"
        )


def _summation(value: float) -> MeasureValue:
    return MeasureValue(float(value), "summation", 0.0)


def entropy_pmf(P: FinitePMF) -> MeasureValue:
    """Discrete entropy -sum P log P with 0 log 0 = 0."""
    p = P.probs
    m = p > 0.0
    return _summation(-float(np.sum(p[m] * np.log(p[m]))))


def varentropy_pmf(P: FinitePMF) -> MeasureValue:
    p = P.probs
    m = p > 0.0
    logs = np.log(p[m])
    h = -float(np.sum(p[m] * logs))
    second = float(np.sum(p[m] * logs**2))
    return _summation(_clamp_variance(second - h * h))


def _diverges(P: FinitePMF, Q: FinitePMF) -> bool:
    return bool(np.any((P.probs > 0.0) & (Q.probs == 0.0)))


def inaccuracy_pmf(P: FinitePMF, Q: FinitePMF) -> MeasureValue:
    """Discrete cross entropy -sum P log Q; +inf if Q misses P's mass."""
    _check_pair(P, Q)
    if _diverges(P, Q):
        return _INF
    m = P.probs > 0.0
    return _summation(-float(np.sum(P.probs[m] * np.log(Q.probs[m]))))


def varinaccuracy_pmf(P: FinitePMF, Q: FinitePMF) -> MeasureValue:
    _check_pair(P, Q)
    if _diverges(P, Q):
        return _INF
    m = P.probs > 0.0
    logs = np.log(Q.probs[m])
    i = -float(np.sum(P.probs[m] * logs))
    second = float(np.sum(P.probs[m] * logs**2))
    return _summation(_clamp_variance(second - i * i))


def kl_pmf(P: FinitePMF, Q: FinitePMF) -> MeasureValue:
    """Discrete divergence sum P log(P/Q); terms with P(x) = 0 vanish."""
    _check_pair(P, Q)
    if _diverges(P, Q):
        return _INF
    m = P.probs > 0.0
    ratio = np.log(P.probs[m] / Q.probs[m])
    value = float(np.sum(P.probs[m] * ratio))
    if -_NEG_CLAMP <= value < 0.0:
        value = 0.0
    return _summation(value)


def var_kl_pmf(P: FinitePMF, Q: FinitePMF) -> MeasureValue:
    _check_pair(P, Q)
    if _diverges(P, Q):
        return _INF
    m = P.probs > 0.0
    ratio = np.log(P.probs[m] / Q.probs[m])
    k = float(np.sum(P.probs[m] * ratio))
    second = float(np.sum(P.probs[m] * ratio**2))
    return _summation(_clamp_variance(second - k * k))


def log_log_cov_pmf(P: FinitePMF, Q: FinitePMF) -> MeasureValue:
    _check_pair(P, Q)
    if _diverges(P, Q):
        return _INF
    m = P.probs > 0.0
    lp = np.log(P.probs[m])
    lq = np.log(Q.probs[m])
    w = P.probs[m]
    cov = float(np.sum(w * lp * lq) - np.sum(w * lp) * np.sum(w * lq))
    return _summation(cov)
