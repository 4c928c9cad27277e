"""Continuous densities, finite pmfs and exact sampling used across the package.

Every continuous law is a :class:`Density` with a declared open-interval
support and a pdf-monotonicity flag.  Evaluation methods are vectorized
over numpy arrays and return scalars for scalar input.  Values are
immutable after construction; all operations here are pure functions.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InconsistentTransformError,
    InvalidParameterError,
    NotInvertibleError,
    NotMonotoneError,
    OutOfRangeError,
    UnsupportedSamplerError,
    finite_positive,
)
from .quadrature import _NODES, _WGK, change_of_variables

__all__ = [
    "Density",
    "Exponential",
    "Power",
    "Uniform",
    "Weibull2",
    "Lognormal",
    "KernelDensity",
    "LogKernelDensity",
    "Pushforward",
    "FinitePMF",
    "SampleData",
    "make_distribution",
    "make_pmf",
    "inverse_pdf",
    "push_forward",
    "sample",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# KernelDensity sums the kernels within 9 bandwidths of a point, i.e.
# within _SCALED_WINDOW of it in units of h sqrt 2, at most _BLOCK_TERMS
# (point, kernel) terms at a time: 64 KB per temporary, below glibc's
# default mmap threshold (128 KB), so repeated calls reuse heap memory
# instead of mapping and faulting in fresh pages.
_SCALED_WINDOW = 9.0 / math.sqrt(2.0)
_BLOCK_TERMS = 8192

# math.erfc is 2.0 to the last bit at t <= -6 and 0.0 at t >= 27.5
# (it leaves 2.0 near -5.86 and reaches 0.0 near 27.23); _erfc calls it
# only between, where a kernel estimate's cdf and sampler put few of
# their terms.
_ERFC_TWO, _ERFC_ZERO = -6.0, 27.5


def _erfc(t):
    """math.erfc over an array, bit for bit."""
    t = np.asarray(t, dtype=float)
    two = t <= _ERFC_TWO
    out = np.where(two, 2.0, 0.0)
    mid = ~(two | (t >= _ERFC_ZERO))
    out[mid] = [math.erfc(v) for v in t[mid].tolist()]
    return out


_norm_ppf = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _norm_cdf(z):
    return 0.5 * _erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def _scalarized(x, compute, *args):
    """Run ``compute`` on a 1-D view of ``x``; mirror scalar inputs back."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    out = compute(np.atleast_1d(arr), *args)
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Continuous densities
# ----------------------------------------------------------------------

class Density:
    """An evaluable continuous probability density.

    A family defines two hooks, each evaluated only at points strictly
    inside the support: ``_log_pdf`` (the log-density) and ``_cdf``,
    plus an optional ``_quantile`` on (0, 1).  ``log_pdf``, ``pdf`` and
    ``cdf`` mask the support around them, and ``pdf`` is ``exp`` of the
    same masked ``_log_pdf`` evaluation, so a law has one density.

    Attributes
    ----------
    family : str
        Family tag (``exponential``, ``power``, ``uniform``, ``weibull2``,
        ``lognormal``, ``kde``, ``pushforward``).
    params : tuple of float
        Family-specific parameters.
    support : (float, float)
        Open interval carrying all mass; endpoints may be infinite.
    monotonicity : str
        ``increasing`` / ``decreasing`` / ``neither`` / ``unknown`` flag
        for the pdf on its support.
    """

    family = "density"

    def __init__(self, params, support, monotonicity):
        self.params = tuple(float(p) for p in params)
        self.support = (float(support[0]), float(support[1]))
        self.monotonicity = monotonicity

    def _log_pdf(self, x):
        raise NotImplementedError

    def _cdf(self, x):
        raise NotImplementedError

    _quantile: Callable | None = None

    def _on_support(self, x, hook, outside):
        """``hook`` at the points of ``x`` inside the support, ``outside``
        elsewhere."""
        lo, hi = self.support
        m = (x > lo) & (x < hi)
        if m.all():
            return hook(x)
        out = np.full(x.shape, outside)
        if m.any():
            out[m] = hook(x[m])
        return out

    def pdf(self, x):
        def compute(xv):
            with np.errstate(under="ignore"):
                return np.exp(self._on_support(xv, self._log_pdf, -math.inf))

        return _scalarized(x, compute)

    def log_pdf(self, x):
        return _scalarized(x, self._on_support, self._log_pdf, -math.inf)

    def cdf(self, x):
        def compute(xv):
            out = self._on_support(xv, self._cdf, 0.0)
            out[xv >= self.support[1]] = 1.0
            return np.clip(out, 0.0, 1.0)

        return _scalarized(x, compute)

    def survival(self, x):
        return 1.0 - self.cdf(x)

    @property
    def has_quantile(self) -> bool:
        return self._quantile is not None

    def quantile(self, q):
        if self._quantile is None:
            raise UnsupportedSamplerError(
                f"family '{self.family}' has no quantile function"
            )

        def compute(qv):
            if np.any((qv <= 0.0) | (qv >= 1.0)):
                raise OutOfRangeError("quantile argument must lie in (0, 1)")
            return self._quantile(qv)

        return _scalarized(q, compute)

    def pdf_range(self):
        """(inf, sup) of the pdf over the support, exactly.

        Families with known extremes override this; any other law raises
        NotMonotoneError rather than return an estimate.
        """
        raise NotMonotoneError(
            f"family '{self.family}' (flagged '{self.monotonicity}') has no "
            "exact pdf range"
        )

    def _reference_grid(self, n: int) -> np.ndarray:
        """Interior points spread over the support for probing/spot checks."""
        lo, hi = self.support
        if math.isfinite(lo) and math.isfinite(hi):
            frac = np.linspace(1.0 / (n + 1), n / (n + 1), n)
            return lo + (hi - lo) * frac
        if self.has_quantile:
            return self.quantile(np.linspace(0.005, 0.995, n))
        x, _, _ = change_of_variables(lo, hi)
        return x(np.linspace(0.01, 0.99, n))

    def __repr__(self):
        inner = ", ".join(f"{p:g}" for p in self.params)
        return f"{type(self).__name__}({inner})"


class Exponential(Density):
    """pdf lambda * exp(-lambda x) on (0, inf); strictly decreasing."""

    family = "exponential"

    def __init__(self, rate):
        rate = finite_positive("exponential rate", rate)
        super().__init__((rate,), (0.0, math.inf), "decreasing")
        self.rate = rate

    def _log_pdf(self, x):
        return math.log(self.rate) - self.rate * x

    def _cdf(self, x):
        with np.errstate(over="ignore"):
            return -np.expm1(-self.rate * x)

    def _quantile(self, q):
        return -np.log1p(-q) / self.rate

    def pdf_range(self):
        return (0.0, self.rate)


class Power(Density):
    """pdf alpha * x**(alpha-1) on (0, 1); uniform exactly at alpha = 1."""

    family = "power"

    def __init__(self, alpha):
        alpha = finite_positive("power exponent", alpha)
        if alpha > 1.0:
            mono = "increasing"
        elif alpha < 1.0:
            mono = "decreasing"
        else:
            mono = "neither"
        super().__init__((alpha,), (0.0, 1.0), mono)
        self.alpha = alpha

    def _log_pdf(self, x):
        return math.log(self.alpha) + (self.alpha - 1.0) * np.log(x)

    def _cdf(self, x):
        return x**self.alpha

    def _quantile(self, q):
        return q ** (1.0 / self.alpha)

    def pdf_range(self):
        if self.alpha > 1.0:
            return (0.0, self.alpha)
        if self.alpha < 1.0:
            return (self.alpha, math.inf)
        return (1.0, 1.0)


class Uniform(Density):
    """Constant density on a bounded interval (lo, hi)."""

    family = "uniform"

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        # Also rejects lo >= hi, and finite endpoints whose gap overflows.
        width = finite_positive("uniform width hi - lo", hi - lo)
        super().__init__((lo, hi), (lo, hi), "neither")
        self._height = 1.0 / width

    def _log_pdf(self, x):
        return np.full(x.shape, math.log(self._height))

    def _cdf(self, x):
        lo, hi = self.support
        return (x - lo) / (hi - lo)

    def _quantile(self, q):
        lo, hi = self.support
        return lo + q * (hi - lo)

    def pdf_range(self):
        return (self._height, self._height)


class Weibull2(Density):
    """pdf lambda * alpha * x**(alpha-1) * exp(-lambda x**alpha) on (0, inf).

    Shape-rate parameterization: params are (shape, rate).
    """

    family = "weibull2"

    def __init__(self, shape, rate):
        shape = finite_positive("weibull2 shape", shape)
        rate = finite_positive("weibull2 rate", rate)
        mono = "decreasing" if shape <= 1.0 else "neither"
        super().__init__((shape, rate), (0.0, math.inf), mono)
        self.shape = shape
        self.rate = rate

    def _log_pdf(self, x):
        a, lam = self.shape, self.rate
        with np.errstate(over="ignore"):
            xa = x**a
        return math.log(lam) + math.log(a) + (a - 1.0) * np.log(x) - lam * xa

    def _cdf(self, x):
        with np.errstate(over="ignore"):
            return -np.expm1(-self.rate * x**self.shape)

    def _quantile(self, q):
        return (-np.log1p(-q) / self.rate) ** (1.0 / self.shape)

    def pdf_range(self):
        a, lam = self.shape, self.rate
        if a < 1.0:
            return (0.0, math.inf)
        if a == 1.0:
            return (0.0, lam)
        mode = ((a - 1.0) / (a * lam)) ** (1.0 / a)
        return (0.0, float(self.pdf(mode)))


class Lognormal(Density):
    """pdf of exp(N(mu, sigma^2)) on (0, inf); unimodal, not monotone."""

    family = "lognormal"

    def __init__(self, mu, sigma):
        mu = float(mu)
        if not math.isfinite(mu):
            raise InvalidParameterError(f"lognormal mu must be finite, got {mu}")
        sigma = finite_positive("lognormal sigma", sigma)
        super().__init__((mu, sigma), (0.0, math.inf), "neither")
        self.mu = mu
        self.sigma = sigma

    def _log_pdf(self, x):
        logx = np.log(x)
        z = (logx - self.mu) / self.sigma
        return -0.5 * z * z - logx - math.log(self.sigma) - _LOG_SQRT_2PI

    def _cdf(self, x):
        return _norm_cdf((np.log(x) - self.mu) / self.sigma)

    def _quantile(self, q):
        return np.exp(self.mu + self.sigma * _norm_ppf(q))

    def pdf_range(self):
        mode = math.exp(self.mu - self.sigma**2)
        return (0.0, float(self.pdf(mode)))


class KernelDensity(Density):
    """Gaussian-kernel mixture renormalized to a finite reported interval.

    The centres c are sorted and stored once more pre-scaled, as
    c / (h sqrt 2), and every point q is scaled alike, so both kernels
    take the scaled difference d = (q - c) / (h sqrt 2) as it is:
    exp(-d^2) for the pdf and erfc(-d) / 2 for the cdf.  The sums at a
    point run only over the window of centres within 9 bandwidths of it,
    |d| <= 9 / sqrt 2 in scaled units, found by ``searchsorted``;
    kernels further out are 0 in the pdf and 0 or 1 in the cdf.  Each
    kernel left out weighs less than phi(9) = 1.03e-18 of a unit kernel,
    so the pdf differs from the full n-term mixture by less than
    phi(9) / h and the cdf by less than phi(9), in absolute terms.
    """

    family = "kde"

    def __init__(self, points, bandwidth, support):
        pts = np.sort(np.asarray(points, dtype=float).ravel())
        if pts.size < 2:
            raise InvalidParameterError("kde needs at least two data points")
        bandwidth = finite_positive("kde bandwidth", bandwidth)
        lo, hi = float(support[0]), float(support[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidParameterError("kde support must be a finite interval")
        super().__init__((bandwidth,), (lo, hi), "neither")
        self.points = pts
        self.points.setflags(write=False)
        self.bandwidth = bandwidth
        self._unit = bandwidth * math.sqrt(2.0)
        self._scaled = pts / self._unit
        self._cdf_lo = float(self._mix_cdf(np.array([lo]))[0])
        mass = float(self._mix_cdf(np.array([hi]))[0]) - self._cdf_lo
        if mass <= 0.0:
            raise InvalidParameterError("kde support interval carries no mass")
        self._mass = mass

    def _window_sums(self, x, kernel, below: bool):
        """Per point q of x, the sum of kernel(d) over the centres c in
        its window, d being their scaled difference, plus (if ``below``)
        the count of centres below it.

        The points are taken in ascending order, in blocks of rows whose
        union of windows spans at most ``_BLOCK_TERMS`` (point, centre)
        terms, and each row sums the whole union: the extra terms weigh
        less than the ones the window leaves out (a centre below a row's
        own window has a cdf term of exactly 1).  ``kernel`` may
        overwrite its argument.
        """
        pts = self._scaled
        flat = x.ravel() / self._unit
        order = flat.argsort(kind="stable")
        xs = flat[order]
        left = pts.searchsorted(xs - _SCALED_WINDOW)
        right = pts.searchsorted(xs + _SCALED_WINDOW)
        sums = np.zeros(xs.size)
        i = 0
        while i < xs.size:
            # The union of the windows of rows i..j-1 is left[i]:right[j-1],
            # at least as wide as row i's own window.
            if (xs.size - i) * (right[-1] - left[i]) <= _BLOCK_TERMS:
                j = xs.size
            else:
                rows = min(xs.size - i, _BLOCK_TERMS // max(1, right[i] - left[i]))
                terms = np.arange(1, rows + 1) * (right[i : i + rows] - left[i])
                j = i + max(1, int(terms.searchsorted(_BLOCK_TERMS, "right")))
            lo, hi = left[i], right[j - 1]
            if below:
                sums[i:j] = lo
            if hi > lo:
                sums[i:j] += kernel(xs[i:j, None] - pts[lo:hi]).sum(axis=1)
            i = j
        out = np.empty(xs.size)
        out[order] = sums
        return out.reshape(x.shape)

    def _mix_pdf(self, x):
        def kernel(d):
            np.square(d, out=d)
            np.negative(d, out=d)
            return np.exp(d, out=d)

        with np.errstate(under="ignore"):
            sums = self._window_sums(x, kernel, False)
        return sums / (self.points.size * self.bandwidth * math.sqrt(2.0 * math.pi))

    def _mix_cdf(self, x):
        sums = self._window_sums(x, lambda d: 0.5 * _erfc(-d), True)
        return sums / self.points.size

    def _log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self._mix_pdf(x) / self._mass)

    def _cdf(self, x):
        return (self._mix_cdf(x) - self._cdf_lo) / self._mass


class Pushforward(Density):
    """Law of phi(X) for a strictly monotone differentiable map phi.

    Pointwise calls pull x back through phi_inv; the information
    moments of :mod:`varidx.measures` are integrated in the base's own
    variable instead, with no pull-back.
    """

    family = "pushforward"

    _CHECK_POINTS = 100
    _CHECK_TOL = 1e-8

    def __init__(self, base: Density, phi, phi_inv, phi_deriv):
        grid = base._reference_grid(self._CHECK_POINTS)
        mapped = np.asarray(phi(grid), dtype=float)
        back = np.asarray(phi_inv(mapped), dtype=float)
        if not np.all(np.isfinite(mapped)):
            raise InvalidParameterError("phi produced non-finite values")
        worst = float(np.max(np.abs(back - grid)))
        if not worst <= self._CHECK_TOL:
            raise InconsistentTransformError(
                f"phi_inv(phi(x)) deviates from x by {worst:.3e} on the "
                f"check grid (tolerance {self._CHECK_TOL:g})"
            )
        steps = np.diff(mapped)
        if np.all(steps > 0.0):
            increasing = True
        elif np.all(steps < 0.0):
            increasing = False
        else:
            raise InvalidParameterError("phi must be strictly monotone")
        deriv = np.asarray(phi_deriv(grid), dtype=float)
        if np.any(deriv == 0.0) or not np.all(np.isfinite(deriv)):
            raise InvalidParameterError(
                "phi_deriv must be finite and nonzero on the support"
            )
        # phi(b) - phi(a) against phi_deriv integrated over each step by
        # the 15-point Kronrod rule, exact to rounding for smooth maps
        # even on steps where phi is strongly curved.
        half = 0.5 * np.diff(grid)[:, None]
        nodes = 0.5 * (grid[1:] + grid[:-1])[:, None] + half * _NODES
        slopes = np.asarray(phi_deriv(nodes.ravel()), dtype=float).reshape(nodes.shape)
        rises = (slopes * half) @ _WGK
        rel = np.abs(steps - rises) / np.maximum(np.abs(steps), 1e-12)
        if float(np.median(rel)) > 0.05:
            raise InconsistentTransformError(
                "phi_deriv disagrees with the increments of phi"
            )

        a = _map_endpoint(phi, base.support[0], grid[0], mapped[0])
        b = _map_endpoint(phi, base.support[1], grid[-1], mapped[-1])
        lo, hi = (a, b) if a < b else (b, a)
        super().__init__((), (lo, hi), "unknown")
        self.base = base
        self.phi = phi
        self.phi_inv = phi_inv
        self.phi_deriv = phi_deriv
        self.increasing = increasing

    def _pull_back(self, x):
        u = np.asarray(self.phi_inv(x), dtype=float)
        blo, bhi = self.base.support
        # Guard against roundoff pushing pre-images a hair outside.
        return np.clip(u, np.nextafter(blo, bhi), np.nextafter(bhi, blo))

    def _log_pdf(self, x):
        u = self._pull_back(x)
        # The user's phi_deriv may overflow or underflow far in a tail,
        # where log|phi'| would turn a finite log-density into +-inf.
        with np.errstate(all="ignore"):
            slope = np.broadcast_to(np.abs(np.asarray(self.phi_deriv(u), float)), u.shape)
        bad = ~(slope > 0.0) | (slope == math.inf)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise OutOfRangeError(
                f"|phi_deriv(phi_inv(x))| is {float(slope[i])!r} at x = {float(x[i])!r}, so "
                "the log-density there is out of float range"
            )
        return self.base.log_pdf(u) - np.log(slope)

    def _cdf(self, x):
        u = self._pull_back(x)
        return self.base.cdf(u) if self.increasing else self.base.survival(u)


class LogKernelDensity(Pushforward):
    """Positive-support kernel estimate: the law of exp(Y) for a Gaussian
    KDE Y of the log data.

    This is the natural estimator for lifetime-style data: it cannot
    leak mass below zero and adapts its local width to the scale of the
    observations.  ``bandwidth`` is the kernel width on the log scale.
    """

    family = "kde"

    def __init__(self, points, bandwidth):
        pts = np.asarray(points, dtype=float).ravel()
        if np.any(pts <= 0.0):
            raise InvalidParameterError(
                "log-domain kde requires strictly positive data"
            )
        logs = np.log(pts)
        h = float(bandwidth)
        inner = KernelDensity(logs, h, (logs.min() - 4.0 * h, logs.max() + 4.0 * h))
        super().__init__(inner, np.exp, np.log, np.exp)
        # A general pushforward has no parameters and an unknown shape.
        self.params = (self.base.bandwidth,)
        self.monotonicity = "neither"
        self.points = np.sort(pts)
        self.points.setflags(write=False)
        self.bandwidth = self.base.bandwidth


def _map_endpoint(phi, endpoint, near_x, near_y):
    """Image of a support endpoint under phi (inf endpoints included)."""
    try:
        # A numpy phi warns where its value is infinite, as log at 0.
        with np.errstate(all="ignore"):
            val = float(phi(endpoint))
    except (OverflowError, ValueError, ZeroDivisionError):
        val = math.nan
    if not math.isnan(val):
        return val
    # phi chokes on the endpoint itself; probe a sequence approaching it.
    if math.isinf(endpoint):
        xs = near_x + math.copysign(1.0, endpoint) * np.geomspace(1.0, 1e12, 16)
    else:
        xs = endpoint + (near_x - endpoint) * np.geomspace(1e-12, 1.0, 16)
    ys = np.asarray([float(phi(v)) for v in xs], dtype=float)
    last, prev = ys[-1 if math.isinf(endpoint) else 0], near_y
    if abs(last) > 1e12 and abs(last) > 2.0 * abs(prev):
        return math.copysign(math.inf, last)
    return float(last)


# ----------------------------------------------------------------------
# Finite pmfs
# ----------------------------------------------------------------------

class FinitePMF:
    """Probability mass function on a finite ordered support."""

    def __init__(self, labels: Sequence, probs, family: str = "pmf", params=()):
        labels = tuple(labels)
        probs = np.asarray(probs, dtype=float).ravel()
        if len(labels) != probs.size:
            raise InvalidParameterError(
                f"{len(labels)} labels but {probs.size} probabilities"
            )
        if probs.size == 0:
            raise InvalidParameterError("pmf needs at least one outcome")
        if not np.all(np.isfinite(probs)):
            raise InvalidParameterError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise InvalidParameterError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidParameterError(
                f"probabilities sum to {total!r}, expected 1 within 1e-12"
            )
        self.labels = labels
        self.probs = probs
        self.probs.setflags(write=False)
        self.family = family
        self.params = tuple(float(p) for p in params)

    def __repr__(self):
        return f"FinitePMF({self.family}, n={len(self.labels)})"


def _check_count(value, name, least):
    v = float(value)
    if not (math.isfinite(v) and v == int(v)):
        raise InvalidParameterError(f"{name} must be an integer, got {value}")
    if v < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {int(v)}")
    return int(v)


def _log_choose(n: int, k) -> np.ndarray:
    """log C(n, k) for each integer in k, through lgamma."""
    return np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k]
    )


def _binomial(n, p) -> FinitePMF:
    n = _check_count(n, "binomial n", 1)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"binomial p must be in (0, 1), got {p}")
    k = np.arange(n + 1)
    logp = _log_choose(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    probs = np.exp(logp)
    return FinitePMF(tuple(k.tolist()), probs / probs.sum(), "binomial", (n, p))


def _beta_binomial(n, a, b) -> FinitePMF:
    n = _check_count(n, "beta_binomial n", 1)
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0):
        raise InvalidParameterError(f"beta_binomial alpha and beta must be > 0, got ({a}, {b})")
    if not math.isfinite(a + b + n):
        raise OutOfRangeError(f"beta_binomial alpha + beta ({a:g} + {b:g}) overflows a float")
    # P(k) = C(n, k) prod_{j<k} (a + j) prod_{j<n-k} (b + j)
    # / prod_{j<n} (a + b + j), summed in logs.  Each term is the log
    # of a float, below 745 in size; lbeta through lgamma instead
    # differences terms near (a + b) log(a + b), which for a huge a
    # cancel every digit of the result.
    k = np.arange(n + 1)
    j = np.arange(n)
    rise_a = np.concatenate([[0.0], np.cumsum(np.log(a + j))])
    rise_b = np.concatenate([[0.0], np.cumsum(np.log(b + j))])
    logp = _log_choose(n, k) + rise_a + rise_b[::-1] - np.sum(np.log(a + b + j))
    probs = np.exp(logp)
    return FinitePMF(tuple(k.tolist()), probs / probs.sum(), "beta_binomial", (n, a, b))


def _discrete_uniform(k) -> FinitePMF:
    k = _check_count(k, "discrete_uniform k", 2)
    return FinitePMF(tuple(range(k)), np.full(k, 1.0 / k), "discrete_uniform", (k,))


def make_pmf(family: str, params) -> FinitePMF:
    """Construct a finite pmf: ``binomial``, ``betabin`` or ``beta_binomial``,
    ``dunif`` or ``discrete_uniform`` (the spellings in ``_FAMILIES``), or
    ``empirical``, which normalizes any number of counts by their total."""
    if family != "empirical":
        return _construct(family, params, "discrete")
    counts = np.asarray(params, dtype=float).ravel()
    if counts.size == 0:
        raise InvalidParameterError("empirical counts must be non-empty")
    if np.any(counts < 0.0):
        raise InvalidParameterError("empirical counts must be nonnegative")
    total = counts.sum()
    if not total > 0.0:
        raise InvalidParameterError("empirical counts must have positive total")
    return FinitePMF(tuple(range(counts.size)), counts / total, "empirical", tuple(counts))


# ----------------------------------------------------------------------
# Sample data
# ----------------------------------------------------------------------

class SampleData:
    """Ordered list of real observations with cached summary statistics.

    ``variance`` uses the n-1 divisor and is 0.0 for a single
    observation.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel().copy()
        if arr.size < 1:
            raise InvalidParameterError("need at least one observation")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("observations must be finite")
        arr.setflags(write=False)
        self.values = arr
        self.n = int(arr.size)
        self.mean = float(arr.mean())
        self.variance = float(arr.var(ddof=1)) if self.n >= 2 else 0.0

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"SampleData(n={self.n}, mean={self.mean:.6g})"


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

# The named laws: each accepted spelling -> (the spelling printed for it,
# its constructor, its number of parameters).  A continuous law's
# constructor is its Density class, a discrete one's a FinitePMF builder.
_FAMILIES = {
    "exp": ("exp", Exponential, 1),
    "exponential": ("exp", Exponential, 1),
    "power": ("power", Power, 1),
    "uniform": ("uniform", Uniform, 2),
    "w2": ("w2", Weibull2, 2),
    "weibull2": ("w2", Weibull2, 2),
    "lognormal": ("lognormal", Lognormal, 2),
    "binomial": ("binomial", _binomial, 2),
    "betabin": ("betabin", _beta_binomial, 3),
    "beta_binomial": ("betabin", _beta_binomial, 3),
    "dunif": ("dunif", _discrete_uniform, 1),
    "discrete_uniform": ("dunif", _discrete_uniform, 1),
}


def _kind(family: str) -> str | None:
    """"continuous", "discrete", or None for a name not in ``_FAMILIES``."""
    if family in _FAMILIES:
        return "continuous" if isinstance(_FAMILIES[family][1], type) else "discrete"
    return None


def _construct(family: str, params, kind: str):
    """The law of ``kind`` named ``family``, from its parameter list."""
    if _kind(family) != kind:
        what = "pmf family" if kind == "discrete" else "family"
        raise InvalidParameterError(f"unknown {what} '{family}'")
    _, build, arity = _FAMILIES[family]
    params = tuple(params)
    if len(params) != arity:
        raise InvalidParameterError(
            f"family '{family}' takes {arity} parameter(s), got {len(params)}"
        )
    return build(*params)


def make_distribution(family: str, params) -> Density:
    """Construct a density by a continuous spelling in ``_FAMILIES``."""
    return _construct(family, params, "continuous")


def push_forward(d: Density, phi, phi_inv, phi_deriv) -> Density:
    """Density of phi(X) when X ~ d, for strictly monotone phi."""
    return Pushforward(d, phi, phi_inv, phi_deriv)


def inverse_pdf(d: Density, z) -> float:
    """Solve pdf(x) = z for densities with strictly monotone pdf.

    Exponential and power families use their closed-form inverses; any
    other monotone density falls back to bisection on the log-pdf.
    """
    if d.monotonicity not in ("increasing", "decreasing"):
        raise NotInvertibleError(
            f"pdf of family '{d.family}' is not strictly monotone "
            f"(flag: {d.monotonicity})"
        )
    z = float(z)
    if not z > 0.0:
        raise OutOfRangeError(f"pdf level must be positive, got {z}")
    lo_r, hi_r = d.pdf_range()
    if not lo_r <= z <= hi_r:
        raise OutOfRangeError(
            f"pdf level {z:g} outside attainable range ({lo_r:g}, {hi_r:g})"
        )

    return float(_inverse_log_pdf(d, math.log(z)))


def _inverse_log_pdf(d: Density, log_z):
    """Solve log pdf(x) = log_z for a strictly monotone pdf whose range
    holds e^log_z, also where that level underflows a float.  log_z may
    be an array of levels; bisection solves them one at a time."""
    if isinstance(d, Exponential):
        return (math.log(d.rate) - log_z) / d.rate
    if isinstance(d, Power):
        return np.exp((log_z - math.log(d.alpha)) / (d.alpha - 1.0))
    if np.ndim(log_z) == 0:
        return _bisect_pdf_level(d, float(log_z))
    return np.array([_bisect_pdf_level(d, z) for z in log_z.tolist()])


def _bisect_pdf_level(d: Density, target: float) -> float:
    # Bisect in t, strictly inside the start edges of the support's map.
    x_of, _, edges = change_of_variables(*d.support)
    t_lo = math.nextafter(edges[0], edges[-1])
    t_hi = math.nextafter(edges[-1], edges[0])
    decreasing = d.monotonicity == "decreasing"

    def g(t):
        return float(d.log_pdf(x_of(t))) - target

    g_lo = g(t_lo)
    # For a decreasing pdf, g goes from >=0 at the left to <0 at the right.
    sign = 1.0 if decreasing else -1.0
    if sign * g_lo < 0.0:
        return float(x_of(t_lo))
    a, b = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if sign * g(mid) >= 0.0:
            a = mid
        else:
            b = mid
    return float(x_of(0.5 * (a + b)))


def sample(d: Density, n: int, seed: int) -> SampleData:
    """Draw n reproducible samples from d, each strictly inside its support.

    Every law is sampled exactly.  Families with a quantile use inverse
    transform (lognormal exponentiates normal draws); a kde uses the
    composition method, picking a kernel with probability proportional
    to its mass inside the support and then inverting that kernel's cdf
    truncated to the support; a pushforward (a log-domain kde among
    them) maps a draw from its base through phi.
    Any other density without a quantile raises UnsupportedSamplerError.
    """
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"sample size must be >= 1, got {n}")
    return SampleData(_draw(d, n, np.random.default_rng(seed)))


def _draw(d: Density, n: int, rng) -> np.ndarray:
    if isinstance(d, Lognormal):
        # Inverse transform through the normal quantile would work but is
        # needlessly slow; exponentiate normal draws instead.
        x = np.exp(d.mu + d.sigma * rng.standard_normal(n))
    elif d.has_quantile:
        u = rng.random(n)
        # random() can return exactly 0.0; nudge into the open interval.
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        x = d.quantile(u)
    elif isinstance(d, KernelDensity):
        x = _draw_kde(d, n, rng)
    elif isinstance(d, Pushforward):
        x = np.asarray(d.phi(_draw(d.base, n, rng)), dtype=float)
    else:
        raise UnsupportedSamplerError(
            f"family '{d.family}' has no quantile and no exact sampler"
        )
    # Rounding in a quantile or a map can land a draw on an endpoint.
    lo, hi = d.support
    return np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _draw_kde(d: KernelDensity, n: int, rng) -> np.ndarray:
    lo, hi = d.support
    h = d.bandwidth
    a = (lo - d.points) / h
    b = (hi - d.points) / h
    # A kernel centred below the support is drawn by reflection from its
    # lower tail: the difference of two cdf values near 1 would round a
    # far tail's small mass away.
    flip = a > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    cdf_a = _norm_cdf(a)
    mass = _norm_cdf(b) - cdf_a
    i = rng.choice(mass.size, size=n, p=mass / mass.sum())
    p = cdf_a[i] + rng.random(n) * mass[i]
    z = _norm_ppf(np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))
    return d.points[i] + h * np.where(flip[i], -z, z)
