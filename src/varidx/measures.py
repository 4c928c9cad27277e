"""Uncertainty measures and their dispersion indices.

Every measure of a pair (f, g) is a moment of a = log f(X) and
b = log g(X) under X ~ f: H and VarH are the mean and variance of -a,
I and VarI those of -b, K and VarK those of a - b, and
cov = cov_f(a, b).  :func:`info_moments` computes all seven as one
:class:`InfoMoments` record, and is the only place that integrates,
sums or looks up a closed form.  It is also the only function that
takes an option, ``method``.  The readers `entropy`,
`varentropy`, `inaccuracy`, `varinaccuracy`, `kl`, `var_kl` and
`log_log_cov` take none; each reads one field of the record on the
default route (`entropy(f)` is the record of (f, f)), for a
:class:`~varidx.distributions.Density` or a
:class:`~varidx.distributions.FinitePMF` pair alike, and each `*_pmf`
name is the same function as its reader.  Given several g for one
reference f (the candidates of a selection), `info_moments` returns one
record per g from at most one quadrature.
Each field carries its evaluation route:

- ``closed_form``: one table of sufficient statistics.  Under an
  exponential, Weibull2, lognormal, power or Uniform(0, c) f, log X is
  alpha + beta v for a standard variable v (log of an Exp(1) or a
  Uniform(0, 1) draw, or a N(0, 1) draw), and the log-density of each
  of these laws, and of any uniform, is linear in the statistics
  v^n e^{tv}, whose moments under f are derivatives of Gamma (through
  a stdlib digamma), tilted normal moments, or those of an exponential.
  Each mean field is one linear form c + w.e and each variance one
  quadratic form w^T (M - e e^T) w of log f's weights (H, VarH), log
  g's (I, VarI) or their difference's (K, VarK), with e and M the
  first and second moments of the statistics; cov = (VarH + VarI -
  VarK) / 2, so both identities hold to rounding and no parametric
  pair integrates anything.  Each moment is evaluated once per call and
  shared by all its gs, and every form goes through the same loop, so
  a g in a list gets the fields of a call of its own.  Each field's
  estimate is its rounding bound: a few ulp of the magnitude of its
  terms.  Any other uniform f has H and VarH alone; moments that
  overflow raise OutOfRangeError.
- ``quadrature``: one adaptive quadrature per reference f, of the rows
  [1, a, a^2] and, for each g that still lacks a field,
  [b, b^2, a - b, (a - b)^2], on the support common to f and those g.
  log f and each log g are evaluated once per node, the weight is the
  exp of a log-density already at hand, and every row converges against
  its own goal.  The nodes run over one of three variables:

  - a pushforward f = phi # B (the log-domain kde among them) is
    integrated in B's own variable y, with log f(phi(y)) = log B(y) -
    log|phi'(y)| and the weight B(y) dy, so f is never pulled back
    through phi^-1; y in turn takes B's own case, and a support that g
    narrows maps onto y through phi^-1;
  - on a support (0, hi), u = log x on (-inf, log hi), with x = e^u
    and the weight p(x) x du: the x^(alpha-1) log x factors of
    power-type laws at 0 become exponential tails in u, which the
    quadrature's map of infinite ends integrates in a few panels,
    instead of singularities that bisection can only approach; with
    hi = inf, u runs over the whole line.  The nodes run over w, with
    u = c + s w centred on f's bulk: c is the median of log X and s
    its interquartile range, both read from f's table entry, whose
    standard variable has known quartiles, so they never pass through
    x, where they may underflow.  The quadrature's start panels
    cluster about w = 0, so they cover f's mass however narrow f is
    and however far from x = 1 it lies.  A law without a table entry
    keeps u itself;
  - any other law is integrated in x itself.

  A node whose x rounds onto an end of the support, or beyond it, adds
  an exact 0, so mass below the smallest float is not integrated, and
  ends in an error rather than in moments.  A non-finite integrand is
  an error too, which names the lowest of its panels in x, and so is
  one that does not converge, naming its interval in x.  The
  quadrature runs only when a field is still missing and fills only
  those fields; cov = (VarH + VarI - VarK) / 2, so both identities
  hold to rounding.
  The first row is f's mass: a quadrature that did not see all of it,
  within the quadrature's DEFAULT_TOL plus 1e-12, raises
  QuadratureConvergenceError instead of returning moments of part of f.
- ``summation``: a pair of FinitePMF values: the same rows, summed over
  P's labels in one pass.
- ``divergent``: f has mass where g vanishes, which is screened before
  integrating, so such a g adds no rows.  I, VarI, K, VarK and cov are
  +inf rather than an error, since a diverging measure is a legitimate
  answer that the selection layer treats as disqualifying; H and VarH
  stay f's own.

`info_moments(f, g, method="quadrature")` skips the closed forms, so
every field of a continuous pair that does not diverge comes from the
quadrature and both routes stay testable.

Conventions: 0 * log 0 = 0 and 0 * log(0/0) = 0 in all sums; regions
where the reference density vanishes contribute nothing to integrals;
log-densities are evaluated analytically in log space (never through a
floored pdf, which would silently cap deep tails); K and variance-type
results within 1e-9 below zero are clamped to 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import quadrature
from .distributions import (
    _LOG_SQRT_2PI,
    Density,
    Exponential,
    FinitePMF,
    Lognormal,
    Power,
    Pushforward,
    Uniform,
    Weibull2,
)
from .errors import (
    DisjointSupportError,
    InvalidParameterError,
    OutOfRangeError,
    QuadratureConvergenceError,
    SupportMismatchError,
)

__all__ = [
    "MeasureValue",
    "InfoMoments",
    "info_moments",
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
# Mass of f outside the common support that counts as none.  f's mass,
# integrated as the first row, may miss 1 by at most this plus the
# quadrature's tolerance, which bounds the row's error once it has
# converged; a larger gap means the nodes missed part of f (a kde
# narrower than the panels, or a far bump), which skews every moment
# alike.
_MASS_TOL = 1e-12
# The fields of a pair beyond f's own H and VarH that the closed forms
# or the quadrature supply; cov is derived when no closed form gives it.
_PAIR = frozenset(("I", "VarI", "K", "VarK"))
# The rounding of a closed-form field, in units of its terms' magnitude:
# each moment and weight is a few operations from exact, and a field
# sums a few dozen of their products.
_ROUNDING = 8.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class MeasureValue:
    """A computed measure: value, evaluation route, error estimate."""

    value: float
    method: str  # closed_form | quadrature | summation | divergent
    abs_error_estimate: float = 0.0

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class InfoMoments:
    """All measures of one pair (f, g), each a :class:`MeasureValue`."""

    H: MeasureValue
    VarH: MeasureValue
    I: MeasureValue  # noqa: E741
    VarI: MeasureValue
    K: MeasureValue
    VarK: MeasureValue
    cov: MeasureValue


_DIVERGENT = MeasureValue(math.inf, "divergent", 0.0)
_FLAT_COV = MeasureValue(0.0, "closed_form", 0.0)


def _clamp(value: float) -> float:
    """0 for values within rounding below zero of a nonnegative measure."""
    if -_NEG_CLAMP <= value < 0.0:
        return 0.0
    return value


def _cov(vh: MeasureValue, vi: MeasureValue, vk: MeasureValue) -> MeasureValue:
    """cov = (VarH + VarI - VarK) / 2, within half its parts' estimates."""
    return MeasureValue(
        0.5 * (vh.value + vi.value - vk.value),
        vi.method,
        0.5 * (vh.abs_error_estimate + vi.abs_error_estimate + vk.abs_error_estimate),
    )


def _diverges(f, g) -> bool:
    """True when f has mass where g vanishes: a p > 0 whose q is 0, or
    more than _MASS_TOL of f's mass outside the support common to f and
    g.  Pmfs on different labels, or supports that do not meet, raise."""
    if isinstance(f, FinitePMF):
        if f.labels != g.labels:
            raise SupportMismatchError(
                f"pmf supports differ: {f.labels!r} vs {g.labels!r}"
            )
        return bool(np.any(g.probs[f.probs > 0.0] == 0.0))
    if f.support == g.support:
        return False
    lo, hi = max(f.support[0], g.support[0]), min(f.support[1], g.support[1])
    if not lo < hi:
        raise DisjointSupportError(
            f"supports {f.support} and {g.support} do not intersect"
        )
    if f.support == (lo, hi):
        return False  # cdf(lo) = 0 and cdf(hi) = 1 exactly
    return float(f.cdf(lo)) + float(1.0 - f.cdf(hi)) > _MASS_TOL


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------

def info_moments(f, g, method: str = "auto") -> InfoMoments | list[InfoMoments]:
    """All measures of the pair (f, g) as one :class:`InfoMoments` record.

    f and g are both :class:`~varidx.distributions.Density` values or
    both :class:`~varidx.distributions.FinitePMF` values (any other mix
    raises InvalidParameterError); g may also be a list or tuple of laws,
    which gives a list of records in its order.
    Continuous pairs take closed forms where known (unless
    `method="quadrature"`) and share at most one quadrature for the
    rest, whatever the number of g; discrete pairs are summed.  A pair
    where f has mass outside g's support gets f's own H and VarH and
    +inf for every other field.
    """
    if method not in ("auto", "quadrature"):
        raise InvalidParameterError(f"method must be auto|quadrature, got {method!r}")
    many = isinstance(g, (list, tuple))
    gs = list(g) if many else [g]
    kind = FinitePMF if isinstance(f, FinitePMF) else Density
    for d in [f, *gs]:
        if not isinstance(d, kind):
            raise InvalidParameterError(
                f"f and g must both be Density or both FinitePMF values, got {f!r} and {d!r}"
            )
    route = "summation" if kind is FinitePMF else "quadrature"
    own, closed = {}, None
    if kind is Density and method == "auto":
        own, closed = _closed_form(f)
    # A record per g where the closed forms give all of it; for the rest,
    # the place, the closed-form fields (None when f diverges from g) and
    # the index of g's rows among row_gs (None when it needs none).  Each
    # g is screened and then looked up in turn, so the first g that fails
    # raises.
    records, pending, row_gs = [], [], []
    for d in gs:
        known = None if _diverges(f, d) else closed(d) if closed else {}
        if isinstance(known, InfoMoments):
            records.append(known)
            continue
        row = None
        if known is not None and not known.keys() >= _PAIR:
            row = len(row_gs)
            row_gs.append(d)
        pending.append((len(records), known, row))
        records.append(None)
    if len(own) < 2 or row_gs:
        rows = (_summed if kind is FinitePMF else _integrated)(f, row_gs)
        own_rows, from_rows = _from_rows(*rows, route)
        own = {**own_rows, **own}
    for j, known, row in pending:
        if known is None:
            records[j] = InfoMoments(own["H"], own["VarH"], *[_DIVERGENT] * 5)
            continue
        fields = {**own, **known}
        if row is not None:
            fields = {**from_rows[row], **fields}
        if "cov" not in fields:
            fields["cov"] = _cov(fields["VarH"], fields["VarI"], fields["VarK"])
        records[j] = InfoMoments(**fields)
    return records if many else records[0]


# ----------------------------------------------------------------------
# Closed forms: one table of sufficient statistics
# ----------------------------------------------------------------------

# Raw moments 0-4 of v = log Y, Y ~ Exp(1), from its cumulants
# psi(1) = -gamma, psi'(1) = pi^2/6, psi''(1) = -2 zeta(3), psi'''(1) = pi^4/15.
_K1, _K2, _K3, _K4 = -0.5772156649015329, math.pi**2 / 6.0, -2.4041138063191885, math.pi**4 / 15.0
_LOG_EXP_RAW = (
    1.0,
    _K1,
    _K2 + _K1 * _K1,
    _K3 + 3.0 * _K2 * _K1 + _K1**3,
    _K4 + 4.0 * _K3 * _K1 + 3.0 * _K2 * _K2 + 6.0 * _K2 * _K1 * _K1 + _K1**4,
)


def _psi(x: float):
    """Digamma and trigamma at x > 0: the recurrence up to x >= 12, then
    their asymptotic series, whose coefficients are the Bernoulli numbers
    B2 ... B12 (over 2k for digamma), to 1/x^12 and 1/x^13."""
    d = t = 0.0
    while x < 12.0:
        d -= 1.0 / x
        t += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    b = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
    series_d = series_t = 0.0
    for k in range(6, 0, -1):
        series_d = r * (b[k - 1] / (2 * k) + series_d)
        series_t = r * (b[k - 1] + series_t)
    return d + math.log(x) - 0.5 / x - series_d, t + (1.0 + 0.5 / x + series_t) / x


def _log_exp_moment(t: float, n: int) -> float:
    """E[v^n Y^t] for v = log Y, Y ~ Exp(1): Gamma's n-th derivative at 1 + t."""
    if t == 0.0:
        return _LOG_EXP_RAW[n]
    gamma = math.gamma(1.0 + t)
    if n == 0:
        return gamma
    d, d1 = _psi(1.0 + t)
    return gamma * (d if n == 1 else d * d + d1)


def _log_uniform_moment(t: float, n: int) -> float:
    """E[v^n U^t] for v = log U, U ~ Uniform(0, 1), so that -v ~ Exp(1)."""
    return (1.0, -1.0, 2.0, -6.0, 24.0)[n] / (1.0 + t) ** (n + 1)


def _normal_moment(t: float, n: int) -> float:
    """E[v^n e^{tv}] for v ~ N(0, 1)."""
    s = t * t
    return math.exp(0.5 * s) * (1.0, t, 1.0 + s, t * (s + 3.0), (s + 6.0) * s + 3.0)[n]


# The standard variables of _log_law, log Exp(1), log Uniform(0, 1) and
# N(0, 1), each as its moment function, median and interquartile range.
_LOG_EXP = (_log_exp_moment, math.log(math.log(2.0)), math.log(math.log(4.0) / math.log(4.0 / 3.0)))
_LOG_UNIFORM = (_log_uniform_moment, -math.log(2.0), math.log(3.0))
_NORMAL = (_normal_moment, 0.0, 2.0 * NormalDist().inv_cdf(0.75))


def _log_law(f: Density):
    """log X under f as alpha + beta v, for a standard variable v.

    Returns (alpha, beta, xpow, moment, median, iqr): x^s = e^{tv} / unit
    with (t, unit, log unit) = xpow(s), moment(t, n) = E[v^n e^{tv}] for
    n <= 4 at t = 0 and n <= 2 at t > 0, and v's median and
    interquartile range.  None when f has no table entry.
    """
    if isinstance(f, (Exponential, Weibull2)):
        # Y = rate X^k ~ Exp(1); the exponential is shape 1.
        k, lam = getattr(f, "shape", 1.0), f.rate
        log_lam = math.log(lam)
        return -log_lam / k, 1.0 / k, lambda s: (s / k, lam ** (s / k), s / k * log_lam), *_LOG_EXP
    if isinstance(f, Lognormal):
        mu, sigma = f.mu, f.sigma
        return mu, sigma, lambda s: (s * sigma, math.exp(-s * mu), -s * mu), *_NORMAL
    if isinstance(f, Power):
        # X^a ~ Uniform(0, 1).
        a = f.alpha
        return 0.0, 1.0 / a, lambda s: (s / a, 1.0, 0.0), *_LOG_UNIFORM
    if isinstance(f, Uniform) and f.support[0] == 0.0:
        c = f.support[1]
        return math.log(c), 1.0, lambda s: (s, c**-s, -s * math.log(c)), *_LOG_UNIFORM
    return None


def _coefficients(d: Density, law):
    """log d as (c, {(t, n): w}), i.e. c + sum of w v^n e^{tv} in the
    variable v of ``law``, with each coefficient as (value, magnitude);
    None when d has no such form.  A uniform d is flat whatever the law.

    A magnitude is the sum of the sizes of the coefficient's parts, so
    that it bounds their rounding where they cancel; a weight divided
    by a power e^y of f's rate or location counts 1 + |y| times, for the
    rounding of y.
    """
    if isinstance(d, Uniform):
        c = math.log(d._height)
        return (c, abs(c)), {}
    if law is None:
        return None
    alpha, beta, xpow = law[:3]
    if isinstance(d, (Exponential, Weibull2)):
        k = getattr(d, "shape", 1.0)
        t, unit, log_unit = xpow(k)
        w = -d.rate / unit
        terms = {(t, 0): (w, -w * (1.0 + abs(log_unit)))}
        log_rate, log_k, tilt = math.log(d.rate), math.log(k), (k - 1.0) * alpha
        if k != 1.0:
            w = (k - 1.0) * beta
            terms[0.0, 1] = (w, abs(w))
        return (log_rate + log_k + tilt, abs(log_rate) + abs(log_k) + abs(tilt)), terms
    if isinstance(d, Power):
        a = d.alpha
        log_a, tilt, w = math.log(a), (a - 1.0) * alpha, (a - 1.0) * beta
        return (log_a + tilt, abs(log_a) + abs(tilt)), {(0.0, 1): (w, abs(w))} if a != 1.0 else {}
    if isinstance(d, Lognormal):
        e, b = (alpha - d.mu) / d.sigma, beta / d.sigma
        log_sigma, eb = math.log(d.sigma), e * b
        c = -0.5 * e * e - alpha - log_sigma - _LOG_SQRT_2PI
        c_mag = 0.5 * e * e + abs(alpha) + abs(log_sigma) + _LOG_SQRT_2PI
        w = 0.5 * b * b
        return (c, c_mag), {(0.0, 1): (-eb - beta, abs(eb) + abs(beta)), (0.0, 2): (-w, w)}
    return None


def _scale(x: float) -> float:
    """|x| (1 + |log |x||): the size of a moment's rounding, in ulp, as
    its argument (a ratio of shapes in Gamma, a normal tilt) is rounded,
    so that its relative error grows with |log x|."""
    a = abs(x)
    return a * (1.0 + abs(math.log(a))) if a else 0.0


def _closed_form(f: Density):
    """f's closed-form H and VarH, and the function g -> the closed-form
    record of (f, g) when f has a form, else the dict of g's closed-form
    fields, empty where g has no form (see the module docstring); a flat
    g has cov = 0.

    Each field is the mean c + w.e or the variance w^T C w of one form,
    with e and C = M - e e^T the moments of its statistics under f; f's
    H is the form of f, and K's is f's form minus g's.  Each moment is
    evaluated once per f and shared by every g of the call, and every
    form goes through the same loop, so a g in a list gets the fields of
    a call of its own.  Each estimate is _ROUNDING times the magnitude
    of the field's terms, |c| + |w|.|e| or |w|^T (|M| + |e||e|^T) |w|,
    with |c| and |w| as :func:`_coefficients` gives them (f's and g's
    added for K) and |e| and |M| as :func:`_scale`.  A field that is not
    finite has overflowed, and raises OutOfRangeError naming its law.
    """
    law = _log_law(f)
    memo = {}

    def moment(key):
        """E[s] for s = v^n e^{tv} at key = (t, n), beside its _scale."""
        entry = memo.get(key)
        if entry is None:
            value = law[3](*key)
            entry = memo[key] = (value, _scale(value))
        return entry

    def stats(c, terms):
        """The mean and the variance of the form c + w.s, each as (value,
        magnitude), with C = M - e e^T taken term by term."""
        rows = [(w, w_mag, t, n, *moment((t, n))) for (t, n), (w, w_mag) in terms.items()]
        mean, mean_mag = c
        var = var_mag = 0.0
        for w, w_mag, t, n, e, e_mag in rows:
            mean += w * e
            mean_mag += w_mag * e_mag
            for x, x_mag, u, m, y, y_mag in rows:
                s, s_mag = moment((t + u, n + m))
                var += w * x * (s - e * y)
                var_mag += w_mag * x_mag * (s_mag + e_mag * y_mag)
        return (mean, mean_mag), (_clamp(var), var_mag)

    def record(g=None):
        """The closed-form fields of (f, g), or an InfoMoments record where
        they complete one; f's own H and VarH without g.  Every field of a
        table pair is finite, so one that is not has overflowed:
        OutOfRangeError rather than an inf or a nan."""
        k = k_mag = vk = vk_mag = 0.0
        try:
            cg = cf if g is None else _coefficients(g, law)
            if cg is None:
                return {}
            (i, i_mag), (vi, vi_mag) = stats(*cg)
            if g is not None and cf is not None:
                (c, c_mag), w = cf[0], dict(cf[1])
                for key, (x, x_mag) in cg[1].items():
                    a, a_mag = w.get(key, (0.0, 0.0))
                    w[key] = (a - x, a_mag + x_mag)
                (k, k_mag), (vk, vk_mag) = stats((c - cg[0][0], c_mag + cg[0][1]), w)
        except (OverflowError, ZeroDivisionError):
            i = vi = math.nan
        if not all(map(math.isfinite, (i, vi, k, vk))):
            raise OutOfRangeError(
                f"the moments of {f if g is None else g!r} under {f!r} overflow a float"
            )
        mean = MeasureValue(-i, "closed_form", _ROUNDING * i_mag)
        var = MeasureValue(vi, "closed_form", _ROUNDING * vi_mag)
        if g is None:
            return {"H": mean, "VarH": var}
        if cf is None:
            return {"I": mean, "VarI": var, **({} if cg[1] else {"cov": _FLAT_COV})}
        kk = MeasureValue(_clamp(k), "closed_form", _ROUNDING * k_mag)
        vkk = MeasureValue(vk, "closed_form", _ROUNDING * vk_mag)
        vh = own["VarH"]
        cov = _cov(vh, var, vkk) if cg[1] else _FLAT_COV
        return InfoMoments(own["H"], vh, mean, var, kk, vkk, cov)

    cf = _coefficients(f, law)
    own = {} if cf is None else record()
    return own, record


def _rows(a, bs):
    """The rows [1, a, a^2] and [b, b^2, c, c^2] for each b in bs,
    c = a - b, stacked in that order."""
    rows = [np.ones_like(a), a, a * a]
    for b in bs:
        c = a - b
        rows += [b, b * b, c, c * c]
    return np.array(rows)


def _integrated(f: Density, gs: list):
    """The integrals of f's rows and those of each g with their errors.

    The rows are p * :func:`_rows` of a = log f and b = log g, p = f dx/dv
    the weight in the variable v that :func:`_variable` gives, integrated
    by one quadrature on the support common to f and the gs.
    """
    lo = max(d.support[0] for d in [f, *gs])
    hi = min(d.support[1] for d in [f, *gs])
    ends, x_of, weigh = _variable(f, lo, hi)

    def rows(v):
        out = np.zeros((3 + 4 * len(gs), v.size))
        # e^u may overflow, and so may a law on its way to a 0 density;
        # a nan (log|phi'| = inf at a tail node) ends in _NonFinite.
        with np.errstate(over="ignore", invalid="ignore"):
            x, a, p = weigh(v)
            # A node whose x rounds onto an end of (lo, hi) lies outside
            # the open support and adds an exact 0, as one where p is 0.
            m = (p > 0.0) & (x > lo) & (x < hi)
            if np.any(m):
                a, xm = a[m], x[m]
                out[:, m] = p[m] * _rows(a, [a if g is f else g.log_pdf(xm) for g in gs])
        return out

    try:
        value, error, panels = quadrature._integrate_vector(rows, *ends, quadrature.DEFAULT_TOL)
    except quadrature._NonFinite as exc:
        # Name the panels in x, not in the quadrature's variable.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = x_of(exc.panels)
        raise quadrature._NonFinite(x) from None
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(
            f"{exc} on ({lo:g}, {hi:g})",
            value=exc.value,
            abs_error_estimate=exc.abs_error_estimate,
            subdivisions=exc.subdivisions,
        ) from None
    mass = float(value[0])
    if not abs(mass - 1.0) <= quadrature.DEFAULT_TOL + _MASS_TOL:
        raise QuadratureConvergenceError(
            f"quadrature did not see all of f's mass: it integrated "
            f"{mass:.6g} on ({lo:g}, {hi:g}), {abs(mass - 1.0):.3g} away from 1",
            value=value,
            abs_error_estimate=error,
            subdivisions=panels,
        )
    return value, error


def _variable(d: Density, lo: float, hi: float):
    """The variable v in which d's rows are integrated over (lo, hi):
    a pushforward's base variable, log x on (0, hi) centred on d's bulk
    by :func:`_bulk`, or x (see the module docstring).

    Returns (ends, x_of, weigh): the ends of v's interval, x as a
    function of v, and weigh(v) = (x, log d(x), d(x) dx/dv) at the
    nodes.  For d = phi # B, (lo, hi) maps onto B's variable through
    phi^-1, its ends swapped for a decreasing phi.
    """
    if isinstance(d, Pushforward):
        base = d.base
        if (lo, hi) == d.support:
            ylo, yhi = base.support
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ylo, yhi = sorted(float(y) for y in d.phi_inv(np.array([lo, hi])))
            ylo, yhi = max(ylo, base.support[0]), min(yhi, base.support[1])
        ends, y_of, base_weigh = _variable(base, ylo, yhi)

        def weigh(v):
            y, a, p = base_weigh(v)
            # A y that rounds onto an end of B's support has B(y) = 0,
            # and its node is dropped whatever phi makes of it.
            with np.errstate(divide="ignore", invalid="ignore"):
                a = a - np.log(np.abs(np.asarray(d.phi_deriv(y), dtype=float)))
                return np.asarray(d.phi(y), dtype=float), a, p

        return ends, lambda v: d.phi(y_of(v)), weigh
    if lo == 0.0:
        c, s = _bulk(d)

        def x_of(w):
            return np.exp(c + s * w)

        def weigh(w):
            x = x_of(w)
            a = d.log_pdf(x)
            p = np.exp(a)
            return x, a, np.multiply(p, s * x, out=p, where=p > 0.0)

        return (-math.inf, (math.log(hi) - c) / s), x_of, weigh

    def weigh(x):
        a = d.log_pdf(x)
        return x, a, np.exp(a)

    return (lo, hi), (lambda x: x), weigh


def _bulk(d: Density):
    """(c, s): the median of log X under d and its interquartile range,
    so that log x = c + s w puts d's median at w = 0 and its quartiles
    one unit apart; (0, 1) for a law without a table entry, or whose
    quartiles in log x overflow.  The quartiles are those of _log_law's
    standard variable, taken to log x by its affine map, never through
    x, where they may under- or overflow."""
    law = _log_law(d)
    if law is None:
        return 0.0, 1.0
    alpha, beta, _, _, median, iqr = law
    c, s = alpha + beta * median, beta * iqr
    return (c, s) if math.isfinite(c) and 0.0 < s < math.inf else (0.0, 1.0)


def _summed(P: FinitePMF, Qs: list):
    """The sums of P's rows and those of each Q, as :func:`_integrated`
    returns integrals, with zero errors."""
    m = P.probs > 0.0
    w = P.probs[m]
    value = np.sum(w * _rows(np.log(w), [np.log(Q.probs[m]) for Q in Qs]), axis=1)
    return value, np.zeros(value.size)


def _from_rows(value, error, route: str):
    """f's H and VarH, and per g of :func:`_rows` in order its I, VarI, K
    and VarK, from the rows' integrals or sums and their errors.  Rows i
    and i + 1 hold E[x] and E[x^2] of x = a, b or a - b, whose mean is
    -H, -I or K."""
    value, error = value.tolist(), error.tolist()

    def moments(i, mean, var):
        m1, m2, e1 = value[i], value[i + 1], error[i]
        return {
            mean: MeasureValue(_clamp(m1) if mean == "K" else -m1, route, e1),
            var: MeasureValue(_clamp(m2 - m1 * m1), route, error[i + 1] + 2.0 * abs(m1) * e1),
        }

    per_g = [
        {**moments(i, "I", "VarI"), **moments(i + 2, "K", "VarK")} for i in range(3, len(value), 4)
    ]
    return moments(1, "H", "VarH"), per_g


# ----------------------------------------------------------------------
# Readers: one field of the record each
# ----------------------------------------------------------------------

def entropy(f: Density | FinitePMF) -> MeasureValue:
    """Average information content E_f[-log f(X)]; -sum P log P with
    0 log 0 = 0 for a pmf."""
    return info_moments(f, f).H


def varentropy(f: Density | FinitePMF) -> MeasureValue:
    """Dispersion of the information content: Var_f[-log f(X)].

    Vanishes exactly when f is uniform on its support; equals 1 for
    every exponential law.
    """
    return info_moments(f, f).VarH


def inaccuracy(f: Density | FinitePMF, g: Density | FinitePMF) -> MeasureValue:
    """Cross entropy E_f[-log g(X)]; +inf when f has mass where g vanishes."""
    return info_moments(f, g).I


def varinaccuracy(f: Density | FinitePMF, g: Density | FinitePMF) -> MeasureValue:
    """Dispersion of the cross information: Var_f[-log g(X)].

    Zero exactly when g is uniform on the common support.
    """
    return info_moments(f, g).VarI


def kl(f: Density | FinitePMF, g: Density | FinitePMF) -> MeasureValue:
    """Divergence E_f[log(f(X)/g(X))]; nonnegative, +inf without
    absolute continuity of f with respect to g."""
    return info_moments(f, g).K


def var_kl(f: Density | FinitePMF, g: Density | FinitePMF) -> MeasureValue:
    """Dispersion of the divergence: Var_f[log(f(X)/g(X))].

    Zero if and only if the two laws coincide.
    """
    return info_moments(f, g).VarK


def log_log_cov(f: Density | FinitePMF, g: Density | FinitePMF) -> MeasureValue:
    """cov_f(log f(X), log g(X)) = (VarH + VarI - VarK) / 2."""
    return info_moments(f, g).cov


# The discrete spellings: the readers take a FinitePMF as well.
(entropy_pmf, varentropy_pmf, inaccuracy_pmf, varinaccuracy_pmf, kl_pmf, var_kl_pmf,
 log_log_cov_pmf) = (entropy, varentropy, inaccuracy, varinaccuracy, kl, var_kl, log_log_cov)
