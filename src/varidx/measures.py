"""Uncertainty measures and their dispersion indices.

Every measure of a pair (f, g) is a moment of a = log f(X) and
b = log g(X) under X ~ f: H and VarH are the mean and variance of -a,
I and VarI those of -b, K and VarK those of a - b, and
cov = cov_f(a, b).  :func:`info_moments` computes all seven as one
:class:`InfoMoments` record, and is the only place that integrates,
sums or looks up a closed form.  It is also the only function that
takes options: ``method`` and ``tol``.  The readers `entropy`,
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
  Each field is then the mean or variance of one linear form: H and
  VarH of log f's, I and VarI of log g's, K and VarK of their
  difference, and cov = (VarH + VarI - VarK) / 2, so both identities
  hold to rounding and no parametric pair integrates anything.  Any
  other uniform f has H and VarH alone; moments that overflow raise
  OutOfRangeError.
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
    hi = inf, u runs over the whole line;
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
  within tol or the row's own estimate, raises
  QuadratureConvergenceError instead of returning moments of part of f.
- ``summation``: a pair of FinitePMF values, summed in one pass.
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
from dataclasses import dataclass

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
# larger of tol and the row's own error estimate (so a loose tol cannot
# trip the check, and a tight one sees a small missed bump); a larger
# gap means the nodes missed part of f (a kde narrower than the panels),
# which skews every moment alike.
_MASS_TOL = 1e-12
# The fields of a pair beyond f's own H and VarH that the closed forms
# or the quadrature supply; cov is derived when no closed form gives it.
_PAIR = frozenset(("I", "VarI", "K", "VarK"))


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


def _clamp(value: float) -> float:
    """0 for values within rounding below zero of a nonnegative measure."""
    if -_NEG_CLAMP <= value < 0.0:
        return 0.0
    return value


def _check_method(method: str):
    if method not in ("auto", "quadrature"):
        raise InvalidParameterError(f"method must be auto|quadrature, got {method!r}")


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
    if f.support == (lo, hi):
        return False  # cdf(lo) = 0 and cdf(hi) = 1 exactly
    outside = float(f.cdf(lo)) + float(1.0 - f.cdf(hi))
    return outside > _MASS_TOL


def _check_pair(P: FinitePMF, Q: FinitePMF):
    if P.labels != Q.labels:
        raise SupportMismatchError(
            f"pmf supports differ: {P.labels!r} vs {Q.labels!r}"
        )


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------

def info_moments(
    f, g, method: str = "auto", tol: float = quadrature.DEFAULT_TOL
) -> InfoMoments | list[InfoMoments]:
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
    _check_method(method)
    many = isinstance(g, (list, tuple))
    gs = list(g) if many else [g]
    kind = FinitePMF if isinstance(f, FinitePMF) else Density
    for d in [f, *gs]:
        if not isinstance(d, kind):
            raise InvalidParameterError(
                f"f and g must both be Density or both FinitePMF values, got {f!r} and {d!r}"
            )
    if kind is FinitePMF:
        route, own = "summation", {}
        plans, value, error = _summed(f, gs)
    else:
        route = "quadrature"
        own, closed = _closed_form(f) if method == "auto" else ({}, None)
        plans, value, error = _integrated(f, gs, own, closed, tol)
    if value is not None:
        own = {**_from_moments(value[1:3], error[1:3], route), **own}
    records = []
    for plan in plans:
        if plan is None:
            records.append(InfoMoments(own["H"], own["VarH"], *[_DIVERGENT] * 5))
            continue
        known, row = plan
        fields = {}
        if row is not None:
            rows = np.r_[1:3, row : row + 4]
            fields = _from_moments(value[rows], error[rows], route)
        fields = {**fields, **own, **known}
        if "cov" not in fields:
            vh, vi, vk = fields["VarH"], fields["VarI"], fields["VarK"]
            fields["cov"] = MeasureValue(
                0.5 * (vh.value + vi.value - vk.value),
                vi.method,
                0.5 * (vh.abs_error_estimate + vi.abs_error_estimate + vk.abs_error_estimate),
            )
        records.append(InfoMoments(**fields))
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


def _log_law(f: Density):
    """log X under f as alpha + beta v, for a standard variable v.

    Returns (alpha, beta, xpow, moment): x^s = e^{tv} / unit with
    (t, unit) = xpow(s), and moment(t, n) = E[v^n e^{tv}] for n <= 4 at
    t = 0 and n <= 2 at t > 0.  None when f has no table entry.
    """
    if isinstance(f, (Exponential, Weibull2)):
        # Y = rate X^k ~ Exp(1); the exponential is shape 1.
        k, lam = getattr(f, "shape", 1.0), f.rate
        return -math.log(lam) / k, 1.0 / k, lambda s: (s / k, lam ** (s / k)), _log_exp_moment
    if isinstance(f, Lognormal):
        mu, sigma = f.mu, f.sigma
        return mu, sigma, lambda s: (s * sigma, math.exp(-s * mu)), _normal_moment
    if isinstance(f, Power):
        # X^a ~ Uniform(0, 1).
        a = f.alpha
        return 0.0, 1.0 / a, lambda s: (s / a, 1.0), _log_uniform_moment
    if isinstance(f, Uniform) and f.support[0] == 0.0:
        c = f.support[1]
        return math.log(c), 1.0, lambda s: (s, c**-s), _log_uniform_moment
    return None


def _coefficients(d: Density, law):
    """log d as (c, {(t, n): w}), i.e. c + sum of w v^n e^{tv} in the
    variable v of ``law``; None when d has no such form.  A uniform d is
    flat whatever the law."""
    if isinstance(d, Uniform):
        return math.log(d._height), {}
    if law is None:
        return None
    alpha, beta, xpow, _ = law
    if isinstance(d, (Exponential, Weibull2)):
        k = getattr(d, "shape", 1.0)
        t, unit = xpow(k)
        w = {(t, 0): -d.rate / unit}
        if k != 1.0:
            w[0.0, 1] = (k - 1.0) * beta
        return math.log(d.rate) + math.log(k) + (k - 1.0) * alpha, w
    if isinstance(d, Power):
        a = d.alpha
        return math.log(a) + (a - 1.0) * alpha, {(0.0, 1): (a - 1.0) * beta} if a != 1.0 else {}
    if isinstance(d, Lognormal):
        e, b = (alpha - d.mu) / d.sigma, beta / d.sigma
        c = -0.5 * e * e - alpha - math.log(d.sigma) - _LOG_SQRT_2PI
        return c, {(0.0, 1): -e * b - beta, (0.0, 2): -0.5 * b * b}
    return None


def _closed_form(f: Density):
    """f's closed-form H and VarH, and the function g -> closed-form
    fields of (f, g) (see the module docstring); a flat g has cov = 0.
    The moments of f's statistics are computed once per f."""
    law = _log_law(f)
    memo = {}

    def moment(t, n):
        value = memo.get((t, n))
        if value is None:
            value = memo[t, n] = law[3](t, n)
        return value

    def stats(c):
        """Mean and variance of the form c under f."""
        terms = [(w, t, n, moment(t, n)) for (t, n), w in c[1].items()]
        mean, var = c[0], 0.0
        for w, t, n, e in terms:
            mean += w * e
            for x, u, m, y in terms:
                var += w * x * (moment(t + u, n + m) - e * y)
        return mean, _clamp(var)

    def fields(g=None):
        """The closed-form fields of (f, g); f's own H and VarH without g.

        Every field of a table pair is finite, so one that is not has
        overflowed: OutOfRangeError rather than an inf or a nan.
        """
        try:
            if g is None:
                h, vh = stats(cf)
                known = {"H": -h, "VarH": vh}
            elif (cg := _coefficients(g, law)) is None:
                known = {}
            else:
                i, vi = stats(cg)
                known = {"I": -i, "VarI": vi}
                if not cg[1]:
                    known["cov"] = 0.0
                if cf is not None:
                    w = dict(cf[1])
                    for b, x in cg[1].items():
                        w[b] = w.get(b, 0.0) - x
                    k, vk = stats((cf[0] - cg[0], w))
                    known.update(K=_clamp(k), VarK=vk)
                    known.setdefault("cov", 0.5 * (own["VarH"].value + vi - vk))
        except (OverflowError, ZeroDivisionError):
            known = None
        if known is None or not all(map(math.isfinite, known.values())):
            raise OutOfRangeError(
                f"the moments of {f if g is None else g!r} under {f!r} overflow a float"
            )
        return {name: MeasureValue(v, "closed_form", 0.0) for name, v in known.items()}

    cf = _coefficients(f, law)
    own = {} if cf is None else fields()
    return own, fields


def _integrated(f: Density, gs: list, own: dict, closed, tol: float):
    """A plan per g and the integrals of all rows with their errors.

    A plan is None when f diverges from g, else g's closed-form fields
    and the index of its first row (None when it needs no rows).  The
    rows are p * [1, a, a^2], a = log f and p = f dx/dv the weight in
    the variable v that :func:`_variable` gives, and p * [b, b^2, c,
    c^2] for each g that still lacks a field, b = log g and c = a - b,
    integrated by one quadrature on the support common to f and those
    g.  ``own`` holds f's closed-form H and VarH; with both of them and
    no rows to add, nothing is integrated (None, None).
    """
    lo, hi = f.support
    plans = []
    row_gs = []
    for g in gs:
        glo, ghi = _common_support(f, g)
        if _divergent(f, glo, ghi):
            plans.append(None)
            continue
        known = closed(g) if closed else {}
        row = None
        if not known.keys() >= _PAIR:
            row = 3 + 4 * len(row_gs)
            row_gs.append(g)
            lo, hi = max(lo, glo), min(hi, ghi)
        plans.append((known, row))
    if len(own) == 2 and not row_gs:
        return plans, None, None
    ends, x_of, weigh = _variable(f, lo, hi)

    def rows(v):
        out = np.zeros((3 + 4 * len(row_gs), v.size))
        # e^u may overflow, and so may a law on its way to a 0 density.
        with np.errstate(over="ignore"):
            x, a, p = weigh(v)
            # A node whose x rounds onto an end of (lo, hi) lies outside
            # the open support and adds an exact 0, as one where p is 0.
            m = (p > 0.0) & (x > lo) & (x < hi)
            if np.any(m):
                a, p, xm = a[m], p[m], x[m]
                block = [np.ones_like(a), a, a * a]
                for g in row_gs:
                    b = a if g is f else g.log_pdf(xm)
                    c = a - b
                    block += [b, b * b, c, c * c]
                out[:, m] = p * np.array(block)
        return out

    try:
        value, error, panels = quadrature._integrate_vector(rows, *ends, tol)
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
    if not abs(mass - 1.0) <= max(tol, float(error[0])) + _MASS_TOL:
        raise QuadratureConvergenceError(
            f"quadrature did not see all of f's mass: it integrated "
            f"{mass:.6g} on ({lo:g}, {hi:g}), {abs(mass - 1.0):.3g} away from 1",
            value=value,
            abs_error_estimate=error,
            subdivisions=panels,
        )
    return plans, value, error


def _variable(d: Density, lo: float, hi: float):
    """The variable v in which d's rows are integrated over (lo, hi):
    a pushforward's base variable, log x on (0, hi), or x (see the
    module docstring).

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

        def weigh(u):
            x = np.exp(u)
            a = d.log_pdf(x)
            p = np.exp(a)
            return x, a, np.multiply(p, x, out=p, where=p > 0.0)

        return (-math.inf, math.log(hi)), np.exp, weigh

    def weigh(x):
        a = d.log_pdf(x)
        return x, a, np.exp(a)

    return (lo, hi), (lambda x: x), weigh


def _summed(P: FinitePMF, Qs: list):
    """Plans, sums and (zero) errors as :func:`_integrated` returns them,
    by direct summation over P's labels."""
    for Q in Qs:
        _check_pair(P, Q)
    m = P.probs > 0.0
    w = P.probs[m]
    a = np.log(w)
    rows = [np.ones_like(a), a, a * a]
    plans = []
    for Q in Qs:
        q = Q.probs[m]
        if np.any(q == 0.0):
            plans.append(None)
            continue
        plans.append(({}, len(rows)))
        b = np.log(q)
        c = a - b
        rows += [b, b * b, c, c * c]
    value = np.array([np.sum(w * z) for z in rows])
    return plans, value, np.zeros(value.size)


def _from_moments(value, error, route: str) -> dict:
    """Fields from E[a], E[a^2] and, if given, E[b], E[b^2], E[c], E[c^2]
    with c = a - b."""
    fields = {}
    pairs = (("H", "VarH"), ("I", "VarI"), ("K", "VarK"))[: len(value) // 2]
    for i, (mean, var) in enumerate(pairs):
        m1, m2 = float(value[2 * i]), float(value[2 * i + 1])
        e1, e2 = float(error[2 * i]), float(error[2 * i + 1])
        fields[mean] = MeasureValue(_clamp(m1) if mean == "K" else -m1, route, e1)
        fields[var] = MeasureValue(_clamp(m2 - m1 * m1), route, e2 + 2.0 * abs(m1) * e1)
    return fields


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
