"""Reference values computed apart from varidx.

Nothing here imports varidx.  Every quantity the benchmark checks is
recomputed from its definition:

* parametric information moments from closed forms: log f and log g of
  the exponential, Weibull, lognormal and power families are linear in
  the terms x**s * (log x)**k, whose expectations follow from the
  moments of Y = rate * X**shape ~ Exp(1) (derivatives of the gamma
  function, written with polygammas) and of log X ~ Normal;
* log-KDE moments from the Gaussian-mixture formula, renormalised over
  the same log-support, by a composite Simpson rule with 100 nodes per
  bandwidth;
* the paper's piecewise Chebyshev bounds, the discrete sums, the
  maximum-likelihood score equations and the r = 2 min K ranking rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import ndtr
from scipy.stats import kstest

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_DPS = 40


# ----------------------------------------------------------------------
# Parametric laws: log density as a sum of c * x**s * (log x)**k terms
# ----------------------------------------------------------------------

def parse_spec(text: str):
    """``family:p1,p2`` -> (family, params), in the CLI's canonical names."""
    family, _, tail = text.partition(":")
    params = tuple(float(p) for p in tail.split(",")) if tail else ()
    return family, params


def log_terms(family: str, params) -> dict:
    """log pdf as {(s, k): c}, meaning the sum of c * x**s * (log x)**k."""
    if family == "exp":
        (r,) = params
        return {(0.0, 0): mp.log(r), (1.0, 0): -mp.mpf(r)}
    if family == "w2":
        a, lam = params
        return {(0.0, 0): mp.log(lam) + mp.log(a), (0.0, 1): mp.mpf(a) - 1, (a, 0): -mp.mpf(lam)}
    if family == "lognormal":
        m, s = (mp.mpf(p) for p in params)
        return {
            (0.0, 2): -1 / (2 * s * s),
            (0.0, 1): m / (s * s) - 1,
            (0.0, 0): -m * m / (2 * s * s) - mp.log(s) - mp.log(2 * mp.pi) / 2,
        }
    if family == "power":
        (alpha,) = params
        return {(0.0, 0): mp.log(alpha), (0.0, 1): mp.mpf(alpha) - 1}
    raise ValueError(f"no closed-form reference for family {family!r}")


def _gamma_derivative(z, j: int):
    """d^j/dz^j Gamma(z), as Gamma times a complete Bell polynomial in psi."""
    g = mp.gamma(z)
    if j == 0:
        return g
    p0, p1, p2, p3 = (mp.polygamma(m, z) for m in range(4))
    bell = {
        1: p0,
        2: p0**2 + p1,
        3: p0**3 + 3 * p0 * p1 + p2,
        4: p0**4 + 6 * p0**2 * p1 + 4 * p0 * p2 + 3 * p1**2 + p3,
    }[j]
    return g * bell


def _normal_raw_moment(mu, var, k: int):
    return {
        0: mp.mpf(1),
        1: mu,
        2: mu**2 + var,
        3: mu**3 + 3 * mu * var,
        4: mu**4 + 6 * mu**2 * var + 3 * var**2,
    }[k]


def term_moment(family: str, params, s, k: int):
    """E[X**s * (log X)**k] for X from the given family (k <= 4)."""
    s = mp.mpf(s)
    if family in ("exp", "w2"):
        a, lam = (1.0, params[0]) if family == "exp" else params
        a, lam = mp.mpf(a), mp.mpf(lam)
        # X = (Y / lam)**(1/a) with Y ~ Exp(1):
        # X**s (log X)**k = lam**(-s/a) a**(-k) Y**(s/a) (log Y - log lam)**k.
        t = s / a
        total = mp.mpf(0)
        for j in range(k + 1):
            total += mp.binomial(k, j) * (-mp.log(lam)) ** (k - j) * _gamma_derivative(1 + t, j)
        return lam ** (-t) * a ** (-k) * total
    if family == "lognormal":
        m, sig = (mp.mpf(p) for p in params)
        var = sig * sig
        # Tilting by exp(s Z), Z = log X ~ N(m, var), shifts the mean by s var.
        return mp.exp(s * m + s * s * var / 2) * _normal_raw_moment(m + s * var, var, k)
    if family == "power":
        alpha = mp.mpf(params[0])
        # log X = -Y / alpha with Y ~ Exp(1).
        return (-1 / alpha) ** k * mp.factorial(k) / (1 + s / alpha) ** (k + 1)
    raise ValueError(f"no closed-form reference for family {family!r}")


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for (s1, k1), c1 in p.items():
        for (s2, k2), c2 in q.items():
            key = (s1 + s2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _minus(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) - c
    return out


def _expect(family, params, terms: dict):
    return mp.fsum(c * term_moment(family, params, s, k) for (s, k), c in terms.items())


def parametric_measures(f_spec: str, g_spec: str) -> dict:
    """H, VarH, I, VarI, K, VarK of two same-support parametric laws."""
    ff, fp = parse_spec(f_spec)
    gf, gp = parse_spec(g_spec)
    with mp.workdps(_DPS):
        a = log_terms(ff, fp)
        b = log_terms(gf, gp)
        d = _minus(a, b)

        def mean_var(t):
            m1 = _expect(ff, fp, t)
            m2 = _expect(ff, fp, _times(t, t))
            return m1, m2 - m1 * m1

        ea, va = mean_var(a)
        eb, vb = mean_var(b)
        ed, vd = mean_var(d)
        return {
            "H": float(-ea),
            "VarH": float(va),
            "I": float(-eb),
            "VarI": float(vb),
            "K": float(ed),
            "VarK": float(vd),
        }


def log_pdf(family: str, params, x):
    """Vectorised log pdf of a parametric law at points x > 0 (float)."""
    x = np.asarray(x, dtype=float)
    lx = np.log(x)
    if family == "exp":
        (r,) = params
        return math.log(r) - r * x
    if family == "w2":
        a, lam = params
        return math.log(lam) + math.log(a) + (a - 1.0) * lx - lam * x**a
    if family == "lognormal":
        m, s = params
        z = (lx - m) / s
        return -0.5 * z * z - lx - math.log(s) - _LOG_SQRT_2PI
    raise ValueError(f"no log pdf for family {family!r}")


# ----------------------------------------------------------------------
# Log-domain Gaussian KDE
# ----------------------------------------------------------------------

def robust_log_bandwidth(data) -> float:
    """Normal-reference width of log data with a MAD/0.6745 scale."""
    u = np.log(np.asarray(data, dtype=float))
    scale = float(np.median(np.abs(u - np.median(u)))) / 0.6745
    return scale * (4.0 / (3.0 * u.size)) ** 0.2


class LogKDE:
    """Gaussian mixture of the log data on (min - 4h, max + 4h), renormalised.

    ``nodes_per_h`` sets the Simpson spacing to bandwidth / nodes_per_h.
    """

    _CHUNK = 400

    def __init__(self, data, bandwidth: float, nodes_per_h: int = 100):
        self.u = np.sort(np.log(np.asarray(data, dtype=float)))
        self.h = float(bandwidth)
        self.lo = float(self.u[0]) - 4.0 * self.h
        self.hi = float(self.u[-1]) + 4.0 * self.h
        self.mass = float(np.mean(ndtr((self.hi - self.u) / self.h) - ndtr((self.lo - self.u) / self.h)))
        n_int = int(math.ceil((self.hi - self.lo) / self.h * nodes_per_h))
        n_int += n_int % 2
        self.grid = np.linspace(self.lo, self.hi, n_int + 1)
        w = np.ones(n_int + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.weights = w * (self.hi - self.lo) / n_int / 3.0
        self.log_p = self.log_density_u(self.grid)
        self.p = np.exp(self.log_p)

    @property
    def support(self):
        return math.exp(self.lo), math.exp(self.hi)

    def log_density_u(self, t):
        """log of the renormalised mixture density of U = log X at t."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        norm = self.u.size * self.h * math.sqrt(2.0 * math.pi) * self.mass
        for i in range(0, t.size, self._CHUNK):
            z = (t[i : i + self._CHUNK, None] - self.u[None, :]) / self.h
            out[i : i + self._CHUNK] = np.log(np.exp(-0.5 * z * z).sum(axis=1) / norm)
        return out

    def log_pdf(self, x):
        """log f_X(x) = log p(log x) - log x on the support."""
        lx = np.log(np.asarray(x, dtype=float))
        return self.log_density_u(lx) - lx

    def cdf(self, x):
        """Exact mixture cdf of X, renormalised over the support."""
        lx = np.atleast_1d(np.log(np.asarray(x, dtype=float)))
        out = np.empty(lx.shape)
        base = np.mean(ndtr((self.lo - self.u) / self.h))
        for i in range(0, lx.size, self._CHUNK):
            z = (lx[i : i + self._CHUNK, None] - self.u[None, :]) / self.h
            out[i : i + self._CHUNK] = (ndtr(z).mean(axis=1) - base) / self.mass
        return np.clip(out, 0.0, 1.0)

    def integrated_mass(self) -> float:
        return float(np.dot(self.weights, self.p))

    def kl_moments(self, g_family: str, g_params) -> tuple[float, float]:
        """(K, VarK) of this law against a parametric g."""
        log_f = self.log_p - self.grid
        d = log_f - log_pdf(g_family, g_params, np.exp(self.grid))
        wp = self.weights * self.p
        k = float(np.dot(wp, d))
        return k, float(np.dot(wp, (d - k) ** 2))


def ks_pvalue(draws, cdf) -> float:
    return float(kstest(np.asarray(draws, dtype=float), cdf).pvalue)


# ----------------------------------------------------------------------
# Bounds, discrete sums, ML equations, ranking
# ----------------------------------------------------------------------

def exp_pair_bound(lam: float, eta: float, eps: float) -> float:
    """eps^2 [P(g(X) <= e^{-eps-I}) + P(g(X) >= e^{eps-I})], X ~ Exp(lam), g = Exp(eta).

    With I = -log eta + eta/lam the lower event is X >= 1/lam + eps/eta
    and the upper one X <= 1/lam - eps/eta, empty once eps lam >= eta.
    """
    low = math.exp(-1.0 - eps * lam / eta)
    high = 1.0 - math.exp(-1.0 + eps * lam / eta) if eps * lam < eta else 0.0
    return eps * eps * (low + high)


def uniform_power_bound(alpha: float, eps: float) -> float:
    """Same bound for X ~ U(0, 1) and g = Power(alpha), alpha > 1.

    With I = -log alpha + alpha - 1 the thresholds solve
    alpha x^(alpha-1) = e^{-+eps-I}: x = exp((1 -+ eps - alpha)/(alpha - 1)),
    the upper one inside (0, 1) only while alpha > 1 + eps.
    """
    low = math.exp((1.0 - eps - alpha) / (alpha - 1.0))
    x_hi = (1.0 + eps - alpha) / (alpha - 1.0)
    high = 1.0 - math.exp(x_hi) if x_hi < 0.0 else 0.0
    return eps * eps * (low + high)


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def pmf(family: str, params) -> list[float]:
    """Probabilities of the CLI's discrete families on 0..n."""
    if family == "binomial":
        n, p = int(params[0]), params[1]
        return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    if family == "betabin":
        n, a, b = int(params[0]), params[1], params[2]

        def lbeta(x, y):
            return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

        return [
            math.exp(_log_binom(n, k) + lbeta(k + a, n - k + b) - lbeta(a, b))
            for k in range(n + 1)
        ]
    if family == "dunif":
        k = int(params[0])
        return [1.0 / k] * k
    raise ValueError(f"no pmf for family {family!r}")


def discrete_kl(counts, q) -> tuple[float, float]:
    """(K, VarK) of the empirical pmf of counts against q, by direct sums."""
    total = float(sum(counts))
    terms = [(c / total, math.log((c / total) / qk)) for c, qk in zip(counts, q) if c > 0]
    k = math.fsum(p * r for p, r in terms)
    return k, math.fsum(p * (r - k) ** 2 for p, r in terms)


def weibull_scores(data, shape: float, rate: float) -> tuple[float, float]:
    """Normalised ML score equations of the shape-rate Weibull.

    d/d rate:  n/rate - sum x^a            -> returned as 1 - rate * mean(x^a)
    d/d shape: n/a + sum log x - rate sum x^a log x -> divided by n
    """
    x = np.asarray(data, dtype=float)
    lx = np.log(x)
    xa = x**shape
    s_rate = 1.0 - rate * math.fsum(xa) / x.size
    s_shape = 1.0 / shape + math.fsum(lx) / x.size - rate * math.fsum(xa * lx) / x.size
    return s_rate, s_shape


def lognormal_mle(data) -> tuple[float, float]:
    lx = np.log(np.asarray(data, dtype=float))
    mu = math.fsum(lx) / lx.size
    return mu, math.sqrt(math.fsum((lx - mu) ** 2) / lx.size)


def binomial_mle(counts) -> float:
    n = len(counts) - 1
    return math.fsum(k * c for k, c in enumerate(counts)) / (n * math.fsum(counts))


@dataclass(frozen=True)
class Scored:
    label: str
    K: float
    VarK: float


def auto_ranking(cands: list[Scored]) -> list[str]:
    """Champion tournament by ascending K with the rule r = 2 min K.

    Of a pair ordered so K_a <= K_b, b wins exactly when
    (r - K_b)/sqrt(V_b) > (r - K_a)/sqrt(V_a) at r = 2 K_a, that is when
    K_b < (2 - sqrt(V_b / V_a)) K_a.
    """
    order = sorted(cands, key=lambda c: (c.K, c.VarK, c.label))
    champion = order[0]
    for challenger in order[1:]:
        a, b = (champion, challenger) if champion.K <= challenger.K else (challenger, champion)
        if b.K < (2.0 - math.sqrt(b.VarK / a.VarK)) * a.K:
            champion = b
        else:
            champion = a
    return [champion.label] + [c.label for c in order if c is not champion]
