"""Tests of the benchmark's references and checks (no varidx needed).

    python3 -m pytest -q bench

The references must reproduce the known closed forms, and every check
must reject a wrong answer.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

import checks
import reference as ref
import workloads

MURTHY = np.array(checks.MURTHY41)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ----------------------------------------------------------------------
# References reproduce the closed forms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lam,eta", [(1.0, 2.0), (1.5, 0.4), (4.0, 7.25)])
def test_exp_pair_closed_forms(lam, eta):
    got = ref.parametric_measures(f"exp:{lam}", f"exp:{eta}")
    want = {
        "H": 1.0 - math.log(lam),
        "VarH": 1.0,
        "I": -math.log(eta) + eta / lam,
        "VarI": (eta / lam) ** 2,
        "K": math.log(lam / eta) + eta / lam - 1.0,
        "VarK": ((eta - lam) / lam) ** 2,
    }
    for key, value in want.items():
        assert _rel(got[key], value) < 1e-14, key


@pytest.mark.parametrize("a,b", [(0.5, 3.0), (0.5, 2.0), (2.0, 3.0), (1.0, 2.0)])
def test_power_pair_closed_forms(a, b):
    got = ref.parametric_measures(f"power:{a}", f"power:{b}")
    # log X ~ -Exp(a): E[log X] = -1/a, Var[log X] = 1/a^2.
    assert _rel(got["I"], -math.log(b) + (b - 1.0) / a) < 1e-14
    assert _rel(got["VarI"], ((b - 1.0) / a) ** 2) < 1e-14
    assert _rel(got["K"], math.log(a / b) + (b - a) / a) < 1e-14
    assert _rel(got["VarK"], ((a - b) / a) ** 2) < 1e-14


@pytest.mark.parametrize("m1,s1,m2,s2", [(0.0, 1.0, 0.5, 2.0), (2.3, 0.4, 1.0, 1.1)])
def test_lognormal_pair_closed_forms(m1, s1, m2, s2):
    got = ref.parametric_measures(f"lognormal:{m1},{s1}", f"lognormal:{m2},{s2}")
    k = math.log(s2 / s1) + (s1**2 + (m1 - m2) ** 2) / (2.0 * s2**2) - 0.5
    # log f - log g = A Z^2 + B Z + c with Z = log X ~ N(m1, s1^2).
    a = 1.0 / (2.0 * s2**2) - 1.0 / (2.0 * s1**2)
    b = m1 / s1**2 - m2 / s2**2
    var_k = s1**2 * (2.0 * a * a * s1**2 + (2.0 * a * m1 + b) ** 2)
    assert _rel(got["K"], k) < 1e-14
    assert _rel(got["VarK"], var_k) < 1e-13
    assert _rel(got["VarH"], 0.5 + s1**2) < 1e-14  # log f = -Z^2/(2 s^2) + ... - Z


def test_weibull_lognormal_matches_quantile_integral():
    f_spec, g_spec = "w2:1.7,0.02", "lognormal:3.5,0.5"
    got = ref.parametric_measures(f_spec, g_spec)
    with mp.workdps(30):
        a, lam, m, s = mp.mpf(1.7), mp.mpf(0.02), mp.mpf(3.5), mp.mpf(0.5)

        def d(u):
            x = (-mp.log1p(-u) / lam) ** (1 / a)
            log_f = mp.log(lam * a) + (a - 1) * mp.log(x) - lam * x**a
            log_g = -((mp.log(x) - m) ** 2) / (2 * s * s) - mp.log(x * s * mp.sqrt(2 * mp.pi))
            return log_f - log_g

        k = mp.quad(d, [0, 0.5, 1])
        var_k = mp.quad(lambda u: (d(u) - k) ** 2, [0, 0.5, 1])
    assert _rel(got["K"], float(k)) < 1e-12
    assert _rel(got["VarK"], float(var_k)) < 1e-12


@pytest.fixture(scope="module")
def murthy_kde():
    return ref.LogKDE(MURTHY, ref.robust_log_bandwidth(MURTHY))


def test_log_kde_simpson_is_converged(murthy_kde):
    assert abs(murthy_kde.integrated_mass() - 1.0) < 1e-12
    fine = ref.LogKDE(MURTHY, murthy_kde.h, nodes_per_h=200)
    for g in (("w2", (1.5487, 0.0166)), ("lognormal", (2.3, 0.6))):
        k, v = murthy_kde.kl_moments(*g)
        k2, v2 = fine.kl_moments(*g)
        assert abs(k - k2) < 1e-11 and abs(v - v2) < 1e-11


def test_log_kde_cdf_matches_density(murthy_kde):
    lo, hi = murthy_kde.support
    assert murthy_kde.cdf([lo])[0] == pytest.approx(0.0, abs=1e-15)
    assert murthy_kde.cdf([hi])[0] == pytest.approx(1.0, abs=1e-14)
    # cdf(x) equals the Simpson integral of the density up to x.
    grid = murthy_kde.grid[:1001]
    w = np.ones(1001)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    part = float(np.dot(w, murthy_kde.p[:1001])) * (grid[1] - grid[0]) / 3.0
    assert murthy_kde.cdf([math.exp(grid[-1])])[0] == pytest.approx(part, abs=1e-10)


def test_bound_formulas_are_the_chebyshev_probabilities():
    # The two tail events of the bound, solved for x directly.
    lam, eta, eps = 4.0, 7.0, 0.5
    i = -math.log(eta) + eta / lam
    lower = math.exp(-lam * (math.log(eta) + eps + i) / eta)  # P(X >= x_lo)
    upper = 1.0 - math.exp(-lam * (math.log(eta) - eps + i) / eta)  # P(X <= x_hi)
    assert ref.exp_pair_bound(lam, eta, eps) == pytest.approx(eps * eps * (lower + upper), rel=1e-14)
    alpha, eps = 3.0, 0.5
    i = -math.log(alpha) + alpha - 1.0
    x_lo = (math.exp(-eps - i) / alpha) ** (1.0 / (alpha - 1.0))
    x_hi = (math.exp(eps - i) / alpha) ** (1.0 / (alpha - 1.0))
    assert ref.uniform_power_bound(alpha, eps) == pytest.approx(eps * eps * (x_lo + 1.0 - x_hi), rel=1e-14)
    # Near the uniform law the upper threshold leaves (0, 1): one term.
    alpha = 1.2
    i = -math.log(alpha) + alpha - 1.0
    x_lo = (math.exp(-eps - i) / alpha) ** (1.0 / (alpha - 1.0))
    assert (math.exp(eps - i) / alpha) ** (1.0 / (alpha - 1.0)) > 1.0
    assert ref.uniform_power_bound(alpha, eps) == pytest.approx(eps * eps * x_lo, rel=1e-14)


def test_discrete_sums_match_exact_pmfs():
    p = ref.pmf("binomial", (3, 0.55))
    assert p == pytest.approx([0.091125, 0.334125, 0.408375, 0.166375], abs=1e-15)
    assert sum(ref.pmf("betabin", (3, 12, 10))) == pytest.approx(1.0, abs=1e-14)
    k, v = ref.discrete_kl([1, 1, 1, 1], ref.pmf("dunif", (4,)))
    assert k == 0.0 and v == 0.0


# ----------------------------------------------------------------------
# Checks reject wrong answers
# ----------------------------------------------------------------------

def _measures_text(f_spec, g_spec, values):
    return json.dumps({"f": f_spec, "g": g_spec, "measures": [
        {"measure": k, "value": v, "method": "quadrature", "abs_error": 0.0} for k, v in values.items()
    ]})


def test_measures_check_rejects_perturbed_k():
    f_spec, g_spec = "w2:1.7,0.02", "lognormal:3.5,0.5"
    values = ref.parametric_measures(f_spec, g_spec)
    p = checks.Problems()
    checks.check_measures(p, f_spec, g_spec, _measures_text(f_spec, g_spec, values))
    assert p == []
    values["K"] *= 1.0 + 1e-6
    checks.check_measures(p, f_spec, g_spec, _measures_text(f_spec, g_spec, values))
    assert any(" K:" in s for s in p) and any("K = I - H" in s for s in p)


def _weibull_mle(data):
    lx = np.log(data)

    def shape_eq(a):
        w = data**a
        return float(np.sum(w * lx) / np.sum(w)) - 1.0 / a - float(lx.mean())

    a = brentq(shape_eq, 0.1, 20.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return a, data.size / float(np.sum(data**a))


def _fit_payload(kde, data):
    a, lam = _weibull_mle(data)
    mu, sigma = ref.lognormal_mle(data)
    cands = []
    for label, fam, params, fitted in (
        (f"w2:{a!r},{lam!r}", "w2", (a, lam), True),
        (f"lognormal:{mu!r},{sigma!r}", "lognormal", (mu, sigma), True),
        ("w2:1.6,0.0127", "w2", (1.6, 0.0127), False),
    ):
        k, v = kde.kl_moments(fam, params)
        cands.append({"label": label, "fitted": fitted, "K": k, "VarK": v,
                      "fit": {"params": list(params)} if fitted else None})
    ranking = ref.auto_ranking([ref.Scored(c["label"], c["K"], c["VarK"]) for c in cands])
    lo, hi = kde.support
    return {
        "reference": {"kind": "kde", "n": data.size, "bandwidth": kde.h, "support": [lo, hi]},
        "candidates": cands, "ranking": ranking, "disqualified": [], "failures": [],
    }


def test_fit_check_rejects_swapped_ranking_and_off_mle(murthy_kde):
    payload = _fit_payload(murthy_kde, MURTHY)
    p = checks.Problems()
    checks.check_fit_continuous(p, "fit", payload, MURTHY, murthy_kde)
    assert p == []

    swapped = json.loads(json.dumps(payload))
    swapped["ranking"][0], swapped["ranking"][1] = swapped["ranking"][1], swapped["ranking"][0]
    checks.check_fit_continuous(p, "fit", swapped, MURTHY, murthy_kde)
    assert len(p) == 1 and "ranking" in p[0]

    off = json.loads(json.dumps(payload))
    a, lam = off["candidates"][0]["fit"]["params"]
    a *= 1.0 + 1e-6
    off["candidates"][0]["fit"]["params"] = [a, lam]
    off["candidates"][0]["label"] = f"w2:{a!r},{lam!r}"
    p = checks.Problems()
    checks.check_fit_continuous(p, "fit", off, MURTHY, murthy_kde)
    assert any("shape score" in s for s in p)

    wrong_k = json.loads(json.dumps(payload))
    wrong_k["candidates"][2]["VarK"] *= 1.0 + 1e-6
    p = checks.Problems()
    checks.check_fit_continuous(p, "fit", wrong_k, MURTHY, murthy_kde)
    assert any("VarK(w2:1.6,0.0127)" in s for s in p)


def test_discrete_fit_check_rejects_wrong_sum():
    counts = checks.COIN3
    cands = []
    for label in ("binomial:3.0,0.55", "betabin:3.0,12.0,10.0", "dunif:4.0"):
        fam, params = ref.parse_spec(label)
        k, v = ref.discrete_kl(counts, ref.pmf(fam, params))
        cands.append({"label": label, "fitted": fam == "binomial", "K": k, "VarK": v})
    ranking = ref.auto_ranking([ref.Scored(c["label"], c["K"], c["VarK"]) for c in cands])
    payload = {"reference": {"kind": "empirical", "counts": list(counts)}, "candidates": cands,
               "ranking": ranking, "disqualified": [], "failures": []}
    p = checks.Problems()
    checks.check_fit_discrete(p, "coin3", payload, counts)
    assert p == []
    payload["candidates"][2]["K"] += 2e-7
    checks.check_fit_discrete(p, "coin3", payload, counts)
    assert len(p) == 1 and "K(dunif:4.0)" in p[0]


def _csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(f"{v:.12g}" for v in r) for r in rows]) + "\n"


def test_curves_and_bounds_checks_reject_perturbed_cells():
    argv = ["curves", "--pair", "power", "--grid", "0.2:4:0.1"]
    x = 0.2 + 0.1 * np.arange(39)
    rows = [[a, -math.log(a) + a - 1.0, (a - 1.0) ** 2] for a in x]
    p = checks.Problems()
    checks.check_curves(p, argv, _csv_text(["alpha", "I", "VarI"], rows))
    assert p == []
    rows[5][1] *= 1.0 + 1e-8
    checks.check_curves(p, argv, _csv_text(["alpha", "I", "VarI"], rows))
    assert len(p) == 1

    argv = ["bounds", "--pair", "exp", "--grid", "0.5:8:0.25"]
    header = ["eta", "VarI"] + [f"bound_eps={e:g}" for e in checks.BOUND_EPS]
    etas = 0.5 + 0.25 * np.arange(31)
    rows = [[e, (e / 4.0) ** 2] + [ref.exp_pair_bound(4.0, e, eps) for eps in checks.BOUND_EPS] for e in etas]
    p = checks.Problems()
    checks.check_bounds(p, argv, _csv_text(header, rows))
    assert p == []
    rows[0][5] = rows[0][1] * 1.5  # a bound above VarI, and off its formula
    checks.check_bounds(p, argv, _csv_text(header, rows))
    assert any("exceeds VarI" in s for s in p) and len(p) == 2


def test_reproduce_check_rejects_a_fail_row():
    p = checks.Problems()
    checks.check_reproduce(p, "[t]\n  PASS  a: expected 1 got 1 (tol 0)\n")
    assert p == []
    checks.check_reproduce(p, "[t]\n  PASS  a\n  FAIL  b: expected 1 got 2 (tol 0)\n")
    assert len(p) == 1


def _exact_draws(kde, m, rng):
    """Draws of the renormalised log-domain mixture: a centre plus h Z,
    redrawn outside the log-support."""
    out = []
    while len(out) < m:
        t = rng.choice(kde.u, size=m) + kde.h * rng.standard_normal(m)
        out.extend(t[(t > kde.lo) & (t < kde.hi)].tolist())
    return np.exp(np.array(out[:m]))


def test_sample_check_rejects_shifted_law(murthy_kde):
    rng = np.random.default_rng(5)
    g = _weibull_mle(MURTHY)
    draws = _exact_draws(murthy_kde, 2000, rng)
    p = checks.Problems()
    checks.check_sample(p, draws, murthy_kde, g, 2000)
    assert p == []
    checks.check_sample(p, draws * 1.15, murthy_kde, g, 2000)
    assert len(p) == 1 and "KS" in p[0]
    # Draws of the candidate g instead of f: log f - log g averages -K(g:f).
    a, lam = g
    lo, hi = murthy_kde.support
    from_g = (rng.exponential(size=20000) / lam) ** (1.0 / a)
    from_g = from_g[(from_g > lo) & (from_g < hi)][:2000]
    p = checks.Problems()
    checks.check_sample(p, from_g, murthy_kde, g, 2000)
    assert any("Monte-Carlo" in s for s in p)


def test_parametric_pairs_are_seeded_and_avoid_closed_forms():
    a, b = workloads.parametric_pairs(3), workloads.parametric_pairs(3)
    assert a == b and a != workloads.parametric_pairs(4)
    assert len(a) == 25 and a[-1] == workloads.CORNER_PAIR
    assert not any(f.startswith("exp:") and g.startswith("exp:") for f, g in a)


def test_parametric_levels_meet_in_every_pairing():
    rows = workloads.LEVELS
    assert len(rows) == 24
    for i in range(4):
        for j in range(i + 1, 4):
            assert {(r[i], r[j]) for r in rows} == {(x, y) for x in range(3) for y in range(3)}
