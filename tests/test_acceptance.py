"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass line on success (run with ``pytest -s``
to see them); a failure is reported by pytest as usual.
"""

import math
from fractions import Fraction

import numpy as np

from varidx.bounds import chebyshev_bound, exp_pair_bound, uniform_power_bound
from varidx.datasets import COIN3, MURTHY41
from varidx.distributions import (
    Exponential,
    Lognormal,
    Power,
    SampleData,
    Uniform,
    Weibull2,
    make_pmf,
    push_forward,
    sample,
)
from varidx.estimation import fit_binomial_p, fit_weibull_mle, kde
from varidx.measures import (
    MeasureValue,
    inaccuracy,
    info_moments,
    kl,
    kl_pmf,
    log_log_cov,
    var_kl,
    var_kl_pmf,
    varinaccuracy,
)
from varidx.quadrature import expectations
from varidx.selection import Candidate, prefer_auto, rank

LOG2 = math.log(2.0)

HALF_LINE_SIX = [
    Exponential(1.0),
    Exponential(2.5),
    Weibull2(1.6, 0.8),
    Weibull2(0.7, 1.2),
    Lognormal(0.0, 0.6),
    Lognormal(0.5, 1.0),
]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_exponential_pair_inaccuracy_dispersion():
    f, g = Exponential(1.0), Exponential(2.0)
    assert inaccuracy(f, g).value == 2.0 - LOG2
    assert varinaccuracy(f, g).value == 4.0
    assert abs(info_moments(f, g, method="quadrature").I.value - (2.0 - LOG2)) <= 1e-7
    assert abs(info_moments(f, g, method="quadrature").VarI.value - 4.0) <= 1e-7
    report(1, "I(Exp1,Exp2) = 2 - log 2 and VarI = 4 (closed exact, quad 1e-7)")


def test_criterion_02_uniform_power_pair():
    f, g = Uniform(0.0, 1.0), Power(2.0)
    assert inaccuracy(f, g).value == 1.0 - LOG2
    assert varinaccuracy(f, g).value == 1.0
    assert abs(info_moments(f, g, method="quadrature").I.value - (1.0 - LOG2)) <= 1e-7
    assert abs(info_moments(f, g, method="quadrature").VarI.value - 1.0) <= 1e-7
    report(2, "I(U(0,1),Power2) = 1 - log 2 and VarI = 1 (closed exact, quad 1e-7)")


def test_criterion_03_triangle_counterexample():
    f, g, h = Power(0.5), Power(3.0), Power(2.0)
    triples = [(f, g, 25.0), (f, h, 9.0), (h, g, 0.25)]
    for a, b, expect in triples:
        assert abs(var_kl(a, b).value - expect) <= 1e-9
        assert abs(info_moments(a, b, method="quadrature").VarK.value - expect) <= 1e-7
    assert var_kl(f, g).value > 9.0 + 0.25
    report(3, "VarK triple (25, 9, 0.25) and 25 > 9.25 triangle failure")


def test_criterion_04_discrete_reference_table():
    emp = make_pmf("empirical", COIN3)
    cells = [
        (make_pmf("binomial", (3, 0.55)), 0.0011, 0.0023),
        (make_pmf("beta_binomial", (3, 12, 10)), 0.0027, 0.0054),
        (make_pmf("discrete_uniform", (4,)), 0.1305, 0.2253),
    ]
    for q, k_expect, v_expect in cells:
        assert abs(kl_pmf(emp, q).value - k_expect) <= 5e-5
        assert abs(var_kl_pmf(emp, q).value - v_expect) <= 5e-5
    report(4, "all six discrete (K, VarK) table values within 5e-5")


def test_criterion_05_binomial_mle_exact():
    fit = fit_binomial_p(list(COIN3), 3)
    exact = Fraction(
        sum(k * c for k, c in enumerate(COIN3)), 3 * sum(COIN3)
    )
    assert exact == Fraction(330, 600) == Fraction(11, 20)
    assert fit.params[1] == float(exact)
    report(5, "binomial p-hat = 330/600 = 0.55 exactly")


def test_criterion_06_weibull_mle_on_failure_times():
    fit = fit_weibull_mle(SampleData(MURTHY41))
    shape, rate = fit.params
    assert abs(shape - 1.5487) / 1.5487 <= 0.01
    assert abs(rate - 0.0166) / 0.0166 <= 0.01
    report(6, f"Weibull fit ({shape:.5f}, {rate:.6f}) within 1% of (1.5487, 0.0166)")


def test_criterion_07_kde_pipeline_decision():
    data = SampleData(MURTHY41)
    f = kde(data)
    g1 = Weibull2(1.5487, 0.0166)
    g2 = Weibull2(1.6, 0.0127)
    k1, k2 = kl(f, g1).value, kl(f, g2).value
    assert abs(k1 - 0.0990) <= 0.02
    assert abs(k1 - k2) <= 0.01
    v1, v2 = var_kl(f, g1).value, var_kl(f, g2).value
    assert v1 > v2
    winner = rank(f, [("g1", g1), ("g2", g2)]).ranking[0].label
    assert winner == "g2"
    report(
        7,
        f"kde pipeline: K1={k1:.4f} ~ K2={k2:.4f}, VarK1={v1:.4f} > "
        f"VarK2={v2:.4f}, selects W2(1.6, 0.0127)",
    )


def test_criterion_08_published_summary_criterion():
    c1 = Candidate(
        "weibull",
        None,
        MeasureValue(0.0381, "summation"),
        MeasureValue(0.1148, "summation"),
    )
    c2 = Candidate(
        "lognormal",
        None,
        MeasureValue(0.0420, "summation"),
        MeasureValue(0.0924, "summation"),
    )
    winner, decision = prefer_auto(c1, c2)
    assert decision.criterion_value < 0.0
    assert winner.label == "lognormal"
    report(
        8,
        f"criterion value {decision.criterion_value:.3e} < 0 selects lognormal",
    )


def test_criterion_09_bound_dominance_and_agreement():
    eps_grid = [0.5, 1.0, 1.5, 2.0]
    for eta in np.arange(0.5, 8.001, 0.5):
        f, g = Exponential(4.0), Exponential(float(eta))
        vi = varinaccuracy(f, g).value
        for eps in eps_grid:
            gb = chebyshev_bound(f, g, eps)
            cb = exp_pair_bound(4.0, float(eta), eps)
            assert gb.bound_value <= vi + 1e-7
            assert abs(gb.bound_value - cb.bound_value) <= 1e-9
    for alpha in np.arange(1.25, 5.001, 0.25):
        f, g = Uniform(0.0, 1.0), Power(float(alpha))
        vi = varinaccuracy(f, g).value
        for eps in eps_grid:
            gb = chebyshev_bound(f, g, eps)
            cb = uniform_power_bound(float(alpha), eps)
            assert gb.bound_value <= vi + 1e-7
            assert abs(gb.bound_value - cb.bound_value) <= 1e-9
    report(9, "bounds dominated by VarI and generic = closed form to 1e-9")


def test_criterion_10_identity_suite():
    for f in HALF_LINE_SIX:
        h = info_moments(f, f, method="quadrature").H.value
        vh = info_moments(f, f, method="quadrature").VarH.value
        for g in HALF_LINE_SIX:
            k = info_moments(f, g, method="quadrature").K.value
            i = info_moments(f, g, method="quadrature").I.value
            vk = info_moments(f, g, method="quadrature").VarK.value
            vi = info_moments(f, g, method="quadrature").VarI.value
            cov = log_log_cov(f, g).value
            assert abs(k - (i - h)) <= 1e-8
            assert abs(vk - (vh + vi - 2.0 * cov)) <= 1e-7

    for a in [0.5, 2.0, 10.0]:
        for b in [0.0, 1.0]:
            phi = lambda x, a=a, b=b: a * x + b  # noqa: E731
            phi_inv = lambda y, a=a, b=b: (y - b) / a  # noqa: E731
            phi_d = lambda x, a=a: np.full(np.shape(x), a)  # noqa: E731
            ft = push_forward(Exponential(1.0), phi, phi_inv, phi_d)
            gt = push_forward(Exponential(2.0), phi, phi_inv, phi_d)
            assert abs(info_moments(ft, gt, method="quadrature").VarI.value - 4.0) <= 1e-7

    f, g = Power(2.0), Power(3.0)
    sq = lambda x: x * x  # noqa: E731
    rt = lambda y: np.sqrt(y)  # noqa: E731
    dv = lambda x: 2.0 * x  # noqa: E731
    lhs = info_moments(
        push_forward(f, sq, rt, dv), push_forward(g, sq, rt, dv), method="quadrature"
    ).VarI.value
    log_g = lambda x: g.log_pdf(x)  # noqa: E731
    log_dphi = lambda x: np.log(2.0 * x)  # noqa: E731
    m = expectations(
        f,
        [log_dphi, lambda x: log_dphi(x) ** 2, log_g, lambda x: log_g(x) * log_dphi(x)],
        tol=1e-10,
    )
    var_ld = m[1].value - m[0].value ** 2
    cov_g_ld = m[3].value - m[2].value * m[0].value
    rhs = info_moments(f, g, method="quadrature").VarI.value + var_ld - 2.0 * cov_g_ld
    assert abs(lhs - rhs) <= 1e-6
    report(10, "identities, affine invariance, and transform identity hold")


def test_criterion_11_vanishing_suite():
    flats = [
        (Power(2.0), Uniform(0.0, 1.0)),
        (Power(0.5), Uniform(0.0, 1.0)),
        (Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
        (Exponential(1.0), Uniform(0.0, 50.0)),
        (Weibull2(1.6, 0.8), Uniform(0.0, 60.0)),
        (Lognormal(0.0, 0.6), Uniform(0.0, 80.0)),
    ]
    for f, g in flats:
        assert varinaccuracy(f, g).value <= 1e-10
        assert info_moments(f, g, method="quadrature").VarI.value <= 1e-10
    for f in HALF_LINE_SIX + [Power(2.0), Uniform(0.0, 1.0)]:
        assert var_kl(f, f).value <= 1e-10
        assert info_moments(f, f, method="quadrature").VarK.value <= 1e-10
    rng = np.random.default_rng(777)
    count = 0
    while count < 50:
        lam = math.exp(rng.uniform(-1.5, 1.5))
        eta = math.exp(rng.uniform(-1.5, 1.5))
        if abs(eta / lam - 1.0) < 0.011:
            continue
        assert var_kl(Exponential(lam), Exponential(eta)).value > 1e-4
        count += 1
    report(11, "dispersions vanish against flat laws and for identical pairs only")


def test_criterion_12_monte_carlo_oracle():
    f = Weibull2(1.5487, 0.0166)
    g = Lognormal(2.2, 0.7)
    n = 10**6
    x = sample(f, n, 31415).values
    lf = f.log_pdf(x)
    lg = g.log_pdf(x)

    def mean_se(z):
        return float(z.mean()), float(z.std(ddof=1)) / math.sqrt(len(z))

    def var_se(z):
        zc = z - z.mean()
        s2 = float(np.mean(zc**2))
        m4 = float(np.mean(zc**4))
        return s2, math.sqrt(max(m4 - s2 * s2, 0.0) / len(z))

    checks = [
        ("H", info_moments(f, f, method="quadrature").H.value, *mean_se(-lf)),
        ("VarH", info_moments(f, f, method="quadrature").VarH.value, *var_se(-lf)),
        ("I", info_moments(f, g, method="quadrature").I.value, *mean_se(-lg)),
        ("VarI", info_moments(f, g, method="quadrature").VarI.value, *var_se(-lg)),
        ("K", info_moments(f, g, method="quadrature").K.value, *mean_se(lf - lg)),
        ("VarK", info_moments(f, g, method="quadrature").VarK.value, *var_se(lf - lg)),
    ]
    w = (lf - lf.mean()) * (lg - lg.mean())
    checks.append(
        (
            "cov",
            log_log_cov(f, g).value,
            float(w.mean()),
            float(w.std(ddof=1)) / math.sqrt(n),
        )
    )
    for name, quad, mc, se in checks:
        assert abs(quad - mc) <= 4.0 * se, (name, quad, mc, se)
    report(12, "10^6-sample plug-in estimates within 4 SE of quadrature")
