"""Measure values against known forms, plus the structural identities."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varidx import datasets
from varidx.distributions import (
    _LOG_SQRT_2PI,
    Density,
    Exponential,
    FinitePMF,
    KernelDensity,
    Lognormal,
    Power,
    SampleData,
    Uniform,
    Weibull2,
    make_distribution,
    make_pmf,
    push_forward,
    sample,
)
from varidx.errors import (
    DisjointSupportError,
    Error,
    InvalidParameterError,
    OutOfRangeError,
    QuadratureConvergenceError,
    SupportMismatchError,
)
from varidx import quadrature
from varidx.estimation import fit_lognormal_mle, fit_weibull_mle, kde
from varidx.measures import (
    _bulk,
    _psi,
    InfoMoments,
    entropy,
    entropy_pmf,
    inaccuracy,
    info_moments,
    inaccuracy_pmf,
    kl,
    kl_pmf,
    log_log_cov,
    log_log_cov_pmf,
    var_kl,
    var_kl_pmf,
    varentropy,
    varentropy_pmf,
    varinaccuracy,
    varinaccuracy_pmf,
)
from varidx.quadrature import expectations

LOG2 = math.log(2.0)

# One support class so every pair has finite measures.
HALF_LINE_SIX = [
    Exponential(1.0),
    Exponential(2.5),
    Weibull2(1.6, 0.8),
    Weibull2(0.7, 1.2),
    Lognormal(0.0, 0.6),
    Lognormal(0.5, 1.0),
]


# Each field of the record and the reader of that field.
READERS = {
    "H": entropy,
    "VarH": varentropy,
    "I": inaccuracy,
    "VarI": varinaccuracy,
    "K": kl,
    "VarK": var_kl,
    "cov": log_log_cov,
}


def both_methods(field, f, g=None):
    """``field`` of (f, g), or of (f, f) without g, by the auto route and
    by quadrature."""
    g = f if g is None else g
    return (
        getattr(info_moments(f, g), field),
        getattr(info_moments(f, g, method="quadrature"), field),
    )


class TestEntropy:
    def test_exponential_closed(self):
        m = entropy(Exponential(1.0))
        # The estimate is a rounding bound: a few ulp of H's one term.
        assert m.method == "closed_form"
        assert 0.0 <= m.abs_error_estimate <= 16.0 * np.finfo(float).eps
        assert m.value == 1.0
        assert abs(entropy(Exponential(2.0)).value - (1.0 - LOG2)) < 1e-15

    def test_uniform_closed(self):
        assert entropy(Uniform(0.0, 1.0)).value == 0.0
        assert abs(entropy(Uniform(0.0, 2.0)).value - LOG2) < 1e-15

    def test_closed_vs_quadrature(self):
        for f in [Exponential(1.0), Exponential(0.5), Uniform(0.0, 3.0)]:
            c, q = both_methods("H", f)
            assert q.method == "quadrature"
            assert abs(c.value - q.value) <= 1e-7

    def test_weibull_against_monte_carlo(self):
        f = Weibull2(1.5487, 0.0166)
        n = 10**6
        x = sample(f, n, 2718).values
        z = -f.log_pdf(x)
        mc, se = float(z.mean()), float(z.std(ddof=1)) / math.sqrt(n)
        q = entropy(f).value
        assert abs(q - mc) <= 3.0 * se


class TestVarentropy:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_exponential_is_one(self, lam):
        c, q = both_methods("VarH", Exponential(lam))
        assert c.value == 1.0
        assert abs(q.value - 1.0) <= 1e-7

    def test_uniform_is_zero(self):
        assert varentropy(Uniform(0.0, 1.0)).value == 0.0
        f = Uniform(2.0, 5.0)
        assert info_moments(f, f, method="quadrature").VarH.value <= 1e-9

    def test_power_value(self):
        # -log f(X) = -log a - (a-1) log X with -log X ~ Exp(a), so the
        # variance is (a-1)^2 / a^2; for a = 2 that is 0.25.
        f = Power(2.0)
        c = info_moments(f, f, method="quadrature").VarH
        assert abs(c.value - 0.25) <= 1e-9

    def test_nonnegative(self):
        for f in HALF_LINE_SIX:
            assert info_moments(f, f, method="quadrature").VarH.value >= -1e-9


class TestInaccuracy:
    def test_exp_pair_value(self):
        c, q = both_methods("I", Exponential(1.0), Exponential(2.0))
        assert c.method == "closed_form"
        assert abs(c.value - (2.0 - LOG2)) < 1e-15
        assert abs(q.value - (2.0 - LOG2)) <= 1e-7

    def test_uniform_power_value(self):
        c, q = both_methods("I", Uniform(0.0, 1.0), Power(2.0))
        assert abs(c.value - (1.0 - LOG2)) < 1e-15
        assert abs(q.value - (1.0 - LOG2)) <= 1e-7

    def test_identical_exponentials_reduce_to_entropy(self):
        lam = 1.7
        m = inaccuracy(Exponential(lam), Exponential(lam))
        assert abs(m.value - (1.0 - math.log(lam))) < 1e-15
        assert abs(m.value - entropy(Exponential(lam)).value) < 1e-15

    def test_mass_outside_support_is_infinite(self):
        m = inaccuracy(Uniform(0.0, 2.0), Power(2.0))
        assert math.isinf(m.value)

    def test_disjoint_supports_raise(self):
        with pytest.raises(DisjointSupportError):
            inaccuracy(Uniform(0.0, 1.0), Uniform(2.0, 3.0))


class TestVarinaccuracy:
    def test_exp_pair_value(self):
        c, q = both_methods("VarI", Exponential(1.0), Exponential(2.0))
        assert c.value == 4.0
        assert abs(q.value - 4.0) <= 1e-7

    def test_uniform_power_value(self):
        c, q = both_methods("VarI", Uniform(0.0, 1.0), Power(2.0))
        assert c.value == 1.0
        assert abs(q.value - 1.0) <= 1e-7

    @pytest.mark.parametrize(
        "f, g",
        [
            pytest.param(f, Uniform(0.0, 1.0), id=repr(f))
            for f in (Power(2.0), Power(0.5), Uniform(0.0, 1.0))
        ]
        + [
            # Laws without a table entry: I, VarI and cov are still exact.
            pytest.param(
                kde(SampleData(datasets.load("murthy41"))), Uniform(0.0, 1000.0), id="log-kde"
            ),
            pytest.param(
                push_forward(Weibull2(1.6, 0.8), np.sqrt, np.square, lambda x: 0.5 / np.sqrt(x)),
                Uniform(0.0, 50.0),
                id="pushforward",
            ),
            pytest.param(
                KernelDensity([-1, 0, 2, 2.5], 0.5, (-3, 4.5)), Uniform(-5.0, 5.0), id="kde"
            ),
        ],
    )
    def test_vanishes_against_flat_density(self, f, g):
        c, q = both_methods("VarI", f, g)
        assert c.value == 0.0 and c.method == "closed_form"
        assert q.value <= 1e-10
        rec = info_moments(f, g)
        assert rec.I.value == -float(g.log_pdf(0.5)) and rec.cov.value == 0.0

    def test_vanishes_against_wide_uniform(self):
        # Exponential mass beyond 50 is ~ e^-50, far below the divergence
        # threshold, so a uniform hypothesis on (0, 50) is still flat.
        c, q = both_methods("VarI", Exponential(1.0), Uniform(0.0, 50.0))
        assert c.value == 0.0
        assert q.value <= 1e-10

    def test_infinite_propagation(self):
        assert math.isinf(varinaccuracy(Uniform(0.0, 2.0), Power(2.0)).value)


class TestKl:
    def test_exp_pair_closed_and_identity(self):
        f, g = Exponential(1.0), Exponential(2.0)
        c, q = both_methods("K", f, g)
        assert abs(c.value - (1.0 - LOG2)) < 1e-15
        assert abs(q.value - c.value) <= 1e-7
        # K = I - H
        resid = c.value - (inaccuracy(f, g).value - entropy(f).value)
        assert abs(resid) <= 1e-12

    def test_power_pair_nonnegative(self):
        for a, b in [(0.5, 3.0), (0.5, 2.0), (2.0, 3.0), (3.0, 2.0)]:
            c, q = both_methods("K", Power(a), Power(b))
            assert c.value >= 0.0
            assert abs(c.value - q.value) <= 1e-7

    def test_identical_is_zero(self):
        for f in [Exponential(1.3), Power(2.0), Weibull2(1.5, 0.3)]:
            assert kl(f, f).value == 0.0
            assert info_moments(f, f, method="quadrature").K.value <= 1e-10

    def test_absolute_continuity_failure(self):
        assert math.isinf(kl(Uniform(0.0, 2.0), Power(2.0)).value)


class TestVarKl:
    def test_triangle_counterexample_values(self):
        f, g, h = Power(0.5), Power(3.0), Power(2.0)
        for a, b, expect in [(f, g, 25.0), (f, h, 9.0), (h, g, 0.25)]:
            c, q = both_methods("VarK", a, b)
            assert abs(c.value - expect) <= 1e-9
            assert abs(q.value - expect) <= 1e-7
        assert var_kl(f, g).value > var_kl(f, h).value + var_kl(h, g).value

    def test_exp_pair_value(self):
        c, q = both_methods("VarK", Exponential(1.0), Exponential(2.0))
        assert c.value == 1.0
        assert abs(q.value - 1.0) <= 1e-7

    def test_identical_is_zero(self):
        for f in [Exponential(0.7), Power(3.0), Lognormal(0.0, 1.0)]:
            assert var_kl(f, f).value == 0.0
            assert info_moments(f, f, method="quadrature").VarK.value <= 1e-10

    def test_positive_for_non_identical_pairs(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            lam = math.exp(rng.uniform(-1.5, 1.5))
            ratio = math.exp(rng.uniform(0.02, 1.0) * rng.choice([-1.0, 1.0]))
            eta = lam * ratio
            v = var_kl(Exponential(lam), Exponential(eta)).value
            assert v > 1e-4


class TestExtremeParameterRatios:
    """Deep tails must be integrated through exact log-densities.

    With rates 0.01 vs 100 the hypothesis pdf underflows to float zero
    where the reference still carries most of its mass; a floored
    log(pdf) would silently cap the integrand there.
    """

    def test_quadrature_matches_closed_forms(self):
        f, g = Exponential(0.01), Exponential(100.0)
        pairs = [
            ("K", math.log(0.01 / 100.0) + 100.0 / 0.01 - 1.0, 1e-8),
            ("I", -math.log(100.0) + 100.0 / 0.01, 1e-8),
        ]
        for field, expect, tol in pairs:
            closed, quad = both_methods(field, f, g)
            assert abs(closed.value - expect) <= 1e-12 * abs(expect)
            assert abs(quad.value - expect) <= max(tol, 1e-11 * abs(expect))
        assert abs(info_moments(f, g, method="quadrature").VarI.value - 1e8) <= 1e-9 * 1e8
        vk_expect = ((100.0 - 0.01) / 0.01) ** 2
        vk = info_moments(f, g, method="quadrature").VarK.value
        assert abs(vk - vk_expect) <= 1e-9 * vk_expect

    def test_covariance_at_extreme_ratio(self):
        # cov_f(log f, log g) = lam * eta * Var(X) = eta / lam.
        f, g = Exponential(0.01), Exponential(100.0)
        assert abs(log_log_cov(f, g).value - 1e4) <= 1e-6 * 1e4


class TestLogLogCov:
    def test_exp_pair_value(self):
        # log f = log 1 - x, log g = log 2 - 2x: cov = 2 Var(X) = 2.
        m = log_log_cov(Exponential(1.0), Exponential(2.0))
        assert abs(m.value - 2.0) <= 1e-8

    def test_flat_second_argument_gives_zero(self):
        m = log_log_cov(Power(2.0), Uniform(0.0, 1.0))
        assert abs(m.value) <= 1e-9

    def test_with_itself_equals_varentropy(self):
        f = Weibull2(1.6, 0.8)
        cov = log_log_cov(f, f).value
        vh = info_moments(f, f, method="quadrature").VarH.value
        assert abs(cov - vh) <= 1e-7


class TestIdentities:
    def test_rel_identity_over_grid(self):
        for f in HALF_LINE_SIX:
            for g in HALF_LINE_SIX:
                k = info_moments(f, g, method="quadrature").K.value
                i = info_moments(f, g, method="quadrature").I.value
                h = info_moments(f, f, method="quadrature").H.value
                assert abs(k - (i - h)) <= 1e-8, (f, g)

    def test_rel2_identity_over_grid(self):
        for f in HALF_LINE_SIX:
            for g in HALF_LINE_SIX:
                vk = info_moments(f, g, method="quadrature").VarK.value
                vh = info_moments(f, f, method="quadrature").VarH.value
                vi = info_moments(f, g, method="quadrature").VarI.value
                cov = log_log_cov(f, g).value
                assert abs(vk - (vh + vi - 2.0 * cov)) <= 1e-7, (f, g)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_affine_invariance(self, a, b):
        f, g = Exponential(1.0), Exponential(2.0)
        phi = lambda x: a * x + b  # noqa: E731
        phi_inv = lambda y: (y - b) / a  # noqa: E731
        phi_deriv = lambda x: np.full(np.shape(x), a)  # noqa: E731
        ft = push_forward(f, phi, phi_inv, phi_deriv)
        gt = push_forward(g, phi, phi_inv, phi_deriv)
        vi = info_moments(ft, gt, method="quadrature").VarI.value
        assert abs(vi - 4.0) <= 1e-7

    def test_monotone_transform_identity(self):
        # phi(x) = x^2 on (0, 1): the dispersion shifts by the variance
        # of log phi' minus twice its covariance with log g.
        f, g = Power(2.0), Power(3.0)
        sq = lambda x: x * x  # noqa: E731
        rt = lambda y: np.sqrt(y)  # noqa: E731
        dv = lambda x: 2.0 * x  # noqa: E731
        ft = push_forward(f, sq, rt, dv)
        gt = push_forward(g, sq, rt, dv)
        lhs = info_moments(ft, gt, method="quadrature").VarI.value

        log_g = lambda x: g.log_pdf(x)  # noqa: E731
        log_dphi = lambda x: np.log(2.0 * x)  # noqa: E731
        m = expectations(
            f,
            [
                log_dphi,
                lambda x: log_dphi(x) ** 2,
                log_g,
                lambda x: log_g(x) * log_dphi(x),
            ],
            tol=1e-10,
        )
        var_ld = m[1].value - m[0].value ** 2
        cov_g_ld = m[3].value - m[2].value * m[0].value
        rhs = (
            info_moments(f, g, method="quadrature").VarI.value
            + var_ld
            - 2.0 * cov_g_ld
        )
        assert abs(lhs - rhs) <= 1e-6

    def test_minimum_of_inaccuracy_at_matching_rate(self):
        etas = np.arange(0.1, 8.0001, 0.1)
        for lam in [1.0, 2.0, 3.0, 4.0]:
            vals = [inaccuracy(Exponential(lam), Exponential(e)).value for e in etas]
            arg = etas[int(np.argmin(vals))]
            assert abs(arg - lam) <= 0.05 + 1e-9
            vis = [varinaccuracy(Exponential(lam), Exponential(e)).value for e in etas]
            assert np.all(np.diff(vis) > 0.0)

    def test_minimum_of_inaccuracy_at_unit_power(self):
        alphas = np.arange(0.2, 4.0001, 0.1)
        vals = [inaccuracy(Uniform(0.0, 1.0), Power(a)).value for a in alphas]
        arg = alphas[int(np.argmin(vals))]
        assert abs(arg - 1.0) <= 0.05 + 1e-9


class TestClosedFormCells:
    """Every closed-form dispatch cell agrees with quadrature to 1e-7."""

    CELLS = [
        ("H", (Exponential(1.7),)),
        ("H", (Uniform(0.5, 3.0),)),
        ("H", (Power(1.0),)),
        ("VarH", (Exponential(0.6),)),
        ("VarH", (Uniform(0.0, 2.0),)),
        ("I", (Exponential(1.0), Exponential(2.0))),
        ("I", (Uniform(0.0, 1.0), Power(3.0))),
        ("I", (Power(2.0), Uniform(0.0, 1.0))),
        ("VarI", (Exponential(2.0), Exponential(0.7))),
        ("VarI", (Uniform(0.0, 1.0), Power(0.5))),
        ("VarI", (Weibull2(1.6, 0.8), Uniform(0.0, 60.0))),
        ("K", (Exponential(1.0), Exponential(2.0))),
        ("K", (Power(0.5), Power(3.0))),
        ("K", (Weibull2(1.5, 0.3), Weibull2(1.5, 0.3))),
        ("VarK", (Exponential(0.5), Exponential(1.5))),
        ("VarK", (Power(2.0), Power(3.0))),
        ("VarK", (Lognormal(0.0, 1.0), Lognormal(0.0, 1.0))),
        ("H", (Power(0.5),)),
        ("VarH", (Power(0.5),)),
        ("I", (Power(0.5), Power(3.0))),
        ("VarI", (Power(0.5), Power(3.0))),
    ]

    @pytest.mark.parametrize(
        "field,args", CELLS, ids=lambda v: READERS[v].__name__ if isinstance(v, str) else ""
    )
    def test_cell_agreement(self, field, args):
        closed, quad = both_methods(field, *args)
        assert closed.method == "closed_form"
        # A rounding bound: a few ulp of the field's terms, whose scale a
        # variance's exceeds by up to its weights' and mean's squares.
        scale = max(1.0, abs(closed.value))
        assert 0.0 <= closed.abs_error_estimate <= 1024.0 * np.finfo(float).eps * scale
        assert quad.method == "quadrature"
        assert abs(closed.value - quad.value) <= 1e-7


    def test_near_equal_pair_within_its_rounding_bound(self):
        # K ~ 1.3e-14 is the sum of terms of size 1, each rounded to a few
        # 1e-16; the estimates must cover the error against the exact
        # values, here at 40 digits with mpmath (a, l the Weibull2 shape
        # and rate, e the exponential rate):
        #   K = log(l*a/e) + (a-1)*(digamma(1) - log(l))/a - 1
        #       + e*l**(-1/a)*gamma(1+1/a)
        #   VarK = m2 - K**2, m2 = quad(d(y)**2 * exp(-y), [0, 1, inf]),
        #   d(y) = log(l*a/e) + (a-1)*log(x) - l*x**a + e*x, x = (y/l)**(1/a)
        rec = info_moments(
            Weibull2(1.0000001192092896, 2.718281504439794), Exponential(2.718281180420735)
        )
        k_ref, var_k_ref = 1.295755965476012e-14, 2.591511483706026e-14
        assert rec.K.method == rec.VarK.method == "closed_form"
        assert abs(rec.K.value - k_ref) <= rec.K.abs_error_estimate
        assert abs(rec.VarK.value - var_k_ref) <= rec.VarK.abs_error_estimate


class TestMonteCarloAgreement:
    """Plug-in estimates from 10^6 samples vs quadrature, within 4 SE."""

    def test_non_closed_form_pair(self):
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

        checks = []
        mc, se = mean_se(-lf)
        checks.append(("H", info_moments(f, f, method="quadrature").H.value, mc, se))
        mc, se = var_se(-lf)
        checks.append(("VarH", info_moments(f, f, method="quadrature").VarH.value, mc, se))
        mc, se = mean_se(-lg)
        checks.append(("I", info_moments(f, g, method="quadrature").I.value, mc, se))
        mc, se = var_se(-lg)
        checks.append(("VarI", info_moments(f, g, method="quadrature").VarI.value, mc, se))
        mc, se = mean_se(lf - lg)
        checks.append(("K", info_moments(f, g, method="quadrature").K.value, mc, se))
        mc, se = var_se(lf - lg)
        checks.append(("VarK", info_moments(f, g, method="quadrature").VarK.value, mc, se))
        w = (lf - lf.mean()) * (lg - lg.mean())
        mc, se = float(w.mean()), float(w.std(ddof=1)) / math.sqrt(n)
        checks.append(("cov", log_log_cov(f, g).value, mc, se))

        for name, quad, mc, se in checks:
            assert abs(quad - mc) <= 4.0 * se, (name, quad, mc, se)


class TestDiscreteMeasures:
    def setup_method(self):
        self.emp = make_pmf("empirical", [20, 63, 84, 33])
        self.binom = make_pmf("binomial", [3, 0.55])
        self.bb = make_pmf("beta_binomial", [3, 12, 10])
        self.unif = make_pmf("discrete_uniform", [4])

    def test_reference_table_values(self):
        cells = [
            (self.binom, 0.0011, 0.0023),
            (self.bb, 0.0027, 0.0054),
            (self.unif, 0.1305, 0.2253),
        ]
        for q, k_exp, v_exp in cells:
            assert abs(kl_pmf(self.emp, q).value - k_exp) <= 5e-5
            assert abs(var_kl_pmf(self.emp, q).value - v_exp) <= 5e-5

    def test_self_divergence_zero(self):
        assert kl_pmf(self.emp, self.emp).value == 0.0
        assert var_kl_pmf(self.emp, self.emp).value == 0.0

    def test_inaccuracy_against_uniform_is_log4(self):
        m = inaccuracy_pmf(self.emp, self.unif)
        assert abs(m.value - math.log(4.0)) <= 1e-14
        assert varinaccuracy_pmf(self.emp, self.unif).value <= 1e-12

    def test_self_inaccuracy_is_entropy(self):
        assert (
            abs(inaccuracy_pmf(self.emp, self.emp).value - entropy_pmf(self.emp).value)
            <= 1e-15
        )

    def test_discrete_rel_identity(self):
        for q in [self.binom, self.bb, self.unif]:
            resid = kl_pmf(self.emp, q).value - (
                inaccuracy_pmf(self.emp, q).value - entropy_pmf(self.emp).value
            )
            assert abs(resid) <= 1e-12

    def test_discrete_rel2_identity(self):
        for q in [self.binom, self.bb, self.unif]:
            resid = var_kl_pmf(self.emp, q).value - (
                varentropy_pmf(self.emp).value
                + varinaccuracy_pmf(self.emp, q).value
                - 2.0 * log_log_cov_pmf(self.emp, q).value
            )
            assert abs(resid) <= 1e-12

    def test_zero_hypothesis_mass_is_infinite(self):
        q = FinitePMF((0, 1, 2, 3), np.array([0.0, 0.5, 0.3, 0.2]))
        assert math.isinf(kl_pmf(self.emp, q).value)
        assert math.isinf(var_kl_pmf(self.emp, q).value)
        assert math.isinf(inaccuracy_pmf(self.emp, q).value)

    def test_zero_reference_mass_drops_out(self):
        p = FinitePMF((0, 1, 2), np.array([0.0, 0.4, 0.6]))
        q = FinitePMF((0, 1, 2), np.array([0.2, 0.5, 0.3]))
        k = kl_pmf(p, q).value
        manual = 0.4 * math.log(0.4 / 0.5) + 0.6 * math.log(0.6 / 0.3)
        assert abs(k - manual) <= 1e-15

    def test_support_mismatch_raises(self):
        other = make_pmf("discrete_uniform", [3])
        with pytest.raises(SupportMismatchError):
            kl_pmf(self.emp, other)

    def test_method_tag(self):
        assert kl_pmf(self.emp, self.binom).method == "summation"


FIELDS = ("H", "VarH", "I", "VarI", "K", "VarK", "cov")

rates = st.floats(min_value=0.2, max_value=5.0)
alphas = st.floats(min_value=0.5, max_value=5.0)


def _exp_w2_lognormal(kind, u_scale, u_shape):
    scale = math.exp(-1.0 + 4.0 * u_scale)
    if kind == "exp":
        return Exponential(1.0 / scale)
    if kind == "w2":
        shape = 1.0 + 2.0 * u_shape
        return Weibull2(shape, scale**-shape)
    return Lognormal(math.log(scale), 0.3 + 0.9 * u_shape)


units = st.floats(min_value=0.0, max_value=1.0)
half_line = st.builds(_exp_w2_lognormal, st.sampled_from(["exp", "w2", "lognormal"]), units, units)


class TestInfoMoments:
    def test_one_quadrature_per_pair(self, quadratures):
        # A law with no table entry: every field from one quadrature.
        law = push_forward(Weibull2(1.6, 0.8), np.sqrt, np.square, lambda x: 0.5 / np.sqrt(x))
        rec = info_moments(law, Lognormal(0.0, 0.6))
        assert isinstance(rec, InfoMoments) and len(quadratures) == 1
        assert {getattr(rec, name).method for name in FIELDS} == {"quadrature"}
        # The table gives H and VarH; the rest comes from one quadrature.
        rec = info_moments(Exponential(1.0), law)
        assert len(quadratures) == 2
        assert rec.H.method == "closed_form" and rec.K.method == "quadrature"
        # Parametric pairs integrate nothing.
        for f, g in [
            (Weibull2(1.6, 0.8), Lognormal(0.0, 0.6)),
            (Exponential(1.0), Weibull2(1.6, 0.8)),
            (Exponential(1.0), Exponential(2.0)),
            (Power(0.5), Power(3.0)),
        ]:
            rec = info_moments(f, g)
            assert {getattr(rec, name).method for name in FIELDS} == {"closed_form"}
        assert len(quadratures) == 2

    def test_log_map_takes_few_panels_on_unit_interval(self, quadratures):
        # In u = log x the x^(a-1) log x factors at 0 are exponential
        # tails: remark 3.3's and example 2.4's quadrature cross-checks.
        f, g, h = Power(0.5), Power(3.0), Power(2.0)
        for a, b, expect in [(f, g, 25.0), (f, h, 9.0), (h, g, 0.25)]:
            vk = info_moments(a, b, method="quadrature").VarK.value
            assert abs(vk - expect) <= 1e-12 * expect
        rec = info_moments(Uniform(0.0, 1.0), h, method="quadrature")
        assert abs(rec.I.value - (1.0 - LOG2)) <= 1e-12
        assert abs(rec.VarI.value - 1.0) <= 1e-12
        panels = [q.panels for q in quadratures]
        assert len(panels) == 4 and max(panels) <= 16

    def test_whole_line_in_u_is_one_refinement(self, quadratures):
        # On (0, inf) the nodes u = log x run over the whole line: two
        # start intervals that meet at f's median, refined under one
        # tolerance.  Lognormal(-4, 0.05) needs them: from one unsplit
        # panel the rule misses its mass.
        pairs = [
            (Exponential(1.0), Exponential(2.0)),  # example 2.3
            (Lognormal(2.0, 0.02), Exponential(1.0)),
            (Lognormal(-4.0, 0.05), Exponential(1.0)),
        ]
        for f, g in pairs:
            quad, table = info_moments(f, g, method="quadrature"), info_moments(f, g)
            for name in FIELDS:
                q, t = getattr(quad, name), getattr(table, name)
                assert abs(q.value - t.value) <= q.abs_error_estimate, (f, name)
            if f is pairs[1][0]:
                # The table's value, which is mpmath's to the last digit.
                assert table.K.value == 7.883618530164884
        assert max(q.panels for q in quadratures) <= 17

    def test_heavy_lognormal_against_weibull_by_quadrature(self):
        f, g = Lognormal(0.0, 5.0), Weibull2(0.5, 1.0)
        quad, table = info_moments(f, g, method="quadrature"), info_moments(f, g)
        for name in ("K", "VarK"):
            q, t = getattr(quad, name), getattr(table, name)
            assert abs(q.value - t.value) <= q.abs_error_estimate, name

    def test_error_estimate_bounds_error_near_exponential_weibull(self):
        # Weibull shapes just above 1 have an x^(shape - 1) factor at 0.
        rng = np.random.default_rng(20)
        slack = 4.0 * np.finfo(float).eps
        for shape in 1.0 + 10.0 ** rng.uniform(-12.0, -3.0, 60):
            f = Weibull2(shape, rng.uniform(0.2, 5.0))
            g = Exponential(rng.uniform(0.2, 5.0))
            quad, table = info_moments(f, g, method="quadrature"), info_moments(f, g)
            for name in FIELDS[:6]:
                q, t = getattr(quad, name), getattr(table, name)
                allow = q.abs_error_estimate + slack * max(1.0, abs(t.value))
                assert abs(q.value - t.value) <= allow, (shape, name, q, t)

    def test_mass_below_the_float_range_is_an_error(self):
        # Half of Power(1e-3)'s mass lies below the smallest float.
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Error) as info:
                info_moments(Power(1e-3), Power(2.0), method="quadrature")
        assert time.perf_counter() - start < 1.0
        # The error names its interval in x, inside f's support near 0,
        # not the quadrature's panel in its own variable.
        found = re.search(r"inside \((\S+), (\S+)\)", str(info.value))
        lo, hi = float(found[1]), float(found[2])
        assert 0.0 <= lo < hi < 1e-200, str(info.value)

    def test_fields_match_single_measures(self):
        f, g = Weibull2(1.6, 0.8), Lognormal(0.0, 0.6)
        rec = info_moments(f, g)
        assert rec.I == inaccuracy(f, g) and rec.VarK == var_kl(f, g)
        assert rec.cov == log_log_cov(f, g)
        assert info_moments(f, f).H == entropy(f)

    def test_mixed_kinds_are_an_error(self):
        pmf = make_pmf("binomial", (3, 0.5))
        for f, g in [
            (Exponential(1.0), pmf),
            (pmf, Exponential(1.0)),
            (Exponential(1.0), [Exponential(2.0), pmf]),
            (pmf, [pmf, Exponential(1.0)]),
        ]:
            with pytest.raises(InvalidParameterError, match="must both be Density or both FinitePMF values"):
                info_moments(f, g)

    def test_divergent_pair_keeps_own_entropy(self):
        rec = info_moments(Exponential(1.0), Power(2.0))
        assert (rec.H.value, rec.VarH.value) == (1.0, 1.0)
        assert rec.H.method == "closed_form"
        for name in ("I", "VarI", "K", "VarK", "cov"):
            value = getattr(rec, name)
            assert math.isinf(value.value) and value.method == "divergent"
        rec = info_moments(Uniform(0.0, 2.0), Power(2.0), method="quadrature")
        assert abs(rec.H.value - LOG2) <= 1e-9 and rec.H.method == "quadrature"
        assert rec.K.method == "divergent"

    def test_discrete_divergent_pair(self):
        p = make_pmf("empirical", [20, 63, 84, 33])
        q = FinitePMF((0, 1, 2, 3), np.array([0.0, 0.5, 0.3, 0.2]))
        rec = info_moments(p, q)
        assert rec.H == entropy_pmf(p) and rec.H.method == "summation"
        assert rec.K.method == "divergent" and math.isinf(rec.cov.value)

    def test_readers_are_fields_of_the_record(self):
        pairs = [
            (Weibull2(1.6, 0.8), Lognormal(0.5, 1.0)),
            (make_pmf("empirical", [20, 63, 84, 33]), make_pmf("binomial", (3, 0.55))),
        ]
        for f, g in pairs:
            own, rec = info_moments(f, f), info_moments(f, g)
            for field, reader in READERS.items():
                if field in ("H", "VarH"):
                    assert reader(f) == getattr(own, field), field
                else:
                    assert reader(f, g) == getattr(rec, field), field
        pmf_readers = (
            entropy_pmf,
            varentropy_pmf,
            inaccuracy_pmf,
            varinaccuracy_pmf,
            kl_pmf,
            var_kl_pmf,
            log_log_cov_pmf,
        )
        assert all(p is r for p, r in zip(pmf_readers, READERS.values(), strict=True))

    def test_corner_pair_matches_reference_values(self):
        # Values of the six separate integrations this record replaced.
        rec = info_moments(Lognormal(1.28, 1.191), Weibull2(2.68, 0.145))
        expect = {
            "H": 2.8737318235776863,
            "VarH": 1.9184809999998276,
            "I": 729.0743727035012,
            "VarI": 14177393443.556719,
            "K": 726.2006408799238,
            "VarK": 14177380457.723463,
        }
        for name, value in expect.items():
            assert abs(getattr(rec, name).value - value) <= 1e-9 * abs(value), name

    def test_missed_mass_is_an_error(self):
        # Kernels far narrower than a panel fall between the rule's nodes.
        narrow = KernelDensity([1.0, 2.3, 4.1], 1e-6, (0.0, 5.0))
        with pytest.raises(QuadratureConvergenceError, match="mass: it integrated 0 on"):
            info_moments(narrow, Weibull2(1.6, 0.8))

    @pytest.mark.parametrize(
        "f, gs, routes",
        [
            (
                Weibull2(1.6, 0.8),
                [
                    Lognormal(0.0, 0.6),  # closed form
                    Uniform(0.0, 1.0),  # divergent
                    push_forward(Exponential(2.0), np.sqrt, np.square, lambda y: 0.5 / np.sqrt(y)),
                    push_forward(
                        Lognormal(0.2, 0.5), lambda y: 2.0 * y, lambda x: 0.5 * x, lambda y: np.full_like(y, 2.0)
                    ),
                ],
                {"closed_form", "divergent", "quadrature"},
            ),
            (
                make_pmf("empirical", [20, 63, 84, 33]),
                [
                    make_pmf("binomial", (3, 0.55)),
                    FinitePMF((0, 1, 2, 3), np.array([0.0, 0.5, 0.3, 0.2])),  # divergent
                ],
                {"summation", "divergent"},
            ),
        ],
        ids=["density", "pmf"],
    )
    def test_every_plan_in_one_list(self, quadratures, f, gs, routes):
        # Each plan kind, and each law twice: a record of the list is the
        # single-g call's, exactly but for quadrature fields, which agree
        # within both estimates; all rows share one quadrature.
        gs = gs + gs
        singles = [info_moments(f, g) for g in gs]
        before = len(quadratures)
        records = info_moments(f, gs)
        assert {rec.K.method for rec in singles} == routes
        assert len(quadratures) - before == ("quadrature" in routes)
        ulp = np.finfo(float).eps
        for g, rec, single in zip(gs, records, singles, strict=True):
            for name in FIELDS:
                a, b = getattr(rec, name), getattr(single, name)
                if b.method != "quadrature":
                    assert a == b, (g, name, a, b)
                    continue
                allow = a.abs_error_estimate + b.abs_error_estimate + 8.0 * ulp * abs(b.value)
                assert a.method == "quadrature" and abs(a.value - b.value) <= allow, (g, name, a, b)

    # An exponential g, Weibull2 gs of three shapes, a lognormal, a power,
    # a uniform and a g from which every table f diverges; under a
    # half-line f the bounded laws diverge as well.
    MIXED = [
        Exponential(0.7),
        Weibull2(0.6, 1.3),
        Weibull2(1.4, 0.4),
        Weibull2(2.5, 0.9),
        Lognormal(0.3, 0.8),
        Power(2.5),
        Uniform(0.0, 2.0),
        Uniform(0.5, 3.0),
    ]

    @pytest.mark.parametrize(
        "f",
        [Exponential(1.3), Weibull2(1.7, 0.6), Lognormal(-0.2, 0.5), Power(0.8), Uniform(0.0, 1.0)],
        ids=repr,
    )
    def test_mixed_closed_form_list_equals_single_calls(self, f):
        # The gs share f's moments, and forms of several bases go through
        # one loop: every field, estimate included, is the single-g
        # call's bit for bit.
        gs = self.MIXED + self.MIXED
        records = info_moments(f, gs)
        routes = set()
        for g, rec in zip(gs, records, strict=True):
            single = info_moments(f, g)
            for name in FIELDS:
                a, b = getattr(rec, name), getattr(single, name)
                routes.add(a.method)
                assert a == b, (g, name, a, b)
        assert routes == {"closed_form", "divergent"}

    def test_overflow_in_a_list_names_its_law(self):
        # E[Y^200] = Gamma(201) overflows for Weibull2(200, 1) under an
        # exponential f: an error that names that law, and no numpy
        # warning on the way.  A law that diverges is screened before its
        # table is read, so one whose moments would overflow stays +inf.
        f = Exponential(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            named = re.escape("moments of Weibull2(200, 1) under")
            with pytest.raises(OutOfRangeError, match=named):
                info_moments(f, [Exponential(2.0), Weibull2(200.0, 1.0), Exponential(3.0)])
            named = re.escape("moments of Power(1e+300) under")
            with pytest.raises(OutOfRangeError, match=named):
                info_moments(Uniform(0.0, 1.0), [Power(2.0), Power(1e300), Power(3.0)])
            records = info_moments(f, [Exponential(2.0), Power(1e300), Weibull2(1.5, 1.0)])
        assert [getattr(records[1], name).value for name in FIELDS[2:]] == [math.inf] * 5
        assert records[1].I.method == "divergent"
        assert records[0] == info_moments(f, Exponential(2.0))

    @pytest.mark.parametrize(
        "gs,error,named",
        [
            ([Weibull2(200.0, 1.0), Uniform(-2.0, -1.0)], OutOfRangeError, "Weibull2(200, 1)"),
            ([Uniform(-2.0, -1.0), Weibull2(200.0, 1.0)], DisjointSupportError, "(-2.0, -1.0)"),
        ],
        ids=["overflow-first", "disjoint-first"],
    )
    def test_first_failing_g_raises(self, gs, error, named):
        # Each g is screened and looked up in turn, as a loop of single
        # calls would: the first g that fails raises its own error.
        with pytest.raises(error, match=re.escape(named)):
            info_moments(Exponential(1.0), gs)
        with pytest.raises(error, match=re.escape(named)):
            info_moments(Exponential(1.0), gs[0])

    def test_convergence_error_names_its_interval_in_x(self, monkeypatch):
        # Integrated in u = log x on (-inf, inf); the error names x's
        # (0, inf).  The whole line's 16 start panels are one round.
        monkeypatch.setattr(quadrature, "MAX_PANELS", 2 * quadrature._START_PANELS)
        with pytest.raises(QuadratureConvergenceError, match=r"after 16 panels .* on \(0, inf\)$"):
            info_moments(Exponential(1.0), Weibull2(1.6, 0.8), method="quadrature")

    def test_small_missed_bump_is_an_error(self):
        # The mass check's slack is the quadrature's tolerance plus
        # 1e-12: a far bump of mass 5e-7, which the nodes miss, would
        # skew H by about 1e-5 while its estimate reads 2e-11.
        with pytest.raises(QuadratureConvergenceError, match="5e-07 away from 1"):
            entropy(_FarBump(5e-7))

    def test_heavy_tail_emits_no_warning(self):
        # Tail nodes at t = 1 map to x = inf, which carries no mass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = varentropy(Lognormal(0.0, 5.0))
        assert abs(v.value - 25.5) <= 1e-6

    @given(
        case=st.one_of(
            st.builds(lambda lam, eta: (Exponential(lam), Exponential(eta)), rates, rates),
            st.builds(lambda a, b: (Power(a), Power(b)), alphas, alphas),
            st.builds(lambda b: (Uniform(0.0, 1.0), Power(b)), alphas),
            st.builds(lambda a: (Power(a), Uniform(0.0, 1.0)), alphas),
            st.builds(lambda lam: (Exponential(lam), Uniform(0.0, 40.0 / lam)), rates),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_record_equals_quadrature_record(self, case):
        f, g = case
        closed = info_moments(f, g)
        quad = info_moments(f, g, method="quadrature")
        assert closed.VarI.method == "closed_form"
        for name in FIELDS:
            c, q = getattr(closed, name).value, getattr(quad, name).value
            assert abs(c - q) <= 1e-7 * max(1.0, abs(c)), (name, c, q)

    @given(f=half_line, g=half_line)
    @example(f=Exponential(2.718281828459045), g=Weibull2(1.0000001192092896, 2.71828215250351))
    @settings(max_examples=40, deadline=None)
    def test_identities_hold_to_rounding(self, f, g):
        r = info_moments(f, g)
        terms = [abs(v.value) for v in (r.H, r.I, r.K)]
        assert abs(r.K.value - (r.I.value - r.H.value)) <= 1e-12 * max(1.0, *terms)
        terms = [abs(v.value) for v in (r.VarH, r.VarI, r.VarK, r.cov)]
        resid = r.VarK.value - (r.VarH.value + r.VarI.value - 2.0 * r.cov.value)
        assert abs(resid) <= 1e-12 * max(1.0, *terms)


class _FarBump(Density):
    """N(0, 1) with mass w moved into a narrow normal bump at 200."""

    def __init__(self, w):
        super().__init__((w,), (-math.inf, math.inf), "neither")
        self.w = w

    def _log_pdf(self, x):
        z = (x - 200.0) / 0.05
        near = math.log1p(-self.w) - 0.5 * x * x
        far = math.log(self.w / 0.05) - 0.5 * z * z
        return np.logaddexp(near, far) - _LOG_SQRT_2PI


class _InX(Density):
    """A law integrated in x as any law without a variable of its own:
    the pointwise route, through log_pdf, that the pushforward's own
    variable replaces."""

    def __init__(self, law):
        super().__init__((), law.support, "unknown")
        self.law = law

    def _log_pdf(self, x):
        return self.law.log_pdf(x)

    def _cdf(self, x):
        return self.law.cdf(x)


def _fitted(values):
    data = SampleData(values)
    fits = [fit_weibull_mle(data), fit_lognormal_mle(data)]
    return [make_distribution(r.family, r.params) for r in fits] + [Weibull2(1.6, 0.0127)]


def _stratified_weibull(n, seed):
    """One Weibull2(1.5487, 0.0166) draw per probability stratum
    (i + U_i) / (n + 2), i = 1..n."""
    shape, rate = 1.5487, 0.0166
    rng = np.random.default_rng(seed)
    u = (np.arange(1, n + 1) + rng.random(n)) / (n + 2)
    return (-np.log1p(-u) / rate) ** (1.0 / shape)


def _assert_within_estimate(new, old):
    """Every field of the records ``new`` matches ``old`` within new's
    own error estimate."""
    for name in FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert abs(a.value - b.value) <= a.abs_error_estimate, (name, a, b)


class TestPushforwardInBaseVariable:
    """A pushforward phi # B is integrated in B's own variable."""

    @pytest.mark.parametrize("bandwidth", [None, 0.1, 1.0])
    def test_murthy41_kde_matches_the_x_route(self, bandwidth):
        values = datasets.load("murthy41")
        f, gs = kde(SampleData(values), bandwidth), _fitted(values)
        for new, old in zip(info_moments(f, gs), info_moments(_InX(f), gs)):
            _assert_within_estimate(new, old)

    def test_large_kde_matches_the_x_route(self):
        values = _stratified_weibull(10_000, 3)
        f, gs = kde(SampleData(values)), _fitted(values)
        for new, old in zip(info_moments(f, gs), info_moments(_InX(f), gs)):
            _assert_within_estimate(new, old)

    def test_murthy41_fit_takes_few_panels(self, quadratures):
        values = datasets.load("murthy41")
        f, gs = kde(SampleData(values)), _fitted(values)[:2]
        info_moments(f, gs)
        panels = [q.panels for q in quadratures]
        assert panels == [panels[0]] and panels[0] <= 9

    def test_murthy41_fit_takes_one_call_per_round(self, quadratures):
        # Each refinement round evaluates all the panels it splits in
        # one call of the integrand, and the partition is the one the
        # panel-by-panel refinement reached, to within each K's estimate.
        values = datasets.load("murthy41")
        records = info_moments(kde(SampleData(values)), _fitted(values))
        sizes = [n for q in quadratures for n in q.sizes]
        panels = [q.panels for q in quadratures]
        assert len(sizes) <= 2 and sum(sizes) == 150 and panels == [9]
        previous = [0.09454025131376448, 0.03174002392666986, 0.09494375769801025]
        for rec, k in zip(records, previous, strict=True):
            assert abs(rec.K.value - k) <= rec.K.abs_error_estimate

    def test_exp_of_uniform(self, quadratures):
        # X = e^U, U ~ Uniform(0, 80): H = log 80 + E[U] and VarH = Var U.
        f = push_forward(Uniform(0.0, 80.0), np.exp, np.log, np.exp)
        g = Lognormal(40.0, 23.0)
        new = info_moments(f, g)
        assert quadratures[0].panels <= 9
        assert abs(new.H.value - (math.log(80.0) + 40.0)) <= new.H.abs_error_estimate
        assert abs(new.VarH.value - 6400.0 / 12.0) <= new.VarH.abs_error_estimate
        _assert_within_estimate(new, info_moments(_InX(f), g))

    def test_decreasing_map(self):
        # 1 / Y for Y ~ Lognormal(0.3, 0.5) is Lognormal(-0.3, 0.5).
        def law(mu, sigma):
            y = Lognormal(mu, sigma)
            return push_forward(y, lambda y: 1.0 / y, lambda x: 1.0 / x, lambda y: -1.0 / (y * y))

        g = Weibull2(1.6, 0.8)
        _assert_within_estimate(info_moments(law(0.3, 0.5), g), info_moments(Lognormal(-0.3, 0.5), g))
        # A g that narrows the support maps onto (1/10, inf) in y.
        g = Uniform(0.0, 10.0)
        _assert_within_estimate(info_moments(law(0.0, 0.1), g), info_moments(Lognormal(0.0, 0.1), g))

    def test_square_root_of_a_weibull(self):
        # sqrt(Y) for Y ~ Weibull2(1.6, 0.8) is Weibull2(3.2, 0.8); the
        # base lives on (0, inf), so it is integrated in log y.
        f = push_forward(Weibull2(1.6, 0.8), np.sqrt, np.square, lambda y: 0.5 / np.sqrt(y))
        for g in (Lognormal(0.0, 0.6), Exponential(2.0)):
            new = info_moments(f, g)
            _assert_within_estimate(new, info_moments(_InX(f), g))
            _assert_within_estimate(new, info_moments(Weibull2(3.2, 0.8), g))

    @pytest.mark.parametrize(
        "phi",
        [
            (np.log, np.exp, lambda y: 1.0 / y),
            (lambda y: y**3, np.cbrt, lambda y: 3.0 * y * y),
        ],
        ids=["log", "cube"],
    )
    def test_common_bijection_keeps_k_and_var_k(self, phi):
        # log phi' cancels in log(phi # f) - log(phi # g), so K and VarK
        # of the pushed pair are the table's values for (f, g).
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (Weibull2(1.5, 0.8), Lognormal(0.1, 0.7)),
            (Lognormal(0.1, 0.7), Weibull2(1.5, 0.8)),
            (Weibull2(0.7, 1.3), Exponential(0.5)),
        ]
        ulp = np.finfo(float).eps
        for f, g in pairs:
            table = info_moments(f, g)
            pushed = info_moments(push_forward(f, *phi), push_forward(g, *phi))
            for name in ("K", "VarK"):
                new, old = getattr(pushed, name), getattr(table, name)
                assert (new.method, old.method) == ("quadrature", "closed_form")
                allow = new.abs_error_estimate + 8.0 * ulp * max(1.0, abs(old.value))
                assert abs(new.value - old.value) <= allow, (f, g, name, new, old)

    def test_non_finite_integrand_names_its_panel_in_x(self):
        # Half of Power(1e-3)'s mass lies below the smallest float; the
        # panel the base names, (0, hi), is (0, 2 hi) in x = 2y.
        def doubled(base):
            return push_forward(base, lambda y: 2.0 * y, lambda x: 0.5 * x, lambda y: np.full_like(y, 2.0))

        def panel(f, g):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(Error) as info:
                    info_moments(f, g, method="quadrature")
            found = re.search(r"inside \((\S+), (\S+)\)", str(info.value))
            return float(found[1]), float(found[2])

        lo, hi = panel(Power(1e-3), Power(2.0))
        assert panel(doubled(Power(1e-3)), doubled(Power(2.0))) == (lo, 2.0 * hi)
        assert lo == 0.0 and 0.0 < hi < 1e-200

    def test_overflowing_log_derivative_is_a_non_finite_error(self):
        # For phi = 1/y, phi' = -1/y^2 overflows at tail nodes of y, where
        # a - b is -inf - -inf: a package error named in x, not a warning.
        f = push_forward(Exponential(1.0), lambda y: 1.0 / y, lambda x: 1.0 / x, lambda y: -1.0 / y**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Error, match="non-finite value inside") as info:
                entropy(f)
        found = re.search(r"inside \((\S+), (\S+)\)", str(info.value))
        assert 1.0 < float(found[1]) and float(found[2]) == math.inf, str(info.value)


def _kde_moments(f, c, keys):
    """{(t, n): E[y^n e^{ty}]} for y = Y - c under the log-domain kde f,
    the law of e^Y: Y is the Gaussian mixture at the data's logs with
    width h, truncated to its support (L, U) and renormalised by the
    kernels' mass there.

    For a kernel at mu, e^{ty} phi_h(y - mu) is e^{t mu + t^2 h^2 / 2}
    phi_h(y - m) with m = mu + t h^2, and y = m + h z, so each moment is
    a sum of m^(n-j) h^j J_j over the partial moments J_j of z ~ N(0, 1)
    on its ends (a, b): J_0 = Phi(b) - Phi(a), J_1 = phi(a) - phi(b) and
    J_j = (j - 1) J_(j-2) + a^(j-1) phi(a) - b^(j-1) phi(b)."""
    base = f.base
    h, mu = base.bandwidth, base.points - c
    lo, hi = base.support[0] - c, base.support[1] - c
    erfc = np.vectorize(math.erfc, otypes=[float])

    def kernels(t, n):
        m = mu + t * h * h
        a, b = (lo - m) / h, (hi - m) / h
        pa, pb = (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) for z in (a, b))
        # Phi(b) - Phi(a) from the tail in which both ends lie, so that
        # it does not cancel.
        r = math.sqrt(2.0)
        j0 = np.where(a > 0.0, erfc(a / r) - erfc(b / r), erfc(-b / r) - erfc(-a / r))
        J = [0.5 * j0, pa - pb]
        for j in range(2, n + 1):
            J.append((j - 1) * J[j - 2] + a ** (j - 1) * pa - b ** (j - 1) * pb)
        raw = sum(math.comb(n, j) * m ** (n - j) * h**j * J[j] for j in range(n + 1))
        return np.exp(t * mu + 0.5 * t * t * h * h) * raw

    mass = kernels(0.0, 0).mean()
    return {key: float(kernels(*key).mean() / mass) for key in keys}


def _log_g_form(g, c):
    """log g(e^{c + y}) as (c0, {(t, n): w}): c0 + the sum of w y^n e^{ty}."""
    if isinstance(g, Exponential):
        return math.log(g.rate), {(1.0, 0): -g.rate * math.exp(c)}
    if isinstance(g, Weibull2):
        k, lam = g.shape, g.rate
        c0 = math.log(lam * k) + (k - 1.0) * c
        return c0, {(0.0, 1): k - 1.0, (k, 0): -lam * math.exp(k * c)}
    d, s2 = c - g.mu, g.sigma**2
    c0 = -c - math.log(g.sigma) - _LOG_SQRT_2PI - d * d / (2.0 * s2)
    return c0, {(0.0, 1): -1.0 - d / s2, (0.0, 2): -0.5 / s2}


def _kde_oracle(f, g):
    """Exact I and VarI of (f, g) for a log-domain kde f, from the mixture
    moments of :func:`_kde_moments` about the mean of the data's logs."""
    c = float(f.base.points.mean())
    c0, w = _log_g_form(g, c)
    pairs = [((t + u, n + m), x * y) for (t, n), x in w.items() for (u, m), y in w.items()]
    e = _kde_moments(f, c, [*w, *(key for key, _ in pairs)])
    mean = c0 + sum(x * e[key] for key, x in w.items())
    second = sum(xy * e[key] for key, xy in pairs) - (mean - c0) ** 2
    return -mean, second


class TestKernelOracle:
    """I and VarI of a log-domain kde against exact mixture moments."""

    def _check(self, f, gs):
        for g, record in zip(gs, info_moments(f, gs), strict=True):
            for field, exact in zip((record.I, record.VarI), _kde_oracle(f, g)):
                assert field.method == "quadrature"
                assert abs(field.value - exact) <= field.abs_error_estimate, (g, field, exact)

    @pytest.mark.parametrize("bandwidth", [0.003, 0.01, 0.03, 0.1, None, 1.0])
    def test_murthy41(self, bandwidth):
        values = datasets.load("murthy41")
        self._check(kde(SampleData(values), bandwidth), _fitted(values) + [Exponential(0.08)])

    def test_large_sample(self):
        values = _stratified_weibull(10_000, 1)
        self._check(kde(SampleData(values)), _fitted(values) + [Exponential(0.08)])


class TestTable:
    """The closed-form table against the quadrature and exact identities."""

    @given(
        case=st.one_of(
            st.tuples(half_line, half_line),
            st.tuples(st.builds(Power, alphas), st.one_of(half_line, st.builds(Power, alphas))),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_quadrature_matches_table(self, case):
        f, g = case
        table = info_moments(f, g)
        quad = info_moments(f, g, method="quadrature")
        # The quadrature's goal is 1e-9, absolute below 1 (its default tol):
        # its error estimate can understate a near-exponential Weibull's
        # error, and a field near 0, such as K of nearly equal laws, is
        # known to both routes only to rounding at the size of H and I.
        for name in FIELDS:
            t, q = getattr(table, name), getattr(quad, name)
            allow = max(q.abs_error_estimate, 1e-9 * max(1.0, abs(q.value)))
            assert t.method == "closed_form"
            assert abs(t.value - q.value) <= allow, (name, t.value, q.value, allow)

    def test_digamma_identities(self):
        euler = 0.5772156649015329

        def close(a, b, scale=None):
            return abs(a - b) <= 1e-14 * (scale or abs(b))

        assert close(_psi(1.0)[0], -euler)
        assert close(_psi(0.5)[0], -euler - 2.0 * LOG2)
        for x in (0.1, 0.7, 2.5, 7.9, 11.5, 12.0, 30.0, 1e3):
            d, d1 = _psi(x)
            up, up1 = _psi(x + 1.0)
            assert close(up, d + 1.0 / x, max(abs(up), abs(d), 1.0 / x))
            assert close(up1, d1 - 1.0 / (x * x), d1)
        harmonic = 0.0
        for n in range(1, 40):
            assert close(_psi(float(n))[0], harmonic - euler, max(harmonic, euler))
            harmonic += 1.0 / n
        assert close(_psi(1.0)[1], math.pi**2 / 6.0)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_log_concave_varentropy_is_at_most_one(self, method):
        # VarH <= 1 for a log-concave density, with equality for the
        # exponential (Bobkov & Madiman, 2011; Fradelizi, Madiman & Wang,
        # 2016): each record within its own estimate plus 8 ulp.
        rng = np.random.default_rng(1)
        laws = [Exponential(1.0), Weibull2(1.0, 3.0), Power(1.0), Uniform(0.0, 1.0)]
        for _ in range(40):
            rate = math.exp(rng.uniform(-8.0, 8.0))
            lo = rng.uniform(-50.0, 50.0)
            laws += [
                Exponential(rate),
                Weibull2(1.0 + rng.exponential(2.0), rate),
                Weibull2(1.0 + 10.0 ** rng.uniform(-9.0, -1.0), rate),
                Power(1.0 + rng.exponential(5.0)),
                Uniform(lo, lo + math.exp(rng.uniform(-8.0, 8.0))),
            ]
        ulp = np.finfo(float).eps
        for f in laws:
            v = info_moments(f, f, method=method).VarH
            assert v.value <= 1.0 + v.abs_error_estimate + 8.0 * ulp, (f, v)

    def test_overflowing_moments_are_an_error(self):
        # E[X^2] = Gamma(201) for this Weibull: past the largest float.
        with pytest.raises(OutOfRangeError, match="overflow"):
            info_moments(Weibull2(0.01, 1.0), Exponential(1.0))
        # Finite moments past 1e195 stay numbers.
        rec = info_moments(Lognormal(0.0, 5.0), Weibull2(3.0, 1.0))
        assert all(math.isfinite(getattr(rec, name).value) for name in FIELDS)


def _rescaled(d, s):
    """The law of s X for X ~ d."""
    if isinstance(d, Exponential):
        return Exponential(d.rate / s)
    if isinstance(d, Weibull2):
        return Weibull2(d.shape, d.rate * s**-d.shape)
    return Lognormal(d.mu + math.log(s), d.sigma)


class TestFarFromOne:
    """Laws whose mass lies far from x = 1, or in a narrow band: the
    quadrature starts from f's bulk, wherever it is."""

    def test_narrow_lognormal_box(self):
        # Lognormal(mu in (-10, 10), sigma log-uniform on (0.02, 2)):
        # before the bulk-centred variable about a fifth of these pairs
        # ended in "did not see all of f's mass".
        rng = np.random.default_rng(1)
        ulp = np.finfo(float).eps
        kinds = ["exp", "w2", "lognormal"]
        for _ in range(120):
            sigma = math.exp(rng.uniform(math.log(0.02), math.log(2.0)))
            f = Lognormal(rng.uniform(-10.0, 10.0), sigma)
            g = _exp_w2_lognormal(kinds[rng.integers(3)], rng.random(), rng.random())
            quad, table = info_moments(f, g, method="quadrature"), info_moments(f, g)
            for name in FIELDS:
                q, t = getattr(quad, name), getattr(table, name)
                allow = q.abs_error_estimate + 8.0 * ulp * max(1.0, abs(t.value))
                assert abs(q.value - t.value) <= allow, (f, g, name, q, t)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_common_rescale(self, method):
        # X -> sX leaves K, VarK, VarH and VarI as they are and shifts H
        # and I by log s.  The rescaled parameters are rounded, which
        # moves a field by a few ulp of its size times that of H and I.
        ulp = np.finfo(float).eps
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (Weibull2(1.5, 0.8), Lognormal(0.1, 0.7)),
            (Lognormal(0.1, 0.7), Weibull2(1.5, 0.8)),
        ]
        for f, g in pairs:
            base = info_moments(f, g, method=method)
            for s in (1e8, 1e-8, 1e30, 1e-30, 1e100, 1e-100):
                rec = info_moments(_rescaled(f, s), _rescaled(g, s), method=method)
                scale = max(1.0, abs(rec.H.value), abs(rec.I.value))
                for name in ("H", "I", "K", "VarH", "VarI", "VarK"):
                    new, old = getattr(rec, name), getattr(base, name)
                    shift = math.log(s) if name in ("H", "I") else 0.0
                    allow = new.abs_error_estimate + old.abs_error_estimate
                    allow += 8.0 * ulp * scale * max(1.0, abs(new.value))
                    assert abs(new.value - (old.value + shift)) <= allow, (f, g, s, name, new, old)

    def test_quartiles_in_log_x(self):
        # _bulk gives the median of log X and its interquartile range from
        # the law's table entry, never through x.
        laws = [
            Exponential(0.3),
            Weibull2(2.5, 4.0),
            Lognormal(-3.0, 0.4),
            Power(0.7),
            Uniform(0.0, 6.0),
        ]
        for d in laws:
            lower, median, upper = np.log(d.quantile(np.array([0.25, 0.5, 0.75])))
            c, s = _bulk(d)
            assert abs(c - median) <= 4.0 * np.finfo(float).eps * max(1.0, abs(median)), d
            assert abs(s - (upper - lower)) <= 8.0 * np.finfo(float).eps * max(1.0, abs(upper)), d
        # Power(1e-3)'s lower quartile, 0.25^1000, underflows in x.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, s = _bulk(Power(1e-3))
        assert c == pytest.approx(-1000.0 * LOG2) and s == pytest.approx(1000.0 * math.log(3.0))
        # A law without a table entry keeps log x itself, and so does one
        # whose quartiles in log x, of scale 1 / shape, overflow.
        assert _bulk(Uniform(1.0, 6.0)) == _bulk(_InX(Exponential(1.0))) == (0.0, 1.0)
        assert _bulk(Weibull2(1e-310, 1.0)) == (0.0, 1.0)

    def test_pushforward_starts_from_its_base_bulk(self):
        # 2Y for a narrow Y far below 1, against the same law as a table
        # entry: the pushforward is integrated in log y from Y's bulk.
        y = Lognormal(-9.0, 0.03)
        f = push_forward(y, lambda v: 2.0 * v, lambda x: 0.5 * x, lambda v: np.full_like(v, 2.0))
        g = Weibull2(1.5, 0.8)
        _assert_within_estimate(info_moments(f, g), info_moments(Lognormal(-9.0 + LOG2, 0.03), g))
