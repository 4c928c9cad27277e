"""Fitting and kernel density estimation."""

import math

import numpy as np
import pytest

from varidx.datasets import MURTHY41
from varidx.distributions import (
    Exponential,
    KernelDensity,
    LogKernelDensity,
    Lognormal,
    SampleData,
    Weibull2,
    sample,
)
from varidx.errors import (
    DegenerateDataError,
    InvalidParameterError,
    NonPositiveDataError,
)
from varidx.estimation import (
    fit_binomial_p,
    fit_lognormal_mle,
    fit_weibull_mle,
    kde,
    silverman_bandwidth,
)
from varidx.measures import kl, var_kl
from varidx.quadrature import integrate


def w2_loglik_gradient(values, shape, rate):
    x = np.asarray(values)
    n = x.size
    d_rate = n / rate - np.sum(x**shape)
    d_shape = n / shape + np.sum(np.log(x)) - rate * np.sum(x**shape * np.log(x))
    return d_shape, d_rate


class TestWeibullFit:
    def test_reference_failure_times(self):
        fit = fit_weibull_mle(SampleData(MURTHY41))
        shape, rate = fit.params
        assert abs(shape - 1.5487) / 1.5487 <= 0.01
        assert abs(rate - 0.0166) / 0.0166 <= 0.01
        assert fit.converged

    def test_stationarity_at_estimate(self):
        fit = fit_weibull_mle(SampleData(MURTHY41))
        d_shape, d_rate = w2_loglik_gradient(MURTHY41, *fit.params)
        assert abs(d_shape) <= 1e-6
        assert abs(d_rate) <= 1e-6

    def test_synthetic_recovery(self):
        data = sample(Weibull2(2.0, 0.5), 10**5, 77)
        fit = fit_weibull_mle(data)
        assert abs(fit.params[0] - 2.0) / 2.0 <= 0.02
        assert abs(fit.params[1] - 0.5) / 0.5 <= 0.02

    def test_consistency_over_seeds(self):
        errs = []
        for seed in range(20):
            data = sample(Weibull2(1.4, 0.3), 10**4, seed)
            fit = fit_weibull_mle(data)
            errs.append(abs(fit.params[0] - 1.4) / 1.4)
            errs.append(abs(fit.params[1] - 0.3) / 0.3)
        assert float(np.median(errs)) < 0.03

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_weibull_mle(SampleData([3.3] * 10))

    @pytest.mark.parametrize(
        "values,root",
        [
            # A Newton step leaves the bracket, and bisection takes over.
            ([1.0] * 6 + [5.0], 1.3624042598950803),
            # Newton stalls on a step below 1e-15 a: the small-step exit.
            # The squares of 1e270 overflow the x-scale variance.
            ([1e7, 1e270, 1e-214], 0.0024401564194525835),
        ],
        ids=["bisection", "small-step"],
    )
    def test_safeguards_reach_the_profile_root(self, values, root):
        fit = fit_weibull_mle(SampleData(values))
        shape, rate = fit.params
        assert fit.converged
        logx = np.log(values)
        s = shape * logx
        w = np.exp(s - s.max())
        h = float((w * logx).sum() / w.sum()) - 1.0 / shape - float(logx.mean())
        assert abs(h) <= 1e-10
        # rate = n / sum(x^shape), the sum taken in log space.
        expected = len(values) * math.exp(-float(s.max())) / float(w.sum())
        assert abs(rate - expected) <= 1e-12 * expected
        assert abs(shape - root) <= 1e-12 * root

    def test_nonpositive_data_rejected(self):
        with pytest.raises(NonPositiveDataError):
            fit_weibull_mle(SampleData([1.0, -2.0, 3.0]))

    def test_log_likelihood_is_maximal_nearby(self):
        data = SampleData(MURTHY41)
        fit = fit_weibull_mle(data)
        x = data.values

        def loglik(shape, rate):
            return (
                len(x) * math.log(rate)
                + len(x) * math.log(shape)
                + (shape - 1.0) * float(np.sum(np.log(x)))
                - rate * float(np.sum(x**shape))
            )

        best = loglik(*fit.params)
        assert abs(best - fit.log_likelihood) <= 1e-9 * abs(best)
        for ds in (-0.01, 0.01):
            for dr in (-0.0005, 0.0005):
                assert loglik(fit.params[0] + ds, fit.params[1] + dr) <= best


class TestLognormalFit:
    def test_two_point_closed_form(self):
        fit = fit_lognormal_mle(SampleData([1.0, math.e**2]))
        assert abs(fit.params[0] - 1.0) <= 1e-14
        assert abs(fit.params[1] - 1.0) <= 1e-14
        assert fit.iterations == 0

    def test_equal_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal_mle(SampleData([math.e, math.e, math.e]))

    def test_synthetic_recovery(self):
        data = sample(Lognormal(3.5559, 0.2192), 10**5, 99)
        fit = fit_lognormal_mle(data)
        assert abs(fit.params[0] - 3.5559) / 3.5559 <= 0.01
        assert abs(fit.params[1] - 0.2192) / 0.2192 <= 0.01

    def test_matches_direct_recomputation_exactly(self):
        rng = np.random.default_rng(12)
        values = rng.lognormal(0.5, 0.8, size=257)
        fit = fit_lognormal_mle(SampleData(values))
        logs = np.log(values)
        mu = float(logs.mean())
        sigma = math.sqrt(float(np.mean((logs - mu) ** 2)))
        assert abs(fit.params[0] - mu) <= 1e-14 * max(1.0, abs(mu))
        assert abs(fit.params[1] - sigma) <= 1e-14 * sigma

    def test_consistency_over_seeds(self):
        errs = []
        for seed in range(20):
            data = sample(Lognormal(1.0, 0.5), 10**4, seed + 100)
            fit = fit_lognormal_mle(data)
            errs.append(abs(fit.params[0] - 1.0))
            errs.append(abs(fit.params[1] - 0.5) / 0.5)
        assert float(np.median(errs)) < 0.03


class TestBinomialFit:
    def test_reference_counts(self):
        fit = fit_binomial_p([20, 63, 84, 33], 3)
        assert fit.params[1] == 330.0 / 600.0
        assert fit.converged

    def test_boundary_flagged(self):
        fit = fit_binomial_p([5, 0, 0, 0], 3)
        assert fit.params[1] == 0.0
        assert not fit.converged

    def test_uniform_counts(self):
        assert fit_binomial_p([1, 1, 1, 1], 3).params[1] == 0.5

    def test_consistency_over_seeds(self):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            draws = rng.binomial(3, 0.55, size=10**4)
            counts = np.bincount(draws, minlength=4)
            fit = fit_binomial_p(counts, 3)
            errs.append(abs(fit.params[1] - 0.55) / 0.55)
        assert float(np.median(errs)) < 0.03

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_binomial_p([], 3)
        with pytest.raises(InvalidParameterError):
            fit_binomial_p([1, 2], 3)
        with pytest.raises(InvalidParameterError):
            fit_binomial_p([0, 0, 0, 0], 3)


class TestSilvermanBandwidth:
    def test_formula_value(self):
        # Unit sample standard deviation, n = 100.
        base = np.arange(100.0)
        values = base / base.std(ddof=1)
        got = silverman_bandwidth(SampleData(values))
        assert abs(got - (4.0 / 300.0) ** 0.2) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDataError):
            silverman_bandwidth(SampleData([2.0, 2.0, 2.0]))

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(3)
        values = rng.normal(5.0, 2.0, size=64)
        h1 = silverman_bandwidth(SampleData(values))
        h2 = silverman_bandwidth(SampleData(values * c))
        assert abs(h2 - c * h1) <= 1e-9 * h2


class TestKde:
    def test_normalizes_on_reported_support(self):
        f = kde(SampleData(MURTHY41))
        r = integrate(lambda x: f.pdf(x), f.support, tol=1e-9)
        assert abs(r.value - 1.0) <= 1e-6

    def test_positive_data_stays_positive(self):
        f = kde(SampleData(MURTHY41))
        assert isinstance(f, LogKernelDensity)
        assert f.support[0] >= 0.0
        assert f.pdf(-1.0) == 0.0

    def test_reference_divergence_from_fitted_weibull(self):
        data = SampleData(MURTHY41)
        fit = fit_weibull_mle(data)
        f = kde(data)
        k = kl(f, Weibull2(*fit.params)).value
        assert abs(k - 0.099) <= 0.02

    def test_reference_pair_nearly_equal_divergences(self):
        data = SampleData(MURTHY41)
        f = kde(data)
        k1 = kl(f, Weibull2(1.5487, 0.0166)).value
        k2 = kl(f, Weibull2(1.6, 0.0127)).value
        assert abs(k1 - k2) <= 0.01
        assert var_kl(f, Weibull2(1.5487, 0.0166)).value > var_kl(
            f, Weibull2(1.6, 0.0127)
        ).value

    def test_consistency_against_true_density(self):
        data = sample(Exponential(1.0), 10**5, 2024)
        f = kde(data)
        grid = np.linspace(1e-3, 12.0, 200)
        ks = float(np.abs(f.cdf(grid) - Exponential(1.0).cdf(grid)).max())
        assert ks < 0.02

    def test_bandwidth_override(self):
        f = kde(SampleData(MURTHY41), bandwidth=0.5)
        assert f.bandwidth == 0.5
        r = integrate(lambda x: f.pdf(x), f.support, tol=1e-9)
        assert abs(r.value - 1.0) <= 1e-6

    def test_linear_branch_for_signed_data(self):
        rng = np.random.default_rng(7)
        f = kde(SampleData(rng.standard_normal(300)))
        assert isinstance(f, KernelDensity)
        assert f.support[0] < 0.0
        r = integrate(lambda x: f.pdf(x), f.support, tol=1e-9)
        assert abs(r.value - 1.0) <= 1e-6

    def test_degenerate_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            kde(SampleData([1.0, 1.0, 1.0]))

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(InvalidParameterError):
            kde(SampleData(MURTHY41), bandwidth=-0.5)

    def test_nonnegative_on_reported_support(self):
        f = kde(SampleData(MURTHY41))
        grid = np.linspace(f.support[0] + 1e-9, f.support[1] - 1e-9, 500)
        assert np.all(f.pdf(grid) >= 0.0)

    def test_sampling_from_kde(self):
        f = kde(SampleData(MURTHY41))
        sd = sample(f, 3000, 51)
        lo, hi = f.support
        assert np.all((sd.values > lo) & (sd.values < hi))
        mean = integrate(lambda x: x * f.pdf(x), f.support, tol=1e-9).value
        assert abs(sd.mean - mean) <= 0.5
