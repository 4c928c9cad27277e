"""Distribution families, pdf inversion, transforms, sampling, pmfs."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varidx import distributions
from varidx.distributions import (
    Density,
    Exponential,
    FinitePMF,
    KernelDensity,
    LogKernelDensity,
    Lognormal,
    Power,
    SampleData,
    Uniform,
    Weibull2,
    inverse_pdf,
    make_distribution,
    make_pmf,
    push_forward,
    sample,
)
from varidx.errors import (
    InconsistentTransformError,
    InvalidParameterError,
    NotInvertibleError,
    NotMonotoneError,
    OutOfRangeError,
    UnsupportedSamplerError,
)
from varidx.quadrature import integrate

ALL_PARAMETRIC = [
    Exponential(1.0),
    Exponential(2.5),
    Power(2.0),
    Power(0.5),
    Uniform(0.0, 1.0),
    Uniform(-1.0, 3.0),
    Weibull2(1.5487, 0.0166),
    Weibull2(0.7, 1.2),
    Lognormal(0.0, 0.5),
    Lognormal(3.5559, 0.2192),
]

# Laws without closed-form extremes: a kde on a truncated support, a
# log-kde and a pushforward with an unbounded pdf.
NONPARAMETRIC = [
    KernelDensity([0.0, 0.5, 1.0, 3.0], 0.5, (0.25, 2.0)),
    LogKernelDensity([0.5, 1.0, 2.0, 4.0, 30.0], 0.4),
    push_forward(
        Uniform(0.0, 1.0), lambda x: x * x, lambda y: np.sqrt(y), lambda x: 2.0 * x
    ),
]


class TestConstruction:
    def test_exponential_pdf_value(self):
        d = make_distribution("exponential", [2.0])
        assert abs(d.pdf(0.5) - 2.0 * math.exp(-1.0)) < 1e-15

    def test_power_pdf_is_two_x(self):
        d = make_distribution("power", [2.0])
        assert abs(d.pdf(0.25) - 0.5) < 1e-15
        assert d.support == (0.0, 1.0)

    def test_weibull_normalizes(self):
        d = make_distribution("weibull2", [1.5487, 0.0166])
        r = integrate(lambda x: d.pdf(x), d.support, tol=1e-10)
        assert abs(r.value - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", [0.0]),
            ("exponential", [-1.0]),
            ("power", [0.0]),
            ("uniform", [1.0, 1.0]),
            ("uniform", [2.0, 1.0]),
            ("weibull2", [1.0, 0.0]),
            ("weibull2", [-0.5, 1.0]),
            ("lognormal", [0.0, 0.0]),
            ("binomial", [3, 0.5]),
            ("dunif", [4]),
            ("kde", [1.0]),
        ],
    )
    def test_invalid_parameters_rejected(self, family, params):
        with pytest.raises(InvalidParameterError):
            make_distribution(family, params)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)])
    def test_uniform_width_must_be_finite(self, lo, hi):
        # hi - lo = inf would give the density height 0.
        with pytest.raises(InvalidParameterError, match="uniform width hi - lo must be finite and > 0"):
            Uniform(lo, hi)

    def test_positive_parameter_message(self):
        for build, name in [
            (lambda: Exponential(math.nan), "exponential rate"),
            (lambda: Weibull2(1.0, -2.0), "weibull2 rate"),
            (lambda: KernelDensity([0.0, 1.0], math.inf, (-1.0, 2.0)), "kde bandwidth"),
        ]:
            with pytest.raises(InvalidParameterError, match=f"^{name} must be finite and > 0, got "):
                build()

    def test_unknown_family_and_arity(self):
        with pytest.raises(InvalidParameterError):
            make_distribution("cauchy", [0.0])
        with pytest.raises(InvalidParameterError):
            make_distribution("exponential", [1.0, 2.0])

    def test_monotonicity_flags(self):
        assert Exponential(3.0).monotonicity == "decreasing"
        assert Power(2.0).monotonicity == "increasing"
        assert Power(0.5).monotonicity == "decreasing"
        assert Power(1.0).monotonicity == "neither"
        assert Uniform(0, 1).monotonicity == "neither"
        assert Weibull2(0.7, 1.0).monotonicity == "decreasing"
        assert Weibull2(2.0, 1.0).monotonicity == "neither"

    @pytest.mark.parametrize("d", ALL_PARAMETRIC, ids=lambda d: repr(d))
    def test_monotonicity_flag_consistent_on_grid(self, d):
        grid = d._reference_grid(1000)
        vals = d.pdf(grid)
        diffs = np.diff(vals)
        if d.monotonicity == "increasing":
            assert np.all(diffs >= -1e-12)
        elif d.monotonicity == "decreasing":
            assert np.all(diffs <= 1e-12)


class TestEvaluation:
    @pytest.mark.parametrize("d", ALL_PARAMETRIC + NONPARAMETRIC, ids=lambda d: repr(d))
    def test_normalization(self, d):
        r = integrate(lambda x: d.pdf(x), d.support, tol=1e-9)
        assert abs(r.value - 1.0) <= 1e-6

    @pytest.mark.parametrize("d", ALL_PARAMETRIC + NONPARAMETRIC, ids=lambda d: repr(d))
    def test_log_pdf_matches_log_of_pdf(self, d):
        x = d._reference_grid(400)
        p = d.pdf(x)
        mask = p > 0
        got = d.log_pdf(x[mask])
        want = np.log(p[mask])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_outside_support_is_zero(self):
        d = Power(2.0)
        assert d.pdf(-0.5) == 0.0
        assert d.pdf(1.5) == 0.0
        assert d.log_pdf(2.0) == -math.inf
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(2.0) == 1.0

    def test_scalar_in_scalar_out(self):
        d = Exponential(1.0)
        assert isinstance(d.pdf(1.0), float)
        assert isinstance(d.pdf(np.array([1.0, 2.0])), np.ndarray)


class TestInversePdf:
    def test_exponential_closed_form(self):
        d = Exponential(2.0)
        assert abs(inverse_pdf(d, 2.0 * math.exp(-2.0)) - 1.0) < 1e-12

    def test_power_closed_form(self):
        assert abs(inverse_pdf(Power(2.0), 1.0) - 0.5) < 1e-12

    def test_support_boundary(self):
        assert abs(inverse_pdf(Exponential(1.0), 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "d",
        [Exponential(1.7), Power(3.0), Power(0.4), Weibull2(0.7, 1.2)],
        ids=lambda d: repr(d),
    )
    def test_round_trip_on_random_levels(self, d):
        rng = np.random.default_rng(99)
        lo_r, hi_r = d.pdf_range()
        hi_eff = min(hi_r, 1e6)
        for _ in range(100):
            z = math.exp(rng.uniform(math.log(max(lo_r, 1e-9) + 1e-12), math.log(hi_eff)))
            z = min(max(z, lo_r * (1 + 1e-12) + 1e-300), hi_eff)
            x = inverse_pdf(d, z)
            assert abs(d.pdf(x) - z) <= 1e-10 * z

    def test_bisection_lands_on_the_last_double_above_each_level(self):
        # For a decreasing pdf: log g(x) >= level > log g(next double),
        # also where x is far beyond 1e15.
        d = Weibull2(0.5, 1.0)
        levels = [-10.0, -100.0, -1e3, -1e5, -1e8, -3e8, -1e9]
        xs = distributions._inverse_log_pdf(d, np.array(levels)).tolist()
        for level, x in zip(levels, xs, strict=True):
            assert d.log_pdf(x) >= level > d.log_pdf(math.nextafter(x, math.inf)), level
            assert distributions._inverse_log_pdf(d, level) == x
        d, level = Weibull2(0.2, 1.0), math.log(1e-300)
        x = inverse_pdf(d, 1e-300)
        assert d.log_pdf(x) >= level > d.log_pdf(math.nextafter(x, math.inf))
        # An increasing pdf without a closed form, 3 x^2 on (0, 1): the
        # mirror image, the first double at or above each level.
        rising = Density((), (0.0, 1.0), "increasing")
        rising._log_pdf = lambda x: math.log(3.0) + 2.0 * np.log(x)
        levels = np.log([1e-300, 1e-5, 1.0, 2.9])
        for level, x in zip(levels, distributions._inverse_log_pdf(rising, levels), strict=True):
            assert rising.log_pdf(x) >= level > rising.log_pdf(math.nextafter(x, 0.0)), level

    @pytest.mark.parametrize("d", NONPARAMETRIC, ids=lambda d: repr(d))
    def test_pdf_range_without_closed_form_rejected(self, d):
        with pytest.raises(NotMonotoneError, match=d.family):
            d.pdf_range()

    def test_non_monotone_rejected(self):
        with pytest.raises(NotInvertibleError):
            inverse_pdf(Lognormal(0.0, 1.0), 0.1)
        with pytest.raises(NotInvertibleError):
            inverse_pdf(Uniform(0.0, 1.0), 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            inverse_pdf(Exponential(1.0), 2.0)
        with pytest.raises(OutOfRangeError):
            inverse_pdf(Power(2.0), 3.0)
        with pytest.raises(OutOfRangeError):
            inverse_pdf(Exponential(1.0), -0.1)


class TestPushForward:
    def test_affine_image_of_uniform(self):
        d = push_forward(
            Uniform(0.0, 1.0),
            lambda x: 2.0 * x + 3.0,
            lambda y: (y - 3.0) / 2.0,
            lambda x: np.full(np.shape(x), 2.0),
        )
        assert d.support == (3.0, 5.0)
        assert abs(d.pdf(4.0) - 0.5) < 1e-12
        assert d.pdf(2.9) == 0.0

    def test_identity_map_preserves_pdf(self):
        base = Exponential(1.0)
        d = push_forward(
            base, lambda x: x, lambda y: y, lambda x: np.ones(np.shape(x))
        )
        grid = np.linspace(0.05, 8.0, 60)
        np.testing.assert_allclose(d.pdf(grid), base.pdf(grid), rtol=1e-12)

    def test_square_map_density_and_normalization(self):
        d = push_forward(
            Uniform(0.0, 1.0), lambda x: x * x, lambda y: np.sqrt(y), lambda x: 2.0 * x
        )
        assert abs(d.pdf(0.25) - 1.0 / (2.0 * 0.5)) < 1e-12
        r = integrate(lambda x: d.pdf(x), (0.0, 1.0), tol=1e-9)
        assert abs(r.value - 1.0) <= 1e-8

    def test_cdf_consistency_at_fifty_points(self):
        base = Uniform(0.0, 1.0)
        d = push_forward(
            base, lambda x: x * x, lambda y: np.sqrt(y), lambda x: 2.0 * x
        )
        xs = np.linspace(0.02, 0.98, 50)
        np.testing.assert_allclose(d.cdf(xs * xs), base.cdf(xs), atol=1e-7)

    def test_inconsistent_inverse_rejected(self):
        with pytest.raises(InconsistentTransformError):
            push_forward(
                Uniform(0.0, 1.0),
                lambda x: 2.0 * x,
                lambda y: y,  # wrong inverse
                lambda x: np.full(np.shape(x), 2.0),
            )

    def test_infinite_image_of_an_endpoint(self):
        # log maps (0, inf) onto the whole line; log(0) = -inf, without a
        # warning.
        d = push_forward(Exponential(1.0), np.log, np.exp, lambda y: 1.0 / y)
        assert d.support == (-math.inf, math.inf)

    def test_end_where_phi_is_nan_is_exact(self):
        # y / (y + 1) is inf / inf = nan at y = inf; the last double below
        # it maps to 1.0.
        d = push_forward(
            Exponential(1.0), lambda y: y / (y + 1), lambda x: x / (1 - x), lambda y: 1 / (y + 1) ** 2
        )
        assert d.support == (0.0, 1.0)

    def test_heavy_tailed_base_maps_onto_its_exact_image(self):
        # P(Y > y) = y^-0.1: 6.3 % of the mass lies beyond y = 1e12.
        pareto = push_forward(Exponential(0.1), np.exp, np.log, np.exp)
        assert pareto.support == (1.0, math.inf)
        d = push_forward(pareto, lambda y: y / (y + 1), lambda x: x / (1 - x), lambda y: 1 / (y + 1) ** 2)
        assert d.support == (0.5, 1.0)

    def test_pole_at_an_end_maps_to_inf(self):
        d = push_forward(Exponential(1.0), lambda y: 1 / y, lambda x: 1 / x, lambda y: -1 / y**2)
        assert d.support == (0.0, math.inf)

    @pytest.mark.parametrize(
        "phi,phi_inv,phi_deriv",
        [
            # nan at inf and at the largest float.
            (lambda y: np.where(y < 1e300, y, np.nan), lambda x: x, lambda y: np.ones(np.shape(y))),
            # nan at inf (inf / inf); at the largest float 2 y overflows,
            # and the end would read inf.
            (lambda y: 2 * y / (y + 1), lambda x: x / (2 - x), lambda y: 2 / (y + 1) ** 2),
            # As above, but y * y overflows, and the end would read 0.0.
            (
                lambda y: y / np.sqrt(y * y + 1),
                lambda x: x / np.sqrt(1 - x * x),
                lambda y: (y * y + 1) ** -1.5,
            ),
        ],
        ids=["nan", "overflow-to-inf", "overflow-to-zero"],
    )
    def test_end_without_an_image_rejected(self, phi, phi_inv, phi_deriv):
        with pytest.raises(InvalidParameterError, match="support end inf"):
            push_forward(Exponential(1.0), phi, phi_inv, phi_deriv)

    def test_end_short_of_the_check_grid_read_inside(self):
        # A guard that reads 0.0 at inf lies short of phi on the check
        # grid; the largest float maps to 1.0.
        d = push_forward(
            Exponential(1.0),
            lambda y: np.where(np.isfinite(y), y / (y + 1), 0.0),
            lambda x: x / (1 - x),
            lambda y: 1 / (y + 1) ** 2,
        )
        assert d.support == (0.0, 1.0)

    @pytest.mark.parametrize("rate", [1e-9, 1e-12])
    def test_round_trip_check_is_relative(self, rate):
        # The check grid reaches a few times 1 / rate, where an exact
        # inverse is off by an ulp of x: 4.8e-7 at rate 1e-9, far above
        # an absolute 1e-8.
        d = push_forward(Exponential(rate), np.sqrt, np.square, lambda y: 0.5 / np.sqrt(y))
        assert d.support == (0.0, math.inf)

    def test_curved_exact_derivative_accepted(self):
        # exp over the 0.79-wide steps of the check grid: a secant against
        # the mean of the end slopes is off by about step^2 / 12 = 5 %.
        d = push_forward(Uniform(0.0, 80.0), np.exp, np.log, np.exp)
        assert d.support == (1.0, math.exp(80.0))
        r = integrate(d.pdf, d.support)
        assert abs(r.value - 1.0) <= 1e-9

    def test_derivative_out_of_float_range_is_an_error(self):
        # At x = 1e-160, phi_inv(x) = 1e160 and phi'(1e160) = -1e-320
        # overflows to -0.0, where the log-density is still finite.
        d = push_forward(
            Lognormal(0.3, 0.5), lambda y: 1 / y, lambda x: 1 / x, lambda y: -1 / (y * y)
        )
        with pytest.raises(OutOfRangeError, match="x = 1e-160"):
            d.log_pdf(1e-160)
        assert d.log_pdf(1.0) == -0.40579135264472743

    def test_log_kde_with_wide_steps_accepted(self):
        # Data spanning 700 on the log scale gives 7.2-wide check steps.
        d = LogKernelDensity([1.0, 2.0, 1e307], 0.5)
        lo, hi = d.support
        # One kernel near 1e307 and two near 1, integrated apart: a single
        # panel set over (0.14, 7e307) would step over the small ones.
        mass = sum(integrate(d.pdf, iv).value for iv in ((lo, 100.0), (100.0, hi)))
        assert abs(mass - 1.0) <= 1e-9

    def test_wrong_derivative_rejected(self):
        with pytest.raises(InconsistentTransformError, match="phi_deriv disagrees"):
            push_forward(Uniform(0.0, 80.0), np.exp, np.log, lambda x: 2.0 * np.exp(x))

    def test_non_monotone_map_rejected(self):
        # x^2 is not monotone on (-1, 1); its "inverse" cannot round-trip
        # the negative half, so either guard may fire first.
        with pytest.raises((InvalidParameterError, InconsistentTransformError)):
            push_forward(
                Uniform(-1.0, 1.0),
                lambda x: x * x,
                lambda y: np.sqrt(np.abs(y)),
                lambda x: 2.0 * x,
            )


# A unit kernel 9 bandwidths out: the weight of any kernel the windowed
# mixture sums leave out.
PHI9 = math.exp(-40.5) / math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])


def _full_mixture(points, h, x):
    """pdf and cdf of the Gaussian mixture, summed over all n kernels."""
    z = (x[:, None] - points[None, :]) / h
    pdf = np.exp(-0.5 * z * z).sum(axis=1) / (points.size * h * math.sqrt(2.0 * math.pi))
    cdf = (0.5 * _erfc(-z / math.sqrt(2.0))).sum(axis=1) / points.size
    return pdf, cdf


@st.composite
def clustered_mixtures(draw):
    """Centres in 1-4 clusters 10h wide, 20h-70h apart, and query points
    in the clusters, in the gaps between them, at the window edges and at
    the support ends."""
    n = draw(st.integers(min_value=2, max_value=3000))
    h = draw(st.floats(min_value=1e-3, max_value=1.0))
    k = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    centres = np.cumsum(rng.uniform(30.0 * h, 80.0 * h, k))
    points = np.sort(centres[rng.integers(k, size=n)] + rng.uniform(-5.0 * h, 5.0 * h, n))
    lo, hi = points[0] - 4.0 * h, points[-1] + 4.0 * h
    x = np.concatenate(
        [
            rng.choice(points, 20) + rng.normal(0.0, h, 20),
            0.5 * (centres[1:] + centres[:-1]),
            [points[0] - 9.0 * h, points[-1] + 9.0 * h, points[0] + 9.0 * h],
            [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)],
            rng.uniform(lo, hi, 10),
        ]
    )
    return KernelDensity(points, h, (lo, hi)), rng.permutation(x)


class TestWindowedMixture:
    @given(case=clustered_mixtures())
    @settings(max_examples=40, deadline=None)
    def test_matches_full_sum(self, case):
        # Rounding (1e-12 relative) plus the kernels left out, which sum
        # to less than one kernel 9 bandwidths out.  On values far above
        # that, such as all of the mixture's bulk, the error is relative.
        kd, x = case
        h = kd.bandwidth
        ref_pdf, ref_cdf = _full_mixture(kd.points, h, x)
        for got, ref, far in (
            (kd._mix_pdf(x), ref_pdf, PHI9 / h),
            (kd._mix_cdf(x), ref_cdf, PHI9),
        ):
            err = np.abs(got - ref)
            assert np.all(err <= 1e-12 * ref + far)
            bulk = ref >= 1e-4 * ref.max()
            assert np.all(err[bulk] <= 1e-12 * ref[bulk])

    def test_erfc_is_math_erfc_bit_for_bit(self):
        # The kernel cdf and the sampler skip math.erfc where it is a
        # constant, 2.0 or 0.0; both thresholds and their neighbours
        # are on the grid.
        t = np.concatenate(
            [
                np.linspace(-42.0, 42.0, 210_001),
                [distributions._ERFC_TWO, distributions._ERFC_ZERO, -math.inf, math.inf],
                np.nextafter([distributions._ERFC_TWO, distributions._ERFC_ZERO], 0.0),
            ]
        )
        got = distributions._erfc(t)
        assert np.array_equal(got.view(np.uint64), _erfc(t).view(np.uint64))
        assert np.array_equal(distributions._erfc(t[:210_000].reshape(-1, 2)).ravel(), got[:210_000])


class TestSampling:
    def test_exponential_sample_mean(self):
        sd = sample(Exponential(1.0), 10**5, 42)
        assert 0.98 <= sd.mean <= 1.02

    def test_uniform_support_containment(self):
        sd = sample(Uniform(0.0, 1.0), 10, 7)
        assert np.all((sd.values > 0.0) & (sd.values < 1.0))

    def test_power_sample_mean(self):
        # E[X] under the increasing density 2x on (0,1) is 2/3.
        sd = sample(Power(2.0), 10**5, 1)
        assert abs(sd.mean - 2.0 / 3.0) <= 0.01

    def test_reproducible_for_fixed_seed(self):
        a = sample(Weibull2(1.5, 0.2), 1000, 5)
        b = sample(Weibull2(1.5, 0.2), 1000, 5)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample(Weibull2(1.5, 0.2), 1000, 6)
        assert not np.array_equal(a.values, c.values)

    def test_exponential_mean_within_clt_band(self):
        for lam in (0.5, 2.0):
            for n in (2000, 20000):
                sd = sample(Exponential(lam), n, 123)
                assert abs(sd.mean - 1.0 / lam) <= 5.0 / (math.sqrt(n) * lam)

    @pytest.mark.parametrize(
        "d",
        [
            Exponential(1.0),
            Uniform(0.0, 1.0),
            Power(2.0),
            Power(0.5),
            Weibull2(1.5487, 0.0166),
            Lognormal(0.0, 0.5),
        ],
        ids=lambda d: repr(d),
    )
    def test_kolmogorov_smirnov_against_cdf(self, d):
        n = 10**5
        v = np.sort(sample(d, n, 321).values)
        cdf = d.cdf(v)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        assert ks < 0.01

    def test_accept_reject_for_kde(self):
        pts = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        d = KernelDensity(pts, 0.5, (0.0, 5.0))
        sd = sample(d, 4000, 11)
        assert np.all((sd.values > 0.0) & (sd.values < 5.0))
        # Mean of the renormalized mixture, via quadrature as the oracle.
        m = integrate(lambda x: x * d.pdf(x), (0.0, 5.0), tol=1e-10).value
        assert abs(sd.mean - m) <= 0.1

    def test_accept_reject_for_bounded_pushforward(self):
        d = push_forward(
            Power(3.0), lambda x: x * x, lambda y: np.sqrt(y), lambda x: 2.0 * x
        )
        sd = sample(d, 4000, 17)
        # E[X^2] under 3x^2 on (0,1) is 3/5.
        assert abs(sd.mean - 0.6) <= 0.05

    @pytest.mark.parametrize(
        "d,cdf",
        [
            # pdf 1/(2 sqrt(y)) is unbounded at 0; cdf sqrt(y) on (0, 1).
            (
                push_forward(
                    Uniform(0.0, 1.0),
                    lambda x: x * x,
                    lambda y: np.sqrt(y),
                    lambda x: 2.0 * x,
                ),
                np.sqrt,
            ),
            (KernelDensity([0.0, 0.5, 1.0, 3.0], 0.5, (0.25, 2.0)), None),
            (LogKernelDensity([0.5, 1.0, 2.0, 4.0, 30.0], 0.4), None),
            # The support holds 1.4e-7 of the mixture's mass.
            (KernelDensity([0.0, 1.0], 0.1, (1.5, 2.0)), None),
        ],
        ids=["x**2 of Uniform(0, 1)", "kde", "log-kde", "kde low-mass support"],
    )
    def test_exact_sampler_against_cdf(self, d, cdf):
        n = 10**4
        start = time.perf_counter()
        v = np.sort(sample(d, n, 29).values)
        assert time.perf_counter() - start < 1.0
        lo, hi = d.support
        assert np.all((v > lo) & (v < hi))
        c = (cdf or d.cdf)(v)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - c)), float(np.max(c - (i - 1) / n)))
        # 1.63 / sqrt(n) is the KS critical value at level 0.01.
        assert ks < 1.63 / math.sqrt(n)

    def test_law_without_quantile_or_sampler_rejected(self):
        class Triangle(Density):
            family = "triangle"

            def __init__(self):
                super().__init__((), (0.0, 1.0), "increasing")

            def _log_pdf(self, x):
                return np.log(2.0 * x)

        with pytest.raises(UnsupportedSamplerError, match="triangle"):
            sample(Triangle(), 10, 1)

    def test_sample_size_validation(self):
        with pytest.raises(InvalidParameterError):
            sample(Exponential(1.0), 0, 1)


class TestSampleData:
    def test_cached_statistics_match_recomputation(self):
        rng = np.random.default_rng(8)
        values = rng.lognormal(1.0, 0.4, size=500)
        sd = SampleData(values)
        assert sd.n == 500
        assert abs(sd.mean - values.mean()) <= 1e-12 * abs(sd.mean)
        assert abs(sd.variance - values.var(ddof=1)) <= 1e-12 * sd.variance

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            SampleData([1.0, math.nan])

    def test_variance_overflows_to_inf_without_a_warning(self):
        # pytest turns a RuntimeWarning into an error.
        assert SampleData([1e200, 2e200]).variance == math.inf


class TestFinitePMF:
    def test_empirical_normalization(self):
        pmf = make_pmf("empirical", [20, 63, 84, 33])
        np.testing.assert_allclose(pmf.probs, [0.1, 0.315, 0.42, 0.165], atol=1e-15)
        assert abs(pmf.probs.sum() - 1.0) <= 1e-12

    def test_binomial_cell(self):
        # C(3,2) p^2 (1-p) at p = 11/20, exact rational oracle.
        exact = Fraction(3) * Fraction(11, 20) ** 2 * Fraction(9, 20)
        pmf = make_pmf("binomial", [3, 0.55])
        assert abs(pmf.probs[2] - float(exact)) <= 1e-15
        assert float(exact) == 0.408375

    def test_beta_binomial_exact_rationals(self):
        def exact(n, a, b):
            # C(n, k) prod (a + j) prod (b + j) / prod (a + b + j), exactly.
            def rise(x, m):
                return math.prod(Fraction(x + j) for j in range(m))

            return [
                math.comb(n, k) * rise(a, k) * rise(b, n - k) / rise(a + b, n)
                for k in range(n + 1)
            ]

        assert exact(3, 12, 10)[0] == Fraction(1320, 12144)
        pmf = make_pmf("beta_binomial", [3, 12, 10])
        for k in range(4):
            assert abs(pmf.probs[k] - float(exact(3, 12, 10)[k])) <= 1e-14
        # A huge alpha: lbeta through lgamma cancels all of its digits.
        for a in (10**12, 10**16, 10**20):
            for b in (1, 10):
                pmf = make_pmf("beta_binomial", [3, a, b])
                for k, p in enumerate(exact(3, a, b)):
                    assert abs(pmf.probs[k] - float(p)) <= 1e-12 * float(p), (a, b, k)

    def test_discrete_uniform(self):
        pmf = make_pmf("discrete_uniform", [4])
        np.testing.assert_allclose(pmf.probs, 0.25)
        assert pmf.labels == (0, 1, 2, 3)

    def test_printed_spellings(self):
        # betabin and dunif build what beta_binomial and discrete_uniform do.
        for short, long, params in [
            ("betabin", "beta_binomial", [3, 12, 10]),
            ("dunif", "discrete_uniform", [4]),
        ]:
            a, b = make_pmf(short, params), make_pmf(long, params)
            assert (a.labels, a.family, a.params) == (b.labels, b.family, b.params)
            assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("binomial", [0, 0.5]),
            ("binomial", [3, 0.0]),
            ("binomial", [3, 1.0]),
            ("beta_binomial", [3, 0.0, 1.0]),
            ("discrete_uniform", [1]),
            ("empirical", []),
            ("empirical", [0, 0, 0]),
            ("empirical", [-1, 2]),
            ("exp", [1.0]),
            ("kde", [1.0]),
            ("binomial", [3]),
            ("betabin", [3, 12]),
            ("discrete_uniform", [4, 1]),
        ],
    )
    def test_invalid_pmf_parameters(self, family, params):
        with pytest.raises(InvalidParameterError):
            make_pmf(family, params)

    def test_beta_binomial_overflow_is_an_error(self):
        # alpha + beta overflows a float; alpha alone does not.
        with pytest.raises(OutOfRangeError, match="overflows a float"):
            make_pmf("beta_binomial", [3, 1e308, 1e308])
        pmf = make_pmf("beta_binomial", [3, 1e308, 1.0])
        assert pmf.probs[3] == 1.0 and abs(pmf.probs[2] - 3e-308) <= 1e-12 * 3e-308

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidParameterError):
            FinitePMF((0, 1), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [math.inf, 0.0]])
    def test_non_finite_probabilities_rejected(self, probs):
        with pytest.raises(InvalidParameterError):
            FinitePMF((0, 1), probs)
