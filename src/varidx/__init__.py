"""Dispersion indices of uncertainty measures.

Computes the inaccuracy (cross entropy) and Kullback-Leibler divergence
between probability laws together with their dispersion indices (the
variances of the underlying information random variables), Chebyshev
lower bounds for the inaccuracy dispersion, maximum-likelihood fitting
of candidate families, and a mean-variance rule for choosing among
candidates.  See the README for the CLI.
"""

from .bounds import BoundResult, chebyshev_bound, exp_pair_bound, uniform_power_bound
from .distributions import (
    Density,
    Exponential,
    FinitePMF,
    KernelDensity,
    LogKernelDensity,
    Lognormal,
    Power,
    Pushforward,
    SampleData,
    Uniform,
    Weibull2,
    inverse_pdf,
    make_distribution,
    make_pmf,
    push_forward,
    sample,
)
from .estimation import (
    FitResult,
    fit_binomial_p,
    fit_lognormal_mle,
    fit_weibull_mle,
    kde,
    silverman_bandwidth,
)
from .measures import (
    InfoMoments,
    MeasureValue,
    entropy,
    entropy_pmf,
    inaccuracy,
    inaccuracy_pmf,
    info_moments,
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
from .quadrature import IntegralResult, expectations, integrate
from .selection import (
    Candidate,
    PairwiseDecision,
    SelectionReport,
    evaluate_candidate,
    prefer_auto,
    prefer_with_threshold,
    rank,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "Candidate",
    "Density",
    "Exponential",
    "FinitePMF",
    "FitResult",
    "InfoMoments",
    "IntegralResult",
    "KernelDensity",
    "LogKernelDensity",
    "Lognormal",
    "MeasureValue",
    "PairwiseDecision",
    "Power",
    "Pushforward",
    "SampleData",
    "SelectionReport",
    "Uniform",
    "Weibull2",
    "chebyshev_bound",
    "entropy",
    "entropy_pmf",
    "evaluate_candidate",
    "exp_pair_bound",
    "expectations",
    "fit_binomial_p",
    "fit_lognormal_mle",
    "fit_weibull_mle",
    "inaccuracy",
    "inaccuracy_pmf",
    "info_moments",
    "integrate",
    "inverse_pdf",
    "kde",
    "kl",
    "kl_pmf",
    "log_log_cov",
    "log_log_cov_pmf",
    "make_distribution",
    "make_pmf",
    "prefer_auto",
    "prefer_with_threshold",
    "push_forward",
    "rank",
    "sample",
    "silverman_bandwidth",
    "uniform_power_bound",
    "var_kl",
    "var_kl_pmf",
    "varentropy",
    "varentropy_pmf",
    "varinaccuracy",
    "varinaccuracy_pmf",
]
