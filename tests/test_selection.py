"""Mean-variance selection rule."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varidx import datasets
from varidx.distributions import FinitePMF, Lognormal, SampleData, Uniform, Weibull2, make_pmf
from varidx.estimation import fit_lognormal_mle, fit_weibull_mle, kde
from varidx.errors import (
    InvalidParameterError,
    NoValidCandidatesError,
    ThresholdViolationError,
)
from varidx.measures import MeasureValue, info_moments
from varidx.selection import (
    Candidate,
    evaluate_candidate,
    prefer_auto,
    prefer_with_threshold,
    rank,
)


def cand(label, k, v):
    return Candidate(
        label, None, MeasureValue(k, "summation"), MeasureValue(v, "summation")
    )


class TestPreferWithThreshold:
    def test_equal_divergence_prefers_lower_dispersion(self):
        w, d = prefer_with_threshold(cand("a", 0.05, 0.3), cand("b", 0.05, 0.2), 0.2)
        assert w.label == "b"
        assert d.score_second > d.score_first

    def test_equal_dispersion_prefers_lower_divergence(self):
        w, _ = prefer_with_threshold(cand("a", 0.04, 0.2), cand("b", 0.05, 0.2), 0.2)
        assert w.label == "a"

    def test_dominating_candidate_wins_for_any_threshold(self):
        for r in [0.06, 0.1, 1.0, 10.0]:
            w, _ = prefer_with_threshold(
                cand("a", 0.04, 0.1), cand("b", 0.05, 0.2), r
            )
            assert w.label == "a"

    def test_threshold_violation(self):
        with pytest.raises(ThresholdViolationError):
            prefer_with_threshold(cand("a", 0.3, 0.1), cand("b", 0.05, 0.1), 0.2)
        with pytest.raises(ThresholdViolationError):
            prefer_with_threshold(cand("a", 0.1, 0.1), cand("b", math.inf, 0.1), 0.2)

    def test_zero_dispersion_wins_with_exact_flag(self):
        w, d = prefer_with_threshold(cand("self", 0.0, 0.0), cand("b", 0.01, 0.1), 0.2)
        assert w.label == "self"
        assert d.exact_match
        assert d.score_first == math.inf

    def test_both_zero_dispersion_breaks_by_divergence(self):
        w, d = prefer_with_threshold(
            cand("a", 0.02, 0.0), cand("b", 0.01, 0.0), 0.2
        )
        assert w.label == "b"
        assert d.exact_match

    def test_tie_breaks_toward_first(self):
        w, _ = prefer_with_threshold(cand("a", 0.05, 0.2), cand("b", 0.05, 0.2), 0.2)
        assert w.label == "a"

    def test_invalid_threshold(self):
        with pytest.raises(InvalidParameterError):
            prefer_with_threshold(cand("a", 0.01, 0.1), cand("b", 0.01, 0.1), 0.0)

    def test_near_tie_goes_to_the_lower_dispersion_in_either_order(self):
        a, b = cand("a", 0.05, 0.2), cand("b", 0.05, 0.2 + 1e-13)
        for pair in ((a, b), (b, a)):
            w, d = prefer_with_threshold(*pair, 0.2)
            assert w.label == "a" and not d.exact_match

    def test_exact_matches_with_equal_divergence_tie_toward_first(self):
        for first, second in (("a", "b"), ("b", "a")):
            w, d = prefer_with_threshold(
                cand(first, 0.01, 0.0), cand(second, 0.01, 0.0), 0.2
            )
            assert w.label == first and d.score_first == d.score_second == math.inf


@pytest.mark.parametrize(
    "decide",
    [lambda c1, c2: prefer_with_threshold(c1, c2, 0.2), prefer_auto],
    ids=["threshold", "auto"],
)
@pytest.mark.parametrize(
    "k, v",
    [
        (math.nan, 0.1),
        (0.01, math.nan),
        (0.01, -1e-3),
        (-math.inf, 0.1),
        (-0.5, 0.1),
        (0.01, math.inf),
    ],
    ids=["nan-K", "nan-VarK", "negative-VarK", "minus-inf-K", "negative-K", "inf-VarK"],
)
def test_hostile_candidate_rejected(decide, k, v):
    good = cand("b", 0.02, 0.1)
    for pair in ((cand("a", k, v), good), (good, cand("a", k, v))):
        with pytest.raises(InvalidParameterError, match="candidate 'a'"):
            decide(*pair)


class TestPreferAuto:
    def test_crab_summary_numbers(self):
        # Published summary: the lognormal candidate wins on a small
        # negative criterion value despite its larger divergence.
        w, d = prefer_auto(cand("weibull", 0.0381, 0.1148), cand("logn", 0.0420, 0.0924))
        assert w.label == "logn"
        assert d.criterion_value < 0.0

    def test_equal_divergence_summary_numbers(self):
        w, d = prefer_auto(cand("g1", 0.0990, 0.3350), cand("g2", 0.0990, 0.2936))
        assert w.label == "g2"
        assert d.criterion_value < 0.0

    def test_relabels_to_lower_divergence_first(self):
        _, d = prefer_auto(cand("high", 0.08, 0.2), cand("low", 0.02, 0.2))
        assert d.first == "low"
        assert d.r == 2.0 * 0.02

    def test_dominance_monotonicity(self):
        w, _ = prefer_auto(cand("a", 0.03, 0.1), cand("b", 0.05, 0.2))
        assert w.label == "a"
        w, _ = prefer_auto(cand("a", 0.03, 0.2), cand("b", 0.05, 0.2))
        assert w.label == "a"
        w, _ = prefer_auto(cand("a", 0.03, 0.1), cand("b", 0.03, 0.2))
        assert w.label == "a"

    def test_negative_coefficient_case(self):
        # dispersion ratio beyond 4 makes the criterion unsatisfiable.
        w, d = prefer_auto(cand("a", 0.04, 0.01), cand("b", 0.05, 0.1))
        assert w.label == "a"
        assert d.criterion_value > 0.0

    def test_infinite_measures_rejected(self):
        with pytest.raises(InvalidParameterError):
            prefer_auto(cand("a", math.inf, 0.1), cand("b", 0.05, 0.1))
        with pytest.raises(InvalidParameterError):
            prefer_auto(cand("a", 0.01, math.inf), cand("b", 0.05, 0.1))

    def test_agreement_with_threshold_rule(self):
        """With r = 2 min(K), both formulations pick the same winner."""
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            k1 = rng.uniform(0.01, 1.0)
            k2 = rng.uniform(0.01, 1.0)
            if k2 < k1:
                k1, k2 = k2, k1
            # keep the pair admissible for the threshold form (K < r)
            k2 = min(k2, 2.0 * k1 * 0.999)
            v1 = rng.uniform(0.001, 2.0)
            v2 = rng.uniform(0.001, 2.0)
            c1, c2 = cand("a", k1, v1), cand("b", k2, v2)
            w_auto, _ = prefer_auto(c1, c2)
            w_thr, _ = prefer_with_threshold(c1, c2, 2.0 * k1)
            assert w_auto.label == w_thr.label, (k1, k2, v1, v2)

    @given(
        k1=st.floats(min_value=0.01, max_value=1.0),
        dk=st.floats(min_value=0.0, max_value=0.9),
        v1=st.floats(min_value=1e-3, max_value=2.0),
        v2=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_winner_has_weakly_better_standardized_score(self, k1, dk, v1, v2):
        k2 = k1 * (1.0 + dk)
        r = 2.0 * k1
        c1, c2 = cand("a", k1, v1), cand("b", k2, v2)
        w, d = prefer_auto(c1, c2)
        scores = {"a": d.score_first, "b": d.score_second}
        loser = "b" if w.label == "a" else "a"
        assert scores[w.label] >= scores[loser] - 1e-9


class TestRank:
    def setup_method(self):
        self.emp = make_pmf("empirical", [20, 63, 84, 33])
        self.cands = [
            ("binomial", make_pmf("binomial", [3, 0.55])),
            ("betabin", make_pmf("beta_binomial", [3, 12, 10])),
            ("dunif", make_pmf("discrete_uniform", [4])),
        ]

    def test_reference_ranking(self):
        report = rank(self.emp, self.cands)
        assert [c.label for c in report.ranking] == ["binomial", "betabin", "dunif"]
        assert len(report.decisions) == 2
        assert all(d.winner == "binomial" for d in report.decisions)

    def test_pairwise_conclusions(self):
        by_label = {
            label: evaluate_candidate(label, dist, self.emp)
            for label, dist in self.cands
        }
        w, _ = prefer_auto(by_label["binomial"], by_label["betabin"])
        assert w.label == "binomial"
        w, _ = prefer_auto(by_label["binomial"], by_label["dunif"])
        assert w.label == "binomial"
        w, _ = prefer_auto(by_label["betabin"], by_label["dunif"])
        assert w.label == "betabin"

    def test_single_candidate(self):
        report = rank(self.emp, self.cands[:1])
        assert [c.label for c in report.ranking] == ["binomial"]
        assert report.decisions == []

    def test_identical_candidate_wins_with_exact_flag(self):
        report = rank(self.emp, self.cands + [("self", self.emp)])
        assert report.ranking[0].label == "self"
        assert report.ranking[0].K.value == 0.0
        assert any(d.exact_match for d in report.decisions)

    def test_order_invariance(self):
        expected = [c.label for c in rank(self.emp, self.cands).ranking]
        for perm in itertools.permutations(self.cands):
            got = [c.label for c in rank(self.emp, list(perm)).ranking]
            assert got == expected

    def test_infinite_divergence_disqualified(self):
        zeroed = FinitePMF((0, 1, 2, 3), np.array([0.0, 0.4, 0.4, 0.2]))
        report = rank(self.emp, self.cands + [("zeroed", zeroed)])
        assert [c.label for c, _ in report.disqualified] == ["zeroed"]
        assert report.disqualified[0][1] == "infinite divergence"
        labels = [c.label for c in report.ranking]
        assert "zeroed" not in labels and len(labels) == 3

    def test_every_candidate_appears_exactly_once(self):
        zeroed = FinitePMF((0, 1, 2, 3), np.array([0.0, 0.4, 0.4, 0.2]))
        report = rank(self.emp, self.cands + [("zeroed", zeroed)])
        seen = [c.label for c in report.ranking] + [
            c.label for c, _ in report.disqualified
        ]
        assert sorted(seen) == sorted(
            [label for label, _ in self.cands] + ["zeroed"]
        )

    def test_no_valid_candidates(self):
        zeroed = FinitePMF((0, 1, 2, 3), np.array([0.0, 0.4, 0.4, 0.2]))
        with pytest.raises(NoValidCandidatesError):
            rank(self.emp, [("zeroed", zeroed)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidParameterError):
            rank(self.emp, [self.cands[0], self.cands[0]])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidParameterError):
            rank(self.emp, [("w", Weibull2(1.5, 0.1))])


class TestSharedQuadrature:
    def setup_method(self):
        data = SampleData(datasets.load("murthy41"))
        self.f = kde(data)
        fit = fit_weibull_mle(data)
        self.candidates = [
            ("w2", Weibull2(*fit.params)),
            ("lognormal", Lognormal(*fit_lognormal_mle(data).params)),
            ("u", Uniform(0.0, 50.0)),
        ]

    def test_one_quadrature_for_all_candidates(self, quadratures):
        report = rank(self.f, self.candidates)
        assert len(quadratures) == 1
        assert [(c.label, reason) for c, reason in report.disqualified] == [
            ("u", "infinite divergence")
        ]
        # A divergent candidate alone costs only f's own rows.
        evaluate_candidate("u", Uniform(0.0, 50.0), self.f)
        assert len(quadratures) == 2 and quadratures[1].integrand(np.array([3.0])).shape == (3, 1)

    def test_shared_record_matches_each_pair(self):
        report = rank(self.f, self.candidates)
        for cand in report.ranking:
            own = info_moments(self.f, cand.dist)
            for name in ("K", "VarK"):
                shared, alone = getattr(cand, name), getattr(own, name)
                bound = shared.abs_error_estimate + alone.abs_error_estimate
                assert abs(shared.value - alone.value) <= bound, (cand.label, name)
