"""Mean-variance selection among candidate distributions.

Given a reference law f (the data stand-in) and candidates g, each
candidate carries its divergence K(f:g) and dispersion VarK(f:g).  With
an acceptance threshold r, candidates standardize as (r - K) / sqrt(VarK)
and the larger score is preferred; the automatic variant sets
r = 2 * min(K) so the pairwise rule becomes

    K_2 < (2 - sqrt(VarK_2 / VarK_1)) * K_1      (candidate 2 preferred)

after relabeling so K_1 <= K_2.  Multi-candidate ranking canonicalizes
by ascending K and runs a sequential champion tournament, logging every
pairwise decision; the rule itself is pairwise only.

All candidates of one `rank` are evaluated by a single
:func:`~varidx.measures.info_moments` call, so they share one
quadrature against a continuous f: a KDE reference is evaluated once
per node, not once per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import quadrature
from .distributions import Density, FinitePMF
from .errors import (
    InvalidParameterError,
    NoValidCandidatesError,
    ThresholdViolationError,
)
from .measures import MeasureValue, info_moments

# Not called here; bench/tracing.py wraps these names on this module.
from .measures import kl, kl_pmf, var_kl, var_kl_pmf  # noqa: F401

__all__ = [
    "Candidate",
    "PairwiseDecision",
    "SelectionReport",
    "evaluate_candidate",
    "prefer_with_threshold",
    "prefer_auto",
    "rank",
]

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class Candidate:
    """A labeled candidate law with its divergence measures against f."""

    label: str
    dist: object
    K: MeasureValue
    VarK: MeasureValue


@dataclass(frozen=True)
class PairwiseDecision:
    """Log record of one application of the pairwise rule.

    ``first``/``second`` follow the canonical orientation (first has the
    lower K); ``criterion_value`` is filled by the automatic rule, with
    a negative value meaning the higher-K candidate won.
    """

    first: str
    second: str
    r: float
    score_first: float
    score_second: float
    winner: str
    criterion_value: float | None = None
    exact_match: bool = False


@dataclass
class SelectionReport:
    """Ranking (best first), full pairwise decision log, disqualifications."""

    ranking: list[Candidate]
    decisions: list[PairwiseDecision]
    disqualified: list[tuple[Candidate, str]] = field(default_factory=list)


def _evaluate(candidates, f, tol: float) -> list[Candidate]:
    """Attach K and VarK against the reference f to (label, law) pairs.

    All candidates share one :func:`~varidx.measures.info_moments` call,
    so a continuous f takes at most one quadrature for all of them.
    """
    discrete = isinstance(f, FinitePMF)
    for label, dist in candidates:
        if not isinstance(dist, FinitePMF if discrete else Density):
            kinds = ("continuous", "discrete")[:: 1 if discrete else -1]
            raise InvalidParameterError(
                f"candidate '{label}' is {kinds[0]} but the reference is {kinds[1]}"
            )
    records = info_moments(f, [dist for _, dist in candidates], tol=tol)
    return [
        Candidate(label, dist, record.K, record.VarK)
        for (label, dist), record in zip(candidates, records)
    ]


def evaluate_candidate(label: str, dist, f, tol: float = quadrature.DEFAULT_TOL) -> Candidate:
    """Attach K and VarK against the reference f to a candidate law."""
    return _evaluate([(label, dist)], f, tol)[0]


def _exact_match_decision(c1: Candidate, c2: Candidate, r: float):
    """Resolve pairs where a zero VarK marks an exact match with f."""
    z1 = c1.VarK.value == 0.0
    z2 = c2.VarK.value == 0.0
    if z1 and z2:
        if abs(c1.K.value - c2.K.value) < _TIE_EPS:
            winner = c1
        else:
            winner = c1 if c1.K.value < c2.K.value else c2
    else:
        winner = c1 if z1 else c2
    s1 = math.inf if z1 else _score(c1, r)
    s2 = math.inf if z2 else _score(c2, r)
    decision = PairwiseDecision(
        c1.label, c2.label, r, s1, s2, winner.label, None, exact_match=True
    )
    return winner, decision


def _score(c: Candidate, r: float) -> float:
    return (r - c.K.value) / math.sqrt(c.VarK.value)


def prefer_with_threshold(c1: Candidate, c2: Candidate, r: float):
    """Pairwise rule with caller-chosen threshold r.

    Returns ``(winner, decision)``.  Candidates whose K reaches r are
    unacceptable and raise; a candidate with VarK = 0 is an exact match
    for the reference and trivially wins (flagged on the decision).
    """
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise InvalidParameterError(f"threshold r must be finite and > 0, got {r}")
    for c in (c1, c2):
        if not c.K.value < r:
            raise ThresholdViolationError(
                f"candidate '{c.label}' has K = {c.K.value:g} >= r = {r:g}"
            )
    if c1.VarK.value == 0.0 or c2.VarK.value == 0.0:
        return _exact_match_decision(c1, c2, r)
    s1 = _score(c1, r)
    s2 = _score(c2, r)
    if abs(s1 - s2) < _TIE_EPS:
        if abs(c1.K.value - c2.K.value) >= _TIE_EPS:
            winner = c1 if c1.K.value < c2.K.value else c2
        elif abs(c1.VarK.value - c2.VarK.value) >= _TIE_EPS:
            winner = c1 if c1.VarK.value < c2.VarK.value else c2
        else:
            winner = c1
    else:
        winner = c1 if s1 > s2 else c2
    decision = PairwiseDecision(c1.label, c2.label, r, s1, s2, winner.label)
    return winner, decision


def prefer_auto(c1: Candidate, c2: Candidate):
    """Pairwise rule with the automatic threshold r = 2 * min(K).

    Returns ``(winner, decision)``; ``decision.criterion_value`` is the
    signed quantity K_b - (2 - sqrt(V_b / V_a)) * K_a after relabeling
    so K_a <= K_b, negative when the higher-K candidate wins.  The
    coefficient may go negative (V_b > 4 V_a): the inequality is then
    unsatisfiable for positive K_b and the lower-K candidate wins, with
    no special casing.
    """
    for c in (c1, c2):
        if math.isinf(c.K.value):
            raise InvalidParameterError(
                f"candidate '{c.label}' has infinite divergence"
            )
        if math.isinf(c.VarK.value):
            raise InvalidParameterError(
                f"candidate '{c.label}' has infinite dispersion"
            )
    a, b = (c1, c2) if c1.K.value <= c2.K.value else (c2, c1)
    r = 2.0 * a.K.value
    if a.VarK.value == 0.0 or b.VarK.value == 0.0:
        return _exact_match_decision(a, b, r)
    coeff = 2.0 - math.sqrt(b.VarK.value / a.VarK.value)
    crit = b.K.value - coeff * a.K.value
    winner = b if crit < 0.0 else a
    decision = PairwiseDecision(
        a.label, b.label, r, _score(a, r), _score(b, r), winner.label, crit
    )
    return winner, decision


def rank(f, candidates, tol: float = quadrature.DEFAULT_TOL) -> SelectionReport:
    """Rank candidate laws against the reference f.

    ``candidates`` is a sequence of (label, Density-or-FinitePMF) pairs.
    Candidates with infinite K (or VarK) are disqualified.  The rest are
    sorted by ascending K and compared champion-against-next with the
    automatic rule; the report lists the champion first, the remaining
    candidates in canonical ascending-K order, and every decision taken.
    """
    candidates = list(candidates)
    seen = set()
    for label, _ in candidates:
        if label in seen:
            raise InvalidParameterError(f"duplicate candidate label '{label}'")
        seen.add(label)
    evaluated: list[Candidate] = []
    disqualified: list[tuple[Candidate, str]] = []
    for cand in _evaluate(candidates, f, tol):
        if math.isinf(cand.K.value):
            disqualified.append((cand, "infinite divergence"))
        elif math.isinf(cand.VarK.value):
            disqualified.append((cand, "infinite dispersion"))
        else:
            evaluated.append(cand)
    if not evaluated:
        raise NoValidCandidatesError("no candidate has finite measures")

    order = sorted(evaluated, key=lambda c: (c.K.value, c.VarK.value, c.label))
    champion = order[0]
    decisions: list[PairwiseDecision] = []
    for challenger in order[1:]:
        champion, decision = prefer_auto(champion, challenger)
        decisions.append(decision)
    ranking = [champion] + [c for c in order if c is not champion]
    return SelectionReport(ranking, decisions, disqualified)
