"""Mean-variance selection among candidate distributions.

Given a reference law f (the data stand-in) and candidates g, each
candidate carries its divergence K(f:g) and dispersion VarK(f:g).  With
an acceptance threshold r, candidates standardize as (r - K) / sqrt(VarK)
and the larger score is preferred; the automatic variant sets
r = 2 * min(K) so the pairwise rule becomes

    K_2 < (2 - sqrt(VarK_2 / VarK_1)) * K_1      (candidate 2 preferred)

after relabeling so K_1 <= K_2.  An exact match (VarK = 0) scores +inf.
Scores compare exactly: equal ones go to the lower K, then the lower
VarK, and an exact tie to the first candidate; the automatic rule reads
its criterion's sign unless the pair has an exact match.  A nan K or
VarK, or a VarK < 0, raises.  Multi-candidate ranking canonicalizes
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

from .errors import (
    InvalidParameterError,
    NoValidCandidatesError,
    ThresholdViolationError,
    finite_positive,
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


def _evaluate(candidates, f) -> list[Candidate]:
    """Attach K and VarK against the reference f to (label, law) pairs.

    All candidates share one :func:`~varidx.measures.info_moments` call,
    so a continuous f takes at most one quadrature for all of them.
    """
    records = info_moments(f, [dist for _, dist in candidates])
    return [
        Candidate(label, dist, record.K, record.VarK)
        for (label, dist), record in zip(candidates, records)
    ]


def evaluate_candidate(label: str, dist, f) -> Candidate:
    """Attach K and VarK against the reference f to a candidate law."""
    return _evaluate([(label, dist)], f)[0]


def _score(c: Candidate, r: float) -> float:
    """(r - K) / sqrt(VarK), and +inf for an exact match (VarK = 0)."""
    v = c.VarK.value
    return (r - c.K.value) / math.sqrt(v) if v else math.inf


def _decide(c1: Candidate, c2: Candidate, r: float):
    """(winner, decision) of the score rule at threshold r: the higher
    score, then the lower K, then the lower VarK, and c1 on an exact tie."""
    winner = min((c1, c2), key=lambda c: (-_score(c, r), c.K.value, c.VarK.value))
    exact = c1.VarK.value == 0.0 or c2.VarK.value == 0.0
    decision = PairwiseDecision(
        c1.label, c2.label, r, _score(c1, r), _score(c2, r), winner.label, None, exact
    )
    return winner, decision


def _check(c: Candidate):
    """InvalidParameterError unless c's K is a number and its VarK >= 0."""
    if math.isnan(c.K.value) or not c.VarK.value >= 0.0:
        raise InvalidParameterError(
            f"candidate '{c.label}' needs a K that is a number and a VarK >= 0, "
            f"got K = {c.K.value:g} and VarK = {c.VarK.value:g}"
        )


def prefer_with_threshold(c1: Candidate, c2: Candidate, r: float):
    """Pairwise rule with caller-chosen threshold r.

    Returns ``(winner, decision)``.  Candidates whose K reaches r are
    unacceptable and raise.  The higher score (r - K) / sqrt(VarK) wins;
    a candidate with VarK = 0 is an exact match for the reference and
    scores +inf (flagged on the decision).  Equal scores go to the lower
    K, then to the lower VarK, and an exact tie to c1.
    """
    r = finite_positive("threshold r", r)
    for c in (c1, c2):
        _check(c)
        if not c.K.value < r:
            raise ThresholdViolationError(
                f"candidate '{c.label}' has K = {c.K.value:g} >= r = {r:g}"
            )
    return _decide(c1, c2, r)


def prefer_auto(c1: Candidate, c2: Candidate):
    """Pairwise rule with the automatic threshold r = 2 * min(K).

    Returns ``(winner, decision)``; ``decision.criterion_value`` is the
    signed quantity K_b - (2 - sqrt(V_b / V_a)) * K_a after relabeling
    so K_a <= K_b, negative when the higher-K candidate wins, and a zero
    goes to the lower-K candidate.  The coefficient may go negative
    (V_b > 4 V_a): the inequality is then unsatisfiable for positive K_b
    and the lower-K candidate wins, with no special casing.  A pair with
    an exact match (a VarK of 0) has no criterion and is decided by the
    scores at r, as :func:`prefer_with_threshold` orders them.
    """
    for c in (c1, c2):
        _check(c)
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
        return _decide(a, b, r)
    coeff = 2.0 - math.sqrt(b.VarK.value / a.VarK.value)
    crit = b.K.value - coeff * a.K.value
    winner = b if crit < 0.0 else a
    decision = PairwiseDecision(
        a.label, b.label, r, _score(a, r), _score(b, r), winner.label, crit
    )
    return winner, decision


def rank(f, candidates) -> SelectionReport:
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
    for cand in _evaluate(candidates, f):
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
