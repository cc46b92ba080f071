"""Lottery extensions: how a voter with a strict ranking compares two
lotteries.

Three comparators are provided:

* PC  — pairwise comparison. The score of p against q is the probability
  that p yields the strictly better outcome minus the probability that q
  does; its sign decides the comparison. Complete, but not transitive.
* PC1 — the degenerate-restricted variant: two lotteries are comparable
  only when at least one of them is degenerate, in which case the PC
  comparison applies, or when they are equal (indifferent). Everything
  else is incomparable.
* SD  — stochastic dominance via prefix sums along the voter's ranking.
  Transitive, but incomplete.

PC and SD walk the ranking's rank order by index (`Ranking.indices`)
through the lotteries' masses, and look no label up.

Profile-level dominance (`dominates`) means: every voter weakly prefers
the challenger and at least one strictly prefers it (`is_dominance`).
`dominates_under` takes an explicit comparator, which lets callers swap in
a deliberately broken one to prove their checks can fail: the fact suite's
PC sign flip compares the two lotteries the wrong way round, which is
exactly a negated PC score, since pc_score(r, p, q) == -pc_score(r, q, p).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .model import DomainError, Lottery, Profile, Ranking


class Extension(Enum):
    PC = "pc"
    PC1 = "pc1"
    SD = "sd"


class ComparisonOutcome(Enum):
    StrictlyPreferred = "strictly-preferred"
    Indifferent = "indifferent"
    StrictlyDispreferred = "strictly-dispreferred"
    Incomparable = "incomparable"


Comparator = Callable[[Ranking, Lottery, Lottery], ComparisonOutcome]


def _check_arena(ranking: Ranking, p: Lottery, q: Lottery) -> None:
    if p.alternatives != ranking.alternatives or q.alternatives != ranking.alternatives:
        raise DomainError("ranking and both lotteries must share one alternative set")


def _pc_form(ranking: Ranking, p: Lottery) -> tuple[list[int], int]:
    """The voter's PC weights against p as integers over a common
    denominator: p's mass below x minus p's mass above x, for every x,
    from one prefix sum along the ranking."""
    mass, den = p._mass
    weights = [0] * len(mass)
    above = 0
    for i in ranking.indices:
        # p sums to one, so its mass below x is den - above - mass[i]
        weights[i] = den - mass[i] - 2 * above
        above += mass[i]
    return weights, den


def pc_form(ranking: Ranking, p: Lottery) -> tuple[list[int], int]:
    """`pc_weights(ranking, p)` as ints over p's denominator, and that
    denominator."""
    if p.alternatives != ranking.alternatives:
        raise DomainError("ranking and lottery must share one alternative set")
    return _pc_form(ranking, p)


def pc_weights(ranking: Ranking, p: Lottery) -> tuple[Fraction, ...]:
    """The voter's PC form against p: coefficients w, in alternative order,
    with w · q = pc_score(ranking, q, p) for every lottery q."""
    weights, den = pc_form(ranking, p)
    return tuple(Fraction(w, den) for w in weights)


def sd_form(ranking: Ranking, p: Lottery) -> tuple[list[int], int]:
    """p's mass on each proper prefix of the ranking (its top alternative,
    its top two, ...) as ints over p's denominator, and that denominator:
    q SD-dominates-or-equals p for this voter iff q puts at least that much
    on every prefix."""
    if p.alternatives != ranking.alternatives:
        raise DomainError("ranking and lottery must share one alternative set")
    mass, den = p._mass
    return list(accumulate(map(mass.__getitem__, ranking.indices[:-1]))), den


def pc_score(ranking: Ranking, p: Lottery, q: Lottery) -> Fraction:
    """Net probability that an independent draw from p beats one from q:
    pc_weights(ranking, q) · p, in integers until the one division.

    Positive means the voter leans toward p, zero means indifference;
    the sign carries the whole PC comparison.
    """
    _check_arena(ranking, p, q)
    weights, den = _pc_form(ranking, q)
    mass, p_den = p._mass
    return Fraction(sum(w * x for w, x in zip(weights, mass)), den * p_den)


def outcome_from_score(score: Fraction) -> ComparisonOutcome:
    if score > 0:
        return ComparisonOutcome.StrictlyPreferred
    if score < 0:
        return ComparisonOutcome.StrictlyDispreferred
    return ComparisonOutcome.Indifferent


def pc_compare(ranking: Ranking, p: Lottery, q: Lottery) -> ComparisonOutcome:
    return outcome_from_score(pc_score(ranking, p, q))


def pc1_compare(ranking: Ranking, p: Lottery, q: Lottery) -> ComparisonOutcome:
    """PC, but only when at least one of the two lotteries is degenerate;
    otherwise equal lotteries are indifferent, and the rest incomparable."""
    _check_arena(ranking, p, q)
    if not p.is_degenerate() and not q.is_degenerate():
        return ComparisonOutcome.Indifferent if p == q else ComparisonOutcome.Incomparable
    return pc_compare(ranking, p, q)


def sd_compare(ranking: Ranking, p: Lottery, q: Lottery) -> ComparisonOutcome:
    """Stochastic dominance: compare prefix sums along the voter's ranking,
    in integers over the two lotteries' common denominators."""
    _check_arena(ranking, p, q)
    p_mass, p_den = p._mass
    q_mass, q_den = q._mass
    p_ge_q = True   # p weakly dominates q
    q_ge_p = True
    acc = 0  # (p's prefix sum - q's prefix sum) * p_den * q_den
    for i in ranking.indices[:-1]:
        acc += p_mass[i] * q_den - q_mass[i] * p_den
        if acc < 0:
            p_ge_q = False
        elif acc > 0:
            q_ge_p = False
    if p_ge_q and q_ge_p:
        return ComparisonOutcome.Indifferent
    if p_ge_q:
        return ComparisonOutcome.StrictlyPreferred
    if q_ge_p:
        return ComparisonOutcome.StrictlyDispreferred
    return ComparisonOutcome.Incomparable


def comparator(extension: Extension) -> Comparator:
    # by identity: a table keyed by the members would hash each one with a
    # Python-level `Enum.__hash__` call, once per comparison
    if extension is Extension.PC:
        return pc_compare
    if extension is Extension.SD:
        return sd_compare
    if extension is Extension.PC1:
        return pc1_compare
    raise DomainError(f"unknown extension {extension!r}")


def compare(extension: Extension, ranking: Ranking, p: Lottery, q: Lottery) -> ComparisonOutcome:
    """Outcome of p measured against q under the given extension."""
    return comparator(extension)(ranking, p, q)


def weakly_prefers(outcome: ComparisonOutcome) -> bool:
    return outcome in (ComparisonOutcome.StrictlyPreferred, ComparisonOutcome.Indifferent)


def is_dominance(outcomes: Sequence[ComparisonOutcome]) -> bool:
    """All voters weakly prefer the challenger, at least one strictly."""
    return all(weakly_prefers(o) for o in outcomes) and any(
        o is ComparisonOutcome.StrictlyPreferred for o in outcomes
    )


def dominates_under(profile: Profile, compare_fn: Comparator, q: Lottery, p: Lottery) -> bool:
    """q dominates p: all voters weakly prefer q, at least one strictly.
    Judged on one outcome per run, since every voter of a run agrees."""
    return is_dominance([compare_fn(ballot, q, p) for ballot, _ in profile.runs])


def dominates(profile: Profile, extension: Extension, q: Lottery, p: Lottery) -> bool:
    return dominates_under(profile, comparator(extension), q, p)
