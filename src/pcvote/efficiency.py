"""Dominance oracles and efficiency notions.

A lottery p is inefficient (under a given extension) when some lottery q
makes every voter weakly better off and at least one strictly better off.
For PC and SD that existence question is a small exact linear program,
one block of rows per ranking and one objective, each ranking's weight
times its block's column sums, built only when no certificate settles it
first: under SD a lottery whose support is first-ranked alternatives is
efficient, and under PC (and SD, with a condition on p's zeros) so is one
the margins beat or tie; for PC1 it reduces to a finite case split
because two non-degenerate lotteries are never PC1-comparable; ex-post
efficiency just reads the Pareto-dominated set. The module also provides
a calibrated mass-shift perturbation whose comparison against the
original lottery is fully determined by ranking shape, a sufficient
certificate for PC-efficiency with three alternatives, and an iterator
that follows chains of dominating lotteries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    ApplicabilityError,
    DomainError,
    InternalError,
    Lottery,
    Profile,
    Ranking,
    _require_exact,
    never_bottom_set,
    pareto_dominated_set,
    top_counts,
)
from .extensions import (
    ComparisonOutcome,
    Extension,
    comparator,
    dominates,
    is_dominance,
    pc_form,
    sd_form,
)
from .ratlp import IntRowProgram, LpStatus, Rational, lp_solve, require_rational


class EfficiencyNotion(Enum):
    PC = "pc"
    PC1 = "pc1"
    SD = "sd"
    ExPost = "expost"


@dataclass(frozen=True)
class DominanceCertificate:
    """A verified witness that `dominator` dominates `dominated`: every
    ranking in the profile, in `all_rankings` order, with its voter count
    and how such a voter compares the dominator against the dominated."""

    extension: Extension
    dominated: Lottery
    dominator: Lottery
    outcomes: tuple[tuple[Ranking, int, ComparisonOutcome], ...]


class PathTermination(Enum):
    ReachedEfficient = "reached-efficient"
    MaxSteps = "max-steps"
    CycleDetected = "cycle-detected"


@dataclass(frozen=True)
class ImprovementPath:
    profile: Profile
    lotteries: tuple[Lottery, ...]
    steps: tuple[str, ...]
    termination: PathTermination


def _certificate(
    profile: Profile, extension: Extension, p: Lottery, q: Lottery
) -> DominanceCertificate:
    compare_fn = comparator(extension)
    outcomes = tuple(
        (ballot, voters, compare_fn(ballot, q, p)) for ballot, voters in profile._ranking_totals
    )
    if not is_dominance([outcome for _, _, outcome in outcomes]):
        raise InternalError("dominance witness failed re-validation")
    return DominanceCertificate(extension, p, q, outcomes)


def _pc_rows(ballot: Ranking, p: Lottery) -> tuple[tuple[int, ...], ...]:
    """The voter must not PC-prefer p: pc_weights(ballot, p) · q >= 0, times
    p's denominator (`pc_form`), written as −pc_form · q <= 0. The row is
    homogeneous in q and holds with equality at p."""
    weights, _ = pc_form(ballot, p)
    return (tuple(-w for w in weights),)


def _sd_rows(ballot: Ranking, p: Lottery) -> tuple[tuple[int, ...], ...]:
    """Every proper prefix of the ballot gets at least p's mass under q,
    times p's denominator (`sd_form`): den · indicator · q >= prefix.
    Homogenized by Σq = 1, that is (prefix − den · indicator) · q <= 0,
    which holds with equality at p; on lotteries the two forms agree."""
    prefixes, den = sd_form(ballot, p)
    rows: list[tuple[int, ...]] = []
    inside = [False] * len(p.alternatives)
    for k, prefix in zip(ballot.indices, prefixes):
        inside[k] = True
        rows.append(tuple(prefix - den if i else prefix for i in inside))
    return tuple(rows)


def _efficient_without_lp(profile: Profile, mass: Sequence[int], extension: Extension) -> bool:
    """Is p certified efficient with no LP? `mass` is p's int mass over its
    denominator (`Lottery._mass`). Two clauses, the cheaper first.

    The support (SD only): a voter who weakly SD-prefers q to p has
    q(x) >= p(x) for the alternative x they rank first (the top-1 prefix).
    When every alternative p gives positive probability is ranked first by
    some voter (`Profile._top_counts`), a weak SD-dominator q therefore has
    q(x) >= p(x) on all of supp p, so q(supp p) >= p(supp p) = 1 and q = p:
    no voter is strictly better off. `rd` puts its mass on exactly the
    first-ranked alternatives, so this settles every SD call on `rd`.

    The margins: write PC_b(q, p) = qᵀ M_b p, with M_b ballot b's skew
    pairwise matrix; the margin matrix is G = Σ_b n_b M_b, so Σ_b n_b
    PC_b(q, p) = qᵀ G p, which is <= 0 for every lottery q when G p <= 0.
    A PC dominator would make every term >= 0 and one > 0, so there is
    none: the multipliers λ_b = n_b certify PC-efficiency, whatever weights
    the LP would use.

    SD by the margins: PC_b(q, p) = Σ_k c_k (Q_k − P_k), over the ballot's
    proper prefixes k, with Q_k, P_k the prefix masses of q and p and c_k =
    p(x_k) + p(x_{k+1}). An SD dominator makes every Q_k − P_k >= 0 and one
    > 0, so μ_{b,k} = n_b c_k rule it out when every c_k > 0: when no ballot
    has two adjacent alternatives that p both gives 0. Otherwise the LP
    decides. The theorem "PC-efficient implies SD-efficient" is not used:
    each verdict here rests on an argument the code checks.

    Neither notion depends on voter weights, so both clauses hold for
    weighted calls too."""
    if extension is Extension.SD:
        tops = profile._top_counts
        if all(tops[x] for x, w in enumerate(mass) if w):
            return True
    if max(profile._margins.times(mass)) > 0:
        return False
    if extension is Extension.PC:
        return True
    return not any(
        mass[a] == 0 == mass[b]
        for ballot, _ in profile._ranking_totals
        for a, b in zip(ballot.indices, ballot.indices[1:])
    )


def _dominator_lp(
    profile: Profile,
    p: Lottery,
    extension: Extension,
    weights: Optional[Sequence[Rational]] = None,
) -> Optional[Lottery]:
    """A lottery q that satisfies every ballot type's rows and maximizes
    their weighted total slack, if that total is positive; None when it is
    0, that is, when p is efficient. When p's support or G p <= 0
    certifies that (`_efficient_without_lp`), no program is built.

    Every row reads a · q <= 0, so the rows cut out a cone that holds p,
    and the program closes it with Σq <= 1. The rows are ints with rhs 0
    and the closing row has rhs 1: an `IntRowProgram`, which the simplex
    starts on its all-slack basis (q = 0), with no phase one. The
    objective, −Σ weight · a, is homogeneous and 0 at p. On a lottery q,
    −a · q is how far q clears the row's `>=` form, so a positive value
    means q dominates p. The optimum is 0 exactly when no lottery does,
    and a positive optimum lies on Σq = 1, since scaling q up would raise
    it: the vertex returned is a lottery.

    Each ranking of `Profile._ranking_totals` (`all_rankings` order,
    sorted label tuples) contributes one block of rows, and the objective
    is built one way for PC, SD and weighted calls alike: each ranking's
    weight times the column sums of its block, negated. `weights` holds one
    weight per ranking, aligned with `_ranking_totals`; None means each
    ranking's voter count. The program, and so the witness, is a function
    of the ballot multiset and those weights alone. The rows are over p's
    denominator, and so is the value: only whether it is 0 is read."""
    mass, _ = p._mass
    if _efficient_without_lp(profile, mass, extension):
        return None
    ballot_rows = _pc_rows if extension is Extension.PC else _sd_rows
    totals = profile._ranking_totals
    if weights is None:
        weights = [count for _, count in totals]
    rows: list[tuple[int, ...]] = []
    objective: list[Rational] = [0] * profile.m
    for (ballot, _), weight in zip(totals, weights):
        block = ballot_rows(ballot, p)
        rows += block
        for j, column in enumerate(zip(*block)):
            objective[j] -= weight * sum(column)
    rows.append((1,) * profile.m)
    rhs = (0,) * (len(rows) - 1) + (1,)
    outcome = lp_solve(IntRowProgram(tuple(objective), tuple(rows), rhs))
    if outcome.status is not LpStatus.Optimal or outcome.solution is None or outcome.value is None:
        raise InternalError(f"a dominator LP came out {outcome.status.name}, though q = 0 is feasible")
    if outcome.value == 0:
        return None
    return Lottery(profile.alternatives, outcome.solution)


def _ballot_weights(profile: Profile, weights: Sequence[Rational]) -> list[Rational]:
    """Each ranking's total voter weight, aligned with
    `Profile._ranking_totals`. Int and Fraction weights are summed as given."""
    weights = tuple(require_rational(w, "voter weight") for w in weights)
    if len(weights) != profile.n:
        raise DomainError(f"{len(weights)} voter weights for {profile.n} voters")
    if any(w <= 0 for w in weights):
        raise DomainError("voter weights must be strictly positive")
    totals: dict[Ranking, Rational] = {}
    start = 0
    for ballot, count in profile.runs:
        totals[ballot] = totals.get(ballot, 0) + sum(weights[start:start + count])
        start += count
    return [totals[ballot] for ballot, _ in profile._ranking_totals]


def find_dominator(
    profile: Profile,
    p: Lottery,
    extension: Extension,
    weights: Optional[Sequence[Rational]] = None,
) -> Optional[DominanceCertificate]:
    """A dominating lottery under PC or SD, as an LP witness, or None.

    A lottery certified efficient with no LP (`_efficient_without_lp`)
    gets None: under SD, one whose every outcome is some voter's first
    choice, such as `rd`'s; under PC or SD, one with G p <= 0 (for SD also
    with no two adjacent zeros of p on a ballot). Otherwise the LP
    (`_dominator_lp`) has one block of rows per ballot type, in sorted
    order. Optional strictly positive per-voter weights are summed per
    ranking (`_ballot_weights`) and tilt the objective (any choice keeps
    the oracle sound); the default is all-ones, each ranking weighted by
    its voter count. The witness is a function of the ballot multiset and
    each ranking's weight total.
    """
    if p.alternatives != profile.alternatives:
        raise DomainError("lottery must range over the profile's alternatives")
    if extension is not Extension.PC and extension is not Extension.SD:
        raise DomainError("find_dominator solves PC and SD; use pc1_find_dominator for PC1")
    totals = None if weights is None else _ballot_weights(profile, weights)
    q = _dominator_lp(profile, p, extension, totals)
    return None if q is None else _certificate(profile, extension, p, q)


def pc1_find_dominator(profile: Profile, p: Lottery) -> Optional[DominanceCertificate]:
    """A PC1-dominating lottery, or None.

    A non-degenerate lottery can only be PC1-dominated by a degenerate
    one, so trying every degenerate lottery (in alternative order) is
    exhaustive. PC1 compares a degenerate lottery e_x as PC does, and
    pc_score(ballot, e_x, p) is x's entry of `pc_form(ballot, p)` over p's
    denominator, whether or not p is degenerate. So e_x dominates p
    exactly when x's column of the distinct rankings' PC forms is >= 0 on
    every ranking and > 0 on some; only that candidate is built and
    checked with `dominates`. A degenerate p is additionally comparable
    against every lottery, so one PC dominator LP (`_dominator_lp`) covers
    the rest of that case, and its vertex is checked once, as a PC1
    witness.
    """
    if p.alternatives != profile.alternatives:
        raise DomainError("lottery must range over the profile's alternatives")
    forms = [pc_form(ballot, p)[0] for ballot, _ in profile._ranking_totals]
    for x, column in zip(profile.alternatives, zip(*forms)):
        if min(column) >= 0 and max(column) > 0:
            q = Lottery.degenerate(profile.alternatives, x)
            if not dominates(profile, Extension.PC1, q, p):
                raise InternalError("a PC1 dominator read off the PC forms failed re-validation")
            return _certificate(profile, Extension.PC1, p, q)
    if p.is_degenerate():
        q = _dominator_lp(profile, p, Extension.PC)
        if q is not None:
            return _certificate(profile, Extension.PC1, p, q)
    return None


def is_efficient(
    profile: Profile, p: Lottery, notion: EfficiencyNotion | Extension
) -> bool:
    """No lottery dominates p under the given notion."""
    if isinstance(notion, Extension):
        notion = EfficiencyNotion(notion.value)
    if notion is EfficiencyNotion.ExPost:
        if p.alternatives != profile.alternatives:
            raise DomainError("lottery must range over the profile's alternatives")
        dominated = pareto_dominated_set(profile)
        return all(p.prob(x) == 0 for x in dominated)
    if notion is EfficiencyNotion.PC1:
        return pc1_find_dominator(profile, p) is None
    return find_dominator(profile, p, Extension(notion.value)) is None


# ---------------------------------------------------------------------------
# calibrated mass shift
# ---------------------------------------------------------------------------

def mass_shift_perturbation(
    p: Lottery, roles: Sequence[str], epsilon: Fraction
) -> Lottery:
    """Shift probability mass from two donors toward a receiver.

    `roles` names (bystander, donor_a, donor_b, receiver) and must list
    all four alternatives of a four-alternative lottery. Each donor d
    loses epsilon / (p(d) + p(receiver)); the receiver gains both shares;
    the bystander keeps its probability. Both donors need positive
    probability, epsilon must be positive, and neither donor may be
    driven below zero.

    The point of the construction: the PC comparison of the result
    against p, for any strict ranking, is decided purely by where the
    receiver sits relative to the donors — receiver above both means the
    shift wins, below both means it loses, and in between the comparison
    degenerates to the bystander's position and probability.
    """
    epsilon = _require_exact(epsilon, "epsilon")
    if len(p.alternatives) != 4:
        raise DomainError("the mass shift is defined for exactly four alternatives")
    if len(roles) != 4 or set(roles) != set(p.alternatives.names):
        raise DomainError(
            f"roles must name all four alternatives exactly once, got {tuple(roles)!r}"
        )
    bystander, donor_a, donor_b, receiver = roles
    if p.prob(donor_a) <= 0 or p.prob(donor_b) <= 0:
        raise DomainError("both donors need strictly positive probability")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be strictly positive, got {epsilon}")
    share_a = epsilon / (p.prob(donor_a) + p.prob(receiver))
    share_b = epsilon / (p.prob(donor_b) + p.prob(receiver))
    new = p.as_map()
    new[donor_a] -= share_a
    new[donor_b] -= share_b
    new[receiver] += share_a + share_b
    if new[donor_a] < 0 or new[donor_b] < 0:
        raise DomainError(
            f"epsilon {epsilon} drives a donor below zero "
            f"(donor probabilities {p.prob(donor_a)}, {p.prob(donor_b)})"
        )
    return Lottery.from_map(p.alternatives, new)


# ---------------------------------------------------------------------------
# three-alternative efficiency certificate
# ---------------------------------------------------------------------------

def m3_efficiency_certificate(profile: Profile, p: Lottery) -> bool:
    """A sufficient (not necessary) syntactic test for PC-efficiency with
    exactly three alternatives:

    1. nothing Pareto-dominated gets probability;
    2. if some alternative is never ranked last but at least once first,
       then some other alternative gets probability zero;
    3. an alternative that is never ranked first but at least once last
       gets probability zero.
    """
    if profile.m != 3:
        raise ApplicabilityError(
            f"the certificate is defined only for exactly three alternatives, got m={profile.m}"
        )
    if p.alternatives != profile.alternatives:
        raise DomainError("lottery must range over the profile's alternatives")
    if any(p.prob(x) > 0 for x in pareto_dominated_set(profile)):
        return False
    never_bottom = never_bottom_set(profile)
    for k, (x, tops) in enumerate(zip(profile.alternatives, top_counts(profile))):
        if x in never_bottom:
            if tops >= 1 and not any(q == 0 for j, q in enumerate(p.probs) if j != k):
                return False
        elif tops == 0 and p.probs[k] != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# improvement paths
# ---------------------------------------------------------------------------

def improvement_path(
    profile: Profile,
    start: Lottery,
    max_steps: int,
    mode: str = "canonical",
    seed: int = 0,
) -> ImprovementPath:
    """Follow PC-dominating lotteries from `start` until no dominator
    exists (ReachedEfficient), a lottery repeats exactly (CycleDetected),
    or `max_steps` improvements have been taken (MaxSteps).

    Each step is one dominator LP (`_dominator_lp`). `mode="canonical"`
    weights each ranking by its voter count; `mode="random"` draws, from a
    seeded generator, a fresh weight in 1..1000 for each distinct ranking
    each step, in `all_rankings` order. The LP reads only each ranking's
    total weight, so a step costs a draw per ranking, not per voter. Any
    positive weights keep the oracle sound; different ones explore
    different witnesses.
    """
    if type(max_steps) is not int or max_steps < 1:  # a bool is no step budget
        raise DomainError(f"max_steps must be an int of at least 1, got {max_steps!r}")
    if mode not in ("canonical", "random"):
        raise DomainError(f"mode must be 'canonical' or 'random', got {mode!r}")
    if start.alternatives != profile.alternatives:
        raise DomainError("lottery must range over the profile's alternatives")
    rng = random.Random(seed)
    rankings = profile._ranking_totals
    lotteries = [start]
    steps: list[str] = []
    seen = {start}
    current = start
    termination = PathTermination.MaxSteps
    for step_index in range(max_steps):
        weights = [rng.randint(1, 1000) for _ in rankings] if mode == "random" else None
        q = _dominator_lp(profile, current, Extension.PC, weights)
        if q is None:
            termination = PathTermination.ReachedEfficient
            break
        outcomes = _certificate(profile, Extension.PC, current, q).outcomes
        strict = sum(voters for _, voters, o in outcomes if o is ComparisonOutcome.StrictlyPreferred)
        steps.append(
            f"step {step_index + 1}: PC dominator via LP ({strict}/{profile.n} voters strictly better)"
        )
        lotteries.append(q)
        if q in seen:
            termination = PathTermination.CycleDetected
            break
        seen.add(q)
        current = q
    return ImprovementPath(profile, tuple(lotteries), tuple(steps), termination)
