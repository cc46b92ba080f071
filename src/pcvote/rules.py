"""Probabilistic voting rules.

* rd                — uniform random dictatorship (top-count shares);
* condorcet_uniform — degenerate on the Condorcet winner, else uniform;
* f1                — a three-alternative rule reading (weak) Condorcet
                      winners off the margin matrix;
* f2                — a three-alternative rule redistributing top-count
                      mass away from the strongest rival of the unique
                      never-bottom alternative;
* ml                — maximal lotteries: an exact optimal mixed strategy
                      of the symmetric margin game, canonicalized to the
                      leximin point of the optimal set so that the output
                      is unique, anonymous, and neutral; one `Lottery`
                      per branch, checked maximal on its int mass.

All rules return exact `Lottery` values. `RULES` registers each with the
`Tally` its output is a function of and whether it is neutral (see
`SocialDecisionScheme`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .model import (
    ApplicabilityError,
    DomainError,
    InternalError,
    Lottery,
    MarginMatrix,
    Profile,
    Tally,
    condorcet_winner,
    margin_matrix,
    margin_tally,
    never_bottom_set,
    top_bottom_tally,
    top_counts,
    top_tally,
    weak_condorcet_winners,
)
from .ratlp import IntRowProgram, LpStatus, lp_solve


@dataclass(frozen=True)
class SocialDecisionScheme:
    """A named rule mapping profiles to lotteries.

    `statistic` declares that, over one alternative set, the output is a
    function of this `Tally` of the ballot multiset: `margin_tally` (the
    margins, Fishburn's C2 class), `top_tally` for rd, `top_bottom_tally`
    for f2. Such a rule is anonymous, so callers may reuse an output across
    profiles with equal tallies (see `axioms.memoized`), and it must be
    applicable to every profile over an alternative set or to none.

    `neutral` declares that relabelling the alternatives of a profile
    relabels the output the same way. With a statistic it lets a scan
    check one profile per relabelling orbit (`axioms.exhaustive_scan`), and
    evaluate the rule once per relabelling orbit of tally vectors: the
    outcome at one vector of an orbit is another's, relabelled
    (`axioms.Memo`).
    """

    name: str
    evaluate: Callable[[Profile], Lottery]
    applicability: Optional[Callable[[Profile], bool]] = None
    statistic: Optional[Tally] = None
    neutral: bool = False

    def applicable(self, profile: Profile) -> bool:
        return self.applicability is None or self.applicability(profile)

    def __call__(self, profile: Profile) -> Lottery:
        if not self.applicable(profile):
            raise ApplicabilityError(
                f"rule {self.name!r} is not defined for this profile "
                f"(m={profile.m}, n={profile.n})"
            )
        return self.evaluate(profile)


def rd(profile: Profile) -> Lottery:
    """Uniform random dictatorship: probability = share of first places."""
    return Lottery(profile.alternatives, tuple(Fraction(c, profile.n) for c in top_counts(profile)))


def condorcet_uniform(profile: Profile) -> Lottery:
    """Degenerate on the Condorcet winner when there is one, else uniform."""
    winner = condorcet_winner(profile)
    if winner is not None:
        return Lottery.degenerate(profile.alternatives, winner)
    return Lottery.uniform(profile.alternatives)


def _require_three(profile: Profile, rule_name: str) -> None:
    if profile.m != 3:
        raise ApplicabilityError(
            f"rule {rule_name!r} is defined only for exactly three alternatives, got m={profile.m}"
        )


def f1(profile: Profile) -> Lottery:
    """Three-alternative rule driven by (weak) Condorcet winners.

    Condorcet winner x: degenerate on x. No Condorcet winner: a unique
    unbeaten alternative x gets 3/5 with 1/5 each for the rest; exactly
    two unbeaten alternatives split 1/2 each; otherwise uniform.
    """
    _require_three(profile, "f1")
    alts = profile.alternatives
    winner = condorcet_winner(profile)
    if winner is not None:
        return Lottery.degenerate(alts, winner)
    weak = weak_condorcet_winners(profile)
    if len(weak) == 2:
        return Lottery.uniform(alts, over=weak)
    if len(weak) == 1:
        (x,) = weak
        return Lottery(
            alts,
            tuple(Fraction(3, 5) if y == x else Fraction(1, 5) for y in alts),
        )
    return Lottery.uniform(alts)


def f2(profile: Profile) -> Lottery:
    """Three-alternative rule: random dictatorship unless exactly one
    alternative is never ranked last, in which case that alternative
    absorbs the top-count share of its weakest rival(s)."""
    _require_three(profile, "f2")
    alts = profile.alternatives
    never_bottom = never_bottom_set(profile)
    if len(never_bottom) != 1:
        return rd(profile)
    (x,) = never_bottom
    k = alts.index(x)
    counts = list(top_counts(profile))
    least = min(c for j, c in enumerate(counts) if j != k)
    for j, c in enumerate(counts):
        if j != k and c == least:
            counts[k] += c
            counts[j] = 0
    return Lottery(alts, tuple(Fraction(c, profile.n) for c in counts))


# ---------------------------------------------------------------------------
# maximal lotteries
# ---------------------------------------------------------------------------

def is_maximal_lottery(profile: Profile, lottery: Lottery) -> bool:
    """Does the lottery beat-or-tie every alternative in expectation?
    (G p)_x <= 0 for every alternative x, checked in ints on the lottery's
    mass over its denominator (`Lottery._mass`), a positive factor that
    keeps each inequality."""
    if lottery.alternatives != profile.alternatives:
        raise DomainError("lottery must range over the profile's alternatives")
    mass, _ = lottery._mass
    return max(margin_matrix(profile).times(mass)) <= 0


def _unit(m: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(m))


def _ml_program(margins: MarginMatrix, fixed: dict[int, Fraction], free: list[int]) -> IntRowProgram:
    """max Σp subject to G p <= 0 and Σp <= 1, in the margins' own ints:
    `_ml_point`'s program. With free coordinates, a max-min round over
    (p, t) (see `_ml_leximin`): t joins the objective, each fixed j = num/den
    adds den·p_j − num·Σp <= 0 and, unless num is 0, its negation, and each
    free j a floor row t − p_j <= 0. Every rhs is 0 but Σp's 1."""
    m = len(margins.alternatives)
    t = (0,) if free else ()
    rows = [row + t for row in margins.rows] + [(1,) * m + t]
    for j, value in fixed.items():
        num, den = value.numerator, value.denominator
        pin = tuple(den * u - num for u in _unit(m, j)) + t
        rows += (pin, tuple(-v for v in pin)) if num else (pin,)
    rows += (tuple(-u for u in _unit(m, j)) + (1,) for j in free)
    rhs = (0,) * m + (1,) + (0,) * (len(rows) - m - 1)
    return IntRowProgram((1,) * (m + len(t)), tuple(rows), rhs)


def _ml_leximin(margins: MarginMatrix, zeros: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The leximin point of the optimal set, by iterated max-min: raise the
    smallest coordinate as far as the optimal set allows, pin every
    coordinate that cannot go higher, repeat on the rest. The coordinates in
    `zeros`, 0 at every optimal point, are pinned to 0 from the start.

    One LP per round, homogenized (Charnes & Cooper 1962) into int rows
    with rhs >= 0 (`_ml_program`): max Σp + t over (p, t). Let f be the
    floor of the round on the simplex: max t subject to Σp = 1, G p <= 0,
    the pins p_j = num/den and t <= p_j for free j. A feasible (p, t) with
    s = Σp > 0 scales to (p/s, t/s), feasible there, so t <= s·f and
    Σp + t <= s(1 + f) <= 1 + f; s = 0 forces p = 0 and t = 0. So the two
    rounds have one optimal set, the (p, f) with p optimal on the simplex,
    Σp = 1 also at f = 0, and a row tight at all of it is so in either.

    Its tableau proves some floor rows tight: t has objective 1 and appears
    only in the floor rows, each with a 1, so the duals of the floor rows
    sum to at least 1 and one of them is nonzero. When every free
    coordinate sits at the floor they are all stuck, since their sum is
    fixed; the last free coordinate is 1 minus the fixed ones."""
    m = len(margins.alternatives)
    fixed: dict[int, Fraction] = {j: Fraction(0) for j in zeros}
    free = [j for j in range(m) if j not in fixed]
    while len(free) > 1:
        program = _ml_program(margins, fixed, free)
        outcome = lp_solve(program)
        if outcome.status is not LpStatus.Optimal:
            raise InternalError(f"an LP over the margin game's optimal set came out {outcome.status.name}")
        if outcome.solution is None:
            raise InternalError("the max-min LP of ml came out optimal with no solution")
        *point, floor = outcome.solution
        first = len(program.constraints) - len(free)  # the floor rows come last
        proven = [j for k, j in enumerate(free) if first + k in outcome.tight]
        stuck = free if all(point[j] == floor for j in free) else proven
        if not stuck:
            raise InternalError("a max-min round of ml pinned no coordinate")
        for j in stuck:
            fixed[j] = floor
        free = [j for j in free if j not in stuck]
    if free:
        fixed[free[0]] = 1 - sum(fixed.values(), Fraction(0))
    return tuple(fixed[j] for j in range(m))


def _ml_point(margins: MarginMatrix) -> tuple[Fraction, ...]:
    """Some vertex of the optimal set: `_ml_program` with nothing fixed or
    free, whose optimum is 1 and whose optimal points are the optimal set."""
    outcome = lp_solve(_ml_program(margins, {}, []))
    if outcome.status is not LpStatus.Optimal or outcome.solution is None:
        raise InternalError(f"the margin game's optimal set came out {outcome.status.name}")
    return outcome.solution


def _rank(rows: list[list[int]]) -> int:
    """The rank of an int matrix, by fraction-free (Bareiss) elimination:
    after k pivots every entry below them is a (k+1)-minor of the matrix, so
    dividing by the previous pivot, a k-minor, is exact."""
    a = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        for row in a[rank + 1:]:
            lead = row[col]
            for j in range(col + 1, len(top)):
                row[j] = (top[col] * row[j] - lead * top[j]) // previous
            row[col] = 0
        previous = top[col]
        rank += 1
    return rank


def _ml_certificate(margins: MarginMatrix, mass: Sequence[int]) -> tuple[bool, tuple[int, ...]]:
    """Is the point p the whole optimal set? And Z, the alternatives x with
    (G p)_x < 0, which get 0 at every optimal point (see `maximal_lottery`).
    Decided in ints, on p's mass over its denominator (`Lottery._mass`)."""
    support = [x for x, w in enumerate(mass) if w]
    zeros = tuple(x for x, g in enumerate(margins.times(mass)) if g < 0)
    if len(support) + len(zeros) < len(mass):  # disjoint, since p_x (Gp)_x = 0 for every x
        return False, zeros
    block = [[margins.rows[x][y] for y in support] for x in support]
    return _rank(block) == len(support) - 1, zeros


def maximal_lottery(margins: MarginMatrix) -> Lottery:
    """The leximin point of the optimal-strategy set of the margin game.

    The leximin point of a non-empty convex polytope is unique, so the
    output is deterministic and inherits anonymity and neutrality from the
    margin game itself; ties inside the optimal set resolve toward the
    most balanced strategy. With G the margin matrix, the optimal set is
    O = {p >= 0, sum p = 1, G p <= 0}. Four steps, cheapest first:

    * a Condorcet winner (a row positive off the diagonal) is the whole
      optimal set, so the lottery is degenerate on it, with no LP: the one
      `Lottery.degenerate` of the alternative set;
    * when every row of G sums to 0 the uniform lottery is in O, and it is
      the leximin point, the one point of the simplex whose least entry is
      1/m: `Lottery.uniform`, with no LP;
    * otherwise one LP, max Σp subject to G p <= 0 and Σp <= 1, finds some
      p in O from its all-slack basis (`_ml_point`). Let S be its
      support and Z the alternatives x with (G p)_x < 0. Lemma: every q in
      O has q_x = 0 on Z and (G q)_x = 0 on S. Proof: q.G p <= 0 and
      p.G q <= 0, and the two sum to 0 as G is skew-symmetric, so both are
      0, and each is a sum of terms of one sign. So O = {p} when S and Z
      cover every alternative and G restricted to S x S has rank |S| - 1
      (`_rank`, in ints): every q in O lives on S, in the kernel of that
      block, which p spans, and sums to 1. Conversely, if O = {p}, strict
      complementarity (Goldman & Tucker 1956) gives the cover, and a second
      kernel direction would give a second optimal point. The LP's point is
      a vertex of O, where the cover alone already rules out a second point;
      the rank keeps the certificate sound at any point of O. When every
      off-diagonal margin is odd, O is a point (Laffond, Laslier & Le Breton
      1997), so this case always ends here;
    * otherwise the leximin point is computed by iterated max-min, with the
      coordinates in Z pinned to 0 from the start, which by the lemma
      leaves O as it is.

    Each step yields one `Lottery` (the leximin step also reads the point
    LP's), and a closing guard reads its int mass (`Lottery._mass`): an
    alternative that beats it, (G p)_x > 0, raises `InternalError`.
    """
    alts = margins.alternatives
    winner = margins.condorcet_index()
    if winner is not None:
        lottery = Lottery.degenerate(alts, alts.names[winner])
    elif not any(map(sum, margins.rows)):
        lottery = Lottery.uniform(alts)
    else:
        point = Lottery(alts, _ml_point(margins))
        unique, zeros = _ml_certificate(margins, point._mass[0])
        lottery = point if unique else Lottery(alts, _ml_leximin(margins, zeros))
    if max(margins.times(lottery._mass[0])) > 0:
        raise InternalError(f"ml produced a non-maximal lottery {lottery.probs}")
    return lottery


def ml(profile: Profile) -> Lottery:
    """Maximal lottery of the profile: `maximal_lottery` of its margins.
    The result is degenerate exactly when the optimal set is a single
    degenerate strategy, e.g. with a Condorcet winner."""
    return maximal_lottery(margin_matrix(profile))


def _three_alternatives_only(profile: Profile) -> bool:
    return profile.m == 3


RULES: dict[str, SocialDecisionScheme] = {
    sds.name: sds
    for sds in (
        SocialDecisionScheme("rd", rd, statistic=top_tally, neutral=True),
        SocialDecisionScheme("ml", ml, statistic=margin_tally, neutral=True),
        SocialDecisionScheme(
            "condorcet-uniform", condorcet_uniform, statistic=margin_tally, neutral=True
        ),
        SocialDecisionScheme("f1", f1, _three_alternatives_only, margin_tally, neutral=True),
        SocialDecisionScheme("f2", f2, _three_alternatives_only, top_bottom_tally, neutral=True),
    )
}


def get_rule(name: str) -> SocialDecisionScheme:
    try:
        return RULES[name]
    except KeyError:
        raise DomainError(
            f"unknown rule {name!r}; available: {', '.join(sorted(RULES))}"
        ) from None
