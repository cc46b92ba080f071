"""Shared test machinery.

The centerpiece is `bfs_reference_solve`, a from-scratch LP solver that
enumerates basic solutions instead of pivoting. It shares nothing with
the simplex implementation under test beyond the `LinearProgram` data
types, so agreement between the two is meaningful evidence.

It also holds front-ends over the library that only tests use (LP
feasibility, the margin game as a plain LP, uniqueness of the maximal
lottery, the strategyproofness ladder) and reference definitions of
lottery validation, profile statistics (per voter), lottery comparisons,
manipulation search, the participation check, the dominator LP, the PC1
dominator search, the three-alternative efficiency certificate and the
orbit test of the reduced scans.

The oracles build their LP rows here, from the definitions, and import
no private name from `pcvote`: an oracle that built its rows with a
function of the code it gates would pass its gate when that function is
wrong.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Optional

from pcvote.axioms import (
    ManipulationWitness,
    Mode,
    ParticipationWitness,
    all_rankings,
    exists_strict_improvement,
    find_manipulation,
)
from pcvote.extensions import ComparisonOutcome, Extension, compare, weakly_prefers
from pcvote.model import (
    DomainError,
    InternalError,
    Lottery,
    MarginMatrix,
    Profile,
    margin_matrix,
    profile,
    remove_voter,
)
from pcvote.ratlp import EQ, GE, LE, Constraint, LinearProgram, LpStatus, lp_solve
from pcvote.rules import SocialDecisionScheme


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _row_reduce(rows: list[list[Fraction]], rhs: list[Fraction]):
    """RREF in place. Returns the rank, or None when some row reads
    0 = nonzero (the equality system is inconsistent outright)."""
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        f = rows[r][col]
        rows[r] = [v / f for v in rows[r]]
        rhs[r] = rhs[r] / f
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                g = rows[k][col]
                rows[k] = [a - g * b for a, b in zip(rows[k], rows[r])]
                rhs[k] = rhs[k] - g * rhs[r]
        r += 1
        if r == len(rows):
            break
    for k in range(r, len(rows)):
        if rhs[k] != 0:
            return None
    return r


def reference_rank(rows) -> int:
    """The rank of a matrix, by Gaussian elimination in `Fraction`s."""
    return _row_reduce([[Fraction(v) for v in row] for row in rows], [Fraction(0)] * len(rows))


def _basic_solutions(rows, rhs, ncols, rank):
    """Every basic solution of `rows · x = rhs, x >= 0`: pick `rank`
    columns, solve the square system, keep nonnegative solutions."""
    for cols in itertools.combinations(range(ncols), rank):
        mat = [[rows[i][j] for j in cols] for i in range(rank)]
        vec = list(rhs[:rank])
        singular = False
        for c in range(rank):
            piv = next((k for k in range(c, rank) if mat[k][c] != 0), None)
            if piv is None:
                singular = True
                break
            mat[c], mat[piv] = mat[piv], mat[c]
            vec[c], vec[piv] = vec[piv], vec[c]
            f = mat[c][c]
            mat[c] = [v / f for v in mat[c]]
            vec[c] = vec[c] / f
            for k in range(rank):
                if k != c and mat[k][c] != 0:
                    g = mat[k][c]
                    mat[k] = [a - g * b for a, b in zip(mat[k], mat[c])]
                    vec[k] = vec[k] - g * vec[c]
        if singular or any(v < 0 for v in vec):
            continue
        full = [Fraction(0)] * ncols
        for j, v in zip(cols, vec):
            full[j] = v
        yield full


# ---------------------------------------------------------------------------
# the reference solver
# ---------------------------------------------------------------------------

def bfs_reference_solve(lp: LinearProgram) -> tuple[LpStatus, Optional[Fraction]]:
    """Exact status and optimum by brute force.

    Standardize to `A x = b, x >= 0`, enumerate all basic solutions
    (a nonempty standard-form polyhedron always has one), and take the
    best objective. Unboundedness is decided separately: the maximum
    grows without bound iff some recession direction d (A d = 0, d >= 0,
    normalized to sum 1) has positive objective, and that maximum is
    attained at a vertex of the normalized direction polytope, which is
    enumerated the same way.
    """
    n = len(lp.objective)
    slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
    ncols = n + slack_count
    rows, rhs = [], []
    cost = list(lp.objective) + [Fraction(0)] * slack_count
    s = 0
    for c in lp.constraints:
        row = list(c.coeffs) + [Fraction(0)] * slack_count
        if c.relation != EQ:
            row[n + s] = Fraction(1) if c.relation == LE else Fraction(-1)
            s += 1
        rows.append(row)
        rhs.append(c.rhs)

    rank = _row_reduce(rows, rhs)
    if rank is None:
        return LpStatus.Infeasible, None
    rows, rhs = rows[:rank], rhs[:rank]

    best: Optional[Fraction] = None
    for x in _basic_solutions(rows, rhs, ncols, rank):
        val = sum(c * v for c, v in zip(cost, x))
        if best is None or val > best:
            best = val
    if best is None:
        if rank > 0:
            return LpStatus.Infeasible, None
        best = Fraction(0)  # no constraints: the origin

    dir_rows = [list(r) for r in rows] + [[Fraction(1)] * ncols]
    dir_rhs = [Fraction(0)] * rank + [Fraction(1)]
    drank = _row_reduce(dir_rows, dir_rhs)
    if drank is not None:
        dir_rows, dir_rhs = dir_rows[:drank], dir_rhs[:drank]
        for d in _basic_solutions(dir_rows, dir_rhs, ncols, drank):
            if sum(c * v for c, v in zip(cost, d)) > 0:
                return LpStatus.Unbounded, None
    return LpStatus.Optimal, best


# ---------------------------------------------------------------------------
# front-ends over the library that only tests call
# ---------------------------------------------------------------------------

def lp_feasible(constraints, num_vars: int) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Phase-one feasibility test for constraints over x >= 0.

    Returns (feasible, witness); the witness is an exact feasible point
    (a basic solution of the system) when one exists.
    """
    if num_vars <= 0:
        raise DomainError("lp_feasible needs at least one variable")
    outcome = lp_solve(LinearProgram((Fraction(0),) * num_vars, tuple(constraints)))
    if outcome.status is LpStatus.Optimal:
        return True, outcome.solution
    return False, None


def unit(m: int, j: int) -> tuple[int, ...]:
    return tuple(int(k == j) for k in range(m))


def optimal_set_rows(margins: MarginMatrix) -> tuple[Constraint, ...]:
    """The margin game's optimal strategies p, read off `margins.rows`:
    no alternative beats p in expectation, and p sums to 1."""
    m = len(margins.alternatives)
    rows = tuple(Constraint(tuple(row), LE, 0) for row in margins.rows)
    return rows + (Constraint((1,) * m, EQ, 1),)


def reference_beats_or_ties_every_alternative(margins: MarginMatrix, probs) -> bool:
    """(G p)_x <= 0 for every alternative x, each sum taken in `Fraction`s."""
    return all(
        sum((g * Fraction(p) for g, p in zip(row, probs)), Fraction(0)) <= 0 for row in margins.rows
    )


def maximal_lottery_is_unique(prof: Profile) -> bool:
    """Is the optimal set of the margin game a single point? Every
    coordinate's maximum over the set must equal its minimum."""
    m = prof.m
    rows = optimal_set_rows(margin_matrix(prof))
    for j in range(m):
        hi = lp_solve(LinearProgram(unit(m, j), rows))
        lo = lp_solve(LinearProgram(tuple(-v for v in unit(m, j)), rows))
        assert hi.status is LpStatus.Optimal and lo.status is LpStatus.Optimal
        if hi.value != -lo.value:
            return False
    return True


def solve_margin_game(margins: MarginMatrix) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Value and one optimal mixed strategy of the margin game, solved as a
    plain LP (maximize the worst-case row payoff). Skew-symmetry is *not*
    assumed; for genuine margin matrices the value comes out exactly 0."""
    m = len(margins.alternatives)
    # variables: p_0..p_{m-1}, v+ and v- (value = v+ - v-)
    rows: list[Constraint] = []
    for j in range(m):
        # payoff of playing p against pure column j, at least the value
        coeffs = [Fraction(margins.rows[i][j]) for i in range(m)]
        rows.append(Constraint(tuple(coeffs + [Fraction(-1), Fraction(1)]), GE, Fraction(0)))
    rows.append(Constraint(tuple([Fraction(1)] * m + [Fraction(0), Fraction(0)]), EQ, Fraction(1)))
    objective = tuple([Fraction(0)] * m + [Fraction(1), Fraction(-1)])
    outcome = lp_solve(LinearProgram(objective, tuple(rows)))
    assert outcome.status is LpStatus.Optimal
    return outcome.value, outcome.solution[:m]


def reference_ml_leximin(margins: MarginMatrix, solve=lp_solve) -> tuple[Fraction, ...]:
    """The leximin point of the margin game's optimal set, by the iterated
    max-min that proves each stuck coordinate by its own LP: raise the
    smallest free coordinate as far as the set allows (floor f), then a
    free coordinate at f in that LP's point is stuck exactly when its
    maximum over the face where every free coordinate is >= f is f. It
    reads no duals, so it checks `rules._ml_leximin`'s tableau proofs."""
    m = len(margins.alternatives)
    base = optimal_set_rows(margins)
    fixed: dict[int, Fraction] = {}
    free = list(range(m))
    while free:
        pinned = [Constraint(unit(m, j), EQ, value) for j, value in fixed.items()]
        # variables: p_0..p_{m-1}, then t
        rows = [Constraint(c.coeffs + (0,), c.relation, c.rhs) for c in base + tuple(pinned)]
        rows += [Constraint(unit(m, j) + (-1,), GE, 0) for j in free]
        outcome = solve(LinearProgram(unit(m + 1, m), tuple(rows)))
        assert outcome.status is LpStatus.Optimal
        floor, point = outcome.value, outcome.solution
        face = base + tuple(pinned) + tuple(Constraint(unit(m, j), GE, floor) for j in free)
        stuck = [
            j for j in free
            if point[j] == floor and solve(LinearProgram(unit(m, j), face)).value == floor
        ]
        assert stuck, "some free coordinate is stuck in every max-min round"
        for j in stuck:
            fixed[j] = floor
        free = [j for j in free if j not in stuck]
    return tuple(fixed[j] for j in range(m))


def strategyproofness_ladder_gaps(rule: SocialDecisionScheme, prof: Profile) -> list[str]:
    """Consistency probe: a weak PC1 manipulation implies a strong PC one,
    which implies a strong SD one. Returns descriptions of any broken
    implication (empty list = consistent)."""
    weak_pc1 = find_manipulation(rule, prof, Extension.PC1, Mode.Weak)
    strong_pc = find_manipulation(rule, prof, Extension.PC, Mode.Strong)
    strong_sd = find_manipulation(rule, prof, Extension.SD, Mode.Strong)
    gaps = []
    if weak_pc1 is not None and strong_pc is None:
        gaps.append("weak PC1 manipulation found but no strong PC manipulation")
    if strong_pc is not None and strong_sd is None:
        gaps.append("strong PC manipulation found but no strong SD manipulation")
    return gaps


# ---------------------------------------------------------------------------
# randomized generators (always seeded by the caller)
# ---------------------------------------------------------------------------

def random_lp(rng: random.Random, max_vars: int = 4, max_constraints: int = 6) -> LinearProgram:
    n = rng.randint(1, max_vars)
    k = rng.randint(1, max_constraints)
    obj = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
    cons = []
    for _ in range(k):
        coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        rel = rng.choice((LE, GE, EQ))
        cons.append(Constraint(coeffs, rel, Fraction(rng.randint(-6, 8), rng.randint(1, 2))))
    return LinearProgram(obj, tuple(cons))


def random_profile(
    rng: random.Random, m_max: int = 4, n_max: int = 7, m_min: int = 2, n_min: int = 1
) -> Profile:
    m = rng.randint(m_min, m_max)
    n = rng.randint(n_min, n_max)
    alts = "abcd"[:m]
    return profile(alts, [rng.sample(alts, m) for _ in range(n)])


def random_lottery(rng: random.Random, alternatives, max_weight: int = 6):
    from pcvote.model import Lottery

    names = list(alternatives.names)
    weights = [rng.randint(0, max_weight) for _ in names]
    if sum(weights) == 0:
        weights[rng.randrange(len(names))] = 1
    total = sum(weights)
    return Lottery(alternatives, tuple(Fraction(w, total) for w in weights))


# ---------------------------------------------------------------------------
# lottery validation, by its definition
# ---------------------------------------------------------------------------

def reference_lottery_refusal(size: int, probs) -> Optional[str]:
    """Why a lottery over `size` alternatives with these probabilities must
    be refused, or None: each entry an int or a `Fraction`, never a float,
    one per alternative, none negative, and their `Fraction` sum 1, checked
    in that order; the message is the one `Lottery` raises."""
    exact = []
    for p in probs:
        if isinstance(p, float):
            return f"probability must be an exact rational, got float {p!r}"
        if not isinstance(p, (int, Fraction)):
            return f"probability must be an int or Fraction, got {type(p).__name__}"
        exact.append(Fraction(p))
    if len(exact) != size:
        return f"lottery has {len(exact)} entries for {size} alternatives"
    for p in exact:
        if p < 0:
            return f"negative probability {p}"
    total = sum(exact, Fraction(0))
    if total != 1:
        return f"probabilities sum to {total}, expected 1"
    return None


# ---------------------------------------------------------------------------
# per-voter reference semantics of a profile
# ---------------------------------------------------------------------------
#
# A profile is a plain list of ballots, voter i at index i-1, each ballot
# an order tuple (best first). These O(n·m) loops are the definitions the
# run-length `Profile` must agree with; they share no code with it.

def reference_majority_margin(ballots: list[tuple[str, ...]], x: str, y: str) -> int:
    if x == y:
        return 0
    wins = sum(1 for b in ballots if b.index(x) < b.index(y))
    return wins - (len(ballots) - wins)


def reference_top_count(ballots: list[tuple[str, ...]], x: str) -> int:
    return sum(1 for b in ballots if b[0] == x)


def reference_condorcet_winner(ballots: list[tuple[str, ...]], names) -> Optional[str]:
    return next(
        (x for x in names if all(reference_majority_margin(ballots, x, y) > 0 for y in names if y != x)),
        None,
    )


def reference_weak_condorcet_winners(ballots: list[tuple[str, ...]], names) -> frozenset[str]:
    return frozenset(
        x for x in names if all(reference_majority_margin(ballots, x, y) >= 0 for y in names if y != x)
    )


def reference_absolute_winner(ballots: list[tuple[str, ...]], names) -> Optional[str]:
    return next((x for x in names if 2 * reference_top_count(ballots, x) > len(ballots)), None)


def reference_pareto_dominated_set(ballots: list[tuple[str, ...]], names) -> frozenset[str]:
    return frozenset(
        y for y in names
        if any(x != y and all(b.index(x) < b.index(y) for b in ballots) for x in names)
    )


def reference_never_bottom_set(ballots: list[tuple[str, ...]], names) -> frozenset[str]:
    return frozenset(set(names) - {b[-1] for b in ballots})


def reference_m3_certificate(ballots: list[tuple[str, ...]], p) -> bool:
    """`efficiency.m3_efficiency_certificate` as its three clauses over the
    per-voter ballots: nothing Pareto-dominated gets probability; an
    alternative never ranked last but at least once first leaves some
    other alternative at probability zero; an alternative never ranked
    first but at least once last gets probability zero."""
    names = p.alternatives.names
    if any(p.prob(x) > 0 for x in reference_pareto_dominated_set(ballots, names)):
        return False
    for x in names:
        firsts = reference_top_count(ballots, x)
        lasts = sum(1 for b in ballots if b[-1] == x)
        if lasts == 0 and firsts >= 1 and all(p.prob(y) > 0 for y in names if y != x):
            return False
        if firsts == 0 and lasts >= 1 and p.prob(x) != 0:
            return False
    return True


def reference_sd_compare(order: tuple[str, ...], p, q) -> ComparisonOutcome:
    """SD comparison of p against q for one voter, walking `Fraction`
    prefix sums along the ranking."""
    p_ge_q = q_ge_p = True
    acc_p = acc_q = Fraction(0)
    for x in order[:-1]:
        acc_p += p.prob(x)
        acc_q += q.prob(x)
        if acc_p < acc_q:
            p_ge_q = False
        elif acc_p > acc_q:
            q_ge_p = False
    if p_ge_q and q_ge_p:
        return ComparisonOutcome.Indifferent
    if p_ge_q:
        return ComparisonOutcome.StrictlyPreferred
    if q_ge_p:
        return ComparisonOutcome.StrictlyDispreferred
    return ComparisonOutcome.Incomparable


def reference_pc_score(order: tuple[str, ...], p, q) -> Fraction:
    """PC score of p against q for one voter, summed over ordered pairs."""
    score = Fraction(0)
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            score += p.prob(x) * q.prob(y) - q.prob(x) * p.prob(y)
    return score


def reference_find_manipulation(rule, prof: Profile, extension: Extension, mode: Mode):
    """`find_manipulation` as a plain loop over every voter and every
    misreport, with no reduction for repeated ballots."""
    truthful = rule(prof)
    for i in range(1, prof.n + 1):
        true_ballot = prof.ballot(i)
        for misreport in all_rankings(prof.alternatives):
            if misreport == true_ballot:
                continue
            deviated = prof.replace_ballot(i, misreport)
            outcome = rule(deviated)
            if mode is Mode.Strong:
                violated = not weakly_prefers(compare(extension, true_ballot, truthful, outcome))
            else:
                violated = (
                    compare(extension, true_ballot, outcome, truthful)
                    is ComparisonOutcome.StrictlyPreferred
                )
            if violated:
                return ManipulationWitness(
                    prof, i, misreport, deviated, truthful, outcome, extension, mode
                )
    return None


def reference_check_participation(rule, prof: Profile, extension: Extension, strict: bool = False):
    """`check_participation` as a plain loop over every voter, with no
    reduction for repeated ballots."""
    with_voter = rule(prof)
    for i in range(1, prof.n + 1):
        ballot = prof.ballot(i)
        without = rule(remove_voter(prof, i))
        outcome = compare(extension, ballot, with_voter, without)
        if not weakly_prefers(outcome):
            return ParticipationWitness(
                prof, i, with_voter, without, extension, strict, "participation-harms"
            )
        if strict and exists_strict_improvement(ballot, without):
            if outcome is not ComparisonOutcome.StrictlyPreferred:
                return ParticipationWitness(
                    prof, i, with_voter, without, extension, strict, "no-strict-gain"
                )
    return None


@functools.cache
def reference_dominator_rows(order: tuple[str, ...], p, extension: Extension) -> tuple[Constraint, ...]:
    """One voter's dominator rows over lotteries q, in `Fraction`s. PC:
    the voter must not PC-prefer p, pc_score(q, p) >= 0, which is linear in
    q with coefficient pc_score(x, p) on each alternative x. SD: every
    proper prefix of the ballot gets at least p's mass under q. Cached,
    since the gates ask for the same rows under several voter weights."""
    names = p.alternatives.names
    if extension is Extension.PC:
        coeffs = tuple(reference_pc_score(order, Lottery.degenerate(p.alternatives, x), p) for x in names)
        return (Constraint(coeffs, GE, Fraction(0)),)
    return tuple(
        Constraint(
            tuple(Fraction(int(x in order[:k])) for x in names),
            GE,
            sum((p.prob(x) for x in order[:k]), Fraction(0)),
        )
        for k in range(1, len(order))
    )


def reference_dominator_lp(prof: Profile, p, extension: Extension, weights=None):
    """The dominator LP with every voter's rows, in voter order, weighted
    by that voter's weight (1 when `weights` is None): the per-voter form
    that `efficiency._dominator_lp` reduces to one block per ranking.
    Returns (value, dominator) like it; the value is 0 iff p is efficient.
    Its rows (`reference_dominator_rows`) are over 1 where the library's
    are over p's denominator, so only whether the value is 0 compares."""
    m = prof.m
    lam = weights if weights is not None else (Fraction(1),) * prof.n
    seen: dict = {}
    mass: dict = {}
    rows: list[Constraint] = []
    for ballot, factor in zip(prof.ballots, lam):
        if ballot not in seen:
            seen[ballot] = reference_dominator_rows(ballot.order, p, extension)
        mass[ballot] = mass.get(ballot, 0) + factor
        rows.extend(seen[ballot])
    objective = [Fraction(0)] * m
    baseline = Fraction(0)
    for ballot, weight in mass.items():
        for row in seen[ballot]:
            for j in range(m):
                objective[j] += weight * row.coeffs[j]
            baseline += weight * row.rhs
    rows.append(Constraint(tuple([Fraction(1)] * m), EQ, Fraction(1)))
    outcome = lp_solve(LinearProgram(tuple(objective), tuple(rows)))
    if outcome.status is not LpStatus.Optimal or outcome.solution is None or outcome.value is None:
        raise InternalError(f"a dominator LP came out {outcome.status.name}, though p is feasible")
    return outcome.value - baseline, Lottery(prof.alternatives, outcome.solution)


def reference_pc1_find_dominator(prof: Profile, p) -> Optional[Lottery]:
    """A PC1 dominator of p, or None: every degenerate lottery, in
    alternative order, against every voter through `reference_pc_score`
    (PC1 compares a degenerate lottery as PC does), then, for a degenerate
    p, the per-voter PC dominator LP. Returns the dominator alone."""
    for x in prof.alternatives.names:
        q = Lottery.degenerate(prof.alternatives, x)
        scores = [reference_pc_score(ballot.order, q, p) for ballot in prof.ballots]
        if min(scores) >= 0 and max(scores) > 0:
            return q
    if p.is_degenerate():
        value, q = reference_dominator_lp(prof, p, Extension.PC)
        if value != 0:
            return q
    return None


# ---------------------------------------------------------------------------
# the orbit test over all m! relabellings
# ---------------------------------------------------------------------------

def reference_relabelling_tables(rankings) -> list[tuple[int, ...]]:
    """For each alternative permutation, the identity included, the index
    in `rankings` (`all_rankings`) of every ranking's relabelled image."""
    index = {r.order: k for k, r in enumerate(rankings)}
    names = rankings[0].alternatives.names
    tables = []
    for image in rankings:
        mapping = dict(zip(names, image.order))
        tables.append(tuple(index[tuple(mapping[x] for x in r.order)] for r in rankings))
    return tables


def reference_least_in_orbit(indices: tuple[int, ...], tables: list[tuple[int, ...]]) -> bool:
    """Is this profile, in either scan mode, the least of its orbit under
    relabelling the alternatives and reordering the voters? Each image is
    compared sorted; the identity table makes an unsorted profile fail."""
    key = list(indices)
    for table in tables:
        if sorted(map(table.__getitem__, indices)) < key:
            return False
    return True
