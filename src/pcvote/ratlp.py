"""A small, exact linear-programming kernel.

Dense simplex with Bland's anti-cycling pivot rule. Program
entries may be ints or `fractions.Fraction`s and are stored as given;
solutions and values are `Fraction`s. Inside, each tableau row is a list
of ints that stands for itself divided by its basis entry, so a pivot is
fraction-free integer elimination and a ratio test is a
cross-multiplication. These are the pivots of the same simplex over
`Fraction` rows: the same program always takes the same pivots and
returns the same optimal vertex.

Each constraint enters the tableau times the lcm of its denominators; an
int's denominator is 1, so an all-int row has scale 1 and enters
unchanged. Multiplying a constraint, a
column or the objective by a positive factor changes no sign of a reduced
cost and no order of the ratios, so Bland's rule takes the same pivots
and returns the same vertex: callers may clear denominators themselves.

Conventions: objectives are maximized; every variable is bounded below by
0 and unbounded above.

Programs come in two forms. A `LinearProgram` holds `Constraint`s of any
relation and rhs sign; `_standardize` brings it to equality form with
slack, surplus and artificial columns, and phase one finds a feasible
basis. An `IntRowProgram` is A x <= b with A and b in ints and b >= 0:
its tableau is the rows, an identity block of slack columns and the rhs,
with the slacks as the basis. x = 0 is feasible, so there is no
artificial column and no phase one. That is the tableau `_standardize`
builds from the same rows as `<=` `Constraint`s: an all-int row has scale
1, a rhs >= 0 keeps the row's relation, and the slack columns follow row
order. So the two forms take the same pivots and return the same
solution, value and `tight` rows; the int-row form skips the packaging.
The simplex run and the read-off are one code for both. The library
solves only int-row programs (`efficiency`'s dominator LPs, `rules`'
maximal-lottery LPs); `LinearProgram` is the public general form, which
acceptance criterion 09 gates.

An optimal outcome also reports, in `tight`, inequality rows that are
tight at every optimal point, not only at the vertex returned. The final
objective row prices each column out against the optimal basis: the
objective is the optimal value plus each nonbasic column's reduced cost
times its value, and no reduced cost is positive. A row whose slack or
surplus column has a nonzero (so negative) reduced cost therefore has
slack 0 at every optimum: its dual value is nonzero. Only the sign is
read, so no scale is needed. The report is sound, not complete: at a
degenerate optimum a row can be tight everywhere with a zero dual.

The same read-off, in the same pass, gives `zeros`: a structural column
with a nonzero reduced cost is nonbasic (every basic entry of the row is
0) and is 0 at every optimum, as the bound x_j >= 0 carries a nonzero
dual. It is sound and not complete in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from .model import DomainError, InternalError, _require_exact, _scaled

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

Rational = int | Fraction


def require_rational(value: object, what: str) -> Rational:
    """An int as given, anything else through `_require_exact`: Fractions as
    given, floats and other types refused."""
    return value if type(value) is int else _require_exact(value, what)


@dataclass(frozen=True)
class Constraint:
    """coeffs · x  <relation>  rhs"""

    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(require_rational(c, "constraint coefficient") for c in self.coeffs)
        )
        object.__setattr__(self, "rhs", require_rational(self.rhs, "constraint rhs"))
        if self.relation not in _RELATIONS:
            raise DomainError(f"constraint relation must be one of {_RELATIONS}, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective · x  subject to constraints and x >= 0."""

    objective: tuple[Rational, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "objective", tuple(require_rational(c, "objective coefficient") for c in self.objective)
        )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        if n == 0:
            raise DomainError("a linear program needs at least one variable")
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise DomainError(
                    f"constraint has {len(c.coeffs)} coefficients for {n} variables"
                )


@dataclass(frozen=True)
class IntRowProgram:
    """maximize objective · x  subject to  A x <= rhs  and  x >= 0, where
    `constraints` are the rows of A: every entry of A and of rhs an int,
    and rhs >= 0. x = 0 is then feasible, and `lp_solve` starts from the
    all-slack basis with no phase one. `lp_solve` checks the form, and
    refuses anything else with `DomainError`."""

    objective: tuple[Rational, ...]
    constraints: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


class LpStatus(Enum):
    Optimal = "optimal"
    Infeasible = "infeasible"
    Unbounded = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """`tight` indexes the constraints, all inequalities, that the final
    tableau proves tight at every optimal point, and `zeros` the variables
    it proves 0 at every optimal point; both empty unless optimal. They are
    evidence about the solve, not part of the answer, so they are left out
    of the repr and of equality."""

    status: LpStatus
    solution: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]
    tight: frozenset[int] = field(default=frozenset(), repr=False, compare=False)
    zeros: frozenset[int] = field(default=frozenset(), repr=False, compare=False)


# ---------------------------------------------------------------------------
# simplex machinery
# ---------------------------------------------------------------------------

def _eliminate(row: list[int], scale: int, f: int, pivot_row: list[int], support: list[int]) -> list[int]:
    """row·scale − f·pivot_row, divided by its content gcd (scale > 0).
    `support` lists the columns where pivot_row is nonzero."""
    out = [v * scale for v in row] if scale != 1 else row[:]
    for c in support:
        out[c] -= f * pivot_row[c]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _support(row: list[int]) -> list[int]:
    return [c for c, v in enumerate(row) if v]


def _pivot(rows: list[list[int]], z: list[int], basis: list[int], r: int, j: int) -> None:
    """Make column j basic in row r. Each other row k, and z, becomes
    R_k·piv − R_k[j]·R_r: the same row over a positive scale, with a 0 in
    column j. A negative pivot (artificial drive-out only) negates row r first."""
    if rows[r][j] < 0:
        rows[r] = [-v for v in rows[r]]
    pivot_row = rows[r]
    piv = pivot_row[j]
    support = _support(pivot_row)
    for k, row in enumerate(rows):
        if k != r and row[j]:
            rows[k] = _eliminate(row, piv, row[j], pivot_row, support)
    if z[j]:
        z[:] = _eliminate(z, piv, z[j], pivot_row, support)
    basis[r] = j


def _objective_row(cost: list[int], rows: list[list[int]], basis: list[int]) -> list[int]:
    """`cost` priced out against the basis: entry j has the sign of column
    j's reduced cost, and every basic entry is 0."""
    z = cost + [0]
    for row, b in zip(rows, basis):
        if z[b]:
            z = _eliminate(z, row[b], z[b], row, _support(row))
    return z


def _run_simplex(rows: list[list[int]], z: list[int], basis: list[int], banned: frozenset[int]) -> str:
    """Pivot until optimal ('optimal') or a ray is found ('unbounded').

    Bland's rule throughout: entering = lowest-index column with positive
    reduced cost; leaving = minimum ratio, ties broken by lowest basic
    variable index. `banned` columns never enter.
    """
    num_cols = len(z) - 1
    while True:
        entering = next((j for j in range(num_cols) if z[j] > 0 and j not in banned), -1)
        if entering < 0:
            return "optimal"
        leaving = -1
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving >= 0:
                    best = rows[leaving]
                    # this row's ratio rhs/a against the best row's, cross-multiplied (a > 0 in both)
                    lhs, rhs = row[-1] * best[entering], best[-1] * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving = r
        if leaving < 0:
            return "unbounded"
        _pivot(rows, z, basis, leaving, entering)


def _standardize(
    objective: Sequence[Rational], constraints: Sequence[Constraint]
) -> tuple[list[list[int]], list[int], frozenset[int]]:
    """Equality standard form with rhs >= 0, slack/surplus and artificial columns.

    Returns (rows, basis, artificial column set). Each row is the constraint
    row times ± the lcm of its denominators, in ints with the rhs last; an
    int's denominator is 1, so an all-int row is taken as it is. A row
    stands for itself divided by its basis entry, which is > 0.
    """
    n = len(objective)
    normalized: list[tuple[list[int], str, int]] = []
    for c in constraints:
        values, scale = _scaled(c.coeffs + (c.rhs,))
        rel = c.relation
        if c.rhs < 0:
            values = [-v for v in values]
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        normalized.append((values, rel, scale))

    num_rows = len(normalized)
    num_slack = sum(1 for _, rel, _ in normalized if rel != EQ)
    # artificial columns: GE and EQ rows need one; LE rows start on their slack
    num_art = sum(1 for _, rel, _ in normalized if rel != LE)
    num_cols = n + num_slack + num_art

    rows: list[list[int]] = []
    basis: list[int] = [-1] * num_rows
    slack_at = n
    art_at = n + num_slack
    art_cols: list[int] = []
    for r, (values, rel, scale) in enumerate(normalized):
        full = values[:n] + [0] * (num_cols - n) + values[n:]
        if rel == LE:
            full[slack_at] = scale
            basis[r] = slack_at
            slack_at += 1
        elif rel == GE:
            full[slack_at] = -scale
            slack_at += 1
        if rel != LE:
            full[art_at] = scale
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1
        rows.append(full)

    return rows, basis, frozenset(art_cols)


def _slack_tableau(lp: IntRowProgram) -> list[list[int]]:
    """`lp`'s tableau on its all-slack basis: each row, a 1 in its own slack
    column, its rhs. The slack columns n, n + 1, ... follow row order, as
    `_standardize` gives them. Refuses, in one pass over the rows, any row
    that is not ints of the objective's length with an int rhs >= 0."""
    n, k = len(lp.objective), len(lp.constraints)
    if n == 0:
        raise DomainError("a linear program needs at least one variable")
    if len(lp.rhs) != k:
        raise DomainError(f"{len(lp.rhs)} rhs values for {k} rows")
    rows: list[list[int]] = []
    zeros = [0] * k
    for i, (row, b) in enumerate(zip(lp.constraints, lp.rhs)):
        if len(row) != n:
            raise DomainError(f"row {i} has {len(row)} coefficients for {n} variables")
        if type(b) is not int or b < 0:
            raise DomainError(f"row {i} needs an int rhs >= 0, got {b!r}")
        if set(map(type, row)) - {int}:
            raise DomainError(f"row {i} needs int coefficients, got {tuple(row)!r}")
        full = [*row, *zeros, b]
        full[n + i] = 1
        rows.append(full)
    return rows


def lp_solve(lp: LinearProgram | IntRowProgram) -> LpOutcome:
    """Solve exactly by simplex: two-phase for a `LinearProgram`, phase two
    alone from the all-slack basis for an `IntRowProgram`. Deterministic:
    identical input, identical outcome."""
    objective = lp.objective
    n = len(objective)
    if isinstance(lp, IntRowProgram):
        objective = tuple(require_rational(c, "objective coefficient") for c in objective)
        rows = _slack_tableau(lp)
        basis = list(range(n, n + len(rows)))
        art_cols: frozenset[int] = frozenset()
        inequalities: Sequence[int] = range(len(rows))
    else:
        rows, basis, art_cols = _standardize(objective, lp.constraints)
        inequalities = [i for i, c in enumerate(lp.constraints) if c.relation != EQ]
    num_cols = len(rows[0]) - 1 if rows else n

    if art_cols:
        phase1_cost = [-1 if j in art_cols else 0 for j in range(num_cols)]
        z = _objective_row(phase1_cost, rows, basis)
        status = _run_simplex(rows, z, basis, banned=art_cols)
        if status != "optimal":
            raise InternalError(f"phase one came out {status}, though it is bounded by construction")
        if any(row[-1] for row, b in zip(rows, basis) if b in art_cols):
            return LpOutcome(LpStatus.Infeasible, None, None)
        # Drive leftover artificial variables (all at value 0) out of the basis.
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] not in art_cols:
                continue
            pivot_col = next(
                (j for j in range(num_cols) if j not in art_cols and rows[r][j] != 0),
                None,
            )
            if pivot_col is None:
                # Redundant row: zero over every real column.
                del rows[r]
                del basis[r]
            else:
                _pivot(rows, z, basis, r, pivot_col)

    cost, scale = _scaled(objective)
    z = _objective_row(cost + [0] * (num_cols - n), rows, basis)
    status = _run_simplex(rows, z, basis, banned=art_cols)
    if status == "unbounded":
        return LpOutcome(LpStatus.Unbounded, None, None)

    x = [Fraction(0)] * n
    # the value is the scaled costs of the basic columns times their values,
    # rhs / basis entry, over one common denominator, divided by `scale`
    costed: list[tuple[int, int, int]] = []
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = Fraction(row[-1], row[j])
            if cost[j]:
                costed.append((cost[j], row[-1], row[j]))
    den = math.lcm(*(d for _, _, d in costed))
    value = Fraction(sum(c * v * (den // d) for c, v, d in costed), den * scale)
    # the inequality rows have, in order, the slack or surplus columns n, n + 1, ...
    tight = frozenset(i for k, i in enumerate(inequalities) if z[n + k])
    zeros = frozenset(compress(range(n), z))
    return LpOutcome(LpStatus.Optimal, tuple(x), value, tight, zeros)
