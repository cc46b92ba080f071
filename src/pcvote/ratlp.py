"""A small, exact linear-programming kernel over `fractions.Fraction`.

Dense two-phase simplex with Bland's anti-cycling pivot rule. Built for
the tiny programs this package generates (at most a dozen or so variables
and rows), where exactness and determinism — not speed — are the contract:
the same program always takes the same pivots and returns the same
optimal vertex.

Conventions: objectives are maximized; every variable is bounded below by
0 and unbounded above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .model import DomainError, InternalError, _require_exact

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class Constraint:
    """coeffs · x  <relation>  rhs"""

    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(_require_exact(c, "constraint coefficient") for c in self.coeffs)
        )
        object.__setattr__(self, "rhs", _require_exact(self.rhs, "constraint rhs"))
        if self.relation not in _RELATIONS:
            raise DomainError(f"constraint relation must be one of {_RELATIONS}, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective · x  subject to constraints and x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "objective", tuple(_require_exact(c, "objective coefficient") for c in self.objective)
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


class LpStatus(Enum):
    Optimal = "optimal"
    Infeasible = "infeasible"
    Unbounded = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    solution: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]


# ---------------------------------------------------------------------------
# simplex machinery
# ---------------------------------------------------------------------------

def _pivot(rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int], r: int, j: int) -> None:
    piv = rows[r][j]
    rows[r] = [v / piv for v in rows[r]]
    rhs[r] = rhs[r] / piv
    for k in range(len(rows)):
        if k == r:
            continue
        f = rows[k][j]
        if f:
            pivot_row = rows[r]
            rows[k] = [v - f * w for v, w in zip(rows[k], pivot_row)]
            rhs[k] = rhs[k] - f * rhs[r]
    basis[r] = j


def _run_simplex(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
    cost: list[Fraction],
    banned: frozenset[int],
) -> str:
    """Pivot until optimal ('optimal') or a ray is found ('unbounded').

    Bland's rule throughout: entering = lowest-index column with positive
    reduced cost; leaving = minimum ratio, ties broken by lowest basic
    variable index. `banned` columns never enter.
    """
    num_rows = len(rows)
    num_cols = len(cost)
    while True:
        in_basis = set(basis)
        cb = [cost[basis[r]] for r in range(num_rows)]
        entering = -1
        for j in range(num_cols):
            if j in banned or j in in_basis:
                continue
            reduced = cost[j] - sum(cb[r] * rows[r][j] for r in range(num_rows))
            if reduced > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best_ratio: Optional[Fraction] = None
        for r in range(num_rows):
            coeff = rows[r][entering]
            if coeff > 0:
                ratio = rhs[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded"
        _pivot(rows, rhs, basis, leaving, entering)


def _standardize(
    objective: Sequence[Fraction], constraints: Sequence[Constraint]
) -> tuple[list[list[Fraction]], list[Fraction], list[int], list[Fraction], frozenset[int]]:
    """Equality standard form with rhs >= 0, slack/surplus and artificial columns.

    Returns (rows, rhs, basis, full cost vector, artificial column set).
    """
    n = len(objective)
    normalized: list[tuple[list[Fraction], str, Fraction]] = []
    for c in constraints:
        row = list(c.coeffs)
        rel = c.relation
        b = c.rhs
        if b < 0:
            row = [-v for v in row]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        normalized.append((row, rel, b))

    num_rows = len(normalized)
    num_slack = sum(1 for _, rel, _ in normalized if rel != EQ)
    # artificial columns: GE and EQ rows need one; LE rows start on their slack
    num_art = sum(1 for _, rel, _ in normalized if rel != LE)
    num_cols = n + num_slack + num_art

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = [-1] * num_rows
    slack_at = n
    art_at = n + num_slack
    art_cols: list[int] = []
    for r, (row, rel, b) in enumerate(normalized):
        full = row + [Fraction(0)] * (num_cols - n)
        if rel == LE:
            full[slack_at] = Fraction(1)
            basis[r] = slack_at
            slack_at += 1
        elif rel == GE:
            full[slack_at] = Fraction(-1)
            slack_at += 1
        if rel != LE:
            full[art_at] = Fraction(1)
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1
        rows.append(full)
        rhs.append(b)

    cost = list(objective) + [Fraction(0)] * (num_cols - n)
    return rows, rhs, basis, cost, frozenset(art_cols)


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly by two-phase simplex. Deterministic: identical input,
    identical outcome."""
    objective = lp.objective
    n = len(objective)
    rows, rhs, basis, cost, art_cols = _standardize(objective, lp.constraints)

    if art_cols:
        phase1_cost = [Fraction(0)] * len(cost)
        for j in art_cols:
            phase1_cost[j] = Fraction(-1)
        status = _run_simplex(rows, rhs, basis, phase1_cost, banned=art_cols)
        if status != "optimal":
            raise InternalError(f"phase one came out {status}, though it is bounded by construction")
        infeasibility = -sum(
            rhs[r] for r in range(len(rows)) if basis[r] in art_cols
        )
        if infeasibility != 0:
            return LpOutcome(LpStatus.Infeasible, None, None)
        # Drive leftover artificial variables (all at value 0) out of the basis.
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] not in art_cols:
                continue
            pivot_col = next(
                (j for j in range(len(cost)) if j not in art_cols and rows[r][j] != 0),
                None,
            )
            if pivot_col is None:
                # Redundant row: zero over every real column.
                del rows[r]
                del rhs[r]
                del basis[r]
            else:
                _pivot(rows, rhs, basis, r, pivot_col)

    status = _run_simplex(rows, rhs, basis, cost, banned=art_cols)
    if status == "unbounded":
        return LpOutcome(LpStatus.Unbounded, None, None)

    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = rhs[r]
    value = sum(c * v for c, v in zip(objective, x))
    return LpOutcome(LpStatus.Optimal, tuple(x), value)
