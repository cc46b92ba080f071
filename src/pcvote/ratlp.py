"""A small, exact linear-programming kernel over `fractions.Fraction`.

Dense two-phase simplex with Bland's anti-cycling pivot rule. Built for
the tiny programs this package generates (at most a dozen or so variables
and rows), where exactness and determinism — not speed — are the contract:
the same program always takes the same pivots and returns the same
optimal vertex.

Conventions: objectives are maximized; variables default to lower bound 0
and no upper bound, with explicit finite bounds translated internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def constraint(coeffs: Iterable[object], relation: str, rhs: object) -> Constraint:
    return Constraint(tuple(coeffs), relation, rhs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective · x  subject to constraints and variable bounds.

    `bounds[j]` is a (lower, upper) pair; upper may be None for unbounded
    above. Omitted bounds mean (0, None) for every variable.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    bounds: Optional[tuple[tuple[Fraction, Optional[Fraction]], ...]] = None

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
        if self.bounds is not None:
            pairs = []
            for j, pair in enumerate(self.bounds):
                lo, hi = pair
                lo = _require_exact(lo, f"lower bound of variable {j}")
                hi = None if hi is None else _require_exact(hi, f"upper bound of variable {j}")
                pairs.append((lo, hi))
            if len(pairs) != n:
                raise DomainError(f"{len(pairs)} bound pairs for {n} variables")
            object.__setattr__(self, "bounds", tuple(pairs))


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


def _solve_standardized(
    objective: Sequence[Fraction], constraints: Sequence[Constraint]
) -> LpOutcome:
    """Two-phase simplex on the x >= 0 form; solution reported in x-space."""
    n = len(objective)
    rows, rhs, basis, cost, art_cols = _standardize(objective, constraints)

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


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly. Deterministic: identical input, identical outcome."""
    n = len(lp.objective)
    if lp.bounds is None:
        return _solve_standardized(lp.objective, lp.constraints)

    # Shift each variable down by its lower bound, add rows for finite uppers.
    lowers = [lo for lo, _ in lp.bounds]
    shifted_constraints: list[Constraint] = []
    for c in lp.constraints:
        offset = sum(a * lo for a, lo in zip(c.coeffs, lowers))
        shifted_constraints.append(Constraint(c.coeffs, c.relation, c.rhs - offset))
    for j, (lo, hi) in enumerate(lp.bounds):
        if hi is None:
            continue
        if hi < lo:
            return LpOutcome(LpStatus.Infeasible, None, None)
        row = tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
        shifted_constraints.append(Constraint(row, LE, hi - lo))

    shifted = _solve_standardized(lp.objective, shifted_constraints)
    if shifted.status is not LpStatus.Optimal:
        return shifted
    assert shifted.solution is not None and shifted.value is not None
    solution = tuple(y + lo for y, lo in zip(shifted.solution, lowers))
    offset = sum(c * lo for c, lo in zip(lp.objective, lowers))
    return LpOutcome(LpStatus.Optimal, solution, shifted.value + offset)


def lp_feasible(
    constraints: Sequence[Constraint], num_vars: int
) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Phase-one feasibility test for constraints over x >= 0.

    Returns (feasible, witness); the witness is an exact feasible point
    (a basic solution of the system) when one exists.
    """
    if num_vars <= 0:
        raise DomainError("lp_feasible needs at least one variable")
    outcome = _solve_standardized([Fraction(0)] * num_vars, tuple(constraints))
    if outcome.status is LpStatus.Optimal:
        return True, outcome.solution
    return False, None
