import hashlib
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pcvote import (
    Constraint, DomainError, IntRowProgram, LinearProgram, LpStatus, efficiency, lp_solve, ratlp, rules,
)
from pcvote.ratlp import EQ, GE, LE, LpOutcome
from helpers import bfs_reference_solve, lp_feasible, random_lp

F = Fraction


def solve(objective, constraints):
    return lp_solve(LinearProgram(tuple(map(F, objective)), tuple(constraints)))


def c(coeffs, rel, rhs):
    return Constraint(tuple(map(F, coeffs)), rel, F(rhs))


# ---------------------------------------------------------------------------
# pinned solves
# ---------------------------------------------------------------------------

def test_two_variable_optimum():
    # max x + y st x + 2y <= 4, 3x + y <= 6  ->  corner (8/5, 6/5), value 14/5
    out = solve([1, 1], [c([1, 2], LE, 4), c([3, 1], LE, 6)])
    assert out.status is LpStatus.Optimal
    assert out.value == F(14, 5)
    assert out.solution == (F(8, 5), F(6, 5))


def test_equality_constraint():
    out = solve([2, 3], [c([1, 1], EQ, 1)])
    assert out.status is LpStatus.Optimal
    assert out.value == 3 and out.solution == (F(0), F(1))


def test_infeasible():
    out = solve([1], [c([1], GE, 2), c([1], LE, 1)])
    assert out.status is LpStatus.Infeasible
    assert out.solution is None and out.value is None


def test_unbounded():
    out = solve([1, 0], [c([0, 1], LE, 5)])
    assert out.status is LpStatus.Unbounded


def test_degenerate_vertex():
    # three constraints meet at the optimum (0, 2); degeneracy must not confuse anything
    out = solve([0, 1], [c([1, 1], LE, 2), c([-1, 1], LE, 2), c([0, 1], LE, 2)])
    assert out.status is LpStatus.Optimal
    assert out.value == 2


def test_beale_cycling_instance_terminates():
    # the textbook example that cycles under naive most-negative pivoting;
    # the lowest-index rule must grind through to the optimum of 1/20
    cons = [
        c([F(1, 4), -60, F(-1, 25), 9], LE, 0),
        c([F(1, 2), -90, F(-1, 50), 3], LE, 0),
        c([0, 0, 1, 0], LE, 1),
    ]
    out = solve([F(3, 4), -150, F(1, 50), -6], cons)
    assert out.status is LpStatus.Optimal
    assert out.value == F(1, 20)
    lp = LinearProgram((F(3, 4), F(-150), F(1, 50), F(-6)), tuple(cons))
    assert bfs_reference_solve(lp) == (LpStatus.Optimal, F(1, 20))


def test_redundant_rows_are_harmless():
    out = solve([1, 1], [c([1, 1], EQ, 1), c([2, 2], EQ, 2), c([1, 1], LE, 1)])
    assert out.status is LpStatus.Optimal
    assert out.value == 1


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    out = solve([-1], [c([-1], LE, -2)])
    assert out.status is LpStatus.Optimal
    assert out.solution == (F(2),) and out.value == -2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_floats_everywhere():
    with pytest.raises(DomainError):
        Constraint((0.5,), LE, F(1))
    with pytest.raises(DomainError):
        Constraint((F(1),), LE, 0.5)
    with pytest.raises(DomainError):
        LinearProgram((0.5,), (c([1], LE, 1),))
    with pytest.raises(DomainError):
        Constraint((1, 0.5), LE, 1)
    with pytest.raises(DomainError):
        Constraint(("1",), LE, 1)
    with pytest.raises(DomainError):
        Constraint((1,), LE, "1")
    with pytest.raises(DomainError):
        LinearProgram((1, "1"), (Constraint((1, 1), LE, 1),))


def test_rejects_shape_mismatch():
    with pytest.raises(DomainError):
        LinearProgram((F(1), F(2)), (c([1], LE, 1),))
    with pytest.raises(DomainError):
        LinearProgram((), ())
    with pytest.raises(DomainError):
        Constraint((F(1),), "<", F(1))


_REFUSED_INT_ROWS = {
    "float in a row": ((1, 1), ((1, 0.5),), (1,)),
    "float rhs": ((1, 1), ((1, 1),), (0.5,)),
    "Fraction in a row": ((1, 1), ((1, F(1, 2)),), (1,)),
    "Fraction rhs": ((1, 1), ((1, 1),), (F(1),)),
    "negative rhs": ((1, 1), ((1, 1), (1, 0)), (1, -1)),
    "short row": ((1, 1), ((1, 1), (1,)), (1, 1)),
    "long row": ((1, 1), ((1, 1, 1),), (1,)),
    "more rhs than rows": ((1, 1), ((1, 1),), (1, 1)),
    "fewer rhs than rows": ((1, 1), ((1, 1), (1, 0)), (1,)),
    "float in the objective": ((1, 0.5), ((1, 1),), (1,)),
    "no variables": ((), (), ()),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_INT_ROWS))
def test_int_row_programs_refuse_all_but_int_rows_with_rhs_at_least_0(case):
    objective, rows, rhs = _REFUSED_INT_ROWS[case]
    with pytest.raises(DomainError):
        lp_solve(IntRowProgram(objective, rows, rhs))


def test_an_int_row_program_solves_from_its_slack_basis():
    # max x + y st x + 2y <= 4, 3x + y <= 6, as in test_two_variable_optimum
    out = lp_solve(IntRowProgram((1, 1), ((1, 2), (3, 1)), (4, 6)))
    assert out.status is LpStatus.Optimal
    assert out.solution == (F(8, 5), F(6, 5)) and out.value == F(14, 5)
    assert out.tight == {0, 1}
    assert lp_solve(IntRowProgram((F(1, 2), 1), ((1, -1),), (0,))).status is LpStatus.Unbounded


def test_integers_are_coerced_to_fractions():
    out = solve([1], [c([1], LE, 3)])
    assert isinstance(out.value, F) and out.value == 3


def test_int_entries_are_kept_as_ints():
    con = Constraint((1, -2, F(1, 2)), GE, 3)
    assert [type(v) for v in con.coeffs] == [int, int, F] and type(con.rhs) is int
    lp = LinearProgram((2, F(3)), (Constraint((1, 1), LE, 4),))
    assert [type(v) for v in lp.objective] == [int, F]
    out = lp_solve(lp)
    assert out.solution == (0, 4) and all(type(x) is F for x in out.solution)
    assert out.value == 12 and type(out.value) is F


def test_an_int_row_enters_the_tableau_unchanged():
    rows, basis, art_cols = ratlp._standardize((1, 1), (Constraint((2, 4), LE, 6),))
    assert rows == [[2, 4, 1, 6]] and basis == [2] and not art_cols
    rows, _, _ = ratlp._standardize((1, 1), (Constraint((F(2), F(4)), LE, F(6)),))
    assert rows == [[2, 4, 1, 6]]


def _times(factor, values):
    """`values` times a positive factor, as ints when the products are whole."""
    products = [factor * v for v in values]
    if all(v.denominator == 1 for v in products):
        return tuple(int(v) for v in products)
    return tuple(products)


def test_positive_scaling_keeps_status_and_solution():
    # scaling a row or the objective by a positive factor changes no sign of
    # a reduced cost and no order of the ratios: Bland's rule takes the same
    # pivots, so the vertex is the same and the value scales with the objective.
    # Even cases clear each row's denominators, so those rows enter as ints.
    rng = random.Random(6173)
    statuses = set()
    for i in range(300):
        lp = random_lp(rng, max_vars=5, max_constraints=8)
        cleared = i % 2 == 0

        def factor(values):
            f = rng.randint(1, 60)
            return f * math.lcm(*(F(v).denominator for v in values)) if cleared else f

        rows = []
        for con in lp.constraints:
            values = _times(factor(con.coeffs + (con.rhs,)), con.coeffs + (con.rhs,))
            rows.append(Constraint(values[:-1], con.relation, values[-1]))
        k = factor(lp.objective)
        scaled = LinearProgram(_times(k, lp.objective), tuple(rows))
        if cleared:
            assert all(type(v) is int for row in rows for v in row.coeffs + (row.rhs,))
            assert all(type(v) is int for v in scaled.objective)
        want, got = lp_solve(lp), lp_solve(scaled)
        statuses.add(want.status)
        assert got.status is want.status, i
        assert got.solution == want.solution, i
        assert got.value == (None if want.value is None else k * want.value), i
    assert statuses == set(LpStatus)


# ---------------------------------------------------------------------------
# feasibility front-end
# ---------------------------------------------------------------------------

def test_lp_feasible_returns_exact_witness():
    cons = [c([1, 1], EQ, 1), c([1, -1], GE, 0)]
    ok, witness = lp_feasible(cons, 2)
    assert ok
    x, y = witness
    assert x + y == 1 and x - y >= 0 and x >= 0 and y >= 0


def test_lp_feasible_detects_empty():
    ok, witness = lp_feasible([c([1], LE, -1)], 1)
    assert not ok and witness is None


# ---------------------------------------------------------------------------
# randomized duel with the basic-solution enumerator
# ---------------------------------------------------------------------------

def test_agrees_with_reference_on_random_programs():
    rng = random.Random(8128)
    statuses = {s: 0 for s in LpStatus}
    for i in range(150):
        lp = random_lp(rng)
        got = lp_solve(lp)
        want_status, want_value = bfs_reference_solve(lp)
        assert got.status is want_status, f"case {i}: {got.status} != {want_status}"
        statuses[got.status] += 1
        if got.status is LpStatus.Optimal:
            assert got.value == want_value, f"case {i}: {got.value} != {want_value}"
            # witness honesty: constraints hold exactly, objective matches
            for con in lp.constraints:
                lhs = sum(a * x for a, x in zip(con.coeffs, got.solution))
                if con.relation == LE:
                    assert lhs <= con.rhs
                elif con.relation == GE:
                    assert lhs >= con.rhs
                else:
                    assert lhs == con.rhs
            assert all(x >= 0 for x in got.solution)
            assert sum(a * x for a, x in zip(lp.objective, got.solution)) == got.value
    assert all(statuses[s] > 0 for s in LpStatus), statuses


def test_deterministic_resolve():
    rng = random.Random(99)
    for _ in range(20):
        lp = random_lp(rng)
        assert lp_solve(lp) == lp_solve(lp)


def test_outcomes_pinned():
    # criterion 09's 500 programs, then 500 larger ones from the same stream;
    # the digest was computed with the Fraction-pivot simplex this kernel replaced
    rng = random.Random(1729)
    digest = hashlib.sha256()
    for k in range(1000):
        lp = random_lp(rng) if k < 500 else random_lp(rng, max_vars=6, max_constraints=10)
        digest.update(repr(lp_solve(lp)).encode())
    assert digest.hexdigest() == "4ce1663bef5478942dcadd6607b7f34ceb5f706181e75a99e007e70c82ebbdca"


def test_rows_reported_tight_stay_tight_over_the_optimal_face():
    # criterion 09's 500 programs, then 500 larger ones from the same stream.
    # A reported row's slack, maximized over the optimal face (every
    # constraint and objective >= value), must stay 0; the small programs
    # are checked by the basic-solution enumerator, which reads no tableau.
    rng = random.Random(1729)
    reported = optimal = 0
    for k in range(1000):
        lp = random_lp(rng) if k < 500 else random_lp(rng, max_vars=6, max_constraints=10)
        out = lp_solve(lp)
        if out.status is not LpStatus.Optimal:
            assert not out.tight, k
            continue
        optimal += 1
        face = lp.constraints + (Constraint(lp.objective, GE, out.value),)
        for i in out.tight:
            row = lp.constraints[i]
            assert row.relation != EQ, (k, i)
            # the slack is rhs - coeffs·x for <=, coeffs·x - rhs for >=
            sign = -1 if row.relation == LE else 1
            slack_max = LinearProgram(tuple(sign * a for a in row.coeffs), face)
            if k < 500:
                assert bfs_reference_solve(slack_max) == (LpStatus.Optimal, sign * row.rhs), (k, i)
            else:
                assert lp_solve(slack_max).value == sign * row.rhs, (k, i)
            reported += 1
    assert optimal == 164 and reported > 100, (optimal, reported)


def test_columns_reported_zero_stay_zero_over_the_optimal_face():
    # The same 1000 programs. A reported column's value, maximized over the
    # optimal face, must stay 0; the small programs are checked by the
    # basic-solution enumerator, which reads no tableau.
    rng = random.Random(1729)
    reported = optimal = 0
    for k in range(1000):
        lp = random_lp(rng) if k < 500 else random_lp(rng, max_vars=6, max_constraints=10)
        out = lp_solve(lp)
        if out.status is not LpStatus.Optimal:
            assert not out.zeros, k
            continue
        optimal += 1
        face = lp.constraints + (Constraint(lp.objective, GE, out.value),)
        for j in out.zeros:
            assert out.solution[j] == 0, (k, j)
            value_max = LinearProgram(tuple(int(i == j) for i in range(len(lp.objective))), face)
            if k < 500:
                assert bfs_reference_solve(value_max) == (LpStatus.Optimal, 0), (k, j)
            else:
                assert lp_solve(value_max).value == 0, (k, j)
            reported += 1
    assert optimal == 164 and reported > 100, (optimal, reported)


def test_the_tight_report_is_left_out_of_repr_and_equality():
    out = solve([1, 1], [c([1, 2], LE, 4), c([3, 1], LE, 6)])
    assert out.tight == {0, 1} and out.zeros == frozenset()
    bare = LpOutcome(out.status, out.solution, out.value)
    assert bare == out and repr(bare) == repr(out) and hash(bare) == hash(out)
    # max x subject to x + y <= 1: y is nonbasic with reduced cost −1
    zero = solve([1, 0], [c([1, 1], LE, 1)])
    assert zero.solution == (1, 0) and zero.zeros == {1}
    bare = LpOutcome(zero.status, zero.solution, zero.value)
    assert bare == zero and repr(bare) == repr(zero) and hash(bare) == hash(zero)


def _assert_canonical(rows, basis):
    for k, (row, b) in enumerate(zip(rows, basis)):
        assert row[b] > 0, (k, row, b)
        assert math.gcd(*row) == 1, (k, row)
        assert all(other[b] == 0 for i, other in enumerate(rows) if i != k), (k, b)


def test_tableau_invariants_hold_after_every_pivot(monkeypatch):
    # each row stands for itself over its basis entry: that entry stays > 0,
    # rows stay reduced, and basic columns stay unit columns up to that scale
    real_standardize, real_pivot = ratlp._standardize, ratlp._pivot
    pivots = {"positive": 0, "negative": 0}

    def standardize(objective, constraints):
        rows, basis, art_cols = real_standardize(objective, constraints)
        _assert_canonical(rows, basis)
        return rows, basis, art_cols

    def pivot(rows, z, basis, r, j):
        pivots["negative" if rows[r][j] < 0 else "positive"] += 1
        real_pivot(rows, z, basis, r, j)
        _assert_canonical(rows, basis)
        assert basis[r] == j and all(z[b] == 0 for b in basis)

    monkeypatch.setattr(ratlp, "_standardize", standardize)
    monkeypatch.setattr(ratlp, "_pivot", pivot)
    rng = random.Random(4913)
    for _ in range(600):
        lp = random_lp(rng, max_vars=6, max_constraints=10)
        got = lp_solve(lp)
        if got.status is LpStatus.Optimal:
            assert sum(a * x for a, x in zip(lp.objective, got.solution)) == got.value
    # the artificial drive-out step is the only one that may pivot on a negative entry
    assert pivots["positive"] > 1000 and pivots["negative"] > 0, pivots


def _corpus_lps(monkeypatch) -> list:
    """Every LP one pass of the benchmark's corpus workload solves, at the
    seed whose digests it records."""
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", benchmarks / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    solved = []

    def recording(lp):
        solved.append(lp)
        return real(lp)

    real = ratlp.lp_solve
    for owner in (ratlp, rules, efficiency):
        monkeypatch.setattr(owner, "lp_solve", recording)
    for op in module.WORKLOADS["corpus"](module.RECORDED["corpus_digests"]["seed"]).ops:
        op.run()
    monkeypatch.undo()
    return solved


def test_the_value_is_the_fraction_sum_over_the_solution(monkeypatch):
    # the value is summed in ints over one denominator; it must be the sum
    # of cost times value in Fractions, down to its type and repr
    lps = []
    # the random programs the tests above draw, stream by stream: (seed, small, larger)
    for seed, small, larger in ((1729, 500, 500), (8128, 150, 0), (99, 20, 0), (4913, 0, 600)):
        rng = random.Random(seed)
        lps += [random_lp(rng) for _ in range(small)]
        lps += [random_lp(rng, max_vars=6, max_constraints=10) for _ in range(larger)]
    fixtures = len(lps)
    lps += _corpus_lps(monkeypatch)
    # one corpus pass: 1669 dominator calls, of which G p <= 0 settles 789 PC
    # ones, rd's support all 508 SD ones and the unit multipliers 103 PC
    # ones with no LP, and 145 LPs of ml: 1669 - 789 - 508 - 103 + 145 = 414
    # (see `LP_SOLVES` in test_benchmark_bindings.py)
    assert len(lps) - fixtures == 414
    optimal = corpus_optimal = 0
    for k, lp in enumerate(lps):
        out = lp_solve(lp)
        if out.status is not LpStatus.Optimal:
            continue
        optimal += 1
        corpus_optimal += k >= fixtures
        want = sum(c * v for c, v in zip(lp.objective, out.solution))
        assert type(out.value) is Fraction and repr(out.value) == repr(want), k
    # 275 of the 1770 random programs have an optimum, and every corpus LP
    # does (each is feasible at 0 and bounded by its Σ <= 1 row): 275 + 414 =
    # 689. Before the unit multipliers and ml's even split the corpus gave
    # 592, 867 in all; with the margin certificate alone 990, 1265 in all;
    # before any certificate 1889, 2164 in all
    assert (optimal, corpus_optimal) == (689, 414), optimal
