"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Every check below is exact — Fraction arithmetic end to end, no tolerances.
The [acceptance] lines are written through the capture manager so they show up
in CI logs next to the test names.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from pcvote import (
    ComparisonOutcome,
    Decisiveness,
    EfficiencyNotion,
    Extension,
    Lottery,
    LpStatus,
    Mode,
    PathTermination,
    Verdict,
    alternative_set,
    check_decisiveness,
    compare,
    condorcet_winner,
    dominates,
    exhaustive_scan,
    find_manipulation,
    fixture_names,
    fixture_profile,
    get_rule,
    improvement_path,
    is_efficient,
    lp_solve,
    margin_matrix,
    mass_shift_perturbation,
    ml,
    parse_lottery,
    pareto_dominated_set,
    pc1_find_dominator,
    profile as make_profile,
    ranking,
    rd,
    relabel,
)
from pcvote.cli import main as cli_main

from helpers import bfs_reference_solve, random_lp, solve_margin_game

F = Fraction


@contextmanager
def criterion(announce, num, desc):
    try:
        yield
    except BaseException:
        announce(f"[acceptance] criterion {num:02d} FAIL — {desc}")
        raise
    announce(f"[acceptance] criterion {num:02d} PASS — {desc}")


def lot(prof, text):
    return parse_lottery(text, prof.alternatives)


def ballot_multiset(prof):
    return sorted(b.order for b in prof.ballots)


def test_criterion_01_random_dictatorship_example(announce):
    with criterion(announce, 1, "random dictatorship on the five-voter profile"):
        prof = fixture_profile("rd_example")
        outcome = rd(prof)
        assert outcome == lot(prof, "a:3/5,b:1/5,c:1/5")

        code = cli_main(
            ["check", "--axiom", "absolute-winner", "--rule", "rd", "--profile", "rd_example"]
        )
        assert code == 1

        cert = pc1_find_dominator(prof, outcome)
        assert cert is not None
        assert cert.dominator == lot(prof, "a:1")


def test_criterion_02_maximal_lottery_manipulation(announce):
    with criterion(announce, 2, "maximal-lottery values and the weak PC manipulation"):
        R = fixture_profile("ml_manipulation_R")
        Rprime = fixture_profile("ml_manipulation_Rprime")
        assert ml(R) == lot(R, "a:3/5,b:1/5,c:1/5")
        assert ml(Rprime) == lot(Rprime, "a:1/5,b:1/5,c:3/5")

        assert find_manipulation(ml, R, Extension.PC, Mode.Weak) is not None
        w = find_manipulation(ml, R, Extension.PC, Mode.Weak, voters=[4])
        assert w is not None and w.voter == 4
        assert w.misreport.order == ("c", "a", "b")
        assert ballot_multiset(w.manipulated_profile) == ballot_multiset(Rprime)
        assert w.truthful_outcome == ml(R)
        assert w.manipulated_outcome == ml(Rprime)


def test_criterion_03_condorcet_winner_gallery(announce):
    with criterion(announce, 3, "Condorcet winners across the eight-profile gallery"):
        expected = {1: None, 2: "b", 3: "a", 4: "d", 5: None, 6: "b", 7: "a", 8: "c"}
        for idx, winner in expected.items():
            prof = fixture_profile(f"cw_gallery_R{idx}")
            assert condorcet_winner(prof) == winner, idx


def test_criterion_04_pareto_join_ingredients(announce):
    with criterion(announce, 4, "Pareto set, degenerate dominators, and label symmetries"):
        R1 = fixture_profile("pareto_join_R1")
        R3 = fixture_profile("pareto_join_R3")
        assert pareto_dominated_set(R1) == frozenset({"d"})

        deg_a = lot(R1, "a:1")
        assert dominates(R1, Extension.PC1, deg_a, lot(R1, "a:1/4,b:1/4,c:1/4,d:1/4"))
        assert dominates(R3, Extension.PC1, deg_a, lot(R3, "b:1/3,c:1/3,d:1/3"))

        swap_bc = {"a": "a", "b": "c", "c": "b", "d": "d"}
        assert ballot_multiset(relabel(R1, alt_perm=swap_bc)) == ballot_multiset(R1)
        for perm in itertools.permutations("bcd"):
            alt_perm = {"a": "a"} | dict(zip("bcd", perm))
            assert ballot_multiset(relabel(R3, alt_perm=alt_perm)) == ballot_multiset(R3)


def test_criterion_05_improvement_cycle(announce):
    with criterion(announce, 5, "the five-alternative improvement cycle and its trap"):
        prof = fixture_profile("improvement_cycle")
        p1 = lot(prof, "a:1/2,b:1/2")
        p2 = lot(prof, "c:1")
        p3 = lot(prof, "d:1/2,e:1/2")

        assert dominates(prof, Extension.PC, p2, p1)
        assert dominates(prof, Extension.PC, p3, p2)
        assert dominates(prof, Extension.PC, p1, p3)
        for p in (p1, p2, p3):
            assert not is_efficient(prof, p, Extension.PC)

        for mode, seed in (("canonical", 0), ("random", 1), ("random", 2), ("random", 3)):
            path = improvement_path(prof, p1, max_steps=50, mode=mode, seed=seed)
            assert path.termination is not PathTermination.ReachedEfficient, (mode, seed)

        # every lottery on the denominator<=8 grid that PC-dominates p1 keeps
        # the d/e mass at zero and splits evenly between a and b
        m = len(prof.alternatives)
        seen = set()
        dominators = 0
        for den in range(1, 9):
            for cuts in itertools.combinations(range(den + m - 1), m - 1):
                ks = [b - a - 1 for a, b in zip((-1,) + cuts, cuts + (den + m - 1,))]
                probs = tuple(F(k, den) for k in ks)
                if probs in seen:
                    continue
                seen.add(probs)
                q = Lottery(prof.alternatives, probs)
                if dominates(prof, Extension.PC, q, p1):
                    dominators += 1
                    assert q.prob("d") == 0 and q.prob("e") == 0
                    assert q.prob("a") == q.prob("b")
        assert len(seen) == 1136 and dominators == 11


def test_criterion_06_mass_shift_case_analysis(announce):
    with criterion(announce, 6, "five-case mass-shift comparisons, 200+ exact instances each"):
        SP = ComparisonOutcome.StrictlyPreferred
        IND = ComparisonOutcome.Indifferent
        alts = alternative_set("wxyz")
        rankings = [ranking(alts, perm) for perm in itertools.permutations("wxyz")]
        rng = random.Random(424242)

        def rand_instance(zero_bystander):
            while True:
                w = 0 if zero_bystander else rng.randint(0, 6)
                x, y, z = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
                total = w + x + y + z
                p = Lottery(alts, (F(w, total), F(x, total), F(y, total), F(z, total)))
                bound = min(
                    p.prob("x") * (p.prob("x") + p.prob("z")),
                    p.prob("y") * (p.prob("y") + p.prob("z")),
                )
                eps = bound * F(rng.randint(1, 12), 12)
                if eps > 0:
                    return p, eps

        counts = {}
        for trial in range(250):
            p, eps = rand_instance(zero_bystander=(trial % 5 == 4))
            q = mass_shift_perturbation(p, ("w", "x", "y", "z"), eps)
            assert q.prob("w") == p.prob("w")
            assert min(q.probs) >= 0 and sum(q.probs) == 1
            for r in rankings:
                if r.prefers("z", "x") and r.prefers("z", "y"):
                    case, want_qp, want_pq = "1", SP, None
                elif r.prefers("x", "z") and r.prefers("y", "z"):
                    case, want_qp, want_pq = "2", None, SP
                elif p.prob("w") == 0 or r.rank("w") in (1, 4):
                    case, want_qp, want_pq = "3a", IND, IND
                elif r.rank("w") == 2:
                    case, want_qp, want_pq = "3b", None, SP
                else:
                    case, want_qp, want_pq = "3c", SP, None
                if want_qp is not None:
                    assert compare(Extension.PC, r, q, p) is want_qp, (case, r.order, p, eps)
                if want_pq is not None:
                    assert compare(Extension.PC, r, p, q) is want_pq, (case, r.order, p, eps)
                counts[case] = counts.get(case, 0) + 1

        assert set(counts) == {"1", "2", "3a", "3b", "3c"}
        assert all(v >= 200 for v in counts.values()), counts


def test_criterion_07_three_alternative_possibility_scans(announce):
    with criterion(announce, 7, "exhaustive three-alternative scans for both bespoke rules"):
        jobs = [
            ("f1", ["anonymity", "neutrality", "cancellation",
                    "pc-strategyproofness", "pc-efficiency"]),
            ("f2", ["anonymity", "neutrality", "pc-efficiency", "strict-sd-participation"]),
        ]
        for rule_name, axiom_names in jobs:
            rule = get_rule(rule_name)
            for axiom_name in axiom_names:
                # the symmetry axioms are checked on every profile; the others
                # on one sorted profile per relabelling orbit, which reaches further
                symmetry = axiom_name in ("anonymity", "neutrality")
                for n_max, anon in ((3 if symmetry else 7, False), (4 if symmetry else 8, True)):
                    report = exhaustive_scan(rule, 3, n_max, axiom_name, up_to_anonymity=anon)
                    assert report.verdict is Verdict.Holds, (rule_name, axiom_name, n_max, anon)


def test_criterion_08_rule_spot_properties(announce):
    with criterion(announce, 8, "dictatorship strategyproofness and maximal-lottery spot checks"):
        report = exhaustive_scan(get_rule("rd"), 3, 3, "sd-strategyproofness", n_min=3)
        assert report.verdict is Verdict.Holds and report.profiles_checked == 216

        for name in fixture_names():
            prof = fixture_profile(name)
            assert check_decisiveness(ml, prof, Decisiveness.CondorcetConsistency) is None, name
            assert is_efficient(prof, ml(prof), EfficiencyNotion.PC), name

        rng = random.Random(90210)
        for k in range(500):
            m, n = rng.randint(2, 4), rng.randint(1, 7)
            alts = "abcd"[:m]
            prof = make_profile(alts, [rng.sample(alts, m) for _ in range(n)])
            assert check_decisiveness(ml, prof, Decisiveness.CondorcetConsistency) is None, k
            assert is_efficient(prof, ml(prof), EfficiencyNotion.PC), k


def test_criterion_09_lp_kernel_against_reference(announce):
    with criterion(announce, 9, "simplex agrees with basic-solution enumeration; games are fair"):
        rng = random.Random(1729)
        statuses = set()
        for k in range(500):
            program = random_lp(rng)
            got = lp_solve(program)
            want_status, want_value = bfs_reference_solve(program)
            assert got.status is want_status, (k, got.status, want_status)
            if want_status is LpStatus.Optimal:
                assert got.value == want_value, (k, got.value, want_value)
            statuses.add(want_status)
        assert statuses == {LpStatus.Optimal, LpStatus.Infeasible, LpStatus.Unbounded}

        for name in fixture_names():
            mm = margin_matrix(fixture_profile(name))
            value, strategy = solve_margin_game(mm)
            assert value == 0, name
            assert sum(strategy) == 1 and min(strategy) >= 0
            for row in mm.rows:
                assert sum(g * s for g, s in zip(row, strategy)) <= 0, name


def test_criterion_10_paper_suite_and_negative_controls(announce):
    with criterion(announce, 10, "bundled fact suite passes; sabotaged variants fail"):
        assert cli_main(["paper-suite"]) == 0
        assert cli_main(["paper-suite", "--negative-control", "pc-sign-flip"]) == 1
        assert cli_main(["paper-suite", "--negative-control", "ml-tie-break"]) == 1
