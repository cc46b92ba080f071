from fractions import Fraction

import pytest

from pcvote import (
    Bench,
    ComparisonOutcome,
    DomainError,
    Extension,
    Lottery,
    NEGATIVE_CONTROLS,
    condorcet_winner,
    fixture,
    fixture_names,
    fixture_profile,
    verify_paper_suite,
    weak_cw_family,
    weak_condorcet_winners,
)
from pcvote import EfficiencyNotion, paperlab
from pcvote.paperlab import DEFAULT_BENCH, Fact, FactResult, SuiteReport

F = Fraction

ALL_FIXTURES = {
    "rd_example", "ml_manipulation_R", "ml_manipulation_Rprime",
    "cw_gallery_R1", "cw_gallery_R2", "cw_gallery_R3", "cw_gallery_R4",
    "cw_gallery_R5", "cw_gallery_R6", "cw_gallery_R7", "cw_gallery_R8",
    "pareto_join_R1", "pareto_join_R2", "pareto_join_R3",
    "improvement_cycle", "swap_pair_R", "swap_pair_Rprime", "weak_cw_balanced",
}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_fixture_catalog():
    assert set(fixture_names()) == ALL_FIXTURES
    assert len(fixture_names()) == 18


def test_fixture_profiles_have_expected_shapes():
    expected = {
        "rd_example": (3, 5),
        "ml_manipulation_R": (3, 5),
        "ml_manipulation_Rprime": (3, 5),
        "pareto_join_R1": (4, 10),
        "pareto_join_R2": (4, 11),
        "pareto_join_R3": (4, 12),
        "improvement_cycle": (5, 8),
        "swap_pair_R": (4, 5),
        "swap_pair_Rprime": (4, 5),
        "weak_cw_balanced": (3, 4),
    }
    for name, (m, n) in expected.items():
        prof = fixture_profile(name)
        assert (prof.m, prof.n) == (m, n), name
    for k in range(1, 9):
        prof = fixture_profile(f"cw_gallery_R{k}")
        assert (prof.m, prof.n) == (4, 5)


def test_fixture_lookup_and_caching():
    assert fixture("rd_example") is fixture("rd_example")
    with pytest.raises(DomainError):
        fixture("nonexistent")
    with pytest.raises(DomainError):
        fixture("rd_example").lottery("nope")
    rd_lot = fixture("rd_example").lottery("rd")
    assert rd_lot.as_map()["a"] == F(3, 5)


def test_every_fixture_contributes_facts():
    total = 0
    for name in fixture_names():
        fx = fixture(name)
        assert len(fx.facts) >= 1, name
        total += len(fx.facts)
        for fact in fx.facts:
            assert type(fact) is Fact
            assert fact.text
    assert total == 76


def test_failing_facts_report_what_was_computed():
    fx = fixture("rd_example")
    cases = [
        (paperlab.margin("a", "b", 1), "majority margin (a over b) = 1", "got 3"),
        (paperlab.top_counts(a=1, b=1), "top counts a:1, b:1", "got {'a': 3, 'b': 1}"),
        (paperlab.condorcet(None), "condorcet winner = none", "got a"),
        (paperlab.never_bottom("b", "c"), "never-bottom set = {b, c}", "got {a}"),
        (paperlab.pareto_dominated("c"), "pareto-dominated set = {c}", "got {}"),
        (paperlab.support("deg_a", "a", "b"), "support(deg_a) = {a, b}", "got {a}"),
        (paperlab.maximal("rd"), "'rd' is a maximal lottery", "got False"),
        (
            paperlab.efficient(EfficiencyNotion.SD, "rd", False),
            "'rd' is sd-inefficient",
            "got efficient",
        ),
        (paperlab.dominates(Extension.SD, "deg_a", "rd"), "'deg_a' sd-dominates 'rd'", "dominance did not hold"),
    ]
    for fact, text, detail in cases:
        assert fact.check(fx, DEFAULT_BENCH) == FactResult("rd_example", text, False, detail)


def test_removing_voter_fact_details():
    r3 = fixture("pareto_join_R3")
    held = paperlab.removing_voter_yields(12, "pareto_join_R2").check(r3, DEFAULT_BENCH)
    assert (held.passed, held.detail) == (True, "")
    failed = paperlab.removing_voter_yields(1, "pareto_join_R2").check(r3, DEFAULT_BENCH)
    assert (failed.passed, failed.detail) == (False, "profiles differ")


# ---------------------------------------------------------------------------
# the suite and its controls
# ---------------------------------------------------------------------------

def test_default_suite_is_green():
    report = verify_paper_suite()
    assert report.passed
    assert len(report.results) == 76
    assert report.failures() == ()
    assert "76/76 facts pass" in report.render()


def test_ml_tie_break_control_fails_only_ml_facts():
    report = verify_paper_suite(negative_control="ml-tie-break")
    assert not report.passed
    failing = {(r.fixture, r.fact) for r in report.failures()}
    assert len(failing) == 3
    assert {fx for fx, _ in failing} == {"ml_manipulation_R", "ml_manipulation_Rprime"}
    assert "under negative control" in report.render()


def test_pc_sign_flip_control_fails_dominance_facts():
    report = verify_paper_suite(negative_control="pc-sign-flip")
    assert not report.passed
    failing = {(r.fixture, r.fact) for r in report.failures()}
    assert len(failing) == 6
    assert {fx for fx, _ in failing} == {
        "ml_manipulation_R", "pareto_join_R1", "pareto_join_R3", "improvement_cycle"
    }


def test_unknown_control_is_rejected():
    assert set(NEGATIVE_CONTROLS) == {"pc-sign-flip", "ml-tie-break"}
    with pytest.raises(DomainError):
        verify_paper_suite(negative_control="off-by-one")


def test_suite_report_rendering():
    results = (
        FactResult("fx", "thing holds", True, ""),
        FactResult("fx", "other thing", False, "expected 1 got 0"),
    )
    report = SuiteReport(results)
    assert not report.passed
    assert report.failures() == (results[1],)
    text = report.render()
    assert "[pass] fx: thing holds" in text
    assert "[FAIL] fx: other thing (expected 1 got 0)" in text
    assert "1/2 facts pass" in text


# ---------------------------------------------------------------------------
# benches
# ---------------------------------------------------------------------------

def test_bench_injection_points():
    from pcvote import alternative_set, ranking

    alts = alternative_set("abc")
    r = ranking(alts, ("a", "b", "c"))
    p = Lottery(alts, (F(1, 2), F(1, 2), F(0)))
    q = Lottery.degenerate(alts, "c")
    honest = DEFAULT_BENCH.comparator(Extension.PC)(r, p, q)
    flipped = NEGATIVE_CONTROLS["pc-sign-flip"].comparator(Extension.PC)(r, p, q)
    assert honest is ComparisonOutcome.StrictlyPreferred
    assert flipped is ComparisonOutcome.StrictlyDispreferred


def test_tie_break_bench_spreads_ml_mass():
    prof = fixture_profile("ml_manipulation_R")
    broken = NEGATIVE_CONTROLS["ml-tie-break"].rule("ml")(prof)
    assert broken == Lottery.uniform(prof.alternatives)  # support was {a,b,c}
    # other rules are untouched by this control
    assert NEGATIVE_CONTROLS["ml-tie-break"].rule("rd")(prof) == DEFAULT_BENCH.rule("rd")(prof)


def test_default_bench_rules_match_registry():
    prof = fixture_profile("rd_example")
    assert DEFAULT_BENCH.rule("f2")(prof) == Lottery.degenerate(prof.alternatives, "a")
    assert Bench().rule("ml")(prof) == Lottery.degenerate(prof.alternatives, "a")


# ---------------------------------------------------------------------------
# the parameterized family
# ---------------------------------------------------------------------------

def test_weak_cw_family_matches_fixture_at_unit_sizes():
    assert weak_cw_family(1, 1) == fixture_profile("weak_cw_balanced")


def test_weak_cw_family_properties():
    for n3, n5 in ((1, 1), (2, 1), (1, 3), (2, 2)):
        prof = weak_cw_family(n3, n5)
        assert prof.n == 2 * (n3 + n5)
        assert condorcet_winner(prof) is None
        assert weak_condorcet_winners(prof) == {"a"}
    with pytest.raises(DomainError):
        weak_cw_family(0, 1)
