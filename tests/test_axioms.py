import functools
import hashlib
import itertools
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from pcvote import (
    AXIOMS,
    ApplicabilityError,
    Decisiveness,
    DomainError,
    EfficiencyNotion,
    Extension,
    Lottery,
    Mode,
    Profile,
    Tally,
    Verdict,
    all_rankings,
    alternative_set,
    axiom,
    check_axiom_on_profile,
    check_cancellation,
    check_decisiveness,
    check_efficiency,
    check_participation,
    check_symmetry,
    count_profiles,
    dominates,
    enumerate_profiles,
    exhaustive_scan,
    find_manipulation,
    fixture_profile,
    get_rule,
    margin_matrix,
    margin_tally,
    ml,
    never_bottom_set,
    parse_profile,
    profile,
    ranking,
    rd,
    relabel,
    remove_voter,
    top_bottom_tally,
    top_counts,
    top_tally,
)
from pcvote import axioms as axioms_module
from pcvote.axioms import (
    DEFAULT_ENUMERATION_BUDGET,
    RULE_EVALUATION_BUDGET,
    AxiomSpec,
    EnumerationBudgetError,
    _Edits,
    _alternatives,
    _least_in_orbit,
    _tables_to_first,
    _tally_tables,
    exists_strict_improvement,
    memoized,
)
from pcvote.ratlp import EQ, Constraint, LinearProgram, lp_solve
from pcvote.rules import RULES, SocialDecisionScheme
from helpers import (
    random_lottery,
    random_profile,
    reference_check_participation,
    reference_find_manipulation,
    reference_least_in_orbit,
    reference_relabelling_tables,
    strategyproofness_ladder_gaps,
)

F = Fraction

RD = get_rule("rd")
ML = get_rule("ml")
F1 = get_rule("f1")
CU = get_rule("condorcet-uniform")

# deliberately broken rules for negative tests
DICTATOR = SocialDecisionScheme(
    "dictator-1", lambda p: Lottery.degenerate(p.alternatives, p.ballot(1).top)
)
FIRST_NAME = SocialDecisionScheme(
    "first-name", lambda p: Lottery.degenerate(p.alternatives, p.alternatives.names[0])
)
LAST_VOTER = SocialDecisionScheme(
    "dictator-n", lambda p: Lottery.degenerate(p.alternatives, p.ballot(p.n).top)
)


def counting(rule):
    """The rule with its declarations kept, and the list of profiles it is
    evaluated on."""
    calls = []

    def evaluate(prof):
        calls.append(prof)
        return rule.evaluate(prof)

    return replace(rule, evaluate=evaluate), calls


# ---------------------------------------------------------------------------
# manipulation search
# ---------------------------------------------------------------------------

def test_ml_weak_pc_manipulation_unrestricted():
    prof = fixture_profile("ml_manipulation_R")
    w = find_manipulation(ML, prof, Extension.PC, Mode.Weak)
    assert w is not None
    # voters 3 and 4 cast the same ballot; the scan hits 3 first
    assert w.voter == 3
    assert w.misreport.order == ("c", "a", "b")
    assert w.truthful_outcome.as_map()["a"] == F(3, 5)
    assert w.manipulated_outcome.as_map()["c"] == F(3, 5)


def test_ml_weak_pc_manipulation_voter_four_lands_on_companion_profile():
    prof = fixture_profile("ml_manipulation_R")
    w = find_manipulation(ML, prof, Extension.PC, Mode.Weak, voters=(4,))
    assert w is not None and w.voter == 4
    assert w.manipulated_profile == fixture_profile("ml_manipulation_Rprime")


def test_rd_has_no_sd_manipulation_here():
    prof = fixture_profile("ml_manipulation_R")
    assert find_manipulation(RD, prof, Extension.SD, Mode.Strong) is None


def test_weak_witness_implies_strong_witness():
    rng = random.Random(101)
    found_weak = 0
    for _ in range(25):
        prof = random_profile(rng, m_max=3, n_max=3)
        for ext in (Extension.PC, Extension.SD):
            if find_manipulation(CU, prof, ext, Mode.Weak) is not None:
                found_weak += 1
                assert find_manipulation(CU, prof, ext, Mode.Strong) is not None
    # PC is complete, so weak and strong coincide there
    for _ in range(25):
        prof = random_profile(rng, m_max=3, n_max=3)
        weak = find_manipulation(CU, prof, Extension.PC, Mode.Weak)
        strong = find_manipulation(CU, prof, Extension.PC, Mode.Strong)
        assert (weak is None) == (strong is None)
        if weak is not None:
            assert (weak.voter, weak.misreport) == (strong.voter, strong.misreport)


def test_manipulated_profile_is_single_ballot_edit():
    prof = fixture_profile("ml_manipulation_R")
    w = find_manipulation(ML, prof, Extension.PC, Mode.Weak)
    assert w.manipulated_profile == prof.replace_ballot(w.voter, w.misreport)


def test_the_witness_is_the_deviated_profile_the_search_built(monkeypatch):
    built = []
    replace_ballot = Profile.replace_ballot

    def counting_replace_ballot(prof, i, ballot):
        built.append(replace_ballot(prof, i, ballot))
        return built[-1]

    monkeypatch.setattr(Profile, "replace_ballot", counting_replace_ballot)
    rule, calls = counting(ML)  # no memo: every deviation is evaluated on its profile
    w = find_manipulation(rule, fixture_profile("ml_manipulation_R"), Extension.PC, Mode.Weak)
    assert w is not None and w.manipulated_profile is built[-1]
    # one profile per deviation tried, none more for the witness; the first call is the profile itself
    assert len(built) == len(calls) - 1


def test_a_bare_function_is_a_rule_to_the_per_profile_checks():
    # criterion 02 passes `ml` itself: a function declares no statistic, so
    # every voter is tried on built profiles, and the first witness is the
    # bundled rule's
    found = {"manipulation": 0, "participation": 0, "cancellation": 0}
    for function in (ml, rd):
        rule = RULES[function.__name__]
        for prof in enumerate_profiles(3, 3, up_to_anonymity=True):
            for extension in (Extension.PC, Extension.SD):
                witness = find_manipulation(function, prof, extension, Mode.Strong)
                assert witness == find_manipulation(rule, prof, extension, Mode.Strong), prof
                found["manipulation"] += witness is not None
                witness = check_participation(function, prof, extension, strict=True)
                assert witness == check_participation(rule, prof, extension, strict=True), prof
                found["participation"] += witness is not None
            witness = check_cancellation(function, prof)
            assert witness == check_cancellation(rule, prof), prof
            found["cancellation"] += witness is not None
    assert found == {"manipulation": 8, "participation": 72, "cancellation": 56}


def test_voters_filter_validates_nothing_silently():
    prof = fixture_profile("ml_manipulation_R")
    assert find_manipulation(ML, prof, Extension.PC, Mode.Weak, voters=(1,)) is None


# ---------------------------------------------------------------------------
# strict improvement existence: closed form vs LP
# ---------------------------------------------------------------------------

def pc_improvement_lp_says_yes(r, q):
    # maximize sum_x p(x) * (q(below x) - q(above x)) over the simplex
    names = r.alternatives.names
    coeffs = []
    for x in names:
        below = sum(q.prob(y) for y in r.below(x))
        above = sum(q.prob(y) for y in r.above(x))
        coeffs.append(below - above)
    lp = LinearProgram(
        tuple(coeffs),
        (Constraint((F(1),) * len(names), EQ, F(1)),),
    )
    out = lp_solve(lp)
    return out.value > 0


def test_strict_improvement_closed_form_matches_lp():
    rng = random.Random(103)
    from pcvote import alternative_set

    for m in (2, 3, 4):
        alts = alternative_set("abcd"[:m])
        orders = list(itertools.permutations(alts.names))
        for _ in range(40):
            r = ranking(alts, rng.choice(orders))
            q = random_lottery(rng, alts)
            closed = exists_strict_improvement(r, q)
            assert closed == (q.prob(r.top) < 1)
            assert closed == pc_improvement_lp_says_yes(r, q)


# ---------------------------------------------------------------------------
# participation
# ---------------------------------------------------------------------------

def test_rd_satisfies_strict_sd_participation_sampled():
    rng = random.Random(107)
    for _ in range(30):
        prof = random_profile(rng, m_max=4, n_max=5, n_min=2)
        assert check_participation(RD, prof, Extension.SD, strict=True) is None


def test_condorcet_uniform_fails_strict_participation():
    prof = profile("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a")])
    w = check_participation(CU, prof, Extension.PC, strict=True)
    assert w is not None
    assert w.kind == "no-strict-gain"
    assert w.voter == 2
    # non-strict mode is satisfied on the same profile
    assert check_participation(CU, prof, Extension.PC, strict=False) is None


def test_participation_needs_two_voters():
    with pytest.raises(DomainError):
        check_participation(RD, profile("ab", [("a", "b")]), Extension.PC)


def test_participation_tries_each_distinct_ballot_once():
    rule, calls = counting(RD)
    prof = parse_profile("alternatives: a b c\n1000: a > b > c\n")
    assert check_participation(rule, prof, Extension.SD, strict=True) is None
    assert len(calls) == 2  # the profile, and one voter left out


def test_per_voter_checks_take_a_ballot_repeated_in_a_later_run_once():
    prof = parse_profile("alternatives: a b c\n2: a > b > c\n1: b > a > c\n2: a > b > c\n")
    assert len(prof.runs) == 3
    rule, calls = counting(RD)
    assert check_participation(rule, prof, Extension.SD) is None
    assert len(calls) == 1 + 2
    calls.clear()
    assert find_manipulation(rule, prof, Extension.SD, Mode.Strong) is None
    assert len(calls) == 1 + 2 * 5
    # a rule that declares no statistic may tell the voters apart
    rule, calls = counting(LAST_VOTER)
    assert check_participation(rule, prof, Extension.SD) is None
    assert len(calls) == 1 + 5


def test_participation_equals_the_per_voter_reference():
    spaces = [(3, n) for n in range(2, 5)] + [(4, 2)]
    for name, rule in RULES.items():
        memo = memoized(rule)
        for m, n in spaces:
            for prof in enumerate_profiles(m, n):
                if not rule.applicable(prof):
                    continue
                for extension in Extension:
                    for strict in (False, True):
                        found = check_participation(memo, prof, extension, strict)
                        expected = reference_check_participation(memo, prof, extension, strict)
                        assert found == expected, (name, prof, extension, strict)


# ---------------------------------------------------------------------------
# symmetry and cancellation
# ---------------------------------------------------------------------------

def test_anonymity_and_neutrality_of_bundled_rules_sampled():
    rng = random.Random(109)
    for _ in range(15):
        prof = random_profile(rng, m_max=3, n_max=4, m_min=3)
        for rule in (RD, ML, F1):
            assert check_symmetry(rule, prof, "anonymity") is None
            assert check_symmetry(rule, prof, "neutrality") is None


def test_dictatorship_is_not_anonymous():
    prof = profile("abc", [("a", "b", "c"), ("b", "a", "c")])
    w = check_symmetry(DICTATOR, prof, "anonymity")
    assert w is not None and w.kind == "anonymity"


def test_a_dictatorship_over_six_voters_is_not_anonymous():
    prof = parse_profile("alternatives: a b\n5: a > b\n1: b > a\n")
    w = check_symmetry(DICTATOR, prof, "anonymity")
    assert w is not None and w.voter_perm == (6, 1, 2, 3, 4, 5)
    assert w.actual == Lottery.degenerate(prof.alternatives, "b")


def _plain_anonymity_witness(rule, prof):
    """The first voter order, of all n!, that moves the outcome."""
    base = rule(prof)
    for perm in itertools.permutations(range(1, prof.n + 1)):
        actual = rule(relabel(prof, voter_perm=perm))
        if actual != base:
            return perm, actual
    return None


def test_anonymity_witnesses_equal_the_walk_over_every_voter_order():
    violations = 0
    for m, n_max in ((2, 6), (3, 3)):
        for n in range(1, n_max + 1):
            for prof in enumerate_profiles(m, n):
                for rule in (DICTATOR, LAST_VOTER, RD):
                    w = check_symmetry(rule, prof, "anonymity")
                    found = None if w is None else (w.voter_perm, w.actual)
                    assert found == _plain_anonymity_witness(rule, prof), (rule.name, prof)
                    violations += w is not None
    assert violations == 660


def test_anonymity_evaluates_each_distinct_ballot_sequence_once():
    rule, calls = counting(RD)
    assert check_symmetry(rule, parse_profile("alternatives: a b\n7: a > b\n1: b > a\n"), "anonymity") is None
    assert len(calls) == 8  # the profile, and b's seven other places
    calls.clear()
    # one distinct ballot has no other voter order
    assert check_symmetry(rule, parse_profile("alternatives: a b\n1000000000: a > b\n"), "anonymity") is None
    assert len(calls) == 1


def test_constant_winner_is_not_neutral():
    prof = profile("abc", [("b", "a", "c")])
    w = check_symmetry(FIRST_NAME, prof, "neutrality")
    assert w is not None and w.kind == "neutrality"
    with pytest.raises(DomainError):
        check_symmetry(RD, prof, "monotonicity")


def test_cancellation_pinned():
    prof = fixture_profile("rd_example")
    assert check_cancellation(ML, prof) is None
    assert check_cancellation(F1, prof) is None
    w = check_cancellation(RD, prof)
    assert w is not None  # top counts shift when an inverse pair joins


# ---------------------------------------------------------------------------
# decisiveness and efficiency checks
# ---------------------------------------------------------------------------

def test_cancellation_on_one_memo_equals_the_check_on_each_profile():
    # one memo across the space, as in a scan: a clean answer it remembers
    # must be the one the check gives on the profile itself
    verdicts = {True: 0, False: 0}
    for rule in RULES.values():
        memo, plain = memoized(rule), _evaluated_per_profile(rule)
        for m, n_max in ((2, 5), (3, 3)):
            for n in range(1, n_max + 1):
                for prof in enumerate_profiles(m, n, up_to_anonymity=True):
                    if rule.applicable(prof):
                        witness = check_cancellation(memo, prof)
                        assert witness == check_cancellation(plain, prof), (rule.name, prof)
                        verdicts[witness is None] += 1
    assert verdicts == {True: 294, False: 181}


def test_rd_fails_absolute_winner_on_the_worked_example():
    prof = fixture_profile("rd_example")
    w = check_decisiveness(RD, prof, Decisiveness.AbsoluteWinner)
    assert w is not None and w.required == "a"
    assert w.outcome == RD(prof)
    assert check_decisiveness(ML, prof, Decisiveness.AbsoluteWinner) is None


def test_decisiveness_not_triggered_without_a_winner():
    cyc = profile("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    for level in Decisiveness:
        assert check_decisiveness(RD, cyc, level) is None


def test_unanimity_check():
    prof = profile("abc", [("a", "b", "c"), ("a", "c", "b")])
    assert check_decisiveness(RD, prof, Decisiveness.Unanimity) is None
    assert check_decisiveness(FIRST_NAME, prof, Decisiveness.Unanimity) is None
    flipped = profile("abc", [("b", "a", "c"), ("b", "c", "a")])
    w = check_decisiveness(FIRST_NAME, flipped, Decisiveness.Unanimity)
    assert w is not None and w.required == "b"


def test_check_efficiency_reports_certificates():
    prof = fixture_profile("rd_example")
    w = check_efficiency(RD, prof, EfficiencyNotion.PC)
    assert w is not None
    assert dominates(prof, Extension.PC, w.certificate.dominator, RD(prof))
    assert check_efficiency(ML, prof, EfficiencyNotion.PC) is None
    assert check_efficiency(RD, prof, EfficiencyNotion.SD) is None


def test_ladder_gaps_are_empty_for_honest_rules():
    for prof_name in ("rd_example", "ml_manipulation_R", "weak_cw_balanced"):
        prof = fixture_profile(prof_name)
        assert strategyproofness_ladder_gaps(RD, prof) == []
        assert strategyproofness_ladder_gaps(ML, prof) == []


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_profile_counts():
    assert count_profiles(3, 2) == 36
    assert count_profiles(3, 2, up_to_anonymity=True) == 21
    assert count_profiles(3, 4, up_to_anonymity=True) == 126
    assert count_profiles(2, 3) == 8
    assert count_profiles(1, 5) == 1


# a float, a bool, a negative count and a non-number, which once came out as a
# float count, as m = 1 or as a TypeError or ValueError from itertools or math
NOT_SIZES = [2.0, 2.5, True, -1, "2"]


@pytest.mark.parametrize("bad", NOT_SIZES)
def test_profile_counts_refuse_a_size_that_is_not_a_non_negative_int(bad):
    with pytest.raises(DomainError, match="must be a non-negative int"):
        count_profiles(bad, 2)
    with pytest.raises(DomainError, match="must be a non-negative int"):
        count_profiles(3, bad)


@pytest.mark.parametrize("bad", NOT_SIZES)
def test_enumeration_refuses_a_size_that_is_not_a_non_negative_int(bad):
    with pytest.raises(DomainError, match="must be a non-negative int"):
        next(enumerate_profiles(bad, 2))
    with pytest.raises(DomainError, match="must be a non-negative int"):
        next(enumerate_profiles(3, bad))


@pytest.mark.parametrize("bad", NOT_SIZES)
def test_scan_refuses_a_size_that_is_not_a_non_negative_int(bad):
    for m, n_max, n_min in ((bad, 2, None), (3, bad, None), (3, 2, bad)):
        with pytest.raises(DomainError, match="must be a non-negative int"):
            exhaustive_scan(RD, m, n_max, "anonymity", n_min=n_min)


def test_enumeration_matches_counts_and_is_lexicographic():
    profs = list(enumerate_profiles(3, 2))
    assert len(profs) == 36
    assert profs[0].ballots[0].order == ("a", "b", "c")
    assert profs[0].ballots[1].order == ("a", "b", "c")
    assert len(set(profs)) == 36
    anon = list(enumerate_profiles(3, 2, up_to_anonymity=True))
    assert len(anon) == 21
    # anonymous enumeration yields multisets: sorted ballot tuples are unique
    keys = {tuple(sorted(b.order for b in p.ballots)) for p in anon}
    assert len(keys) == 21


def test_enumeration_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_profiles(4, 6, budget=1000))
    with pytest.raises(DomainError):
        list(enumerate_profiles(5, 1))
    with pytest.raises(DomainError):
        list(enumerate_profiles(0, 1))


def test_budget_guard_agrees_with_the_exact_count():
    for m, n, anonymous in itertools.product((1, 2, 3, 4), range(1, 26), (False, True)):
        total = count_profiles(m, n, anonymous)
        for budget in (1, 5, 36, 1000, total - 1, total):
            profiles = enumerate_profiles(m, n, anonymous, budget=budget)
            if total <= budget:
                assert next(profiles).n == n
            else:
                with pytest.raises(EnumerationBudgetError, match="exceed the enumeration budget"):
                    next(profiles)


def test_budget_guard_is_fast_on_huge_spaces():
    start = time.perf_counter()
    for n in (10_000, 10**7):
        for anonymous in (False, True):
            with pytest.raises(EnumerationBudgetError, match=f"the {n}-voter profiles over 3"):
                next(enumerate_profiles(3, n, anonymous))
    assert time.perf_counter() - start < 1


def test_scan_checks_the_largest_voter_count_before_the_first_profile():
    # the budget holds per voter count: n <= 8 over 3 alternatives passes although
    # the spaces together exceed it, n <= 9 fails before any profile is built
    assert sum(count_profiles(3, n) for n in range(1, 9)) > DEFAULT_ENUMERATION_BUDGET
    rep = exhaustive_scan(RD, 3, 8, "absolute-winner")
    assert rep.verdict is Verdict.Violated and rep.witness.profile.n == 3
    start = time.perf_counter()
    for n_max in (9, 10_000):
        with pytest.raises(EnumerationBudgetError, match=f"the {n_max}-voter profiles over 3"):
            exhaustive_scan(RD, 3, n_max, "absolute-winner")
    assert time.perf_counter() - start < 1


def test_custom_alternative_names():
    profs = list(enumerate_profiles(2, 1, names=("x", "y")))
    assert [p.ballots[0].order for p in profs] == [("x", "y"), ("y", "x")]


def test_all_rankings_is_lex_sorted():
    from pcvote import alternative_set

    rs = all_rankings(alternative_set("abc"))
    assert [r.order for r in rs] == [
        ("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c"),
        ("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a"),
    ]


# ---------------------------------------------------------------------------
# registry and scans
# ---------------------------------------------------------------------------

def test_axiom_registry_is_complete():
    expected = {
        "anonymity", "neutrality", "cancellation",
        "unanimity", "absolute-winner", "condorcet-consistency",
        "pc-strategyproofness", "pc1-strategyproofness", "sd-strategyproofness",
        "weak-pc-strategyproofness", "weak-pc1-strategyproofness", "weak-sd-strategyproofness",
        "pc-participation", "pc1-participation", "sd-participation",
        "strict-pc-participation", "strict-pc1-participation", "strict-sd-participation",
        "pc-efficiency", "pc1-efficiency", "sd-efficiency", "expost-efficiency",
    }
    assert set(AXIOMS) == expected
    assert axiom("cancellation").min_voters == 1
    assert axiom("pc-participation").min_voters == 2
    with pytest.raises(DomainError):
        axiom("monotonicity")


def test_check_axiom_on_profile_dispatch():
    prof = fixture_profile("rd_example")
    rep = check_axiom_on_profile(RD, prof, "absolute-winner")
    assert rep.verdict is Verdict.Violated and rep.axiom == "absolute-winner"
    rep = check_axiom_on_profile(ML, prof, "condorcet-consistency")
    assert rep.verdict is Verdict.Holds
    with pytest.raises(DomainError):
        check_axiom_on_profile(RD, profile("ab", [("a", "b")]), "pc-participation")


def test_scan_finds_the_first_violation():
    rep = exhaustive_scan(RD, 3, 3, "absolute-winner")
    assert rep.verdict is Verdict.Violated
    w = rep.witness
    assert w.required == "a" and w.profile.n == 3
    # the witness profile is reachable and genuinely violating
    assert RD(w.profile).prob("a") != 1


def test_scan_holds_within_budgeted_region():
    rep = exhaustive_scan(F1, 3, 2, "pc-strategyproofness")
    assert rep.verdict is Verdict.Holds
    assert rep.profiles_checked == 42  # 6 singletons + 36 pairs
    rep = exhaustive_scan(RD, 3, 3, "sd-strategyproofness", n_min=2, up_to_anonymity=True)
    assert rep.verdict is Verdict.Holds
    assert rep.profiles_checked == 21 + 56


def test_scan_respects_min_voters():
    rep = exhaustive_scan(RD, 3, 2, "sd-participation")
    assert rep.profiles_checked == 36  # n=1 is skipped for participation
    with pytest.raises(DomainError):
        exhaustive_scan(RD, 3, 1, "sd-participation")


def _plain_scan(reference, m, n_min, n_max, anonymous):
    """`exhaustive_scan` spelled out as a loop of a reference check, such as
    the per-voter `reference_find_manipulation`, over `enumerate_profiles`,
    on the rule as given, with no memo, no orbit reduction and no index
    tuples."""
    checked = 0
    for n in range(n_min, n_max + 1):
        for prof in enumerate_profiles(m, n, anonymous):
            checked += 1
            witness = reference(prof)
            if witness is not None:
                return Verdict.Violated, witness, checked
    return Verdict.Holds, None, checked


def _reference_check(rule, axiom_name):
    """The reference check of a strategyproofness or participation axiom."""
    *prefix, extension, kind = axiom_name.split("-")
    extension = Extension(extension)
    if kind == "participation":
        return lambda prof: reference_check_participation(rule, prof, extension, prefix == ["strict"])
    mode = Mode.Weak if prefix == ["weak"] else Mode.Strong
    return lambda prof: reference_find_manipulation(rule, prof, extension, mode)


@pytest.mark.parametrize(
    "axiom_name, m, n_min, n_max, anonymous, verdict, rule_name",
    [
        ("pc-strategyproofness", 3, 2, 2, False, Verdict.Holds, "ml"),
        ("weak-pc-strategyproofness", 3, 4, 4, True, Verdict.Violated, "ml"),
        ("sd-strategyproofness", 3, 1, 2, False, Verdict.Violated, "ml"),
        ("pc-participation", 3, 2, 3, False, Verdict.Holds, "ml"),
        ("pc-participation", 3, 2, 5, True, Verdict.Holds, "ml"),
        ("strict-pc-participation", 3, 2, 3, False, Verdict.Violated, "ml"),
        ("strict-pc-participation", 4, 2, 3, True, Verdict.Violated, "ml"),
        ("strict-sd-participation", 3, 2, 5, True, Verdict.Violated, "ml"),
        ("strict-sd-participation", 4, 2, 3, True, Verdict.Holds, "rd"),
        ("strict-sd-participation", 3, 2, 3, False, Verdict.Holds, "rd-no-statistic"),
        ("strict-pc-participation", 3, 2, 3, True, Verdict.Violated, "ml-no-statistic"),
    ],
)
def test_margin_memo_leaves_scan_reports_unchanged(axiom_name, m, n_min, n_max, anonymous, verdict, rule_name):
    # a rule with no statistic has no memo and no orbit reduction, but its
    # scan still hands the check each profile as an index tuple
    rule = RULES[rule_name.removesuffix("-no-statistic")]
    if rule_name.endswith("-no-statistic"):
        rule = replace(rule, statistic=None)
    rep = exhaustive_scan(rule, m, n_max, axiom_name, up_to_anonymity=anonymous, n_min=n_min)
    plain = _plain_scan(_reference_check(rule, axiom_name), m, n_min, n_max, anonymous)
    assert rep.verdict is verdict
    assert (rep.verdict, rep.witness, rep.profiles_checked) == plain


def test_margin_memo_evaluates_once_per_matrix_and_per_scan():
    evaluations = []

    def counting_ml(prof):
        evaluations.append(prof)
        return ml(prof)

    rule = SocialDecisionScheme("ml", counting_ml, statistic=margin_tally)
    for _ in range(2):
        evaluations.clear()
        rep = exhaustive_scan(rule, 3, 2, "pc-strategyproofness", n_min=2)
        assert rep.verdict is Verdict.Holds and rep.profiles_checked == 36
        assert len(evaluations) == 19


def test_manipulation_scans_pinned():
    # The digest was computed with the per-voter search and the margin-only
    # memo, before rules declared statistics, then re-pinned once when PC1
    # became reflexive (equal lotteries indifferent): that moved only the
    # pc1-strategyproofness witnesses, and condorcet-uniform's two m=3 PC1
    # scans now hold. Every scan's verdict, count and first witness must
    # stay exactly as they are.
    axioms = [name for name in AXIOMS if name.endswith("strategyproofness")]
    spaces = [(name, 3, 1, 3, True) for name in RULES]
    spaces += [(name, 3, 2, 2, False) for name in RULES]
    spaces += [(name, 4, 1, 2, True) for name in ("rd", "condorcet-uniform")]
    digest = hashlib.sha256()
    for name, m, n_min, n_max, anonymous in spaces:
        for axiom_name in axioms:
            rep = exhaustive_scan(RULES[name], m, n_max, axiom_name, up_to_anonymity=anonymous, n_min=n_min)
            fields = (rep.axiom, rep.rule, rep.verdict, rep.profiles_checked, rep.witness)
            digest.update(repr(fields).encode() + b"\n")
    assert digest.hexdigest() == "27030fa9b19d7e1cddd963af24a0199ea7532c856a8257b308c21ebd132cacdf"


def _evaluated_per_profile(rule):
    """The rule with no memo: each profile's outcome is cached by the profile
    itself, voter order included, which assumes nothing of the rule."""
    return replace(rule, evaluate=functools.cache(rule.evaluate))


def _manipulation_searches_that_differ(rule, m, n_max):
    """The (profile, extension, mode) at which the search on the memoized
    rule, which tries one misreport per tally class and remembers clean
    ballots, differs from the per-voter reference on the rule itself. One
    memo serves every search, as in a scan."""
    memo, plain = memoized(rule), _evaluated_per_profile(rule)
    differ = []
    for n in range(1, n_max + 1):
        for prof in enumerate_profiles(m, n, up_to_anonymity=True):
            for extension in Extension:
                for mode in Mode:
                    found = find_manipulation(memo, prof, extension, mode)
                    if found != reference_find_manipulation(plain, prof, extension, mode):
                        differ.append((prof, extension, mode))
    return differ


def test_manipulation_search_equals_the_per_voter_reference():
    # every tally: margins (ml, condorcet-uniform, f1), tops (rd) and tops
    # and bottoms (f2), which reads only three alternatives
    for name, rule in RULES.items():
        assert _manipulation_searches_that_differ(rule, 3, 4) == [], name
    for name in ("rd", "ml", "condorcet-uniform"):
        assert _manipulation_searches_that_differ(RULES[name], 4, 2) == [], name


def test_a_false_statistic_makes_the_class_search_differ_from_the_per_voter_reference():
    # ml reads the margins. Declared to read only the top counts, a misreport
    # that keeps the true top is never tried, and outcomes are looked up by
    # vectors that do not determine them.
    false = SocialDecisionScheme("ml-by-tops", ml, statistic=top_tally)
    differ = _manipulation_searches_that_differ(false, 3, 3)
    assert len(differ) == 53
    # the first: a > b > c gains against b > c > a by a > c > b under PC1,
    # a misreport in the true ballot's class, which the search skips
    prof, extension, mode = differ[0]
    missed = reference_find_manipulation(_evaluated_per_profile(false), prof, extension, mode)
    assert prof == profile("abc", ["abc", "bca"]) and (extension, mode) == (Extension.PC1, Mode.Strong)
    assert (missed.voter, missed.misreport.order) == (1, ("a", "c", "b"))


TALLIES = {"margins": margin_tally, "tops": top_tally, "tops-and-bottoms": top_bottom_tally}


def _edited_profiles(prof):
    """Every edit of the profile that the misreport, participation and
    cancellation checks make: (ballot taken out, ballots put in, the
    profile built), with ballots as indices into `all_rankings`."""
    rankings = all_rankings(prof.alternatives)
    for i in range(1, prof.n + 1):
        taken = rankings.index(prof.ballot(i))
        for k, misreport in enumerate(rankings):
            yield taken, (k,), prof.replace_ballot(i, misreport)
        if prof.n >= 2:
            yield taken, (), remove_voter(prof, i)
    for k, ballot in enumerate(rankings):
        yield None, (k, rankings.index(ballot.reversed())), prof.append(ballot, ballot.reversed())


def _profile_with_a_ballot_in_two_runs(rng):
    """A random profile over 2..4 alternatives whose first ballot comes back
    in a later run, after its reverse."""
    alts = "abcd"[: rng.randint(2, 4)]
    first = tuple(rng.sample(alts, len(alts)))
    orders = [first] * rng.randint(1, 3) + [first[::-1]] * rng.randint(1, 3)
    for _ in range(rng.randint(0, 3)):
        orders += [tuple(rng.sample(alts, len(alts)))] * rng.randint(1, 2)
    prof = profile(alts, orders + [first] * rng.randint(1, 2))
    assert len(prof.runs) > len({b for b, _ in prof.runs})
    return prof


def test_the_voter_walk_pairs_each_voter_with_its_ballot_in_order():
    # the walk is the same whether the profile is given, with its runs, or
    # named by its `all_rankings` index tuple, as a scan names it
    rng = random.Random(19)
    for _ in range(40):
        prof = _profile_with_a_ballot_in_two_runs(rng)
        rankings = all_rankings(prof.alternatives)
        indices = tuple(map(rankings.index, prof.ballots))
        listed = sorted(rng.sample(range(1, prof.n + 1), rng.randint(1, prof.n)))
        for voters in (None, listed):
            tried = range(1, prof.n + 1) if voters is None else voters
            every = [(i, prof.ballot(i)) for i in tried]
            firsts, seen = [], set()
            for i, ballot in every:
                if ballot not in seen:
                    seen.add(ballot)
                    firsts.append((i, ballot))
            for rule, expected in ((RD, firsts), (memoized(RD), firsts), (replace(RD, statistic=None), every)):
                for edits in (_Edits(rule, prof), _Edits(rule, None, prof.alternatives, indices)):
                    count, pairs = edits.voters(voters)
                    pairs = list(pairs)
                    assert pairs == expected and count == len(pairs), (prof, voters, rule.statistic)
                    assert all(prof.ballot(i) == ballot for i, ballot in pairs)
                    assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})


@pytest.mark.parametrize("m, n_max, edits", [(3, 3, 6624), (4, 2, 43776)])
def test_edit_vectors_equal_the_tallies_of_the_built_profiles(m, n_max, edits):
    memos = {
        name: memoized(SocialDecisionScheme(name, RD.evaluate, statistic=tally))
        for name, tally in TALLIES.items()
    }
    checked = 0
    for n in range(1, n_max + 1):
        for prof in enumerate_profiles(m, n):
            kernels = {name: _Edits(rule, prof) for name, rule in memos.items()}
            for taken, put, built in _edited_profiles(prof):
                vectors = {name: kernel.vector(taken, put) for name, kernel in kernels.items()}
                for name, tally in TALLIES.items():
                    assert vectors[name] == tally(built), (name, prof, built)
                rows = margin_matrix(built).rows
                assert vectors["margins"] == tuple(rows[i][j] for i in range(m) for j in range(i + 1, m))
                assert vectors["tops"] == top_counts(built) == vectors["tops-and-bottoms"][:m]
                bottoms = vectors["tops-and-bottoms"][m:]
                assert {x for x, c in zip(built.alternatives, bottoms) if c == 0} == never_bottom_set(built)
                checked += 1
    assert checked == edits


def test_a_tallied_scan_builds_a_profile_only_on_a_memo_miss(monkeypatch):
    built = []
    post_init = Profile.__post_init__

    def counting_post_init(prof):
        built.append(prof)
        post_init(prof)

    sums = []

    class CountingTally(Tally):
        def __call__(self, prof):
            sums.append(prof)
            return super().__call__(prof)

    monkeypatch.setattr(Profile, "__post_init__", counting_post_init)
    rule, calls = counting(replace(RD, statistic=CountingTally(RD.statistic.of)))
    rep = exhaustive_scan(rule, 4, 2, "sd-strategyproofness", up_to_anonymity=True)
    assert rep.verdict is Verdict.Holds and rep.profiles_checked == 324
    # 18 orbit representatives: (0,) and the 17 pairs (0, k). The rule is
    # neutral, so its memo evaluates it once per relabelling orbit of the 14
    # top-count vectors of one or two voters: (1,0,0,0), (2,0,0,0) and
    # (1,1,0,0). Each evaluation builds its profile: those of (0,) and
    # (0, 0), then (0, 0) with voter 1's ballot swapped for b > a > c > d,
    # the first misreport that moves the top. Every other vector is a
    # relabelling of one of these, its outcome pulled back with no profile
    # built. So 3 profiles and 3 evaluations; one per deviation would have
    # made 800 profiles, and one per vector 14 evaluations
    assert (len(built), len(calls)) == (3, 3)
    # a representative's tally vector is its rankings' tallies summed by
    # index, and a miss evaluates the profile it built: no sum over runs
    assert len(sums) == 0


def test_an_anonymity_scan_the_check_would_refuse_is_refused_before_its_first_profile():
    rule, calls = counting(RD)
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError, match="the anonymity check on 9 of 9 voters needs 362879"):
        exhaustive_scan(rule, 2, 9, "anonymity")
    with pytest.raises(EnumerationBudgetError, match="the anonymity check on 9 of 12 voters"):
        exhaustive_scan(rule, 2, 14, "anonymity", up_to_anonymity=True, n_min=12)
    assert time.perf_counter() - start < 1
    assert calls == []
    # one alternative makes one ballot, which has no other voter order
    assert exhaustive_scan(rule, 1, 9, "anonymity").verdict is Verdict.Holds


def test_a_false_statistic_still_fails_an_anonymity_scan():
    def first_voter_dictates(prof):
        return Lottery.degenerate(prof.alternatives, prof.ballot(1).top)

    rule = SocialDecisionScheme("dictator", first_voter_dictates, statistic=margin_tally)
    rep = exhaustive_scan(rule, 3, 2, "anonymity")
    assert rep.verdict is Verdict.Violated
    # the memo would have hidden it: it answers every voter order alike
    assert check_symmetry(memoized(rule), rep.witness.profile, "anonymity") is None


# ---------------------------------------------------------------------------
# one profile per relabelling orbit
# ---------------------------------------------------------------------------

def _scan_or_refusal(rule, m, n_max, axiom_name, anonymous):
    try:
        return exhaustive_scan(rule, m, n_max, axiom_name, up_to_anonymity=anonymous)
    except ApplicabilityError as exc:
        return str(exc)


REDUCED_AXIOMS = [name for name in AXIOMS if name not in ("anonymity", "neutrality")]


@pytest.mark.parametrize("rule_name", sorted(RULES))
@pytest.mark.parametrize("m, n_max", [(3, 4), (4, 2)])
@pytest.mark.parametrize("anonymous", [False, True], ids=["ordered", "anonymous"])
def test_orbit_reduced_scans_equal_the_unreduced_scans(rule_name, m, n_max, anonymous):
    assert RULES[rule_name].neutral and RULES[rule_name].statistic is not None
    # each reduced scan memoizes the rule by the orbits of its tally vectors;
    # one memo by the raw vector across the unreduced scans
    rule = RULES[rule_name]
    unreduced = memoized(replace(rule, neutral=False))
    for axiom_name in REDUCED_AXIOMS:
        want = _scan_or_refusal(unreduced, m, n_max, axiom_name, anonymous)
        got = _scan_or_refusal(rule, m, n_max, axiom_name, anonymous)
        assert got == want, (axiom_name, m, n_max, anonymous)


SCAN_SPACES = [(3, 3, True), (3, 2, False), (4, 2, True)]
# the checks that evaluate the rule at edits of the profile; their scans
# also run over up to four voters
EDIT_AXIOMS = [name for name in AXIOMS if name.endswith(("strategyproofness", "participation"))]


@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_the_scan_kernel_equals_the_per_profile_route(rule_name):
    # a scan memoizes the rule, keyed by the relabelling orbit of its tally
    # vector when the scan is reduced, and hands each representative to the
    # check as its index tuple, its tally vector summed from the rankings'
    # tallies and its first voters read off the tuple. The same rule with no
    # statistic has no memo and no reduction, and its check gets a `Profile`
    # for every tuple, each evaluated on its own, cached by the profile itself
    rule = RULES[rule_name]
    per_profile = replace(_evaluated_per_profile(rule), statistic=None)
    for axiom_name in AXIOMS:
        if axiom_name == "anonymity":
            continue
        spaces = SCAN_SPACES + [(3, 4, True)] * (axiom_name in EDIT_AXIOMS)
        for m, n_max, anonymous in spaces:
            want = _scan_or_refusal(per_profile, m, n_max, axiom_name, anonymous)
            got = _scan_or_refusal(rule, m, n_max, axiom_name, anonymous)
            assert got == want, (axiom_name, m, n_max, anonymous)


@pytest.mark.parametrize(
    "m, n_max, anonymous",
    [(m, 5, anonymous) for m in (1, 2, 3) for anonymous in (False, True)]
    + [(4, 3, False), (4, 4, True)],
)
def test_the_orbit_test_over_d_tables_equals_the_one_over_all_m_factorial(m, n_max, anonymous):
    alts = alternative_set("abcd"[:m])
    rankings = all_rankings(alts)
    tables = reference_relabelling_tables(rankings)
    to_first = _tables_to_first(alts)
    least = tried = 0
    for n in range(1, n_max + 1):
        if anonymous:
            space = itertools.combinations_with_replacement(range(len(rankings)), n)
        else:
            space = itertools.product(range(len(rankings)), repeat=n)
        for indices in space:
            got = _least_in_orbit(indices, to_first)
            assert got == reference_least_in_orbit(indices, tables), indices
            least += got
            tried += 1
    assert 0 < least < tried or m == 1


def test_the_tables_to_the_first_ranking_are_built_once_and_budgeted():
    alts = alternative_set("abcd")
    to_first = _tables_to_first(alts)
    assert to_first is _tables_to_first(alts)
    # each is a relabelling, and the one that sends its ranking to index 0
    assert all(sorted(table) == list(range(24)) and table[b] == 0 for b, table in enumerate(to_first))
    assert to_first[0] == tuple(range(24))
    seven = alternative_set("abcdefg")
    with pytest.raises(EnumerationBudgetError, match="25401600 relabelling table entries"):
        _tables_to_first(seven)
    assert "_rankings" not in seven.__dict__ and "_to_first" not in seven.__dict__


@pytest.mark.parametrize("m, n, anonymous", [(3, 3, False), (3, 4, True), (4, 2, False), (4, 2, True)])
def test_a_reduced_scan_checks_the_first_profile_of_each_orbit(monkeypatch, m, n, anonymous):
    checked = []
    monkeypatch.setitem(AXIOMS, "unanimity", AxiomSpec("unanimity", lambda e: checked.append(e.profile)))
    rep = exhaustive_scan(RD, m, n, "unanimity", up_to_anonymity=anonymous, n_min=n)
    assert rep.verdict is Verdict.Holds and rep.profiles_checked == count_profiles(m, n, anonymous)

    def orbit_key(prof):
        images = []
        for image in all_rankings(prof.alternatives):
            relabelled = relabel(prof, alt_perm=dict(zip(prof.alternatives.names, image.order)))
            orders = [b.order for b in relabelled.ballots]
            images.append(tuple(sorted(orders)))
        return min(images)

    first_of_orbit: dict = {}
    for prof in enumerate_profiles(m, n, anonymous):
        first_of_orbit.setdefault(orbit_key(prof), prof)
    assert checked == list(first_of_orbit.values())


@pytest.mark.parametrize("m, n, orbits", [(3, 3, 10), (3, 4, 24), (4, 2, 17), (2, 5, 3)])
def test_an_ordered_reduced_scan_checks_the_anonymous_scans_profiles(monkeypatch, m, n, orbits):
    # an anonymous rule's axioms do not see voter order, so the ordered scan
    # checks only sorted profiles: the multisets the anonymous scan checks
    checked = {False: [], True: []}
    for anonymous in (False, True):
        spec = AxiomSpec("unanimity", lambda e, seen=checked[anonymous]: seen.append(e.profile))
        monkeypatch.setitem(AXIOMS, "unanimity", spec)
        rep = exhaustive_scan(RD, m, n, "unanimity", up_to_anonymity=anonymous, n_min=n)
        assert rep.verdict is Verdict.Holds and rep.profiles_checked == count_profiles(m, n, anonymous)
    assert checked[False] == checked[True] and len(checked[True]) == orbits


def test_only_the_symmetry_scans_check_every_profile(monkeypatch):
    # they test the declarations the reduction rests on; every other axiom
    # is handed one representative per orbit once the rule is declared
    # neutral. What the reduction saves is counted where it acts: profiles
    # handed to the check, each as an index tuple. The rule's own work would
    # not show it, as its tally is summed by index and its outcomes are
    # memoized by vector in both scans
    handed = []

    def counted(check):
        def wrapper(edits):
            handed.append(edits)
            return check(edits)

        return wrapper

    for axiom_name in ("anonymity", "neutrality", "sd-strategyproofness"):
        spec = AXIOMS[axiom_name]
        monkeypatch.setitem(AXIOMS, axiom_name, replace(spec, check=counted(spec.check)))
        reports, work = [], []
        for neutral in (True, False):
            handed.clear()
            reports.append(exhaustive_scan(replace(RD, neutral=neutral), 3, 2, axiom_name))
            work.append(len(handed))
        assert reports[0] == reports[1] and reports[0].verdict is Verdict.Holds, axiom_name
        assert (work[0] < work[1]) == (axiom_name == "sd-strategyproofness"), (axiom_name, work)


def test_a_representative_sums_its_vector_only_when_its_check_reads_an_outcome():
    # a scan hands each representative over as an index tuple; a memoized
    # rule's vector is summed when first read, and equals the statistic
    rule = memoized(get_rule("ml"))
    cycle, winner = profile("abc", ["abc", "bca", "cab"]), profile("abc", ["abc", "bca", "acb"])
    for prof, axiom_name, summed in [
        (cycle, "condorcet-consistency", False),
        (winner, "condorcet-consistency", True),
        (cycle, "neutrality", False),
        (cycle, "anonymity", False),
        (cycle, "pc-efficiency", True),
        (winner, "sd-strategyproofness", True),
    ]:
        indices = tuple(all_rankings(prof.alternatives).index(b) for b in prof.ballots)
        edits = _Edits(rule, None, prof.alternatives, indices)
        assert AXIOMS[axiom_name].check(edits) is None, axiom_name
        assert (edits.base is not None) == summed, axiom_name
        if summed:
            assert edits.base == margin_tally(prof), axiom_name


@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_every_rule_declared_neutral_is_neutral_on_small_spaces(rule_name):
    rule = RULES[rule_name]
    assert rule.neutral
    memo = memoized(rule)
    spaces = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(4, 1), (4, 2)]
    for m, n in spaces:
        for prof in enumerate_profiles(m, n):
            if rule.applicable(prof):
                assert check_symmetry(memo, prof, "neutrality") is None, (rule_name, prof)


def test_a_false_neutral_declaration_fails_the_neutrality_scan_and_moves_a_reduced_one():
    def a_unless_ranked_last(prof):
        if "a" in never_bottom_set(prof):
            return Lottery.degenerate(prof.alternatives, "a")
        return RD(prof)

    false = SocialDecisionScheme(
        "a-unless-last",
        a_unless_ranked_last,
        statistic=top_bottom_tally,
        neutral=True,
    )
    honest = replace(false, neutral=False)
    rep = exhaustive_scan(false, 3, 2, "neutrality")
    assert rep.verdict is Verdict.Violated
    assert rep == exhaustive_scan(honest, 3, 2, "neutrality")
    # the unanimous profile b > a > c gets `a`; its orbit starts at a > b > c,
    # which the rule gets right, so the reduced scan never meets it
    unreduced = exhaustive_scan(honest, 3, 2, "unanimity")
    assert unreduced.verdict is Verdict.Violated and unreduced.profiles_checked == 3
    reduced = exhaustive_scan(false, 3, 2, "unanimity")
    assert reduced != unreduced


# ---------------------------------------------------------------------------
# one rule evaluation per relabelling orbit of tally vectors
# ---------------------------------------------------------------------------

def _orbit_memo(rule):
    memo = memoized(rule, orbits=True).evaluate
    assert memo.orbit_keys
    return memo


@pytest.mark.parametrize("m, n_max", [(1, 3), (2, 3), (3, 3), (4, 2)])
def test_each_relabelling_sends_a_tally_to_the_relabelled_profiles(m, n_max):
    alts = alternative_set("abcd"[:m])
    identity = tuple(range(m))
    images = {}
    for name, tally in TALLIES.items():
        maps = _tally_tables(alts, tally).relabellings()
        # every relabelling acts, the identity first
        assert sorted(perm for _, perm in maps) == list(itertools.permutations(identity)), name
        assert maps[0][1] == identity
        images[name] = {perm: image for image, perm in maps}
    for n in range(1, n_max + 1):
        for prof in enumerate_profiles(m, n):
            for perm in itertools.permutations(identity):
                mapping = {alts.names[x]: alts.names[perm[x]] for x in identity}
                relabelled = relabel(prof, alt_perm=mapping)
                for name, tally in TALLIES.items():
                    vector = tally(prof)
                    signed = vector + tuple(-x for x in vector)
                    assert images[name][perm](signed) == tally(relabelled), (name, prof, perm)


def test_a_tally_no_relabelling_acts_on_is_keyed_by_the_raw_vector():
    # pos(a) * pos(b) is plus or minus no coordinate once c takes a's place
    products = Tally(lambda r: (r.positions[0] * r.positions[1],))

    def by_product(prof):
        return Lottery.degenerate(prof.alternatives, prof.alternatives.names[products(prof)[0] % prof.m])

    # declared neutral, which it is not: the memo finds no relabelling to trust it with
    rule, calls = counting(SocialDecisionScheme("by-product", by_product, statistic=products, neutral=True))
    memo = _orbit_memo(rule)
    assert [perm for _, perm in _tally_tables(alternative_set("abc"), products).relabellings()] == [(0, 1, 2)]
    vectors = set()
    for n in range(1, 4):
        for prof in enumerate_profiles(3, n):
            assert memo(prof) == by_product(prof), prof
            vectors.add(products(prof))
    assert len(calls) == len(vectors)


def test_ranking_tallies_and_relabellings_are_built_once_per_set_and_tally(monkeypatch):
    built = []
    signed_maps = axioms_module._signed_maps

    def counting(alternatives, tallies):
        built.append((alternatives.names, len(tallies[0])))
        return signed_maps(alternatives, tallies)

    monkeypatch.setattr(axioms_module, "_signed_maps", counting)
    alts = alternative_set("xyz")
    # read with no rule in hand, by the rules' declared tallies
    margins = [_tally_tables(alts, get_rule(name).statistic) for name in ("ml", "ml", "condorcet-uniform")]
    tops = _tally_tables(alts, get_rule("rd").statistic)
    for tables in margins + [tops]:
        tables.relabellings()
    # the three margin rules share one object, and so one list of each; rd's tally gets its own
    assert len({id(tables) for tables in margins}) == 1
    assert len({id(tables.tallies) for tables in margins}) == 1
    assert len({id(tables.relabellings()) for tables in margins}) == 1
    assert tops is not margins[0] and tops.tallies is not margins[0].tallies
    assert built == [(("x", "y", "z"), 3), (("x", "y", "z"), 3)]
    # a scan on a shared default set builds them at most once per process
    exhaustive_scan(get_rule("ml"), 3, 2, "pc-strategyproofness")
    built.clear()
    exhaustive_scan(get_rule("ml"), 3, 2, "pc-strategyproofness")
    assert built == []
    # and a reduced scan's memo, like its checks, reads the object a
    # rule-free caller gets
    fetched: dict[str, set[int]] = {}
    tally_tables = axioms_module._tally_tables

    def recording(alternatives, tally):
        found = tally_tables(alternatives, tally)
        fetched.setdefault(sys._getframe(1).f_code.co_name, set()).add(id(found))
        return found

    monkeypatch.setattr(axioms_module, "_tally_tables", recording)
    exhaustive_scan(get_rule("ml"), 3, 3, "sd-strategyproofness", up_to_anonymity=True)
    shared = id(tally_tables(_alternatives(3), margin_tally))
    assert fetched == {"_pulled_back": {shared}, "tables": {shared}}
    # the first call for a set and a tally still budgets the rankings, and
    # the first read of its relabellings the tables
    ten, seven = alternative_set("abcdefghij"), alternative_set("abcdefg")
    with pytest.raises(EnumerationBudgetError, match="10! rankings"):
        tally_tables(ten, margin_tally)
    sevens = tally_tables(seven, margin_tally)
    with pytest.raises(EnumerationBudgetError, match="25401600 relabelling table entries"):
        sevens.relabellings()
    assert "_rankings" not in ten.__dict__ and "_to_first" not in seven.__dict__
    assert not ten._tally_tables and sevens._relabellings is None


def _one_profile_per_vector(tally, m, n_max):
    """A profile of each tally vector of up to n_max voters, in enumeration
    order, and the number of the vectors' orbits under relabelling the
    alternatives, found by relabelling the profiles."""
    first = {}
    for n in range(1, n_max + 1):
        for prof in enumerate_profiles(m, n, up_to_anonymity=True):
            first.setdefault(tally(prof), prof)
    names = all_rankings(alternative_set("abcd"[:m]))[0].order
    orbits = {
        min(tally(relabel(prof, alt_perm=dict(zip(names, image.order)))) for image in all_rankings(prof.alternatives))
        for prof in first.values()
    }
    return list(first.values()), len(orbits)


@pytest.mark.parametrize(
    "rule_name, m, n_max",
    [(name, 3, 4) for name in sorted(RULES)] + [(name, 4, 3) for name in ("condorcet-uniform", "ml", "rd")],
)
def test_an_orbit_keyed_memo_equals_the_rule_on_every_tally_vector(rule_name, m, n_max):
    rule = RULES[rule_name]
    profiles, orbits = _one_profile_per_vector(rule.statistic, m, n_max)
    want = [rule(prof) for prof in profiles]
    assert orbits < len(profiles)
    # forward and back, so that each orbit is first evaluated at another member
    for order in (1, -1):
        counted, calls = counting(rule)
        memo = _orbit_memo(counted)
        assert [memo(prof) for prof in profiles[::order]] == want[::order], order
        assert len(calls) == orbits


@pytest.mark.parametrize(
    "rule_name, axiom_name, m, n_max", [("f1", "pc-strategyproofness", 3, 5), ("ml", "pc-efficiency", 4, 3)]
)
def test_an_orbit_keyed_memo_holds_one_entry_per_vector_met(monkeypatch, rule_name, axiom_name, m, n_max):
    # a miss stores its outcome at the vector looked up, not at every image of its orbit
    memos, met, probing = [], set(), []
    init, miss = axioms_module.Memo.__init__, axioms_module.Memo._miss

    class Recording(dict):
        def get(self, key, default=None):
            if not probing:
                met.add(key)
            return dict.get(self, key, default)

    def recording_init(memo, *args):
        init(memo, *args)
        memo.outcomes = Recording()
        memos.append(memo)

    def probing_miss(memo, *args):
        probing.append(None)
        try:
            return miss(memo, *args)
        finally:
            probing.pop()

    monkeypatch.setattr(axioms_module.Memo, "__init__", recording_init)
    monkeypatch.setattr(axioms_module.Memo, "_miss", probing_miss)
    rule, calls = counting(get_rule(rule_name))
    exhaustive_scan(rule, m, n_max, axiom_name, up_to_anonymity=True)
    [memo] = memos
    assert memo.orbit_keys
    assert len(memo.outcomes) == len(met)
    # and the rule was evaluated once per orbit, on fewer vectors than were met
    assert len(calls) < len(met)


def test_only_a_reduced_scan_keys_its_memo_by_orbit(monkeypatch):
    # the symmetry scans test the declarations the orbit keys trust
    memos = []
    init = axioms_module.Memo.__init__

    def recording_init(memo, *args):
        memos.append(memo)
        init(memo, *args)

    monkeypatch.setattr(axioms_module.Memo, "__init__", recording_init)
    for axiom_name, neutral, keyed in [
        ("sd-strategyproofness", True, True),
        ("sd-strategyproofness", False, False),
        ("neutrality", True, False),
        ("anonymity", True, None),
    ]:
        memos.clear()
        exhaustive_scan(replace(RD, neutral=neutral), 3, 2, axiom_name)
        assert [memo.orbit_keys for memo in memos] == ([] if keyed is None else [keyed]), axiom_name
    # a rule memoized already keeps its memo, keyed by the raw vector
    rule = memoized(RD)
    memos.clear()
    assert exhaustive_scan(rule, 3, 2, "sd-strategyproofness").verdict is Verdict.Holds
    assert memos == [] and not rule.evaluate.orbit_keys


# ---------------------------------------------------------------------------
# per-profile checks budget their rule evaluations
# ---------------------------------------------------------------------------

NINE = profile("abcdefghi", ["abcdefghi", "ihgfedcba"])
RANKINGS_OF_NINE = 362_880  # 9!


@pytest.mark.parametrize(
    "check, needed",
    [
        (lambda p: find_manipulation(RD, p, Extension.PC, Mode.Strong), 2 * (RANKINGS_OF_NINE - 1)),
        (lambda p: find_manipulation(DICTATOR, p.append(p.ballot(1)), Extension.SD, Mode.Weak),
         3 * (RANKINGS_OF_NINE - 1)),
        (lambda p: check_cancellation(RD, p), RANKINGS_OF_NINE),
        (lambda p: check_symmetry(RD, p, "neutrality"), RANKINGS_OF_NINE - 1),
    ],
    ids=["misreports", "misreports-per-voter", "cancellation", "neutrality"],
)
def test_per_profile_checks_refuse_too_many_rule_evaluations_at_once(check, needed):
    assert needed > RULE_EVALUATION_BUDGET
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError, match=f"needs {needed} rule evaluations"):
        check(NINE)
    assert time.perf_counter() - start < 1
    assert "_rankings" not in NINE.alternatives.__dict__, "rankings were built before the refusal"


@pytest.mark.parametrize("voters", [9, 10, 1_000_000_000])
def test_anonymity_over_nine_or_more_voters_is_refused_before_any_evaluation(voters):
    rule, calls = counting(DICTATOR)
    prof = parse_profile(f"alternatives: a b\n{voters - 1}: a > b\n1: b > a\n")
    start = time.perf_counter()
    needed = f"the anonymity check on 9 of {voters} voters needs 362879 rule evaluations"
    with pytest.raises(EnumerationBudgetError, match=needed):
        check_symmetry(rule, prof, "anonymity")
    assert time.perf_counter() - start < 1
    assert calls == []


@pytest.mark.parametrize("check", [
    lambda p: check_participation(RD, p, Extension.SD, strict=True),
    lambda p: check_symmetry(RD, p, "anonymity"),
], ids=["participation", "anonymity"])
def test_checks_that_walk_no_rankings_run_over_ten_alternatives(check):
    names = "abcdefghij"
    prof = profile(names, [names, names[::-1]])
    start = time.perf_counter()
    assert check(prof) is None
    assert time.perf_counter() - start < 1
    assert "_rankings" not in prof.alternatives.__dict__


@pytest.mark.parametrize("check", [
    lambda r, p: find_manipulation(r, p, Extension.PC, Mode.Strong),
    lambda r, p: check_participation(r, p, Extension.SD, strict=True),
    lambda r, p: check_cancellation(r, p),
], ids=["misreports", "participation", "cancellation"])
@pytest.mark.parametrize("name", ["rd", "ml"])
def test_memoized_edit_checks_refuse_ten_alternatives_before_any_ranking(check, name, monkeypatch):
    # a memoized rule names each edited ballot by its index among the 10! rankings
    names = "abcdefghij"
    prof = profile(names, [names, names[::-1]])

    def built(alternatives):
        raise AssertionError("the rankings were built")

    monkeypatch.setattr(type(prof.alternatives), "_rankings", property(built))
    with pytest.raises(EnumerationBudgetError, match="10! rankings"):
        check(memoized(get_rule(name)), prof)


@pytest.mark.parametrize("name", ["rd", "ml"])
def test_every_axiom_answers_on_a_billion_voters_with_few_evaluations(name):
    prof = parse_profile("alternatives: a b c\n1000000000: a > b > c\n")
    rule, calls = counting(RULES[name])
    for axiom_name in AXIOMS:
        calls.clear()
        try:
            check_axiom_on_profile(rule, prof, axiom_name)
        except EnumerationBudgetError:
            pass
        assert len(calls) <= 7, axiom_name  # m! + 1


def test_all_rankings_are_built_once_per_alternative_set():
    alts = alternative_set("abcd")
    assert all_rankings(alts) is all_rankings(alts)
    assert len(all_rankings(alts)) == 24
