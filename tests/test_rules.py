import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import pcvote
from pcvote import (
    ApplicabilityError,
    DomainError,
    InternalError,
    Lottery,
    RULES,
    alternative_set,
    condorcet_uniform,
    condorcet_winner,
    enumerate_profiles,
    f1,
    f2,
    fixture_profile,
    get_rule,
    is_maximal_lottery,
    margin_matrix,
    margin_tally,
    ml,
    profile,
    rd,
    relabel,
)
from pcvote import rules
from pcvote.profilefmt import parse_profile
from pcvote.ratlp import LpOutcome, LpStatus, lp_solve
from helpers import (
    maximal_lottery_is_unique,
    reference_beats_or_ties_every_alternative,
    random_profile,
    reference_ml_leximin,
    solve_margin_game,
    unit,
)

F = Fraction


def lottery_of(prof, *probs):
    return Lottery(prof.alternatives, tuple(F(*p) if isinstance(p, tuple) else F(p) for p in probs))


# ---------------------------------------------------------------------------
# random dictatorship
# ---------------------------------------------------------------------------

def test_rd_is_top_share():
    prof = fixture_profile("rd_example")
    assert rd(prof) == lottery_of(prof, (3, 5), (1, 5), (1, 5))
    cyc = fixture_profile("ml_manipulation_R")
    assert rd(cyc) == lottery_of(cyc, (2, 5), (2, 5), (1, 5))


def test_rd_handles_any_m():
    prof = profile("abcd", [("d", "a", "b", "c")])
    assert rd(prof) == Lottery.degenerate(prof.alternatives, "d")


# ---------------------------------------------------------------------------
# condorcet_uniform
# ---------------------------------------------------------------------------

def test_condorcet_uniform_branches():
    with_winner = fixture_profile("rd_example")
    assert condorcet_winner(with_winner) == "a"
    assert condorcet_uniform(with_winner) == Lottery.degenerate(with_winner.alternatives, "a")
    cycle = profile("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    assert condorcet_uniform(cycle) == Lottery.uniform(cycle.alternatives)


# ---------------------------------------------------------------------------
# f1
# ---------------------------------------------------------------------------

def test_f1_condorcet_branch():
    prof = fixture_profile("rd_example")
    assert f1(prof) == Lottery.degenerate(prof.alternatives, "a")


def test_f1_single_weak_winner_branch():
    prof = fixture_profile("weak_cw_balanced")
    assert condorcet_winner(prof) is None
    assert f1(prof) == lottery_of(prof, (3, 5), (1, 5), (1, 5))


def test_f1_two_weak_winners_branch():
    prof = profile("abc", [("a", "b", "c"), ("b", "a", "c")])
    assert f1(prof) == lottery_of(prof, (1, 2), (1, 2), 0)


def test_f1_no_weak_winner_branch():
    prof = profile("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    assert f1(prof) == Lottery.uniform(prof.alternatives)


def test_f1_needs_three_alternatives():
    with pytest.raises(ApplicabilityError):
        f1(profile("ab", [("a", "b")]))
    with pytest.raises(ApplicabilityError):
        f1(profile("abcd", [("a", "b", "c", "d")]))


# ---------------------------------------------------------------------------
# f2
# ---------------------------------------------------------------------------

def test_f2_everything_bottom_ranked_falls_back_to_rd():
    prof = profile("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    assert f2(prof) == rd(prof) == Lottery.uniform(prof.alternatives)


def test_f2_two_survivors_fall_back_to_rd():
    prof = profile("abc", [("a", "b", "c"), ("b", "a", "c")])
    assert f2(prof) == rd(prof) == lottery_of(prof, (1, 2), (1, 2), 0)


def test_f2_absorbs_the_weakest_rival():
    prof = profile("abc", [("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a")])
    # only b is never last; rival tops: a -> 1, c -> 0; c is deleted
    assert f2(prof) == lottery_of(prof, (1, 3), (2, 3), 0)


def test_f2_absorbs_both_rivals_on_a_tie():
    prof = fixture_profile("rd_example")
    assert f2(prof) == Lottery.degenerate(prof.alternatives, "a")


def test_f2_needs_three_alternatives():
    with pytest.raises(ApplicabilityError):
        f2(profile("abcd", [("a", "b", "c", "d")]))


# ---------------------------------------------------------------------------
# maximal lotteries
# ---------------------------------------------------------------------------

def test_ml_pinned_cycle_values():
    R = fixture_profile("ml_manipulation_R")
    Rp = fixture_profile("ml_manipulation_Rprime")
    assert ml(R) == lottery_of(R, (3, 5), (1, 5), (1, 5))
    assert ml(Rp) == lottery_of(Rp, (1, 5), (1, 5), (3, 5))


def test_ml_puts_everything_on_a_condorcet_winner():
    prof = fixture_profile("rd_example")
    assert ml(prof) == Lottery.degenerate(prof.alternatives, "a")


def test_ml_fully_tied_profile_gives_uniform():
    prof = profile("abc", [("a", "b", "c"), ("c", "b", "a")])
    assert margin_matrix(prof).rows == ((0, 0, 0),) * 3
    assert ml(prof) == Lottery.uniform(prof.alternatives)
    assert not maximal_lottery_is_unique(prof)


def test_ml_uniqueness_flag_on_odd_cycle():
    assert maximal_lottery_is_unique(fixture_profile("ml_manipulation_R"))


def test_is_maximal_lottery():
    prof = fixture_profile("ml_manipulation_R")
    assert is_maximal_lottery(prof, ml(prof))
    assert not is_maximal_lottery(prof, Lottery.degenerate(prof.alternatives, "b"))
    with pytest.raises(DomainError):
        is_maximal_lottery(prof, Lottery.uniform(alternative_set("xy")))


def _quarter_grid(m):
    """Every lottery over m alternatives on the 1/4 grid, then the unit
    vectors as ints, which `maximal_lottery`'s Condorcet branch checks."""
    for counts in itertools.product(range(5), repeat=m):
        if sum(counts) == 4:
            yield tuple(F(c, 4) for c in counts)
    for j in range(m):
        yield unit(m, j)


def test_the_maximality_check_in_ints_equals_the_fraction_sum():
    checked = maximal = 0
    for m in range(1, 5):
        grid = list(_quarter_grid(m))
        matrices = {
            margin_matrix(prof) for n in range(1, 4) for prof in enumerate_profiles(m, n, up_to_anonymity=True)
        }
        for margins in matrices:
            for probs in grid:
                got = rules._beats_or_ties_every_alternative(margins, probs)
                assert got == reference_beats_or_ties_every_alternative(margins, probs), (margins, probs)
                maximal += got
                checked += 1
    assert 0 < maximal < checked


def test_ml_output_is_always_maximal_and_deterministic():
    rng = random.Random(17)
    for _ in range(40):
        prof = random_profile(rng, m_max=4, n_max=6)
        lot = ml(prof)
        assert is_maximal_lottery(prof, lot)
        assert ml(prof) == lot


def test_ml_neutrality_sampled():
    rng = random.Random(19)
    for _ in range(15):
        prof = random_profile(rng, m_max=4, n_max=5)
        names = list(prof.alternatives.names)
        image = list(names)
        rng.shuffle(image)
        perm = dict(zip(names, image))
        assert ml(relabel(prof, alt_perm=perm)) == ml(prof).relabel(perm)


def test_ml_anonymity_sampled():
    rng = random.Random(29)
    for _ in range(15):
        prof = random_profile(rng, m_max=4, n_max=6, n_min=2)
        order = list(range(1, prof.n + 1))
        rng.shuffle(order)
        assert ml(relabel(prof, voter_perm=tuple(order))) == ml(prof)


# ---------------------------------------------------------------------------
# maximal lotteries: the three cases and their guards
# ---------------------------------------------------------------------------

def _distinct_margin_profiles(regions):
    """First profile of every distinct margin matrix, in enumeration order
    over `(m, n)` regions."""
    firsts = {}
    for m, n in regions:
        for prof in enumerate_profiles(m, n, up_to_anonymity=True):
            firsts.setdefault(margin_matrix(prof), prof)
    return firsts


@pytest.fixture(scope="module")
def leximin_results():
    return {}


@pytest.fixture
def forced_leximin(monkeypatch, leximin_results):
    """The leximin loop as a function of the margins, run at most once per
    matrix in this module: `ml`'s own calls into the loop share the
    results, so a matrix that takes the loop anyway is not solved twice."""
    loop = rules._ml_leximin

    def leximin(margins):
        if margins not in leximin_results:
            leximin_results[margins] = loop(margins)
        return leximin_results[margins]

    monkeypatch.setattr(rules, "_ml_leximin", leximin)
    return leximin


def _floor_rows(lp):
    """The max-min LP's rows p_j - t >= 0: the ones with t's -1."""
    return {i for i, c in enumerate(lp.constraints) if c.coeffs[-1] == -1}


def test_ml_leximin_equals_the_reference_on_every_margin_matrix_up_to_four_by_three(
    monkeypatch, leximin_results
):
    # Every matrix through the one-LP-per-round loop, whatever case `ml`
    # would take, against the loop that proves each stuck coordinate by its
    # own LP. Each max-min tableau proves at least one floor row tight. The
    # results fill the module's cache for the tests below.
    outcomes = []

    def recording(lp):
        outcomes.append((lp, lp_solve(lp)))
        return outcomes[-1][1]

    monkeypatch.setattr(rules, "lp_solve", recording)
    regions = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3)]
    firsts = _distinct_margin_profiles(regions)
    assert len(firsts) == 1426
    for mm in firsts:
        outcomes.clear()
        got = leximin_results[mm] = rules._ml_leximin(mm)
        assert got == reference_ml_leximin(mm), mm.rows
        assert len(outcomes) < len(mm.alternatives), mm.rows
        for lp, outcome in outcomes:
            assert outcome.tight & _floor_rows(lp), (mm.rows, lp)


def _tie_heavy_profile(rng):
    """Up to six alternatives, an even number of ballots drawn from a pool
    of at most three rankings, half the draws paired with their reversal:
    margins are even and often 0, so the leximin loop runs with ties."""
    m = rng.randint(3, 6)
    alts = "abcdef"[:m]
    pool = [tuple(rng.sample(alts, m)) for _ in range(rng.randint(1, 3))]
    ballots = []
    for _ in range(rng.randint(1, 3)):
        ballot = rng.choice(pool)
        ballots += [ballot, ballot[::-1] if rng.random() < 0.5 else rng.choice(pool)]
    return profile(alts, ballots)


def test_ml_leximin_equals_the_reference_on_tie_heavy_profiles(monkeypatch):
    solves = {"loop": 0, "reference": 0}

    def counting(key):
        def solve(lp):
            solves[key] += 1
            return lp_solve(lp)
        return solve

    monkeypatch.setattr(rules, "lp_solve", counting("loop"))
    reference = counting("reference")
    rng = random.Random(1515)
    for k in range(600):
        mm = margin_matrix(_tie_heavy_profile(rng))
        assert rules._ml_leximin(mm) == reference_ml_leximin(mm, reference), (k, mm.rows)
    # the loop's one LP per round against one per round and per coordinate at the floor
    assert solves == {"loop": 703, "reference": 3841}


def test_ml_equals_the_leximin_loop_on_small_spaces(forced_leximin):
    regions = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(4, 1), (4, 2)]
    firsts = _distinct_margin_profiles(regions)
    assert len(firsts) == 1 + 7 + 63 + 24 + 219
    for mm, prof in firsts.items():
        assert ml(prof).probs == forced_leximin(mm), mm.rows


def test_ml_equals_the_leximin_loop_on_the_criterion_08_corpus(forced_leximin):
    rng = random.Random(90210)  # criterion 08's seed and generator
    for k in range(500):
        prof = random_profile(rng, m_max=4, n_max=7)
        mm = margin_matrix(prof)
        assert ml(prof).probs == forced_leximin(mm) == reference_ml_leximin(mm), k


def test_ml_outputs_pinned_on_every_margin_matrix_up_to_four_by_three(forced_leximin):
    # The digest was computed with the leximin-loop-only `ml` (every matrix
    # through the iterated max-min), before the Condorcet and odd-margin
    # cases existed. There are 1426 matrices: 1 for m=1, 7 for m=2, 63 for
    # m=3 and 1355 for m=4. `forced_leximin` only lets the matrices that
    # take the loop reuse the gate tests' results.
    regions = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3)]
    firsts = _distinct_margin_profiles(regions)
    assert len(firsts) == 1426
    digest = hashlib.sha256()
    for mm, prof in firsts.items():
        probs = " ".join(map(str, ml(prof).probs))
        digest.update(f"{mm.rows} -> {probs}\n".encode())
    assert digest.hexdigest() == "350e29899b528d23d0f724e4fd6f4ca95b9abf965a389014880b31b74583d485"


def test_ml_builds_the_margins_once(monkeypatch):
    calls = []

    def counting(prof):
        calls.append(prof)
        return margin_matrix(prof)

    monkeypatch.setattr(rules, "margin_matrix", counting)
    condorcet = fixture_profile("rd_example")
    odd_cycle = fixture_profile("ml_manipulation_R")
    even_tie = profile("abc", [("a", "b", "c"), ("c", "b", "a")])
    for prof in (condorcet, odd_cycle, even_tie):
        calls.clear()
        ml(prof)
        assert calls == [prof]


def test_ml_is_margin_based_on_the_three_by_two_space():
    assert get_rule("ml").statistic is margin_tally
    outputs = {}
    for prof in enumerate_profiles(3, 2):
        outputs.setdefault(margin_matrix(prof), set()).add(ml(prof))
    assert len(outputs) == 19
    assert all(len(lotteries) == 1 for lotteries in outputs.values())


def test_every_rule_is_a_function_of_its_declared_statistic():
    spaces = [(m, n, False) for m in (1, 2, 3) for n in (1, 2, 3, 4)]
    spaces += [(4, 1, False), (4, 2, False), (3, 5, True), (3, 6, True)]
    for name, rule in RULES.items():
        assert rule.statistic is not None, name
        outputs = {}
        for m, n, anonymous in spaces:
            for prof in enumerate_profiles(m, n, anonymous):
                if rule.applicable(prof):
                    outputs.setdefault((m, rule.statistic(prof)), set()).add(rule(prof))
        assert outputs and all(len(lotteries) == 1 for lotteries in outputs.values()), name


def test_ml_case_selection_counts_lps(monkeypatch):
    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(rules, "lp_solve", counting)
    for name, lps in (("rd_example", 0), ("ml_manipulation_R", 1)):
        solves.clear()
        ml(fixture_profile(name))
        assert len(solves) == lps, name
    solves.clear()
    # all margins 0: the loop, whose one max-min point has every coordinate
    # at the floor, so all are stuck
    ml(profile("abc", [("a", "b", "c"), ("c", "b", "a")]))
    assert len(solves) == 1


def test_ml_skips_the_coordinates_the_max_min_point_lifts(monkeypatch):
    # three cyclic ballots with even margins, so the leximin loop runs. Its
    # rounds pin d, then b, then a, each proven stuck by its max-min LP's
    # tableau, and c is what is left: 3 LPs, where trying every free
    # coordinate by its own LP takes 4 + (4 + 3 + 2 + 1) = 14.
    prof = parse_profile(
        "alternatives: a b c d\n"
        "200001: a > b > c > d\n199999: b > c > a > d\n200000: c > a > b > d\n"
    )
    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(rules, "lp_solve", counting)
    n = prof.n
    assert ml(prof).probs == (F(200000, n), F(199998, n), F(200002, n), F(0))
    assert len(solves) == 3


def test_internal_error_is_not_a_domain_error():
    assert not issubclass(InternalError, DomainError)


def test_ml_raises_when_the_max_min_lp_has_no_point(monkeypatch):
    monkeypatch.setattr(rules, "lp_solve", lambda lp: LpOutcome(LpStatus.Optimal, None, F(0)))
    with pytest.raises(InternalError):
        ml(profile("abc", [("a", "b", "c"), ("c", "b", "a")]))


# even margins, no Condorcet winner: the first max-min point puts 1/3 on a,
# b and c and 0 on d, so only the tableau's proof can pin a coordinate
DOUBLED_CYCLE = profile("abcd", [("a", "b", "c", "d"), ("b", "c", "a", "d"), ("c", "a", "b", "d")] * 2)


def test_ml_raises_when_a_max_min_round_pins_nothing(monkeypatch):
    assert ml(DOUBLED_CYCLE).probs == (F(1, 3), F(1, 3), F(1, 3), F(0))
    monkeypatch.setattr(rules, "lp_solve", lambda lp: replace(lp_solve(lp), tight=frozenset()))
    with pytest.raises(InternalError):
        ml(DOUBLED_CYCLE)


def test_ml_raises_on_a_non_maximal_result(monkeypatch):
    monkeypatch.setattr(rules, "_ml_unique_point", lambda margins: (F(1), F(0), F(0)))
    with pytest.raises(InternalError):
        ml(fixture_profile("ml_manipulation_R"))


_OPTIMIZED_GUARDS = """
import sys
from dataclasses import replace
from fractions import Fraction
from pcvote import InternalError, fixture_profile, ml, profile, rules

assert False, "asserts must be stripped here"
cycle = profile("abcd", [("a", "b", "c", "d"), ("b", "c", "a", "d"), ("c", "a", "b", "d")] * 2)
solve = rules.lp_solve
rules.lp_solve = lambda lp: replace(solve(lp), tight=frozenset())
try:
    ml(cycle)
except InternalError:
    pass
else:
    sys.exit("the max-min guard did not fire")
rules.lp_solve = solve
rules._ml_unique_point = lambda margins: (Fraction(1), Fraction(0), Fraction(0))
try:
    ml(fixture_profile("ml_manipulation_R"))
except InternalError:
    pass
else:
    sys.exit("the maximality guard did not fire")
print("guards held")
"""


def test_ml_guards_survive_python_dash_o():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pcvote.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_GUARDS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guards held"


# ---------------------------------------------------------------------------
# the margin game
# ---------------------------------------------------------------------------

def test_margin_game_is_fair_on_every_fixture_matrix():
    for name in ("rd_example", "ml_manipulation_R", "improvement_cycle", "cw_gallery_R1"):
        prof = fixture_profile(name)
        mm = margin_matrix(prof)
        value, strategy = solve_margin_game(mm)
        assert value == 0
        assert sum(strategy) == 1 and all(s >= 0 for s in strategy)
        # (G p)_x <= 0 for every row x
        for row in mm.rows:
            assert sum(g * s for g, s in zip(row, strategy)) <= 0


def test_margin_game_strategy_matches_ml_polytope():
    prof = fixture_profile("ml_manipulation_R")
    _, strategy = solve_margin_game(margin_matrix(prof))
    assert is_maximal_lottery(prof, Lottery(prof.alternatives, strategy))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_contents():
    assert set(RULES) == {"rd", "ml", "condorcet-uniform", "f1", "f2"}
    assert get_rule("rd").name == "rd"
    with pytest.raises(DomainError):
        get_rule("borda")


def test_rule_applicability_protocol():
    scheme = get_rule("f1")
    three = profile("abc", [("a", "b", "c")])
    four = profile("abcd", [("a", "b", "c", "d")])
    assert scheme.applicable(three) and not scheme.applicable(four)
    with pytest.raises(ApplicabilityError):
        scheme(four)
    assert get_rule("ml").applicable(four)
