import collections
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
    MarginMatrix,
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
from pcvote.ratlp import IntRowProgram, LpOutcome, LpStatus, lp_solve
from helpers import (
    maximal_lottery_is_unique,
    reference_beats_or_ties_every_alternative,
    random_profile,
    reference_ml_leximin,
    reference_rank,
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
    vectors as ints, the degenerate lotteries that `maximal_lottery`'s
    Condorcet branch checks."""
    for counts in itertools.product(range(5), repeat=m):
        if sum(counts) == 4:
            yield tuple(F(c, 4) for c in counts)
    for j in range(m):
        yield unit(m, j)


def test_the_maximality_check_in_ints_equals_the_fraction_sum():
    checked = maximal = 0
    for m in range(1, 5):
        grid = [Lottery(alternative_set("abcd"[:m]), probs) for probs in _quarter_grid(m)]
        for margins, prof in _distinct_margin_profiles([(m, n) for n in range(1, 4)]).items():
            for lottery in grid:
                got = is_maximal_lottery(prof, lottery)
                want = reference_beats_or_ties_every_alternative(margins, lottery.probs)
                assert got == want, (margins, lottery)
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


def _point_mass(mm):
    """The int mass of the point LP's vertex, which `ml` certifies."""
    return Lottery(mm.alternatives, rules._ml_point(mm))._mass[0]


@pytest.fixture(scope="module")
def leximin_results():
    return {}


@pytest.fixture
def forced_leximin(monkeypatch, leximin_results):
    """The leximin loop as a function of the margins, run at most once per
    matrix in this module: `ml`'s own calls into the loop share the
    results, so a matrix that takes the loop anyway is not solved twice.
    `ml` pins the coordinates its first LP proves 0; they are 0 at every
    optimal point, so the loop's result does not depend on them."""
    loop = rules._ml_leximin

    def leximin(margins, zeros=()):
        if margins not in leximin_results:
            leximin_results[margins] = loop(margins, zeros)
        return leximin_results[margins]

    monkeypatch.setattr(rules, "_ml_leximin", leximin)
    return leximin


def _floor_rows(lp):
    """A max-min round's rows t - p_j <= 0: the int rows whose last entry,
    t's, is 1. Every other row of a round has a 0 in t's column."""
    return {i for i, row in enumerate(lp.constraints) if row[-1] == 1}


def test_ml_leximin_equals_the_reference_on_every_margin_matrix_up_to_four_by_three(
    monkeypatch, leximin_results
):
    # Every matrix through the one-LP-per-round loop, with no coordinate
    # pinned, whatever case `ml` would take, against the loop that proves
    # each stuck coordinate by its own LP. Each max-min tableau proves at
    # least one floor row tight. The results fill the module's cache for the
    # tests below.
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
        got = leximin_results[mm] = rules._ml_leximin(mm, ())
        assert got == reference_ml_leximin(mm), mm.rows
        assert len(outcomes) < len(mm.alternatives), mm.rows
        for lp, outcome in outcomes:
            assert outcome.tight & _floor_rows(lp), (mm.rows, lp)


# Upper triangles (ab, ac, ad, bc, bd, cd) of m = 4 margin matrices, all even, so a profile
# with an even number of voters has each (McGarvey 1953), with their leximin points. Each
# optimal set is a segment inside the simplex along which one coordinate stays at the floor
# of the first max-min round, above 0, so that round pins it alone and the next round runs
# with a positive pin and three free coordinates. Found among the 7^6 matrices with entries in
# -6..6, even; none of the 1426 matrices up to m = 4, n = 3 or the tie-heavy profiles is such.
POSITIVE_PINS = {
    (-4, -4, 4, 0, -2, -2): (F(1, 5), F(1, 5), F(1, 5), F(2, 5)),
    (-6, -6, 6, 0, -2, -2): (F(1, 7), F(3, 14), F(3, 14), F(3, 7)),
    (-6, 2, 2, -4, -4, 0): (F(1, 3), F(1, 6), F(1, 4), F(1, 4)),
    (-6, 2, 2, -2, -2, 0): (F(1, 5), F(1, 5), F(3, 10), F(3, 10)),
}


def _margins_of_upper_triangle(upper):
    rows = [[0] * 4 for _ in range(4)]
    for (i, j), g in zip(itertools.combinations(range(4), 2), upper):
        rows[i][j], rows[j][i] = g, -g
    return MarginMatrix(alternative_set("abcd"), tuple(map(tuple, rows)))


@pytest.mark.parametrize("upper", sorted(POSITIVE_PINS))
def test_ml_leximin_equals_the_reference_after_a_positive_pin(monkeypatch, upper):
    rounds = []

    def recording(lp):
        rounds.append((lp, lp_solve(lp)))
        return rounds[-1][1]

    mm = _margins_of_upper_triangle(upper)
    monkeypatch.setattr(rules, "lp_solve", recording)
    got = rules._ml_leximin(mm, ())
    monkeypatch.undo()
    assert got == reference_ml_leximin(mm) == POSITIVE_PINS[upper]
    *_, floor = rounds[0][1].solution
    assert floor > 0 and len(_floor_rows(rounds[1][0])) == 3, rounds
    # Two rounds each. In the first three the second round leaves at most one
    # free coordinate. In (1/5, 1/5, 3/10, 3/10) it pins b at 1/5, and the
    # even split of what the pins leave, 3/10 each for c and d, ends the loop;
    # a split that ignored the pinned 2/5 (1/2 each) would not be maximal,
    # and a third round would pin c and d
    assert len(rounds) == 2, rounds
    assert rules.maximal_lottery(mm).probs == got


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
    solves = {"point": 0, "loop": 0, "reference": 0}
    rounds = []
    split, splits = rules._even_split, collections.Counter()

    def counting_split(margins, fixed, free):
        # which even splits end the loop: before any round, or after one
        point = split(margins, fixed, free)
        if point is not None:
            splits["after a round" if rounds else "before any round"] += 1
        return point

    monkeypatch.setattr(rules, "_even_split", counting_split)

    def counting(key):
        def solve(lp):
            solves[key] += 1
            outcome = lp_solve(lp)
            if key != "reference":
                assert isinstance(lp, IntRowProgram), lp
            if key == "loop":
                rounds.append((lp, outcome))
            return outcome
        return solve

    reference = counting("reference")
    rng = random.Random(1515)
    for k in range(600):
        mm = margin_matrix(_tie_heavy_profile(rng))
        # the loop starts from the zeros `ml`'s first LP proves, as in `ml`
        monkeypatch.setattr(rules, "lp_solve", counting("point"))
        _, zeros = rules._ml_certificate(mm, _point_mass(mm))
        monkeypatch.setattr(rules, "lp_solve", counting("loop"))
        rounds.clear()
        got = rules._ml_leximin(mm, zeros)
        assert got == reference_ml_leximin(mm, reference), (k, mm.rows)
        # Every round's point is a lottery, Σp = 1, even at floor 0, that
        # holds each pinned coordinate at its value, and t is its least free
        # coordinate, one that a floor row t - p_j <= 0 names
        for lp, outcome in rounds:
            *point, t = outcome.solution
            free = {row.index(-1) for row in (lp.constraints[i] for i in _floor_rows(lp))}
            assert sum(point) == 1 and t == min(point[j] for j in free), (k, lp)
            assert all(point[j] == got[j] for j in range(len(got)) if j not in free), (k, lp)
    # One point LP per matrix. The loop takes one LP per round, against the
    # reference's one per round and per coordinate at the floor. Of the 600
    # matrices, 321 have a Condorcet winner, whose point proves every other
    # coordinate 0, so the loop runs no round; 191 have zero row sums, and
    # the even split of the whole mass, the uniform lottery, ends the loop
    # before any round (one round each when the loop had no split). Of the
    # other 88, 45 end by the even split over the coordinates the point LP
    # left free, before any round; 42 take one round at floor 0, and the
    # even split of what it leaves free ends them; 1 takes a round at floor
    # 0 and one at a positive floor, and ends on its last free coordinate.
    # 0 + 0 + 42 + 2 = 44 rounds, 43 at floor 0. Before the even split they
    # took 158 rounds (349 with the 191): 88 at a positive floor and 70 at
    # floor 0, 27 more than the 43 of the old phase-one form, because the
    # homogenized tableau proves fewer floor rows tight; a floor-0 round now
    # also pins the free coordinates the tableau proves 0
    # (`LpOutcome.zeros`), which wins those 27 back. The results are the
    # same
    assert splits == {"before any round": 191 + 45, "after a round": 42}
    assert solves == {"point": 600, "loop": 44, "reference": 3841}


def test_the_certificate_holds_exactly_when_the_optimal_set_is_a_point(monkeypatch):
    # every distinct margin matrix with m <= 4, n <= 4, then tie-heavy ones
    # up to m = 6, whose even margins and ties leave optimal sets that are
    # not points
    firsts = _distinct_margin_profiles([(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3, 4)])
    rng = random.Random(2323)
    for _ in range(300):
        prof = _tie_heavy_profile(rng)
        firsts.setdefault(margin_matrix(prof), prof)
    solves = _counting_solves(monkeypatch)
    seen = collections.Counter()
    for mm, prof in firsts.items():
        if mm.condorcet_index() is not None:
            continue
        solves.clear()
        got = ml(prof)
        lps = len(solves)
        if not any(map(sum, mm.rows)):
            assert got is Lottery.uniform(prof.alternatives) and lps == 0, mm.rows
            seen["uniform"] += 1
            continue
        unique, zeros = rules._ml_certificate(mm, _point_mass(mm))
        assert unique == maximal_lottery_is_unique(prof), mm.rows
        # The LP's point is a vertex of the optimal set, where the cover
        # alone rules out a second point; the rank decides at any other
        # point, such as the leximin point `ml` returns
        assert rules._ml_certificate(mm, got._mass[0])[0] == unique, mm.rows
        # One LP exactly when the point is certified or the even split of the
        # coordinates not proven 0 is maximal, which ends the loop before
        # any round; otherwise the loop adds a round
        rest = [x for x in range(len(mm.alternatives)) if x not in zeros]
        split = [F(1, len(rest)) if x in rest else F(0) for x in range(len(mm.alternatives))]
        even = reference_beats_or_ties_every_alternative(mm, split)
        assert (lps == 1) == (unique or even), mm.rows
        seen["even split"] += even and not unique
        if all(g % 2 for i, row in enumerate(mm.rows) for j, g in enumerate(row) if j != i):
            assert unique, mm.rows
            seen["all odd"] += 1
        if zeros:
            reference = reference_ml_leximin(mm)
            assert all(reference[x] == 0 for x in zeros), mm.rows
        seen["point" if unique else "not a point"] += 1
        seen["zeros"] += bool(zeros)
    assert min(seen.values()) > 0 and len(seen) == 6, seen


def test_the_bareiss_rank_equals_the_fraction_rank():
    rng = random.Random(6006)
    shapes = [(k, k) for k in range(1, 7)] + [(2, 5), (5, 2), (3, 6), (6, 4)]
    checked = collections.Counter()
    for _ in range(60):
        for rows, cols in shapes:
            size = rng.choice((1, 3, 600000))
            full = [[rng.randint(-size, size) for _ in range(cols)] for _ in range(rows)]
            # rank at most r: a product of a rows x r and an r x cols factor
            r = rng.randint(0, min(rows, cols))
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
            right = [[rng.randint(-size, size) for _ in range(cols)] for _ in range(r)]
            low = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            matrices = [full, low]
            if rows == cols:
                # skew-symmetric, as a block of a margin matrix: odd sizes are singular
                skew = [[0] * rows for _ in range(rows)]
                for i, j in itertools.combinations(range(rows), 2):
                    skew[i][j] = rng.choice((0, rng.randint(-size, size)))
                    skew[j][i] = -skew[i][j]
                matrices.append(skew)
            for matrix in matrices:
                want = reference_rank(matrix)
                assert rules._rank(matrix) == want, matrix
                checked[want < min(rows, cols), rows == cols and rows % 2] += 1
    assert len(checked) == 4, checked


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
    # through the iterated max-min), before the Condorcet, uniform and
    # certificate cases existed. There are 1426 matrices: 1 for m=1, 7 for
    # m=2, 63 for m=3 and 1355 for m=4. `forced_leximin` only lets the
    # matrices that take the loop reuse the gate tests' results.
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


# No Condorcet winner and row sums not all 0, and the optimal set is the
# triangle p_c = 0, p_b >= p_a + p_d, not a point. The point LP finds
# (1/2, 1/2, 0, 0), where G p = 0 proves no coordinate 0, so the leximin
# loop runs with nothing pinned. Its first max-min point is the same one: it
# lifts a and b above the floor 0 and leaves c and d there, and only the
# tableau's proof pins c.
TRIANGLE = profile(
    "abcd", [("a", "b", "c", "d"), ("b", "c", "a", "d"), ("c", "d", "a", "b"), ("d", "b", "c", "a")]
)
# even margins, no Condorcet winner: the optimal set is the one point
# (1/3, 1/3, 1/3, 0), which the certificate proves after one LP
DOUBLED_CYCLE = profile("abcd", [("a", "b", "c", "d"), ("b", "c", "a", "d"), ("c", "a", "b", "d")] * 2)
# a and b tie and beat c and d, and c beats d: the optimal set is the segment
# p_a + p_b = 1, and the first LP's point proves c and d 0
TIED_PAIR = profile("abcd", [("a", "b", "c", "d"), ("b", "a", "c", "d")])


def _counting_solves(monkeypatch):
    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(rules, "lp_solve", counting)
    return solves


def test_ml_case_selection_counts_lps(monkeypatch):
    solves = _counting_solves(monkeypatch)
    cases = (
        ("a Condorcet winner", fixture_profile("rd_example"), 0),
        # all margins 0, so every row sums to 0: the uniform lottery
        ("zero row sums", profile("abc", [("a", "b", "c"), ("c", "b", "a")]), 0),
        # an odd cycle: the point LP, and the certificate holds
        ("odd margins", fixture_profile("ml_manipulation_R"), 1),
        # even margins, a 3-cycle over a, b, c above d: the optimal set is the
        # point (1/3, 1/3, 1/3, 0), certified after the point LP
        ("a certified point", DOUBLED_CYCLE, 1),
        # the point LP, which proves c and d 0; the even split of a and b,
        # (1/2, 1/2, 0, 0), is maximal, so no max-min round (one before the
        # even split, and two with c and d free)
        ("pinned zeros", TIED_PAIR, 1),
        # the point LP, then two max-min rounds
        ("the loop", TRIANGLE, 3),
    )
    for name, prof, lps in cases:
        solves.clear()
        ml(prof)
        assert len(solves) == lps, name
    assert ml(TIED_PAIR).probs == (F(1, 2), F(1, 2), F(0), F(0))


def test_ml_skips_the_coordinates_the_max_min_point_lifts(monkeypatch):
    # The optimal set is not a point, so the leximin loop runs, with no
    # coordinate proven 0 by the first LP. Its rounds pin c at 0, then a and
    # d at 1/4, each proven stuck by its max-min LP's tableau, and b is what
    # is left: 1 + 2 = 3 LPs. The reference tries each free coordinate at
    # the floor by an LP of its own: round one's point (0, 1, 0, 0) has a, c
    # and d at 0, round two's (1/4, 1/2, 1/4) has a and d at 1/4, and b
    # takes a round of its own: (1 + 3) + (1 + 2) + (1 + 1) = 9.
    solves = _counting_solves(monkeypatch)
    assert ml(TRIANGLE).probs == (F(1, 4), F(1, 2), F(0), F(1, 4))
    assert len(solves) == 3
    reference = []

    def counting(lp):
        reference.append(lp)
        return lp_solve(lp)

    assert reference_ml_leximin(margin_matrix(TRIANGLE), counting) == ml(TRIANGLE).probs
    assert len(reference) == 9


def test_internal_error_is_not_a_domain_error():
    assert not issubclass(InternalError, DomainError)


def _pointless_max_min(lp):
    """The point LP as it is; every max-min LP optimal with no point. Both
    are `IntRowProgram`s, told apart by shape: the point LP has m variables
    and m + 1 rows (G p <= 0, Σp <= 1), a round m + 1 variables (p and t)
    and at least m + 3 rows (two or more floor rows)."""
    point = len(lp.objective) == len(lp.constraints) - 1
    return lp_solve(lp) if point else LpOutcome(LpStatus.Optimal, None, F(0))


def test_ml_raises_when_the_max_min_lp_has_no_point(monkeypatch):
    monkeypatch.setattr(rules, "lp_solve", _pointless_max_min)
    with pytest.raises(InternalError, match="max-min LP of ml came out optimal with no solution"):
        ml(TRIANGLE)


def test_ml_raises_when_a_max_min_round_pins_nothing(monkeypatch):
    assert ml(TRIANGLE).probs == (F(1, 4), F(1, 2), F(0), F(1, 4))
    no_evidence = {"tight": frozenset(), "zeros": frozenset()}
    monkeypatch.setattr(rules, "lp_solve", lambda lp: replace(lp_solve(lp), **no_evidence))
    assert ml(DOUBLED_CYCLE).probs == (F(1, 3), F(1, 3), F(1, 3), F(0))  # no max-min round
    with pytest.raises(InternalError, match="pinned no coordinate"):
        ml(TRIANGLE)


def test_ml_raises_on_a_non_maximal_result(monkeypatch):
    # c beats a, so the degenerate lottery on a is not maximal
    monkeypatch.setattr(rules, "_ml_leximin", lambda margins, zeros: (F(1), F(0), F(0), F(0)))
    with pytest.raises(InternalError, match="non-maximal"):
        ml(TRIANGLE)


_OPTIMIZED_GUARDS = """
import sys
from dataclasses import replace
from fractions import Fraction
from pcvote import InternalError, ml, profile, rules
from pcvote.ratlp import LpOutcome, LpStatus

assert False, "asserts must be stripped here"
triangle = profile(
    "abcd", [("a", "b", "c", "d"), ("b", "c", "a", "d"), ("c", "d", "a", "b"), ("d", "b", "c", "a")]
)
solve = rules.lp_solve
pointless = LpOutcome(LpStatus.Optimal, None, Fraction(0))
# the point LP has m variables and m + 1 rows, a round m + 1 variables and more rows
point = lambda lp: len(lp.objective) == len(lp.constraints) - 1
guards = (
    ("no solution", "lp_solve", lambda lp: solve(lp) if point(lp) else pointless),
    ("pinned no coordinate", "lp_solve", lambda lp: replace(solve(lp), tight=frozenset())),
    ("non-maximal", "_ml_leximin", lambda margins, zeros: (1, 0, 0, 0)),
)
for message, attr, patch in guards:
    original = getattr(rules, attr)
    setattr(rules, attr, patch)
    try:
        ml(triangle)
    except InternalError as error:
        if message not in str(error):
            sys.exit(f"the {message!r} guard raised {error}")
    else:
        sys.exit(f"the {message!r} guard did not fire")
    setattr(rules, attr, original)
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
