import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcvote import (
    AlternativeSet,
    DomainError,
    Extension,
    Lottery,
    Mode,
    Profile,
    Ranking,
    UnknownAlternativeError,
    absolute_winner,
    alternative_set,
    condorcet_winner,
    find_manipulation,
    majority_margin,
    margin_matrix,
    margin_tally,
    never_bottom_set,
    pareto_dominated_set,
    profile,
    ranking,
    relabel,
    remove_voter,
    top_bottom_tally,
    top_count,
    top_tally,
    weak_condorcet_winners,
)
from pcvote.model import _scaled
from pcvote.profilefmt import format_profile, parse_profile
from pcvote.rules import get_rule
from helpers import (
    reference_lottery_refusal,
    reference_absolute_winner,
    reference_condorcet_winner,
    reference_majority_margin,
    reference_never_bottom_set,
    reference_pareto_dominated_set,
    reference_top_count,
    reference_weak_condorcet_winners,
)

F = Fraction


def five_voter_example() -> Profile:
    # 3 voters a>b>c, one b>a>c, one c>a>b
    return profile("abc", [("a", "b", "c")] * 3 + [("b", "a", "c"), ("c", "a", "b")])


def cyclic_example() -> Profile:
    # margins: a beats b by 1, b beats c by 3, c beats a by 1
    return profile("abc", [("a", "b", "c")] * 2 + [("b", "c", "a")] * 2 + [("c", "a", "b")])


# ---------------------------------------------------------------------------
# alternatives / rankings
# ---------------------------------------------------------------------------

def test_alternative_set_keeps_given_order():
    alts = alternative_set(("b", "a", "c"))
    assert alts.names == ("b", "a", "c")
    assert alts.index("a") == 1
    with pytest.raises(UnknownAlternativeError):
        alts.index("z")


def test_alternative_set_rejects_duplicates():
    with pytest.raises(DomainError):
        alternative_set(("a", "b", "a"))


def test_ranking_accessors():
    alts = alternative_set("abc")
    r = ranking(alts, ("b", "c", "a"))
    assert r.top == "b" and r.bottom == "a"
    assert r.rank("b") == 1 and r.rank("c") == 2 and r.rank("a") == 3
    assert r.prefers("b", "a") and not r.prefers("a", "c")
    assert r.above("a") == ("b", "c")
    assert r.below("b") == ("c", "a")
    assert r.reversed().order == ("a", "c", "b")
    assert r.reversed().reversed() == r


def test_ranking_must_be_complete_and_strict():
    alts = alternative_set("abc")
    with pytest.raises(DomainError):
        ranking(alts, ("a", "b"))
    with pytest.raises(DomainError):
        ranking(alts, ("a", "b", "b"))
    with pytest.raises(DomainError):
        ranking(alts, ("a", "b", "z"))


def test_ranking_relabel():
    alts = alternative_set("abc")
    r = ranking(alts, ("a", "c", "b"))
    swapped = r.relabel({"a": "a", "b": "c", "c": "b"})
    assert swapped.order == ("a", "b", "c")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_basics():
    prof = five_voter_example()
    assert prof.n == 5 and prof.m == 3
    assert prof.ballot(1).order == ("a", "b", "c")
    assert prof.ballot(5).order == ("c", "a", "b")
    with pytest.raises(DomainError):
        prof.ballot(0)
    with pytest.raises(DomainError):
        prof.ballot(6)


def test_profile_needs_at_least_one_voter():
    with pytest.raises(DomainError):
        profile("abc", [])


def test_replace_ballot_and_append():
    prof = five_voter_example()
    alts = prof.alternatives
    new = prof.replace_ballot(1, ranking(alts, ("c", "b", "a")))
    assert new.ballot(1).order == ("c", "b", "a")
    assert prof.ballot(1).order == ("a", "b", "c")  # original untouched
    grown = prof.append(ranking(alts, ("b", "c", "a")))
    assert grown.n == 6 and grown.ballot(6).order == ("b", "c", "a")


def test_profile_rejects_foreign_ballots():
    other = ranking(alternative_set("xyz"), ("x", "y", "z"))
    with pytest.raises(DomainError):
        five_voter_example().append(other)


# ---------------------------------------------------------------------------
# lotteries
# ---------------------------------------------------------------------------

def test_lottery_constructors_agree():
    alts = alternative_set("abc")
    by_tuple = Lottery(alts, (F(1, 2), F(1, 2), F(0)))
    by_map = Lottery.from_map(alts, {"a": F(1, 2), "b": F(1, 2)})
    assert by_tuple == by_map
    assert by_tuple.prob("a") == F(1, 2) and by_tuple.prob("c") == 0
    assert by_tuple.support() == {"a", "b"}
    assert not by_tuple.is_degenerate()
    assert Lottery.degenerate(alts, "b").is_degenerate()
    assert Lottery.uniform(alts).probs == (F(1, 3),) * 3
    assert Lottery.uniform(alts, over=("a", "c")).as_map() == {
        "a": F(1, 2), "b": F(0), "c": F(1, 2)
    }


def test_lottery_validation():
    alts = alternative_set("abc")
    with pytest.raises(DomainError):
        Lottery(alts, (F(1, 2), F(1, 2), F(1, 2)))  # sums to 3/2
    with pytest.raises(DomainError):
        Lottery(alts, (F(3, 2), F(-1, 2), F(0)))  # negative entry
    with pytest.raises(DomainError):
        Lottery(alts, (0.5, 0.5, 0.0))  # floats are banned
    with pytest.raises(DomainError):
        Lottery.from_map(alts, {"a": F(1, 2), "z": F(1, 2)})


def _grid_entries(m, den):
    """Every m-tuple of multiples of 1/den from -1/den to 1 + 1/den, summing
    to 1 or not, in `Fraction`s and, where whole, as ints."""
    steps = [Fraction(j, den) for j in range(-1, den + 2)]
    for probs in itertools.product(steps, repeat=m):
        yield probs
        if all(p.denominator == 1 for p in probs):
            yield tuple(int(p) for p in probs)


def _refusal(alts, probs):
    try:
        Lottery(alts, probs)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("den", [4, 5])
def test_lottery_validation_in_ints_equals_the_fraction_sum(den):
    accepted = refused = 0
    for m in range(1, 5):
        alts = alternative_set("abcd"[:m])
        cases = list(_grid_entries(m, den))
        # floats, other types and wrong lengths, first or later in the entries
        cases += [(0.5,) + (F(1, 2),) * (m - 1), (F(1), 0.0) + (F(0),) * (m - 2), ("1",) * m]
        cases += [(F(1, m),) * (m + 1), (F(1, m),) * (m - 1), (F(-1), 2.0) + (F(0),) * m]
        for probs in cases:
            want = reference_lottery_refusal(m, probs)
            assert _refusal(alts, probs) == want, (alts.names, probs)
            if want is None:
                lottery = Lottery(alts, probs)
                mass, scale = _scaled(lottery.probs)
                assert lottery._mass == (tuple(mass), scale)
                assert lottery.probs == tuple(map(Fraction, probs))
                accepted += 1
            else:
                refused += 1
    # the grid's lotteries, C(den + m - 1, m - 1) for each m, and the m
    # unit vectors again as ints
    assert accepted == sum(math.comb(den + m - 1, m - 1) + m for m in range(1, 5))
    assert refused > accepted


def test_degenerate_lotteries_are_one_object_per_set_and_alternative():
    alts = alternative_set("abcd")
    first = Lottery.degenerate(alts, "c")
    # one request builds one entry, not the m lotteries of the set
    assert alts._degenerate == {2: first}
    assert Lottery.degenerate(alts, "c") is first
    assert first == Lottery(alts, (F(0), F(0), F(1), F(0))) and first._mass == ((0, 0, 1, 0), 1)
    for x in alts:
        assert Lottery.degenerate(alts, x) is Lottery.degenerate(alts, x)
        assert Lottery.degenerate(alts, x) == Lottery.from_map(alts, {x: F(1)})
    # an equal set is another object, with lotteries of its own
    other = alternative_set("abcd")
    assert Lottery.degenerate(other, "c") == first and Lottery.degenerate(other, "c") is not first
    for foreign in ("e", "", None, ["a"]):
        with pytest.raises(UnknownAlternativeError):
            Lottery.degenerate(alts, foreign)
    # every rule's Condorcet branch hands out the one object
    prof = profile("abc", ["abc", "bac", "acb"])
    winner = Lottery.degenerate(prof.alternatives, "a")
    for name in ("ml", "f1", "condorcet-uniform"):
        assert get_rule(name)(prof) is winner, name


def test_the_uniform_lottery_over_a_whole_set_is_one_object_per_set():
    for m in range(1, 5):
        alts = alternative_set("abcd"[:m])
        whole = Lottery.uniform(alts)
        assert Lottery.uniform(alts) is whole
        assert whole == Lottery(alts, tuple(F(1, m) for _ in range(m)))
        assert whole._mass == ((1,) * m, m)
        # a subset, even the whole one named, builds its own
        assert Lottery.uniform(alts, over=alts.names) == whole
        assert Lottery.uniform(alts, over=alts.names) is not whole
        other = alternative_set("abcd"[:m])
        assert Lottery.uniform(other) == whole and Lottery.uniform(other) is not whole
    # the rules' no-winner branches hand out the one object
    prof = profile("abc", ["abc", "bca", "cab"])
    for name in ("f1", "condorcet-uniform"):
        assert get_rule(name)(prof) is Lottery.uniform(prof.alternatives), name


def test_lottery_relabel():
    alts = alternative_set("abc")
    p = Lottery(alts, (F(1, 2), F(1, 3), F(1, 6)))
    q = p.relabel({"a": "b", "b": "a", "c": "c"})
    assert q.prob("b") == F(1, 2) and q.prob("a") == F(1, 3) and q.prob("c") == F(1, 6)


# ---------------------------------------------------------------------------
# profile statistics, pinned on the worked examples
# ---------------------------------------------------------------------------

def test_margins_five_voter_example():
    prof = five_voter_example()
    assert majority_margin(prof, "a", "b") == 3
    assert majority_margin(prof, "a", "c") == 3
    assert majority_margin(prof, "b", "c") == 3
    assert majority_margin(prof, "b", "a") == -3
    assert majority_margin(prof, "a", "a") == 0


def test_margins_cyclic_example():
    prof = cyclic_example()
    assert majority_margin(prof, "a", "b") == 1
    assert majority_margin(prof, "b", "c") == 3
    assert majority_margin(prof, "c", "a") == 1


def test_margin_matrix_layout():
    prof = cyclic_example()
    mm = margin_matrix(prof)
    assert mm.alternatives == prof.alternatives
    assert mm.rows[0] == (0, 1, -1)
    assert mm.rows[1] == (-1, 0, 3)
    assert mm.rows[2] == (1, -3, 0)
    assert mm.margin("b", "c") == 3


def test_top_counts_and_winners():
    prof = five_voter_example()
    assert [top_count(prof, x) for x in "abc"] == [3, 1, 1]
    assert condorcet_winner(prof) == "a"
    assert weak_condorcet_winners(prof) == {"a"}
    assert absolute_winner(prof) == "a"  # 3 of 5 tops

    cyc = cyclic_example()
    assert condorcet_winner(cyc) is None
    assert weak_condorcet_winners(cyc) == frozenset()
    assert absolute_winner(cyc) is None


def test_weak_winners_without_strict_winner():
    # two voters, opposite rankings: both margins zero, everything weak
    prof = profile("ab", [("a", "b"), ("b", "a")])
    assert condorcet_winner(prof) is None
    assert weak_condorcet_winners(prof) == {"a", "b"}


def test_pareto_dominated_and_never_bottom():
    prof = five_voter_example()
    assert pareto_dominated_set(prof) == frozenset()
    assert never_bottom_set(prof) == {"a"}

    unanimous = profile("abc", [("a", "b", "c"), ("a", "c", "b")])
    # b and c each get beaten... only unanimity counts, and only a>b, a>c hold unanimously
    assert pareto_dominated_set(unanimous) == {"b", "c"}
    assert never_bottom_set(unanimous) == {"a"}


def test_remove_voter():
    prof = five_voter_example()
    smaller = remove_voter(prof, 4)
    assert smaller.n == 4
    assert [b.order for b in smaller.ballots] == [
        ("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c"), ("c", "a", "b")
    ]
    with pytest.raises(DomainError):
        remove_voter(prof, 0)
    with pytest.raises(DomainError):
        remove_voter(prof, 6)
    single = profile("ab", [("a", "b")])
    with pytest.raises(DomainError):
        remove_voter(single, 1)


def test_relabel_voters():
    prof = five_voter_example()
    rotated = relabel(prof, voter_perm=(5, 1, 2, 3, 4))
    assert rotated.ballot(1).order == ("c", "a", "b")
    assert rotated.ballot(2).order == ("a", "b", "c")
    with pytest.raises(DomainError):
        relabel(prof, voter_perm=(1, 1, 2, 3, 4))
    with pytest.raises(DomainError):
        relabel(prof, voter_perm=(1, 2, 3))


def test_a_bool_is_no_voter_index():
    # True == 1, but it names no voter, as it is no run count either
    prof = five_voter_example()
    rd = get_rule("rd")
    calls = [
        lambda: prof.ballot(True),
        lambda: remove_voter(prof, True),
        lambda: prof.replace_ballot(True, prof.ballot(4)),
        lambda: relabel(prof, voter_perm=(True, 2, 3, 4, 5)),
        lambda: relabel(prof, voter_perm=(2, 1.0, 3, 4, 5)),
        lambda: find_manipulation(rd, prof, Extension.SD, Mode.Strong, voters=(True,)),
        lambda: find_manipulation(rd, prof, Extension.SD, Mode.Strong, voters=(2, False)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="voter"):
            call()


def test_relabel_alternatives():
    prof = five_voter_example()
    swapped = relabel(prof, alt_perm={"a": "b", "b": "a", "c": "c"})
    assert swapped.ballot(1).order == ("b", "a", "c")
    assert condorcet_winner(swapped) == "b"
    with pytest.raises(DomainError):
        relabel(prof, alt_perm={"a": "b"})
    with pytest.raises(DomainError):
        relabel(prof, alt_perm={"a": "b", "b": "b", "c": "c"})


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def profiles(draw, m_max=4, n_max=6):
    m = draw(st.integers(2, m_max))
    n = draw(st.integers(1, n_max))
    alts = "abcd"[:m]
    orders = draw(st.lists(st.permutations(alts), min_size=n, max_size=n))
    return profile(alts, orders)


@given(profiles())
def test_margin_skew_symmetry(prof):
    for x, y in itertools.combinations(prof.alternatives.names, 2):
        assert majority_margin(prof, x, y) == -majority_margin(prof, y, x)


@given(profiles())
def test_margin_parity_matches_electorate(prof):
    # strict ballots: every pair splits n, so margins share n's parity
    for x, y in itertools.combinations(prof.alternatives.names, 2):
        assert (majority_margin(prof, x, y) - prof.n) % 2 == 0


@given(profiles())
def test_top_counts_sum_to_n(prof):
    assert sum(top_count(prof, x) for x in prof.alternatives.names) == prof.n


@given(profiles())
def test_absolute_winner_is_condorcet_winner(prof):
    aw = absolute_winner(prof)
    if aw is not None:
        assert condorcet_winner(prof) == aw


@given(profiles())
def test_condorcet_winner_is_weak(prof):
    cw = condorcet_winner(prof)
    weak = weak_condorcet_winners(prof)
    if cw is not None:
        assert weak == {cw}


@settings(max_examples=40)
@given(profiles(), st.randoms(use_true_random=False))
def test_relabel_alt_perm_equivariance(prof, rnd):
    names = list(prof.alternatives.names)
    image = list(names)
    rnd.shuffle(image)
    perm = dict(zip(names, image))
    mapped = relabel(prof, alt_perm=perm)
    for x, y in itertools.permutations(names, 2):
        assert majority_margin(prof, x, y) == majority_margin(mapped, perm[x], perm[y])
    for x in names:
        assert top_count(prof, x) == top_count(mapped, perm[x])


@given(profiles())
def test_voter_permutation_preserves_statistics(prof):
    reversed_perm = tuple(range(prof.n, 0, -1))
    mixed = relabel(prof, voter_perm=reversed_perm)
    assert margin_matrix(mixed).rows == margin_matrix(prof).rows
    assert sorted(b.order for b in mixed.ballots) == sorted(b.order for b in prof.ballots)


def test_pareto_domination_via_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        alts = "abcd"[:m]
        prof = profile(alts, [rng.sample(alts, m) for _ in range(n)])
        expected = set()
        for y in alts:
            for x in alts:
                if x != y and all(b.prefers(x, y) for b in prof.ballots):
                    expected.add(y)
                    break
        assert pareto_dominated_set(prof) == expected


# ---------------------------------------------------------------------------
# run-length profiles against the per-voter reference
# ---------------------------------------------------------------------------

def assert_matches_reference(prof: Profile, ballots: list[tuple[str, ...]]) -> None:
    """`prof` holds exactly the voter sequence `ballots`, and every
    statistic read off its runs equals the per-voter definition."""
    names = prof.alternatives.names
    assert prof.n == len(ballots)
    assert [prof.ballot(i).order for i in range(1, prof.n + 1)] == ballots
    assert [b.order for b in prof.ballots] == ballots
    assert all(count >= 1 for _, count in prof.runs)
    assert all(a != b for (a, _), (b, _) in zip(prof.runs, prof.runs[1:]))
    want = tuple(tuple(reference_majority_margin(ballots, x, y) for y in names) for x in names)
    assert margin_matrix(prof).rows == want
    assert all(
        majority_margin(prof, x, y) == want[i][j]
        for i, x in enumerate(names) for j, y in enumerate(names)
    )
    assert [top_count(prof, x) for x in names] == [reference_top_count(ballots, x) for x in names]
    assert pareto_dominated_set(prof) == reference_pareto_dominated_set(ballots, names)
    assert never_bottom_set(prof) == reference_never_bottom_set(ballots, names)
    assert condorcet_winner(prof) == reference_condorcet_winner(ballots, names)
    assert weak_condorcet_winners(prof) == reference_weak_condorcet_winners(ballots, names)
    assert absolute_winner(prof) == reference_absolute_winner(ballots, names)
    assert parse_profile(format_profile(prof)) == prof


@st.composite
def voter_sequences(draw, m_max=4, n_max=6):
    """(alternatives, ballots) drawn from a pool of at most three rankings,
    so that runs of equal ballots are common."""
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(1, n_max))
    alts = alternative_set("abcd"[:m])
    pool = draw(st.lists(st.permutations(alts.names), min_size=1, max_size=3))
    ballots = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return alts, [tuple(b) for b in ballots]


@settings(max_examples=150)
@given(voter_sequences(), st.data())
def test_every_split_into_runs_gives_one_profile(seq, data):
    alts, ballots = seq
    runs: list[list] = []
    for b in ballots:
        r = Ranking(alts, b)
        if runs and runs[-1][0] == r and data.draw(st.booleans()):
            runs[-1][1] += 1
        else:
            runs.append([r, 1])
    split = Profile(alts, tuple((r, count) for r, count in runs))
    whole = Profile.from_ballots(alts, [Ranking(alts, b) for b in ballots])
    assert split == whole and hash(split) == hash(whole)
    assert split.runs == whole.runs
    assert_matches_reference(split, ballots)


@settings(max_examples=150)
@given(voter_sequences(), st.data())
def test_profile_operations_match_the_reference(seq, data):
    alts, ballots = seq
    n = len(ballots)
    prof = profile(alts, ballots)
    assert_matches_reference(prof, ballots)
    every = [tuple(o) for o in itertools.permutations(alts.names)]
    i = data.draw(st.integers(1, n))
    new = data.draw(st.sampled_from(every))
    edited = ballots[: i - 1] + [new] + ballots[i:]
    assert_matches_reference(prof.replace_ballot(i, Ranking(alts, new)), edited)
    extra = data.draw(st.lists(st.sampled_from(every), max_size=3))
    assert_matches_reference(prof.append(*(Ranking(alts, b) for b in extra)), ballots + extra)
    if n >= 2:
        assert_matches_reference(remove_voter(prof, i), ballots[: i - 1] + ballots[i:])
    perm = data.draw(st.permutations(range(1, n + 1)))
    assert_matches_reference(relabel(prof, voter_perm=perm), [ballots[j - 1] for j in perm])
    mapping = dict(zip(alts.names, data.draw(st.permutations(alts.names))))
    assert_matches_reference(
        relabel(prof, alt_perm=mapping), [tuple(mapping[x] for x in b) for b in ballots]
    )


def test_small_profiles_and_every_single_edit_match_the_reference():
    for m in (1, 2, 3):
        alts = alternative_set("abc"[:m])
        every = [tuple(o) for o in itertools.permutations(alts.names)]
        for n in (1, 2, 3):
            for seq in itertools.product(every, repeat=n):
                ballots = list(seq)
                prof = profile(alts, ballots)
                assert_matches_reference(prof, ballots)
                for i in range(1, n + 1):
                    for new in every:
                        edited = ballots[: i - 1] + [new] + ballots[i:]
                        assert_matches_reference(prof.replace_ballot(i, Ranking(alts, new)), edited)


def test_runs_merge_and_validate_at_construction():
    alts = alternative_set("abc")
    abc, cba = Ranking(alts, "abc"), Ranking(alts, "cba")
    prof = Profile(alts, ((abc, 2), (abc, 1), (cba, 1), (abc, 4)))
    assert prof.runs == ((abc, 3), (cba, 1), (abc, 4))
    assert prof.n == 8 and prof.ballot(4) == cba and prof.ballot(8) == abc
    assert remove_voter(prof, 4).runs == ((abc, 7),)
    assert prof.replace_ballot(4, abc) == Profile(alts, ((abc, 8),))
    for bad in ((), ((abc, 0),), ((abc, -1),), ((abc, True),), ((abc, 1.0),)):
        with pytest.raises(DomainError):
            Profile(alts, bad)
    with pytest.raises(DomainError):
        Profile(alts, ((Ranking(alternative_set("xyz"), "xyz"), 1),))


def test_each_bundled_tally_is_its_definition_cached_per_ranking():
    definitions = {
        "margins": lambda r, names: tuple(
            1 if r.prefers(x, y) else -1 for i, x in enumerate(names) for y in names[i + 1:]
        ),
        "tops": lambda r, names: tuple(int(x == r.top) for x in names),
        "tops-and-bottoms": lambda r, names: (
            tuple(int(x == r.top) for x in names) + tuple(int(x == r.bottom) for x in names)
        ),
    }
    tallies = {"margins": margin_tally, "tops": top_tally, "tops-and-bottoms": top_bottom_tally}
    checked = 0
    for m in range(1, 5):
        alts = alternative_set("abcd"[:m])
        for order in itertools.permutations(alts.names):
            r = Ranking(alts, order)
            for name, tally in tallies.items():
                first = tally.of(r)
                assert first == definitions[name](r, alts.names), (name, order)
                assert tally.of(r) is first, (name, order)
            # the rank order as indices: the inverse permutation of `positions`
            indices = r.indices
            assert tuple(alts.names[i] for i in indices) == order
            assert len(indices) == m and all(r.positions[i] == k for k, i in enumerate(indices))
            assert r.indices is indices, order
            checked += 1
    assert checked == 1 + 2 + 6 + 24
