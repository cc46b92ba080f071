import itertools
import random
from fractions import Fraction

import pytest

from pcvote import (
    ComparisonOutcome,
    Extension,
    Lottery,
    alternative_set,
    compare,
    dominates,
    pc_score,
    pc_weights,
    profile,
    ranking,
)
from pcvote.model import DomainError
from pcvote.extensions import (
    comparator,
    outcome_from_score,
    pc1_compare,
    pc_compare,
    pc_form,
    sd_compare,
    sd_form,
    weakly_prefers,
)
from helpers import random_lottery, reference_pc_score, reference_sd_compare

F = Fraction
SP = ComparisonOutcome.StrictlyPreferred
IND = ComparisonOutcome.Indifferent
SD_ = ComparisonOutcome.StrictlyDispreferred
INC = ComparisonOutcome.Incomparable

ABC = alternative_set("abc")
R_ABC = ranking(ABC, ("a", "b", "c"))


def lot(*probs):
    return Lottery(ABC, tuple(F(p) if not isinstance(p, tuple) else F(*p) for p in probs))


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def test_pc_score_pinned():
    p = lot((1, 2), (1, 2), 0)
    q = lot(0, 0, 1)
    # every outcome of p beats c, half the mass of q's "a beats b" never fires
    assert pc_score(R_ABC, p, q) == 1
    assert pc_score(R_ABC, q, p) == -1


def test_pc_score_zero_cross():
    p = lot((1, 2), 0, (1, 2))
    q = lot(0, 1, 0)
    assert pc_score(R_ABC, p, q) == 0


def test_pc_score_antisymmetric_random():
    rng = random.Random(11)
    for _ in range(80):
        p = random_lottery(rng, ABC)
        q = random_lottery(rng, ABC)
        assert pc_score(R_ABC, p, q) == -pc_score(R_ABC, q, p)
        assert pc_score(R_ABC, p, p) == 0


def test_pc_weights_are_the_bilinear_pc_form():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 4)
        alts = alternative_set("abcd"[:m])
        r = ranking(alts, rng.sample(alts.names, m))
        p, q = random_lottery(rng, alts), random_lottery(rng, alts)
        form = sum((w * x for w, x in zip(pc_weights(r, q), p.probs)), F(0))
        assert pc_score(r, p, q) == form == reference_pc_score(r.order, p, q)


def test_pc_weights_pinned_and_checked():
    assert pc_weights(R_ABC, lot((1, 2), (1, 4), (1, 4))) == (F(1, 2), F(-1, 4), F(-3, 4))
    with pytest.raises(DomainError):
        pc_weights(R_ABC, Lottery.uniform("xyz"))


def test_integer_forms_are_over_the_lotterys_denominator():
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(1, 4)
        alts = alternative_set("abcd"[:m])
        r = ranking(alts, rng.sample(alts.names, m))
        p = random_lottery(rng, alts)
        weights, den = pc_form(r, p)
        assert all(type(w) is int for w in weights)
        assert tuple(F(w, den) for w in weights) == pc_weights(r, p)
        prefixes, sd_den = sd_form(r, p)
        assert sd_den == den and all(type(v) is int for v in prefixes)
        want = [sum(p.prob(x) for x in r.order[:k]) for k in range(1, m)]
        assert [F(v, den) for v in prefixes] == want
    p = lot((1, 2), (1, 4), (1, 4))
    assert pc_form(R_ABC, p) == ([2, -1, -3], 4)
    assert sd_form(ranking(ABC, ("c", "a", "b")), p) == ([1, 3], 4)
    for form in (pc_form, sd_form):
        for other in ("xyz", "cba"):
            with pytest.raises(DomainError):
                form(R_ABC, Lottery.uniform(other))


def test_outcome_from_score():
    assert outcome_from_score(F(1, 7)) is SP
    assert outcome_from_score(F(0)) is IND
    assert outcome_from_score(F(-3)) is SD_


# ---------------------------------------------------------------------------
# the three comparators
# ---------------------------------------------------------------------------

def test_pc_compare_is_complete():
    rng = random.Random(23)
    for _ in range(120):
        p = random_lottery(rng, ABC)
        q = random_lottery(rng, ABC)
        assert pc_compare(R_ABC, p, q) is not INC


def test_pc_degenerate_pairs_follow_the_ranking():
    da, db, dc = (Lottery.degenerate(ABC, x) for x in "abc")
    assert pc_compare(R_ABC, da, db) is SP
    assert pc_compare(R_ABC, db, da) is SD_
    assert pc_compare(R_ABC, db, dc) is SP
    assert pc_compare(R_ABC, da, da) is IND


def test_pc_is_intransitive_somewhere():
    # frozen strict 3-cycle under a single ranking of four alternatives
    # (no cycle exists over three alternatives; this needs m >= 4)
    alts = alternative_set("abcd")
    r = ranking(alts, ("a", "b", "c", "d"))
    p = Lottery(alts, (F(1, 4), F(1, 2), F(0), F(1, 4)))
    q = Lottery(alts, (F(1, 3), F(0), F(2, 3), F(0)))
    s = Lottery(alts, (F(1, 2), F(0), F(1, 6), F(1, 3)))
    assert pc_compare(r, p, q) is SP
    assert pc_compare(r, q, s) is SP
    assert pc_compare(r, s, p) is SP


def test_pc1_incomparable_between_nondegenerate():
    p = lot((1, 2), (1, 2), 0)
    q = lot(0, (1, 2), (1, 2))
    assert pc1_compare(R_ABC, p, q) is INC
    assert pc1_compare(R_ABC, q, p) is INC


def test_pc1_agrees_with_pc_when_degenerate():
    rng = random.Random(31)
    for _ in range(100):
        p = random_lottery(rng, ABC)
        d = Lottery.degenerate(ABC, rng.choice("abc"))
        assert pc1_compare(R_ABC, d, p) is pc_compare(R_ABC, d, p)
        assert pc1_compare(R_ABC, p, d) is pc_compare(R_ABC, p, d)


def test_every_extension_is_reflexive():
    rng = random.Random(37)
    for _ in range(200):
        m = rng.randint(1, 4)
        alts = alternative_set("abcd"[:m])
        r = ranking(alts, rng.sample(alts.names, m))
        p = random_lottery(rng, alts)
        copy = Lottery(alts, tuple(p.probs))
        for extension in Extension:
            assert compare(extension, r, p, p) is IND, (extension, p)
            assert comparator(extension)(r, p, copy) is IND, (extension, p)


def test_sd_compare_pinned():
    p = lot((1, 2), (1, 2), 0)
    q = lot((1, 2), 0, (1, 2))
    assert sd_compare(R_ABC, p, q) is SP
    assert sd_compare(R_ABC, q, p) is SD_
    incomparable_pair = (lot((1, 2), 0, (1, 2)), lot(0, 1, 0))
    assert sd_compare(R_ABC, *incomparable_pair) is INC


def test_sd_compare_matches_the_fraction_walk_sampled():
    rng = random.Random(4099)
    for m in (2, 3, 4, 5):
        alts = alternative_set("abcde"[:m])
        orders = list(itertools.permutations(alts.names))
        for _ in range(500):
            order = rng.choice(orders)
            p = random_lottery(rng, alts, max_weight=rng.choice((1, 3, 12)))
            q = p if rng.random() < 0.1 else random_lottery(rng, alts, max_weight=rng.choice((1, 3, 12)))
            assert sd_compare(ranking(alts, order), p, q) is reference_sd_compare(order, p, q)


def test_sd_compare_matches_the_fraction_walk_exhaustively_at_small_denominators():
    # every lottery over three alternatives whose probabilities have denominator <= 3
    lotteries = {
        Lottery(ABC, tuple(F(k, d) for k in ks))
        for d in (1, 2, 3)
        for ks in itertools.product(range(d + 1), repeat=3)
        if sum(ks) == d
    }
    assert len(lotteries) == 13
    outcomes = set()
    for order in itertools.permutations(ABC.names):
        r = ranking(ABC, order)
        for p in lotteries:
            for q in lotteries:
                got = sd_compare(r, p, q)
                assert got is reference_sd_compare(order, p, q), (order, p, q)
                outcomes.add(got)
    assert outcomes == set(ComparisonOutcome)


def test_sd_indifferent_only_for_equal_lotteries():
    rng = random.Random(37)
    for _ in range(150):
        p = random_lottery(rng, ABC)
        q = random_lottery(rng, ABC)
        if sd_compare(R_ABC, p, q) is IND:
            assert p == q
        assert sd_compare(R_ABC, p, p) is IND


def test_sd_strict_implies_pc_strict_sampled():
    # refinement: the SD relation is contained in the PC relation
    rng = random.Random(41)
    for m in (2, 3, 4, 5):
        alts = alternative_set("abcde"[:m])
        orders = list(itertools.permutations(alts.names))
        for _ in range(60):
            r = ranking(alts, rng.choice(orders))
            p = random_lottery(rng, alts)
            q = random_lottery(rng, alts)
            sd = sd_compare(r, p, q)
            pc = pc_compare(r, p, q)
            if sd is SP:
                assert pc is SP
            if sd in (SP, IND):
                assert pc in (SP, IND)


def test_pc1_strict_implies_pc_strict_sampled():
    rng = random.Random(43)
    alts = alternative_set("abcd")
    orders = list(itertools.permutations(alts.names))
    for _ in range(150):
        r = ranking(alts, rng.choice(orders))
        p = random_lottery(rng, alts)
        q = Lottery.degenerate(alts, rng.choice(alts.names))
        if rng.random() < 0.5:
            p, q = q, p
        if pc1_compare(r, p, q) is SP:
            assert pc_compare(r, p, q) is SP


def test_compare_dispatch_and_weak_preference():
    p = lot((1, 2), (1, 2), 0)
    q = lot(0, (1, 2), (1, 2))
    assert compare(Extension.PC, R_ABC, p, q) is pc_compare(R_ABC, p, q)
    assert compare(Extension.PC1, R_ABC, p, q) is INC
    assert compare(Extension.SD, R_ABC, p, q) is sd_compare(R_ABC, p, q)
    assert weakly_prefers(SP) and weakly_prefers(IND)
    assert not weakly_prefers(SD_) and not weakly_prefers(INC)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def test_dominates_needs_a_strict_voter():
    prof = profile("abc", [("a", "b", "c")] * 3 + [("b", "a", "c"), ("c", "a", "b")])
    uniform = Lottery.uniform(ABC)
    top = Lottery.degenerate(ABC, "a")
    outcomes = [
        (ballot.order, count, compare(Extension.PC, ballot, top, uniform)) for ballot, count in prof.runs
    ]
    assert outcomes == [(("a", "b", "c"), 3, SP), (("b", "a", "c"), 1, IND), (("c", "a", "b"), 1, IND)]
    assert dominates(prof, Extension.PC, top, uniform)
    assert not dominates(prof, Extension.PC, uniform, uniform)  # all indifferent
    assert not dominates(prof, Extension.PC, uniform, top)


def test_dominates_fails_on_any_dispreferring_voter():
    prof = profile("abc", [("a", "b", "c"), ("c", "b", "a")])
    da, dc = Lottery.degenerate(ABC, "a"), Lottery.degenerate(ABC, "c")
    assert not dominates(prof, Extension.PC, da, dc)
    assert not dominates(prof, Extension.PC, dc, da)


def test_flipped_score_swaps_strict_outcomes():
    def flipped(r, p, q):
        return pc_compare(r, q, p)

    p = lot((1, 2), (1, 2), 0)
    q = lot(0, 0, 1)
    assert pc_compare(R_ABC, p, q) is SP
    assert flipped(R_ABC, p, q) is SD_
    assert flipped(R_ABC, p, p) is IND


def test_lotteries_must_match_profile_alternatives():
    prof = profile("abc", [("a", "b", "c")])
    foreign = Lottery.uniform(alternative_set("xyz"))
    with pytest.raises(Exception):
        dominates(prof, Extension.PC, foreign, Lottery.uniform(ABC))
