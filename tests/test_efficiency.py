import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcvote
from pcvote import (
    ApplicabilityError,
    ComparisonOutcome,
    DomainError,
    InternalError,
    EfficiencyNotion,
    Extension,
    Lottery,
    PathTermination,
    alternative_set,
    dominates,
    enumerate_profiles,
    find_dominator,
    fixture,
    fixture_profile,
    improvement_path,
    is_efficient,
    m3_efficiency_certificate,
    margin_matrix,
    mass_shift_perturbation,
    pc1_find_dominator,
    profile,
    rd,
    f1,
)
from pcvote.extensions import pc_form, pc_weights
from pcvote import efficiency, ratlp, rules
from pcvote.profilefmt import format_lottery, parse_profile
from pcvote.ratlp import LpOutcome, LpStatus, lp_solve
from helpers import (
    random_lottery,
    random_profile,
    reference_beats_or_ties_every_alternative,
    reference_dominator_lp,
    reference_m3_certificate,
    reference_pc1_find_dominator,
)

HELPERS = Path(__file__).resolve().parent / "helpers.py"

F = Fraction


def grid_lotteries(alts, max_den):
    seen = {}
    m = len(alts)
    for den in range(1, max_den + 1):
        for cuts in itertools.combinations(range(den + m - 1), m - 1):
            ks = [b - a - 1 for a, b in zip((-1,) + cuts, cuts + (den + m - 1,))]
            probs = tuple(F(k, den) for k in ks)
            seen.setdefault(probs, Lottery(alts, probs))
    return list(seen.values())


# ---------------------------------------------------------------------------
# LP dominator oracles
# ---------------------------------------------------------------------------

def test_rd_output_is_pc_dominated_but_sd_efficient():
    prof = fixture_profile("rd_example")
    p = rd(prof)
    cert = find_dominator(prof, p, Extension.PC)
    assert cert is not None
    assert dominates(prof, Extension.PC, cert.dominator, p)
    # one entry per ranking, in sorted order, with its voter count
    assert [(ballot.order, voters, o) for ballot, voters, o in cert.outcomes] == [
        (("a", "b", "c"), 3, ComparisonOutcome.StrictlyPreferred),
        (("b", "a", "c"), 1, ComparisonOutcome.Indifferent),
        (("c", "a", "b"), 1, ComparisonOutcome.Indifferent),
    ]
    assert find_dominator(prof, p, Extension.SD) is None
    assert is_efficient(prof, p, EfficiencyNotion.SD)
    assert not is_efficient(prof, p, EfficiencyNotion.PC)


def test_pc1_dominator_pinned():
    prof = fixture_profile("rd_example")
    cert = pc1_find_dominator(prof, rd(prof))
    assert cert is not None
    assert cert.extension is Extension.PC1
    assert cert.dominator == Lottery.degenerate(prof.alternatives, "a")
    assert dominates(prof, Extension.PC1, cert.dominator, rd(prof))


def test_pc1_requires_degenerate_dominator_for_nondegenerate_p():
    # two opposed voters: nothing dominates anything under PC1
    prof = profile("abc", [("a", "b", "c"), ("c", "b", "a")])
    p = Lottery.uniform(prof.alternatives)
    assert pc1_find_dominator(prof, p) is None
    assert is_efficient(prof, p, EfficiencyNotion.PC1)


def test_find_dominator_rejects_pc1_and_foreign_lotteries():
    prof = fixture_profile("rd_example")
    with pytest.raises(DomainError):
        find_dominator(prof, rd(prof), Extension.PC1)
    with pytest.raises(DomainError):
        find_dominator(prof, Lottery.uniform(alternative_set("xyz")), Extension.PC)


def test_efficient_lottery_not_dominated_by_any_grid_point():
    # completeness spot-check: when the LP says "efficient", brute force
    # over a rational grid must not find a dominator (and vice versa the
    # LP must flag anything the grid flags)
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 4)
        prof = profile("abc", [rng.sample("abc", 3) for _ in range(n)])
        candidates = grid_lotteries(prof.alternatives, 4)
        p = rng.choice(candidates)
        for ext in (Extension.PC, Extension.SD):
            lp_dominated = find_dominator(prof, p, ext) is not None
            grid_dominated = any(dominates(prof, ext, q, p) for q in grid_lotteries(prof.alternatives, 6))
            if grid_dominated:
                assert lp_dominated
            if not lp_dominated:
                assert not grid_dominated


def test_positive_weights_keep_the_oracle_sound():
    fx = fixture("improvement_cycle")
    prof, p1 = fx.profile, fx.lottery("p1")
    rng = random.Random(61)
    for _ in range(10):
        weights = [F(rng.randint(1, 9)) for _ in range(prof.n)]
        cert = find_dominator(prof, p1, Extension.PC, weights=weights)
        assert cert is not None
        assert dominates(prof, Extension.PC, cert.dominator, p1)


def test_int_and_fraction_weights_give_the_same_certificate():
    rng = random.Random(67)
    fx = fixture("improvement_cycle")
    cases = [(fx.profile, fx.lottery("p1"))]
    for prof in _repeat_heavy_profiles(13, 20):
        cases.append((prof, random_lottery(rng, prof.alternatives)))
    for prof, p in cases:
        ints = [rng.randint(1, 1000) for _ in range(prof.n)]
        for extension in (Extension.PC, Extension.SD):
            want = find_dominator(prof, p, extension, [F(w) for w in ints])
            assert find_dominator(prof, p, extension, ints) == want
            assert find_dominator(prof, p, extension, tuple(ints)) == want
    prof, p = cases[0]
    for bad in ([1.0] * prof.n, [1] * (prof.n - 1) + [0.5], ["1"] * prof.n, [1] * (prof.n - 1) + [0],
                [1] * (prof.n + 1)):
        with pytest.raises(DomainError):
            find_dominator(prof, p, Extension.PC, bad)


def _repeat_heavy_profiles(seed, count):
    """m in [3, 4], n in [2, 9], every ballot drawn from a pool of two to
    five rankings."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(3, 4), rng.randint(2, 9)
        alts = "abcd"[:m]
        pool = [rng.sample(alts, m) for _ in range(rng.randint(2, 5))]
        yield profile(alts, [rng.choice(pool) for _ in range(n)])


def _describe(prof, cert):
    """The dominator and every voter's outcome, in voter order, rebuilt
    from the certificate's one outcome per ranking."""
    if cert is None:
        return "-"
    assert Counter(prof.ballots) == {ballot: voters for ballot, voters, _ in cert.outcomes}
    by_ranking = {ballot: o for ballot, _, o in cert.outcomes}
    return format_lottery(cert.dominator) + " " + ",".join(by_ranking[b].value for b in prof.ballots)


def _witness_digest(seed, count):
    """sha256 over the PC, SD and PC1 dominators (all-ones and seeded voter
    weights) of rd, the uniform lottery and a seeded lottery."""
    rng = random.Random(seed + 1)
    digest = hashlib.sha256()
    for prof in _repeat_heavy_profiles(seed, count):
        alts = prof.alternatives
        raw = [rng.randint(0, 4) for _ in alts]
        raw[rng.randrange(len(raw))] += 1
        seeded = Lottery(alts, tuple(F(w, sum(raw)) for w in raw))
        for p in (rd(prof), Lottery.uniform(alts), seeded):
            weights = tuple(F(rng.randint(1, 9)) for _ in range(prof.n))
            certs = (
                find_dominator(prof, p, Extension.PC),
                find_dominator(prof, p, Extension.PC, weights),
                find_dominator(prof, p, Extension.SD),
                find_dominator(prof, p, Extension.SD, weights),
                pc1_find_dominator(prof, p),
            )
            digest.update(("|".join(_describe(prof, c) for c in certs) + "\n").encode())
    return digest.hexdigest()


def test_dominance_witnesses_pinned():
    """Any change to the rows, their order or the objective of the
    dominator LPs, even one that keeps every verdict, may move some
    witness. The digest was computed with one row block per ranking, in
    sorted order, each weighted by its voters' total weight. The per-voter
    LP (`helpers.reference_dominator_lp`) gave 65e6826d...; 4 of the 180
    witnesses differ between the two, and no verdict. On this corpus,
    putting the blocks in order of first appearance or in reverse order,
    or reversing the voter weights, moves some witness."""
    digest = _witness_digest(11, 12)
    assert digest == "56558119df907a1cea1def8e8d1bbe6c3be7206f7886e9ae6d04348576fedb7e"


def _gate_profiles(region):
    if region == "small":
        return [p for m in (1, 2, 3) for n in (1, 2, 3) for p in enumerate_profiles(m, n)]
    if region == "anonymous":
        return [
            p
            for m, n_max in ((3, 5), (4, 2))
            for n in range(1, n_max + 1)
            for p in enumerate_profiles(m, n, up_to_anonymity=True)
        ]
    if region == "corpus":
        rng = random.Random(90210)  # criterion 08's seed and generator
        return [random_profile(rng, m_max=4, n_max=7) for _ in range(500)]
    return list(_repeat_heavy_profiles(5, 300))


def _on_first_ranked_alternatives(prof, p):
    """Every alternative p gives positive probability is some ballot's
    first, read off the ballots and p's Fractions."""
    firsts = {ballot.order[0] for ballot in prof.ballots}
    return all(x in firsts for x in prof.alternatives.names if p.prob(x) > 0)


def _settled_before_rows(prof, p, extension):
    """For SD, p on first-ranked alternatives; else G p <= 0, each sum in
    Fractions, and for SD no ballot with two adjacent alternatives that p
    both gives 0: the cases `efficiency._efficient_without_lp` must
    settle."""
    if extension is Extension.SD and _on_first_ranked_alternatives(prof, p):
        return True
    if not reference_beats_or_ties_every_alternative(margin_matrix(prof), p.probs):
        return False
    return extension is Extension.PC or not any(
        p.prob(x) == 0 == p.prob(y) for ballot in prof.ballots for x, y in zip(ballot.order, ballot.order[1:])
    )


def _settled_by_unit_multipliers(prof, p, extension):
    """The plain sum of the dominator rows, one block per distinct ranking,
    is >= 0 in every column, in Fractions: for PC the rows are
    −`pc_weights`, for SD each proper prefix's row is its mass under p
    minus its indicator. The cases `efficiency._efficient_by_unit_multipliers`
    must settle."""
    names = prof.alternatives.names
    total = [F(0)] * len(names)
    for ballot in {ballot.order: ballot for ballot in prof.ballots}.values():
        if extension is Extension.PC:
            rows = [[-w for w in pc_weights(ballot, p)]]
        else:
            prefixes = [ballot.order[:k] for k in range(1, len(names))]
            rows = [
                [sum((p.prob(x) for x in prefix), F(0)) - (y in prefix) for y in names]
                for prefix in prefixes
            ]
        for row in rows:
            total = [a + b for a, b in zip(total, row)]
    return min(total) >= 0


def _settled_without_lp(prof, p, extension):
    """Either certificate: the cases `efficiency._dominator_lp` settles
    with no LP."""
    return _settled_before_rows(prof, p, extension) or _settled_by_unit_multipliers(prof, p, extension)


def _recording_the_certificate(monkeypatch, bypass):
    """Each case's certificate verdict, in call order: that of
    `_efficient_without_lp`, or, when it answers False and the rows are
    built, that of `_efficient_by_unit_multipliers`. With `bypass` both
    answer False, so every case goes on to the LP."""
    settled = []
    before_rows = efficiency._efficient_without_lp
    on_rows = efficiency._efficient_by_unit_multipliers

    def recording_before(*args):
        settled.append(before_rows(*args))
        return settled[-1] and not bypass

    def recording_on(*args):
        settled[-1] = settled[-1] or on_rows(*args)
        return settled[-1] and not bypass

    monkeypatch.setattr(efficiency, "_efficient_without_lp", recording_before)
    monkeypatch.setattr(efficiency, "_efficient_by_unit_multipliers", recording_on)
    return settled


@pytest.mark.parametrize("region", ["small", "anonymous", "corpus", "repeat-heavy"])
def test_verdicts_equal_the_per_voter_lp(monkeypatch, region):
    """One row block per ranking keeps the per-voter LP's feasible set and
    objective, and the certificate settles only efficient lotteries, so no
    verdict moves: PC and SD, all-ones and seeded weights, for rd, ml, the
    uniform lottery and a seeded one. In every region the margins settle
    PC and SD cases, p's support settles SD cases where G p has a
    positive entry (rd's among them), and the unit multipliers settle
    cases that both leave open, every one of them efficient."""
    rng = random.Random(3)
    ml = rules.get_rule("ml")
    settled = _recording_the_certificate(monkeypatch, bypass=False)
    verdicts, seen = set(), Counter()
    for prof in _gate_profiles(region):
        weights = tuple(F(rng.randint(1, 9)) for _ in range(prof.n))
        seeded = random_lottery(rng, prof.alternatives)
        for p in dict.fromkeys((rd(prof), ml(prof), Lottery.uniform(prof.alternatives), seeded)):
            maximal = reference_beats_or_ties_every_alternative(margin_matrix(prof), p.probs)
            for extension in (Extension.PC, Extension.SD):
                for w in (None, weights):
                    value, _ = reference_dominator_lp(prof, p, extension, w)
                    settled.clear()
                    efficient = find_dominator(prof, p, extension, w) is None
                    assert efficient == (value == 0), (prof, p, extension, w)
                    assert settled == [_settled_without_lp(prof, p, extension)], (prof, p, extension)
                    verdicts.add(efficient)
                    seen[extension, settled[0], maximal] += 1
                    if not _settled_before_rows(prof, p, extension):
                        seen["unit", extension, efficient] += _settled_by_unit_multipliers(prof, p, extension)
    assert verdicts == {True, False}
    assert seen[Extension.PC, True, True] and seen[Extension.SD, True, True], seen
    assert seen[Extension.SD, True, False], seen
    assert not seen[Extension.PC, False, True], seen
    assert seen["unit", Extension.PC, True] and not seen["unit", Extension.PC, False], seen
    assert not seen["unit", Extension.SD, False], seen
    # SD cases with G p <= 0 that go on to the LP: p gives probability to an
    # alternative no voter ranks first, and a ballot puts two alternatives
    # outside supp p next to each other. Each of the four regions had some
    # under the margins alone; p's support settled every one in the small and
    # repeat-heavy regions, and the unit multipliers settle the anonymous
    # region's 2 and 6 of the corpus's 10 (the counts are over both weight
    # vectors)
    assert seen[Extension.SD, False, True] == {"small": 0, "anonymous": 0, "corpus": 4, "repeat-heavy": 0}[region]


def test_a_program_with_no_rows_is_settled_by_the_unit_multipliers(monkeypatch):
    """At m = 1 the SD blocks have no rows: the unit sum is 0 in the one
    column, which settles the program with no LP once the clauses before
    the rows are bypassed. PC has one row per ranking, all 0."""
    monkeypatch.setattr(efficiency, "_efficient_without_lp", lambda *args: False)
    monkeypatch.setattr(efficiency, "lp_solve", None)  # any LP would raise
    prof = profile("a", [("a",), ("a",)])
    p = Lottery.degenerate(prof.alternatives, "a")
    for extension in (Extension.PC, Extension.SD):
        assert find_dominator(prof, p, extension) is None
        assert find_dominator(prof, p, extension, [F(1), F(3)]) is None


def _first_ranked_cases(region):
    """(profile, lottery) for the support gate: rd, each first-ranked
    alternative's degenerate lottery, a seeded lottery on a random subset
    of the first-ranked alternatives, and, where some alternative is no
    voter's first, that lottery with mass on one such alternative too."""
    rng = random.Random(29)
    for prof in _gate_profiles(region):
        alts = prof.alternatives
        tops = {ballot.order[0] for ballot in prof.ballots}
        firsts = [x for x in alts.names if x in tops]
        yield prof, rd(prof)
        for x in firsts:
            yield prof, Lottery.degenerate(alts, x)
        raw = {x: rng.randint(1, 5) for x in rng.sample(firsts, rng.randint(1, len(firsts)))}
        yield prof, Lottery.from_map(alts, {x: F(w, sum(raw.values())) for x, w in raw.items()})
        others = [x for x in alts.names if x not in firsts]
        if others:
            raw[rng.choice(others)] = rng.randint(1, 5)
            yield prof, Lottery.from_map(alts, {x: F(w, sum(raw.values())) for x, w in raw.items()})


def _support_gate(monkeypatch, region):
    """The SD cases of `_first_ranked_cases` that break the gate, and how
    many cases lie on first-ranked alternatives, how many off them, and
    how many are SD-dominated. A case breaks it when `find_dominator`'s
    verdict differs from the per-voter LP's, when the certificate does not
    settle exactly what `_settled_without_lp` names, or when p lies on
    first-ranked alternatives and the per-voter LP finds a dominator."""
    settled = _recording_the_certificate(monkeypatch, bypass=False)
    broken, seen = [], Counter()
    for prof, p in _first_ranked_cases(region):
        value, _ = reference_dominator_lp(prof, p, Extension.SD)
        on_firsts = _on_first_ranked_alternatives(prof, p)
        settled.clear()
        efficient = find_dominator(prof, p, Extension.SD) is None
        if efficient != (value == 0) or settled != [_settled_without_lp(prof, p, Extension.SD)] or (
            on_firsts and value != 0
        ):
            broken.append((prof, p))
        seen[on_firsts] += 1
        seen["dominated"] += value != 0
    return broken, seen


@pytest.mark.parametrize("region", ["small", "anonymous", "corpus", "repeat-heavy"])
def test_a_lottery_on_first_ranked_alternatives_is_sd_efficient(monkeypatch, region):
    """A weak SD-dominator q of p keeps at least p's mass on each voter's
    first alternative, so q >= p on supp p when every alternative in it is
    some voter's first, and q = p. The per-voter LP agrees on every case of
    the region, and the certificate settles exactly those."""
    broken, seen = _support_gate(monkeypatch, region)
    assert broken == []
    assert seen[True] and seen[False] and seen["dominated"], seen


def test_a_support_clause_that_skips_an_alternative_fails_the_gate(monkeypatch):
    """Negative control: a support clause that ignores the last alternative
    p gives probability settles ½a + ½b on the ballot a > b > c, which δ_a
    SD-dominates, and fails the support gate of the small region."""
    certify = efficiency._efficient_without_lp

    def skipping_one(prof, mass, extension):
        support = [x for x, w in enumerate(mass) if w][:-1]
        if extension is Extension.SD and all(prof._top_counts[x] for x in support):
            return True
        return certify(prof, mass, extension)

    monkeypatch.setattr(efficiency, "_efficient_without_lp", skipping_one)
    prof = profile("abc", [("a", "b", "c")])
    half = Lottery.from_map(prof.alternatives, {"a": F(1, 2), "b": F(1, 2)})
    assert find_dominator(prof, half, Extension.SD) is None
    assert dominates(prof, Extension.SD, Lottery.degenerate(prof.alternatives, "a"), half)
    broken, _ = _support_gate(monkeypatch, "small")
    assert broken


def _dominator_cases():
    """(profile, lottery, extension) for every dominator program of the
    gate regions: PC and SD, for rd, ml and the uniform lottery."""
    ml = rules.get_rule("ml")
    for region in ("small", "anonymous", "corpus", "repeat-heavy"):
        for prof in _gate_profiles(region):
            for p in dict.fromkeys((rd(prof), ml(prof), Lottery.uniform(prof.alternatives))):
                for extension in (Extension.PC, Extension.SD):
                    yield prof, p, extension


def test_dominator_lps_start_on_the_all_slack_basis(monkeypatch):
    """Every dominator program is an `IntRowProgram`: int rows a · q <= 0,
    then the closing row Σq <= 1, so the simplex starts on the all-slack
    basis with no phase one. q = 0 is then feasible, and an efficient p
    returns None also when the solver's vertex is q = 0. The certificate is
    bypassed, so every case builds its program, and each case one of its
    clauses would settle is one where the LP's value is 0. With voter
    counts, the PC objective read off the margins, G · mass, is Σ_r n_r
    `pc_form(b_r, p)`."""
    solved = []

    def recording(lp):
        outcome = lp_solve(lp)
        solved.append((lp, outcome))
        return outcome

    monkeypatch.setattr(efficiency, "lp_solve", recording)
    settled = _recording_the_certificate(monkeypatch, bypass=True)
    at_zero = on_firsts = 0
    certified = Counter()
    for prof, p, extension in _dominator_cases():
        solved.clear()
        settled.clear()
        cert = find_dominator(prof, p, extension)
        [(lp, outcome)] = solved
        assert isinstance(lp, ratlp.IntRowProgram)
        assert all(type(v) is int for row in lp.constraints for v in row)
        assert all(type(b) is int and b >= 0 for b in lp.rhs)
        assert lp.constraints[-1] == (1,) * prof.m and lp.rhs[-1] == 1
        assert (cert is None) == (outcome.value == 0), (prof, p, extension)
        if cert is None and not any(outcome.solution):
            at_zero += 1
        assert settled == [_settled_without_lp(prof, p, extension)], (prof, p, extension)
        if settled[0]:
            assert outcome.value == 0, (prof, p, extension)
        certified[extension, settled[0]] += 1
        if extension is Extension.SD:
            on_firsts += _on_first_ranked_alternatives(prof, p)
        else:
            forms = [(count, pc_form(ballot, p)[0]) for ballot, count in prof.runs]
            want = tuple(sum(count * form[j] for count, form in forms) for j in range(prof.m))
            assert lp.objective == want, (prof, p)
    assert at_zero > 0
    # The gate regions give 4 732 (profile, lottery) cases, each with a PC
    # and an SD program. G p <= 0 holds in 1 985 of them, which settles those
    # PC programs. p lies on first-ranked alternatives in 3 241 (every rd
    # case among them, and 1 858 of the 1 985), which settles those SD
    # programs. Of the other 127 with G p <= 0, the margins settle 122; in
    # 5 some ballot puts two alternatives outside supp p next to each
    # other. 3 241 + 122 = 3 363 SD programs settled; the margins alone
    # settled 530. The unit multipliers, λ_r = 1 on every row, settle 569 of
    # the 2 747 PC programs the margins leave open and 60 of the 1 369 SD
    # ones: 1 985 + 569 = 2 554 and 3 363 + 60 = 3 423, each with value 0
    assert on_firsts == 3241
    assert certified == {
        (Extension.PC, True): 2554,
        (Extension.PC, False): 2178,
        (Extension.SD, True): 3423,
        (Extension.SD, False): 1309,
    }


def _ml_programs(monkeypatch, n_max, t):
    """The programs `ml` solves for every distinct margin matrix with m <= 4
    and n <= `n_max` that has one, with m + `t` variables: its point
    programs (t = 0), or its max-min rounds over p and t (t = 1)."""
    programs, solved = [], []

    def recording(lp):
        solved.append(lp)
        return lp_solve(lp)

    margins = {
        margin_matrix(prof)
        for m in range(1, 5)
        for n in range(1, n_max + 1)
        for prof in enumerate_profiles(m, n, up_to_anonymity=True)
    }
    with monkeypatch.context() as patch:
        patch.setattr(rules, "lp_solve", recording)
        for matrix in margins:
            solved.clear()
            rules.maximal_lottery(matrix)
            programs += [lp for lp in solved if len(lp.objective) == len(matrix.alternatives) + t]
    return programs


def _ml_point_programs(monkeypatch):
    return _ml_programs(monkeypatch, 4, 0)


def _ml_round_programs(monkeypatch):
    """Every max-min round of the 1426 matrices of `ml`'s leximin gate."""
    return _ml_programs(monkeypatch, 3, 1)


def _dominator_programs(monkeypatch):
    """Every case's program, also where a certificate would settle the
    case with none."""
    programs = []

    def recording(lp):
        programs.append(lp)
        return lp_solve(lp)

    with monkeypatch.context() as patch:
        patch.setattr(efficiency, "lp_solve", recording)
        _recording_the_certificate(patch, bypass=True)
        for prof, p, extension in _dominator_cases():
            find_dominator(prof, p, extension)
    return programs


@pytest.mark.parametrize("programs", [_dominator_programs, _ml_point_programs, _ml_round_programs])
def test_int_row_programs_solve_as_their_constraint_form(monkeypatch, programs):
    """An all-int `<=` row with rhs >= 0 enters `_standardize`'s tableau as
    it is, with its slack column in row order and no artificial column, so
    the int-row solve takes the same pivots as the `LinearProgram` of the
    same rows and returns the same solution, value and tight rows."""
    lps = programs(monkeypatch)
    pivot, pivoted = ratlp._pivot, [0]

    def counting_pivot(*args):
        pivoted[0] += 1
        pivot(*args)

    monkeypatch.setattr(ratlp, "_pivot", counting_pivot)

    def solve(lp):
        pivoted[0] = 0
        out = lp_solve(lp)
        return out.status, out.solution, out.value, out.tight, pivoted[0]

    pivots = 0
    for lp in lps:
        rows = tuple(ratlp.Constraint(row, ratlp.LE, b) for row, b in zip(lp.constraints, lp.rhs))
        got = solve(lp)
        assert got == solve(ratlp.LinearProgram(lp.objective, rows)), lp
        pivots += got[-1]
    assert lps and pivots > 0


@pytest.mark.parametrize("region", ["small", "anonymous", "corpus"])
def test_pc1_search_equals_the_per_voter_loop(region):
    """PC1 dominators read off the PC forms against the plain loop: every
    degenerate lottery against every voter, then the per-voter PC LP for a
    degenerate p. The verdicts agree, and so does a degenerate dominator,
    which only the loop can give: if the LP's vertex were some e_x, e_x
    would PC-dominate p and the loop would have found one."""
    rng = random.Random(17)
    ml = rules.get_rule("ml")
    verdicts, degenerate = set(), 0
    for prof in _gate_profiles(region):
        seeded = random_lottery(rng, prof.alternatives)
        for p in dict.fromkeys((rd(prof), ml(prof), Lottery.uniform(prof.alternatives), seeded)):
            want = reference_pc1_find_dominator(prof, p)
            cert = pc1_find_dominator(prof, p)
            assert (cert is None) == (want is None), (prof, p)
            verdicts.add(cert is None)
            if want is not None and want.is_degenerate():
                assert cert.dominator == want, (prof, p)
                degenerate += 1
            elif cert is not None:
                assert not cert.dominator.is_degenerate(), (prof, p)
    assert verdicts == {True, False}
    assert degenerate > 0


def _dominator(prof, p, extension, weights=None):
    cert = find_dominator(prof, p, extension, weights)
    return None if cert is None else cert.dominator


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_witness_depends_on_the_ballot_multiset_and_weight_totals_alone(data):
    m = data.draw(st.integers(2, 4))
    alts = "abcd"[:m]
    pool = data.draw(st.lists(st.permutations(alts), min_size=1, max_size=4))
    orders = [tuple(o) for o in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))]
    n = len(orders)
    weights = [F(w) for w in data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))]
    perm = data.draw(st.permutations(range(n)))
    prof = profile(alts, orders)
    # the voters permuted with their weights, which splits and merges runs
    shuffled = profile(alts, [orders[i] for i in perm])
    shuffled_weights = [weights[i] for i in perm]
    # each ranking's total weight, shared equally among its voters
    totals = {o: sum((w for b, w in zip(orders, weights) if b == o), F(0)) for o in orders}
    even = [totals[o] / orders.count(o) for o in orders]
    seeded = random_lottery(data.draw(st.randoms(use_true_random=False)), prof.alternatives)
    for p in (rd(prof), Lottery.uniform(prof.alternatives), seeded):
        for extension in (Extension.PC, Extension.SD):
            plain = _dominator(prof, p, extension)
            assert _dominator(shuffled, p, extension) == plain
            assert _dominator(prof, p, extension, [F(1)] * n) == plain
            weighted = _dominator(prof, p, extension, weights)
            assert _dominator(shuffled, p, extension, shuffled_weights) == weighted
            assert _dominator(prof, p, extension, even) == weighted


ELECTORATE = parse_profile(
    "alternatives: a b c d\n"
    "100001: a > b > c > d\n99999: b > c > a > d\n100000: c > a > b > d\n"
    "100000: a > b > c > d\n100000: b > c > a > d\n100000: c > a > b > d\n"
)


def test_each_ranking_gives_one_block_of_rows(monkeypatch):
    """(distinct rankings)·r + 1 rows per dominator LP, with r = 1 for PC
    and m−1 for SD: the simplex row closes the program. The certificate is
    bypassed, so every case builds its program; it would settle exactly
    the cases with G p <= 0 (and, for SD, no two adjacent zeros on a
    ballot), for SD those with p on first-ranked alternatives, and those
    whose rows sum to >= 0. On the electorate that is only SD on rd."""
    sizes = []

    def recording(lp):
        sizes.append(len(lp.constraints))
        return lp_solve(lp)

    monkeypatch.setattr(efficiency, "lp_solve", recording)
    settled = _recording_the_certificate(monkeypatch, bypass=True)
    assert ELECTORATE.n == 600_000
    cases = [ELECTORATE] + list(_repeat_heavy_profiles(5, 40))
    certified = Counter()
    for prof in cases:
        kinds = len({ballot for ballot, _ in prof.runs})
        for p in (rd(prof), Lottery.uniform(prof.alternatives)):
            for extension, r in ((Extension.PC, 1), (Extension.SD, prof.m - 1)):
                sizes.clear()
                settled.clear()
                find_dominator(prof, p, extension)
                assert sizes == [kinds * r + 1], (prof, extension)
                assert settled == [_settled_without_lp(prof, p, extension)], (prof, p, extension)
                certified[extension] += settled[0]
                if prof is ELECTORATE:
                    assert settled == [extension is Extension.SD and p == rd(prof)], (p, extension)
    # 14 of the 82 (profile, lottery) cases have G p <= 0, all on rd. p lies
    # on first-ranked alternatives in 44: the 41 rd cases, and 3 uniform
    # ones where every alternative is some ballot's first. The margins
    # settle no SD case off the first-ranked alternatives here; alone, they
    # settled 2. The unit multipliers settle 18 more PC cases and 3 more SD
    # ones, none of them on the electorate: 14 + 18 = 32 and 44 + 3 = 47
    assert certified == {Extension.PC: 32, Extension.SD: 47}
    for extension in (Extension.PC, Extension.SD):
        assert find_dominator(ELECTORATE, rd(ELECTORATE), extension) is None


def test_a_random_path_draws_one_weight_per_ranking(monkeypatch):
    """A random step draws a weight per distinct ranking, not per voter: on
    600 000 voters with three rankings, three draws per LP."""
    draws = []

    class Counting(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(efficiency.random, "Random", Counting)
    kinds = len({ballot for ballot, _ in ELECTORATE.runs})
    start = Lottery.degenerate(ELECTORATE.alternatives, "d")
    path = improvement_path(ELECTORATE, start, 3, mode="random", seed=5)
    lps = len(path.steps) + (path.termination is PathTermination.ReachedEfficient)
    assert kinds == 3 and len(path.steps) >= 1
    assert draws == [(1, 1000)] * (kinds * lps)


def _infeasible(lp):
    return LpOutcome(LpStatus.Infeasible, None, None)


# c is no voter's first and G p = (2/3, 2/3, −4/3) at the uniform lottery,
# so neither clause of the certificate settles it: PC and SD reach the LP
UNSETTLED = profile("abc", [("a", "b", "c"), ("b", "a", "c")])


def test_dominator_lp_failure_raises_internal_error(monkeypatch):
    p = Lottery.uniform(UNSETTLED.alternatives)
    for extension in (Extension.PC, Extension.SD):
        solved = []
        monkeypatch.setattr(efficiency, "lp_solve", lambda lp: solved.append(lp) or _infeasible(lp))
        with pytest.raises(InternalError):
            find_dominator(UNSETTLED, p, extension)
        assert len(solved) == 1, extension


def test_failed_witness_revalidation_raises_internal_error(monkeypatch):
    prof = fixture_profile("rd_example")
    monkeypatch.setattr(efficiency, "is_dominance", lambda outcomes: False)
    with pytest.raises(InternalError):
        find_dominator(prof, rd(prof), Extension.PC)


def test_lp_status_guards_in_ratlp_and_ml_raise_internal_error(monkeypatch):
    # a and b tie and beat c: the optimal set is a segment, not a point,
    # and the row sums are not all 0, so `ml` solves an LP
    segment = profile("abc", [("a", "b", "c"), ("b", "a", "c")])
    with monkeypatch.context() as patch:
        patch.setattr(rules, "lp_solve", _infeasible)
        with pytest.raises(InternalError):
            rules.ml(segment)
    prof = fixture_profile("rd_example")
    monkeypatch.setattr(ratlp, "_run_simplex", lambda *args, **kwargs: "unbounded")
    with pytest.raises(InternalError):
        find_dominator(prof, rd(prof), Extension.PC)


_OPTIMIZED_GUARDS = """
import sys
from pcvote import Extension, InternalError, Lottery, efficiency, fixture_profile, profile, rd
from pcvote.ratlp import LpOutcome, LpStatus

assert False, "asserts must be stripped here"
prof = fixture_profile("rd_example")
# c is no voter's first and the margins beat the uniform lottery: both LPs run
unsettled = profile("abc", [("a", "b", "c"), ("b", "a", "c")])
solve, solved = efficiency.lp_solve, []
efficiency.lp_solve = lambda lp: solved.append(lp) or LpOutcome(LpStatus.Infeasible, None, None)
for extension in (Extension.PC, Extension.SD):
    solved.clear()
    try:
        efficiency.find_dominator(unsettled, Lottery.uniform(unsettled.alternatives), extension)
    except InternalError:
        pass
    else:
        sys.exit(f"the {extension.value} dominator LP guard did not fire")
    if len(solved) != 1:
        sys.exit(f"the {extension.value} dominator LP was not reached")
efficiency.lp_solve = solve
efficiency.is_dominance = lambda outcomes: False
try:
    efficiency.find_dominator(prof, rd(prof), Extension.PC)
except InternalError:
    pass
else:
    sys.exit("the witness re-validation guard did not fire")
print("guards held")
"""


def test_dominator_guards_survive_python_dash_o():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pcvote.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_GUARDS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guards held"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a library invariant must raise explicitly
    package = os.path.dirname(os.path.abspath(pcvote.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_helpers_import_no_private_name_from_pcvote():
    """The oracles in helpers.py gate the library's LP rows; one whose rows
    came from a private function of `pcvote` would pass its gate when that
    function is wrong. So helpers.py takes no `_`-prefixed name from `pcvote`, by
    `from ... import` or by attribute."""
    tree = ast.parse(HELPERS.read_text(encoding="utf-8"), filename="helpers.py")
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pcvote":
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "pcvote"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{node.lineno}: {root.id}...{node.attr}")
    assert found == []


def test_expost_efficiency_is_about_pareto_mass():
    prof = fixture_profile("pareto_join_R1")
    alts = prof.alternatives
    assert not is_efficient(prof, Lottery.degenerate(alts, "d"), EfficiencyNotion.ExPost)
    assert is_efficient(prof, Lottery.degenerate(alts, "a"), EfficiencyNotion.ExPost)
    assert is_efficient(prof, Lottery.uniform(alts, over=("a", "b", "c")), EfficiencyNotion.ExPost)


def test_is_efficient_accepts_extensions_directly():
    prof = fixture_profile("rd_example")
    p = rd(prof)
    assert is_efficient(prof, p, Extension.SD)
    assert not is_efficient(prof, p, Extension.PC1)


def test_pc_efficiency_implies_sd_and_expost_sampled():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.choice((3, 4))
        alts = "abcd"[:m]
        prof = profile(alts, [rng.sample(alts, m) for _ in range(n)])
        p = random_lottery(rng, prof.alternatives)
        if is_efficient(prof, p, EfficiencyNotion.PC):
            assert is_efficient(prof, p, EfficiencyNotion.SD)
            assert is_efficient(prof, p, EfficiencyNotion.PC1)
            assert is_efficient(prof, p, EfficiencyNotion.ExPost)


# ---------------------------------------------------------------------------
# the calibrated mass shift
# ---------------------------------------------------------------------------

def test_mass_shift_formula_pinned():
    alts = alternative_set("wxyz")
    p = Lottery.uniform(alts)
    q = mass_shift_perturbation(p, ("w", "x", "y", "z"), F(1, 16))
    assert q.as_map() == {"w": F(1, 4), "x": F(1, 8), "y": F(1, 8), "z": F(1, 2)}


def test_mass_shift_boundary_epsilon_is_accepted():
    alts = alternative_set("wxyz")
    p = Lottery.uniform(alts)
    q = mass_shift_perturbation(p, ("w", "x", "y", "z"), F(1, 8))
    assert q.prob("x") == 0 and q.prob("y") == 0 and q.prob("z") == F(3, 4)


def test_mass_shift_domain_errors():
    alts = alternative_set("wxyz")
    p = Lottery.uniform(alts)
    with pytest.raises(DomainError):
        mass_shift_perturbation(p, ("w", "x", "y", "z"), F(1, 8) + F(1, 1000))
    with pytest.raises(DomainError):
        mass_shift_perturbation(p, ("w", "x", "y", "z"), F(0))
    with pytest.raises(DomainError):
        mass_shift_perturbation(p, ("w", "x", "x", "z"), F(1, 16))
    with pytest.raises(DomainError):
        mass_shift_perturbation(Lottery.uniform(alternative_set("abc")), ("a", "b", "c"), F(1, 16))
    zero_donor = Lottery.from_map(alts, {"w": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
    with pytest.raises(DomainError):
        mass_shift_perturbation(zero_donor, ("w", "x", "y", "z"), F(1, 16))


def test_mass_shift_conserves_mass_and_bystander():
    rng = random.Random(71)
    alts = alternative_set("wxyz")
    for _ in range(50):
        weights = [rng.randint(0, 5), rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)]
        total = sum(weights)
        p = Lottery(alts, tuple(F(w, total) for w in weights))
        bound = min(
            p.prob("x") * (p.prob("x") + p.prob("z")),
            p.prob("y") * (p.prob("y") + p.prob("z")),
        )
        eps = bound * F(rng.randint(1, 8), 8)
        q = mass_shift_perturbation(p, ("w", "x", "y", "z"), eps)
        assert q.prob("w") == p.prob("w")
        assert sum(q.probs) == 1
        assert q.prob("z") > p.prob("z")


# ---------------------------------------------------------------------------
# the three-alternative certificate
# ---------------------------------------------------------------------------

def test_certificate_pinned_cases():
    prof = fixture_profile("rd_example")
    assert not m3_efficiency_certificate(prof, rd(prof))
    assert m3_efficiency_certificate(prof, Lottery.degenerate(prof.alternatives, "a"))
    with pytest.raises(ApplicabilityError):
        m3_efficiency_certificate(profile("abcd", [("a", "b", "c", "d")]),
                                  Lottery.uniform(alternative_set("abcd")))


def test_certificate_is_sound_for_pc_efficiency():
    rng = random.Random(73)
    hits = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        prof = profile("abc", [rng.sample("abc", 3) for _ in range(n)])
        p = random_lottery(rng, prof.alternatives)
        if m3_efficiency_certificate(prof, p):
            hits += 1
            assert is_efficient(prof, p, EfficiencyNotion.PC)
    assert hits > 0  # the sample must actually exercise the certificate


def test_the_certificate_is_its_three_clauses_on_every_small_profile():
    # every ballot multiset of up to four voters over three alternatives,
    # times every lottery on the quarter grid
    alts = alternative_set("abc")
    quarters = [
        Lottery(alts, (F(i, 4), F(j, 4), F(4 - i - j, 4)))
        for i in range(5) for j in range(5 - i)
    ]
    checked = 0
    for n in range(1, 5):
        for prof in enumerate_profiles(3, n, up_to_anonymity=True):
            ballots = [b.order for b in prof.ballots]
            for p in quarters:
                assert m3_efficiency_certificate(prof, p) == reference_m3_certificate(ballots, p), (
                    ballots, p.probs
                )
                checked += 1
    assert checked == 209 * 15


def test_f1_always_earns_the_certificate():
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(1, 5)
        prof = profile("abc", [rng.sample("abc", 3) for _ in range(n)])
        assert m3_efficiency_certificate(prof, f1(prof))


# ---------------------------------------------------------------------------
# improvement paths
# ---------------------------------------------------------------------------

def test_path_stops_immediately_on_efficient_start():
    prof = fixture_profile("rd_example")
    start = Lottery.degenerate(prof.alternatives, "a")
    path = improvement_path(prof, start, 10)
    assert path.termination is PathTermination.ReachedEfficient
    assert path.lotteries == (start,)
    assert path.steps == ()


def test_path_escapes_a_pareto_dominated_start():
    prof = profile("abc", [("a", "b", "c"), ("a", "b", "c"), ("a", "c", "b")])
    assert "c" in prof.alternatives.names  # c is unanimously below a here
    start = Lottery.degenerate(prof.alternatives, "c")
    path = improvement_path(prof, start, 25)
    assert path.termination is PathTermination.ReachedEfficient
    assert len(path.lotteries) >= 2
    assert is_efficient(prof, path.lotteries[-1], EfficiencyNotion.PC)


def test_path_steps_are_genuine_improvements():
    fx = fixture("improvement_cycle")
    path = improvement_path(fx.profile, fx.lottery("p1"), 50)
    assert path.termination is PathTermination.CycleDetected
    for before, after in zip(path.lotteries, path.lotteries[1:]):
        assert dominates(fx.profile, Extension.PC, after, before)
    assert path.lotteries[-1] in path.lotteries[:-1]


def test_path_budget_exhaustion():
    fx = fixture("improvement_cycle")
    path = improvement_path(fx.profile, fx.lottery("p1"), 2)
    assert path.termination is PathTermination.MaxSteps
    assert len(path.lotteries) == 3  # start plus two improvements


def test_path_random_mode_is_seeded_and_sound():
    fx = fixture("improvement_cycle")
    a = improvement_path(fx.profile, fx.lottery("p1"), 50, mode="random", seed=3)
    b = improvement_path(fx.profile, fx.lottery("p1"), 50, mode="random", seed=3)
    assert a == b
    assert a.termination is not PathTermination.ReachedEfficient
    for before, after in zip(a.lotteries, a.lotteries[1:]):
        assert dominates(fx.profile, Extension.PC, after, before)
    with pytest.raises(DomainError):
        improvement_path(fx.profile, fx.lottery("p1"), 50, mode="fancy")
    with pytest.raises(DomainError):
        improvement_path(fx.profile, fx.lottery("p1"), 0)


@pytest.mark.parametrize("budget", [True, 2.0, "2", None])
def test_path_refuses_a_step_budget_that_is_not_an_int(budget):
    # `True` took one step, and 2.0 raised TypeError from `range`
    fx = fixture("improvement_cycle")
    with pytest.raises(DomainError, match="max_steps must be an int"):
        improvement_path(fx.profile, fx.lottery("p1"), budget)
