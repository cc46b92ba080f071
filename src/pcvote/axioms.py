"""Axiom checkers for social decision schemes, on single profiles or
exhaustively over small profile spaces.

Every checker returns None when the property holds on its input and a
typed witness object when it found a counterexample; `exhaustive_scan`
lifts a checker over an enumerated profile space and reports the first
witness in a deterministic order, or the number of profiles that passed.

The scan kernel lives here too. A rule that declares a statistic is a
function of its tally vector, so `memoized` caches it by that vector
(`Memo`), and `_Edits` prices the checks' edits of a profile as memo
lookups by vector, keeping their comparisons and clean answers on the
same memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .model import (
    AlternativeSet,
    DomainError,
    Lottery,
    Profile,
    Ranking,
    Tally,
    absolute_winner,
    condorcet_winner,
    relabel,
    remove_voter,
    top_counts,
)
from .extensions import (
    ComparisonOutcome,
    Extension,
    compare,
    weakly_prefers,
)
from .efficiency import (
    DominanceCertificate,
    EfficiencyNotion,
    find_dominator,
    is_efficient,
    pc1_find_dominator,
)
from .rules import SocialDecisionScheme


class Mode(Enum):
    Strong = "strong"
    Weak = "weak"


class Decisiveness(Enum):
    Unanimity = "unanimity"
    AbsoluteWinner = "absolute-winner"
    CondorcetConsistency = "condorcet-consistency"


class Verdict(Enum):
    Holds = "holds"
    Violated = "violated"


@dataclass(frozen=True)
class ManipulationWitness:
    profile: Profile
    voter: int
    misreport: Ranking
    manipulated_profile: Profile
    truthful_outcome: Lottery
    manipulated_outcome: Lottery
    extension: Extension
    mode: Mode


@dataclass(frozen=True)
class ParticipationWitness:
    profile: Profile
    voter: int
    with_voter: Lottery
    without_voter: Lottery
    extension: Extension
    strict: bool
    kind: str  # "participation-harms" or "no-strict-gain"


@dataclass(frozen=True)
class SymmetryWitness:
    profile: Profile
    kind: str  # "anonymity" or "neutrality"
    voter_perm: Optional[tuple[int, ...]]
    alt_perm: Optional[tuple[tuple[str, str], ...]]
    expected: Lottery
    actual: Lottery


@dataclass(frozen=True)
class CancellationWitness:
    profile: Profile
    added: Ranking
    before: Lottery
    after: Lottery


@dataclass(frozen=True)
class DecisivenessWitness:
    profile: Profile
    level: Decisiveness
    required: str
    outcome: Lottery


@dataclass(frozen=True)
class EfficiencyWitness:
    profile: Profile
    outcome: Lottery
    notion: EfficiencyNotion
    certificate: Optional[DominanceCertificate]


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    rule: str
    verdict: Verdict
    witness: Optional[object]
    profiles_checked: int


def _check_ranking_count(m: int) -> None:
    if math.factorial(m) > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"the {m}! rankings of {m} alternatives exceed the enumeration budget of "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )


def all_rankings(alternatives: AlternativeSet) -> tuple[Ranking, ...]:
    """Every strict ranking, in lexicographic order of label tuples, built
    once per alternative set. More than `DEFAULT_ENUMERATION_BUDGET` of
    them are refused before any is built."""
    _check_ranking_count(len(alternatives))
    return alternatives._rankings


def _check_rule_evaluations(count: int, what: str) -> None:
    """Refuse a per-profile check that would evaluate the rule `count`
    times, besides once on the profile itself, if that is more than
    `RULE_EVALUATION_BUDGET`, before the first evaluation."""
    if count > RULE_EVALUATION_BUDGET:
        raise EnumerationBudgetError(
            f"{what} needs {count} rule evaluations, over the budget of {RULE_EVALUATION_BUDGET}"
        )


# a relabelling π as it acts on a memo: the map of a tally vector v, given
# as v followed by -v, to its image, and π as a permutation of the
# alternative indices, π[x] being x's image
_Relabelling = tuple[Callable[[tuple[int, ...]], tuple[int, ...]], tuple[int, ...]]


class _TallyTables:
    """What a tally gives the rankings of one alternative set, by their
    indices in `all_rankings`, one object per set and tally
    (`_tally_tables`): each ranking's tally (`tallies`); the classes of
    equal tallies, as each index's class named by its least index
    (`class_of`) and those names in increasing order (`leaders`); and the
    relabellings that act on the tally's vectors (`relabellings`). Each is
    a plain attribute: a cached property stores through `__dict__`, which
    on CPython 3.11 slows every later attribute read of the object."""

    def __init__(self, alternatives: AlternativeSet, tally: Tally) -> None:
        self.alternatives = alternatives
        self.tallies = list(map(tally.of, alternatives._rankings))
        least: dict[tuple[int, ...], int] = {}
        self.class_of = [least.setdefault(vector, k) for k, vector in enumerate(self.tallies)]
        self.leaders = list(least.values())
        self._relabellings: Optional[list[_Relabelling]] = None

    def relabellings(self) -> list[_Relabelling]:
        """`_signed_maps`, on the first call budgeted and built."""
        if self._relabellings is None:
            self._relabellings = _signed_maps(self.alternatives, self.tallies)
        return self._relabellings


def _tally_tables(alternatives: AlternativeSet, tally: Tally) -> _TallyTables:
    """The tally's tables on the alternative set, kept on the set, so a
    process builds them once for the scans' shared default sets. The first
    call for a set and a tally budgets its rankings (`all_rankings`)."""
    found = alternatives._tally_tables.get(tally)
    if found is None:
        all_rankings(alternatives)
        found = alternatives._tally_tables[tally] = _TallyTables(alternatives, tally)
    return found


class Memo:
    """The `evaluate` of `memoized(rule)`: the rule's outcomes cached by
    alternative set and tally vector, the vector being a profile's, summed
    from its runs, or one the checks compute for a profile or an edit of it
    from its rankings' tallies (`_Edits`).

    `outcomes` holds one lottery per (alternative names, vector), and a new
    outcome is interned in `lotteries`, keyed by its names and its integer
    `_mass`, which hash with no Python call; so a lottery read from the memo
    is the one object for its value, and stays alive as long as the memo.
    A lookup is one `outcomes.get`, which the misreport search makes in its
    own loop (`_misreports`); a miss is answered by `_miss`, which stores
    the outcome at the vector looked up, and there alone.

    With `orbit_keys` (a rule declared `neutral`, see `memoized`) the rule
    is evaluated once per orbit of vectors under relabelling the
    alternatives, not once per vector: at the first vector of the orbit
    that is looked up. A missed vector v is relabelled by each relabelling
    π of the tally's tables (`_tally_tables`) in turn, and the first image
    πv that is stored answers: neutrality gives f(πR) = π·f(R), so the
    outcome at v is the one at πv pulled back through π. Every vector met
    is stored at its own key, and the m! relabellings carry any member of
    v's orbit onto v, so some image is stored exactly when the orbit was
    met before. Otherwise the rule is evaluated at v. A tally that gets the
    identity alone (`_signed_maps`) is keyed by the raw vector.

    The rest is the checks' state for one scan, kept by `_Edits`:
    `comparisons` keys the misreport comparisons by the identities of the
    lotteries compared, across vectors with equal outcomes; `clean` holds
    the keys of the per-ballot checks that found no violation at a vector.
    The rankings' tallies, classes and relabellings are the tally's, not
    the memo's: they are kept on the alternative set (`_tally_tables`).
    """

    def __init__(self, rule: SocialDecisionScheme, orbit_keys: bool = False) -> None:
        self.rule = rule
        self.orbit_keys = orbit_keys
        self.outcomes: dict[tuple[tuple[str, ...], tuple[int, ...]], Lottery] = {}
        self.lotteries: dict[tuple, Lottery] = {}
        self.comparisons: dict[tuple, dict[int, bool]] = {}
        self.clean: set[tuple] = set()

    def __call__(self, profile: Profile) -> Lottery:
        return self.outcome(profile.alternatives, self.rule.statistic(profile), lambda: profile)

    def outcome(
        self, alternatives: AlternativeSet, vector: tuple[int, ...], build: Callable[[], Profile]
    ) -> Lottery:
        """The cached lottery for this alternative set and tally vector, or
        on a miss `_miss`'s."""
        # sets are equal by their names, and a tuple of names hashes with no Python call
        found = self.outcomes.get((alternatives.names, vector))
        if found is None:
            found = self._miss(alternatives, vector, build)
        return found

    def _miss(
        self, alternatives: AlternativeSet, vector: tuple[int, ...], build: Callable[[], Profile]
    ) -> Lottery:
        """The outcome at a vector not stored yet, stored there: read off a
        stored image (`_pulled_back`), or else the unmemoized rule's on the
        profile `build()` makes, interned."""
        found = self._pulled_back(alternatives, vector) if self.orbit_keys else None
        if found is None:
            found = self._intern(self.rule(build()))
        self.outcomes[alternatives.names, vector] = found
        return found

    def _pulled_back(self, alternatives: AlternativeSet, vector: tuple[int, ...]) -> Optional[Lottery]:
        """The outcome at the first stored image of the vector under a
        relabelling π, pulled back through π, or None if no image is stored
        (see the class docstring). The identity's image is the vector, which
        is not stored."""
        names = alternatives.names
        signed = vector + tuple(-x for x in vector)
        stored = self.outcomes.get
        for image, to in _tally_tables(alternatives, self.rule.statistic).relabellings()[1:]:
            found = stored((names, image(signed)))
            if found is not None:
                return self._permuted(found, to)
        return None

    def _intern(self, lottery: Lottery) -> Lottery:
        return self.lotteries.setdefault((lottery.alternatives.names, lottery._mass), lottery)

    def _permuted(self, lottery: Lottery, perm: tuple[int, ...]) -> Lottery:
        """The interned lottery whose entry x is `lottery`'s entry perm[x];
        a `Lottery` is built, and validated, only for a mass not interned."""
        mass, den = lottery._mass
        names = lottery.alternatives.names
        found = self.lotteries.get((names, (tuple(map(mass.__getitem__, perm)), den)))
        if found is None:
            found = self._intern(Lottery(lottery.alternatives, tuple(map(lottery.probs.__getitem__, perm))))
        return found


def _signed_maps(alternatives: AlternativeSet, tallies: list[tuple[int, ...]]) -> list[_Relabelling]:
    """The relabellings of the alternatives that act on the vectors of a
    tally whose rankings' tallies are `tallies`: one per table of
    `_tables_to_first`, the identity first.

    Table t sends ranking q to ranking t[q], so a profile's vector goes to
    the sum of t[q]'s tallies over its ballots q. When coordinate i of those
    tallies, taken over every q, is plus or minus coordinate j of the
    tallies themselves, the image's coordinate i is plus or minus the
    vector's coordinate j. A tally with some coordinate that no such j
    gives, under some table, gets the identity alone."""
    d = len(tallies[0])
    # each coordinate's column over the rankings, then its negation, by
    # where it sits in v followed by -v
    columns = list(zip(*tallies))
    where: dict[tuple[int, ...], int] = {}
    for j, column in enumerate(columns):
        where.setdefault(column, j)
    for j, column in enumerate(columns):
        where.setdefault(tuple(-x for x in column), d + j)
    rankings = alternatives._rankings
    first = rankings[0].indices
    found: list[_Relabelling] = []
    for ranking, table in zip(rankings, _tables_to_first(alternatives)):
        picks = [where.get(column) for column in zip(*map(tallies.__getitem__, table))]
        if None in picks:
            return found[:1]
        perm = [0] * len(first)
        for x, y in zip(ranking.indices, first):  # the table's relabelling sends ranking to first
            perm[x] = y
        found.append((_picker(picks), tuple(perm)))
    return found


def _picker(picks: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map of a sequence to the tuple of its entries at `picks`."""
    if len(picks) < 2:  # `itemgetter` needs an index, and returns one entry bare
        return lambda signed: tuple(map(signed.__getitem__, picks))
    return itemgetter(*picks)


def memoized(rule: SocialDecisionScheme, orbits: bool = False) -> SocialDecisionScheme:
    """The rule with a `Memo` of it as its `evaluate`, or, if it declares
    no statistic or is memoized already, the rule as it is. The memo lives
    as long as the returned rule and its copies, one entry per vector seen.

    It keys outcomes by the raw vector unless `orbits` is asked for and the
    rule is declared `neutral`: then the rule is evaluated once per
    relabelling orbit of vectors (`Memo`), which trusts the declaration. A
    scan asks for it exactly when it checks one profile per orbit
    (`exhaustive_scan`), which trusts the same declaration.
    """
    if rule.statistic is None or isinstance(rule.evaluate, Memo):
        return rule
    return replace(rule, evaluate=Memo(rule, orbits and rule.neutral))


class _Edits:
    """A rule's outcomes on one profile and on its edits: one ballot taken
    out, one swapped, or two put in. Ballots are named by their index in
    `all_rankings`. Every axiom check (`AxiomSpec.check`) takes one.

    The profile is given, or named by `indices`, its ballots' indices in
    voter order, as a scan hands over its representatives; then its
    `Profile` is built only when asked for (`profile`).

    For a memoized rule (`memoized`) an edit's outcome is one memo lookup by
    its tally vector: the profile's (`base`: the statistic of the profile
    given, or the ballots' tallies summed by index when first read), minus
    the tally of the ballot taken out, plus those of the ballots put in,
    read off the tally's tables (`tables`), which are fetched once. Its
    `Profile` is made by `build` only on a miss. The misreport search makes
    these lookups in its own loop (`_misreports`), and memoizes its
    comparisons by the identities of the memo's lotteries. Every clean
    answer of a check is memoized too (`settled`). Any other rule, or a bare
    function, is evaluated on the built profile, as the per-voter reference.
    """

    def __init__(
        self,
        rule: SocialDecisionScheme,
        profile: Optional[Profile],
        alternatives: Optional[AlternativeSet] = None,
        indices: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.rule = rule
        memo = getattr(rule, "evaluate", None)
        self.memo = memo if isinstance(memo, Memo) else None
        self.indices = indices
        self._profile = profile
        self.alternatives = alternatives if profile is None else profile.alternatives
        self.base = None if self.memo is None or profile is None else self.memo.rule.statistic(profile)
        self._tables: Optional[_TallyTables] = None

    @property
    def profile(self) -> Profile:
        """The profile given, or the one the indices name, built on first use."""
        if self._profile is None:
            rankings = self.alternatives._rankings
            self._profile = Profile.from_ballots(self.alternatives, [rankings[k] for k in self.indices])
        return self._profile

    def tables(self) -> _TallyTables:
        """The memo's tally's tables on these alternatives (`_tally_tables`),
        fetched on the first call, which the caller has budgeted."""
        if self._tables is None:
            self._tables = _tally_tables(self.alternatives, self.memo.rule.statistic)
        return self._tables

    def voters(
        self, listed: Optional[Sequence[int]] = None
    ) -> tuple[int, Iterable[tuple[int, Ranking]]]:
        """How many voters a per-voter check tries, and those voters with
        their ballots, in voter order: the listed ones or all n, but for a
        rule that declares a statistic, and so is anonymous, only the first
        with each distinct ballot, read off the indices or the runs when
        none are listed. Each voter of a rule without a statistic is walked
        lazily, so counting n of them costs nothing."""
        anonymous = getattr(self.rule, "statistic", None) is not None
        first: dict[object, tuple[int, Ranking]] = {}
        if anonymous and listed is None and self.indices is not None:
            rankings = self.alternatives._rankings
            for i, k in enumerate(self.indices, 1):  # each distinct index at its first voter
                if k not in first:
                    first[k] = (i, rankings[k])
            return len(first), first.values()
        if anonymous and listed is None:  # a ballot first appears at the start of a run
            runs = self.profile.runs
            walk = ((end - c + 1, b) for (b, c), end in zip(runs, self.profile._ends))
        else:
            tried = listed if listed is not None else range(1, self.profile.n + 1)
            ballot_of = self.profile.ballot
            walk = ((i, ballot_of(i)) for i in tried)
            if not anonymous:
                return len(tried), walk
        # keyed by order, which hashes with no Python call; all range over one set
        for i, ballot in walk:
            first.setdefault(ballot.order, (i, ballot))
        return len(first), first.values()

    def ballot(self, ranking: Ranking) -> Optional[int]:
        """The ranking's index in `all_rankings`, or None without a memo."""
        return None if self.memo is None else self.alternatives._ranking_index[ranking.order]

    def settled(self, *check: object) -> bool:
        """Has the check that `check` names come out clean on an earlier
        profile with these alternatives and this vector? Only a memoized
        rule, whose outcomes are a function of the vector, remembers. The
        names are strings, ints and bools, which hash with no Python call."""
        if self.memo is None:
            return False
        base = self.base if self.base is not None else self.vector(None)
        return (check, self.alternatives.names, base) in self.memo.clean

    def settle(self, *check: object) -> None:
        """Remember that the check `check` names (`settled` first) found no violation here."""
        if self.memo is not None:
            self.memo.clean.add((check, self.alternatives.names, self.base))

    def vector(self, taken: Optional[int], put: Sequence[int] = ()) -> tuple[int, ...]:
        """The tally vector of the profile with `taken` out and `put` in."""
        if self.base is not None and taken is None and not put:  # fetches no tables, so builds no rankings
            return self.base
        tallies = self.tables().tallies
        vector: Iterable[int] = self.base
        if vector is None:  # a scan's representative, whose rankings the scan has budgeted
            vector = self.base = tuple(map(sum, zip(*map(tallies.__getitem__, self.indices))))
        if taken is not None:
            vector = map(sub, vector, tallies[taken])
        for k in put:
            vector = map(add, vector, tallies[k])
        return tuple(vector)

    def outcome(
        self, taken: Optional[int], put: Sequence[Optional[int]], build: Callable[[], Profile]
    ) -> Lottery:
        """The rule's outcome on the edited profile that `build()` makes."""
        if self.memo is None:
            return self.rule(build())
        return self.memo.outcome(self.alternatives, self.vector(taken, put), build)

    def own(self) -> Lottery:
        """The rule's outcome on the profile itself."""
        return self.outcome(None, (), lambda: self.profile)


def find_manipulation(
    rule: SocialDecisionScheme,
    profile: Profile,
    extension: Extension,
    mode: Mode,
    voters: Optional[Sequence[int]] = None,
) -> Optional[ManipulationWitness]:
    """First profitable misreport, scanning voters in order and misreports
    lexicographically.

    Strong mode flags a misreport the truthful outcome is *not* weakly
    preferred to (incomparability included); weak mode flags one whose
    outcome the voter strictly prefers.

    The voters tried are those of `_Edits.voters`, and the (m! - 1)
    misreports of each are budgeted up front. For a memoized rule a
    misreport's outcome is looked up by its tally vector (`_Edits`), and a
    `Profile` is built only on a memo miss and for the witness, once.

    Misreports with equal tallies give equal vectors, so equal outcomes
    (the tally's classes, `_TallyTables`), and one with the true ballot's
    tally gives the truthful outcome, which every extension compares as
    indifferent. So each class is tried once, by its least index, in
    order, and the true ballot's class not at all: the first witness is
    the full loop's. A ballot that manipulates at no misreport is not
    tried again at an equal vector (`_Edits.settled`).
    """
    return _misreports(_Edits(rule, profile), extension, mode, voters)


def _misreports(
    edits: _Edits, extension: Extension, mode: Mode, voters: Optional[Sequence[int]] = None
) -> Optional[ManipulationWitness]:
    """`find_manipulation` on the profile of `edits`.

    For a memoized rule the loop is the scan kernel's: per deviating ballot
    it takes the residual vector, the profile's minus the true ballot's
    tally, once, and per misreport class adds the class's tally to it and
    makes one `Memo.outcomes` lookup, and a miss one `Memo._miss`. Whether
    the voter gains is read off `Memo.comparisons`, keyed by the check's
    names (extension and mode by value, strings that hash with no Python
    call), the true ballot and the truthful outcome's identity, then by the
    deviated outcome's, and compared only when absent there. Any other rule
    is evaluated on each deviated profile and compared each time."""
    count, deviators = edits.voters(voters)
    alts = edits.alternatives
    m = len(alts)
    _check_ranking_count(m)
    _check_rule_evaluations((math.factorial(m) - 1) * count, "the misreport search")
    # budgeted just above, so the rankings and their index are read as they are
    candidates = alts._rankings
    index = alts._ranking_index
    check = ("misreport", extension.value, mode.value)
    truthful = edits.own()
    memo = edits.memo
    if memo is None:  # one class per ranking
        class_of = leaders = range(len(candidates))
    else:  # read once `own` has summed the base
        tables = edits.tables()
        base, tallies, outcomes, names = edits.base, tables.tallies, memo.outcomes, alts.names
        class_of, leaders = tables.class_of, tables.leaders
    built: tuple = ()  # (voter, misreport, profile) of the last deviation built

    def build() -> Profile:  # the deviation the loop is at, kept for a witness there
        nonlocal built
        built = (i, k, edits.profile.replace_ballot(i, candidates[k]))
        return built[2]

    def manipulates(outcome: Lottery) -> bool:
        if mode is Mode.Strong:
            return not weakly_prefers(compare(extension, true_ballot, truthful, outcome))
        return compare(extension, true_ballot, outcome, truthful) is ComparisonOutcome.StrictlyPreferred

    for i, true_ballot in deviators:
        taken = index[true_ballot.order]
        if edits.settled(*check, taken):
            continue
        own = class_of[taken]
        if memo is not None:
            residual = tuple(map(sub, base, tallies[taken]))
            seen = memo.comparisons.setdefault((check, taken, id(truthful)), {})
        for k in leaders:
            if k == own:
                continue
            if memo is None:
                outcome = edits.rule(build())
                if not manipulates(outcome):
                    continue
            else:
                vector = tuple(map(add, residual, tallies[k]))
                outcome = outcomes.get((names, vector))
                if outcome is None:
                    outcome = memo._miss(alts, vector, build)
                gains = seen.get(id(outcome))
                if gains is None:
                    gains = seen[id(outcome)] = manipulates(outcome)
                if not gains:
                    continue
            deviated = built[2] if built[:2] == (i, k) else build()
            return ManipulationWitness(
                edits.profile, i, candidates[k], deviated, truthful, outcome, extension, mode
            )
        edits.settle(*check, taken)
    return None


def exists_strict_improvement(ranking: Ranking, q: Lottery) -> bool:
    """Is there any lottery this voter strictly prefers to q?

    Under PC, PC1 and SD alike this happens exactly when q puts less than
    full probability on the voter's top alternative (the degenerate top
    lottery is then a strict improvement, and nothing beats the top).
    """
    return q.prob(ranking.top) < 1


def check_participation(
    rule: SocialDecisionScheme,
    profile: Profile,
    extension: Extension,
    strict: bool = False,
) -> Optional[ParticipationWitness]:
    """Does any voter of `_Edits.voters` weakly regret showing up — or, in
    strict mode, fail to strictly gain although a strict gain was available?"""
    if profile.n < 2:
        raise DomainError("participation needs at least two voters to compare against")
    return _abstentions(_Edits(rule, profile), extension, strict)


def _abstentions(
    edits: _Edits, extension: Extension, strict: bool
) -> Optional[ParticipationWitness]:
    """`check_participation` on the profile of `edits`, of two or more voters."""
    if edits.memo is not None:  # `_Edits.ballot` reads the rankings' index
        _check_ranking_count(len(edits.alternatives))
    count, leaving = edits.voters()
    _check_rule_evaluations(count, "the participation check")
    check = ("participation", extension.value, strict)
    with_voter = edits.own()
    for i, ballot in leaving:
        taken = edits.ballot(ballot)
        if edits.settled(*check, taken):
            continue
        without = edits.outcome(taken, (), lambda: remove_voter(edits.profile, i))
        outcome = compare(extension, ballot, with_voter, without)
        if not weakly_prefers(outcome):
            return ParticipationWitness(
                edits.profile, i, with_voter, without, extension, strict, "participation-harms"
            )
        if strict and exists_strict_improvement(ballot, without):
            if outcome is not ComparisonOutcome.StrictlyPreferred:
                return ParticipationWitness(
                    edits.profile, i, with_voter, without, extension, strict, "no-strict-gain"
                )
        edits.settle(*check, taken)
    return None


def check_symmetry(
    rule: SocialDecisionScheme, profile: Profile, kind: str
) -> Optional[SymmetryWitness]:
    """Anonymity (reordering the voters leaves the outcome alone) or neutrality
    (relabelling the alternatives commutes with the rule), as `kind` names.
    Anonymity evaluates each distinct ballot sequence once, budgeted at n! - 1."""
    if kind == "anonymity":
        n = profile.n
        one_ballot = len({ballot for ballot, _ in profile.runs}) == 1
        if not one_ballot:  # else there is no other voter order
            _check_voter_orders(n)
        base = rule(profile)
        if one_ballot:
            return None  # no other voter order
        seen = {profile.ballots}
        for perm in itertools.permutations(range(1, n + 1)):
            order = tuple(map(profile.ballot, perm))
            if order in seen:
                continue
            seen.add(order)
            actual = rule(Profile.from_ballots(profile.alternatives, order))
            if actual != base:
                return SymmetryWitness(profile, "anonymity", perm, None, base, actual)
        return None
    if kind == "neutrality":
        m = profile.m
        _check_ranking_count(m)
        _check_rule_evaluations(math.factorial(m) - 1, "the neutrality check")
        base = rule(profile)
        names = profile.alternatives.names
        for ranking in all_rankings(profile.alternatives):
            if ranking.order == names:
                continue
            mapping = dict(zip(names, ranking.order))
            actual = rule(relabel(profile, alt_perm=mapping))
            expected = base.relabel(mapping)
            if actual != expected:
                return SymmetryWitness(
                    profile, "neutrality", None, tuple(sorted(mapping.items())), expected, actual
                )
        return None
    raise DomainError(f"kind must be 'anonymity' or 'neutrality', got {kind!r}")


def check_cancellation(
    rule: SocialDecisionScheme, profile: Profile
) -> Optional[CancellationWitness]:
    """Adding a ballot and its exact reverse must not move the outcome."""
    return _reversals(_Edits(rule, profile))


def _reversals(edits: _Edits) -> Optional[CancellationWitness]:
    """`check_cancellation` on the profile of `edits`."""
    m = len(edits.alternatives)
    _check_ranking_count(m)
    _check_rule_evaluations(math.factorial(m), "the cancellation check")
    rankings = all_rankings(edits.alternatives)
    if edits.settled("cancellation"):
        return None
    base = edits.own()
    for k, ballot in enumerate(rankings):
        reverse = ballot.reversed()
        put = (k, edits.ballot(reverse))
        after = edits.outcome(None, put, lambda: edits.profile.append(ballot, reverse))
        if after != base:
            return CancellationWitness(edits.profile, ballot, base, after)
    edits.settle("cancellation")
    return None


def check_decisiveness(
    rule: SocialDecisionScheme, profile: Profile, level: Decisiveness
) -> Optional[DecisivenessWitness]:
    """When the profile has the relevant kind of clear winner, the rule
    must put probability one on it. No trigger, nothing to check."""
    return _decisiveness(profile, level, lambda: rule(profile))


def _decisiveness(
    profile: Profile, level: Decisiveness, outcome_of: Callable[[], Lottery]
) -> Optional[DecisivenessWitness]:
    """`check_decisiveness`, with the rule's outcome on the profile from
    `outcome_of()`, called only when the profile has the winner."""
    target: Optional[str] = None
    if level is Decisiveness.Unanimity:
        tops = zip(profile.alternatives, top_counts(profile))
        target = next((x for x, count in tops if count == profile.n), None)
    elif level is Decisiveness.AbsoluteWinner:
        target = absolute_winner(profile)
    elif level is Decisiveness.CondorcetConsistency:
        target = condorcet_winner(profile)
    else:
        raise DomainError(f"unknown decisiveness level {level!r}")
    if target is None:
        return None
    outcome = outcome_of()
    if outcome.prob(target) != 1:
        return DecisivenessWitness(profile, level, target, outcome)
    return None


def check_efficiency(
    rule: SocialDecisionScheme, profile: Profile, notion: EfficiencyNotion
) -> Optional[EfficiencyWitness]:
    """Is the rule's outcome on this profile efficient under the notion?"""
    return _efficiency(profile, rule(profile), notion)


def _efficiency(
    profile: Profile, outcome: Lottery, notion: EfficiencyNotion
) -> Optional[EfficiencyWitness]:
    """`check_efficiency` of this outcome on the profile."""
    if notion is EfficiencyNotion.ExPost:
        if is_efficient(profile, outcome, notion):
            return None
        return EfficiencyWitness(profile, outcome, notion, None)
    if notion is EfficiencyNotion.PC1:
        cert = pc1_find_dominator(profile, outcome)
    else:
        cert = find_dominator(profile, outcome, Extension(notion.value))
    if cert is None:
        return None
    return EfficiencyWitness(profile, outcome, notion, cert)


# ---------------------------------------------------------------------------
# enumeration and scanning
# ---------------------------------------------------------------------------

DEFAULT_ENUMERATION_BUDGET = 2_000_000
# rule evaluations a per-profile check may make besides the one on the
# profile itself
RULE_EVALUATION_BUDGET = 100_000


class EnumerationBudgetError(DomainError):
    """The requested profile space is larger than the allowed budget."""


# the fewest voters whose n! - 1 other orders pass the budget
ANONYMITY_VOTER_LIMIT = next(
    k for k in itertools.count(1) if math.factorial(k) - 1 > RULE_EVALUATION_BUDGET
)


def _check_voter_orders(n: int) -> None:
    """Refuse an anonymity check on n voters with two or more distinct
    ballots if their n! - 1 other orders pass the budget; the count is
    taken only as far as `ANONYMITY_VOTER_LIMIT` voters, so a huge n costs
    nothing."""
    k = min(n, ANONYMITY_VOTER_LIMIT)
    _check_rule_evaluations(math.factorial(k) - 1, f"the anonymity check on {k} of {n} voters")


def _require_size(value: object, what: str) -> None:
    """Refuse an enumeration size that is not a non-negative int; a bool is not one."""
    if type(value) is not int or value < 0:
        raise DomainError(f"{what} must be a non-negative int, got {value!r}")


def count_profiles(m: int, n: int, up_to_anonymity: bool = False) -> int:
    _require_size(m, "m")
    _require_size(n, "n")
    r = math.factorial(m)
    if up_to_anonymity:
        return math.comb(r + n - 1, n)
    return r ** n


def _check_enumerable(m: int, n: int, up_to_anonymity: bool, budget: int) -> None:
    """Raise unless `enumerate_profiles(m, n, ...)` may run: 1 <= m <= 4,
    n >= 1 and at most `budget` profiles. Their number grows with n for
    m >= 2, and is 1 for m = 1."""
    _require_size(m, "m")
    _require_size(n, "n")
    if not 1 <= m <= 4:
        raise DomainError(f"enumeration supports 1..4 alternatives, got m={m}")
    if n < 1:
        raise DomainError(f"need at least one voter, got n={n}")
    # with m >= 2 there are over 2**n profiles and over n multisets, so a
    # huge n is turned away before its profile count is built
    past_bound = n > (budget if up_to_anonymity else budget.bit_length())
    if (m >= 2 and past_bound) or count_profiles(m, n, up_to_anonymity) > budget:
        raise EnumerationBudgetError(
            f"the {n}-voter profiles over {m} alternatives exceed the enumeration budget of {budget}"
        )


def _ballot_indices(m: int, n: int, up_to_anonymity: bool) -> Iterator[tuple[int, ...]]:
    """The n-voter profiles over m alternatives as tuples of indices into
    `all_rankings`, lexicographically; with `up_to_anonymity` only the
    non-decreasing ones, one per ballot multiset."""
    indices = range(math.factorial(m))
    if up_to_anonymity:
        return itertools.combinations_with_replacement(indices, n)
    return itertools.product(indices, repeat=n)


# the scans' sets of the first m of a, b, c, d, one per m, so a process
# builds each one's rankings and relabelling tables once
_DEFAULT_ALTERNATIVES = {m: AlternativeSet(("a", "b", "c", "d")[:m]) for m in range(1, 5)}


def _alternatives(m: int, names: Optional[Sequence[str]] = None) -> AlternativeSet:
    """The set of these names, or the shared set of the first m of a, b, c, d."""
    if names is None and m in _DEFAULT_ALTERNATIVES:
        return _DEFAULT_ALTERNATIVES[m]
    alts = AlternativeSet(tuple(names) if names is not None else ("a", "b", "c", "d")[:m])
    if len(alts) != m:
        raise DomainError(f"{len(alts)} names supplied for m={m}")
    return alts


def enumerate_profiles(
    m: int,
    n: int,
    up_to_anonymity: bool = False,
    names: Optional[Sequence[str]] = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Profile]:
    """All n-voter profiles over m alternatives, lexicographically; with
    `up_to_anonymity` one representative per ballot multiset."""
    _check_enumerable(m, n, up_to_anonymity, budget)
    alts = _alternatives(m, names)
    rankings = all_rankings(alts)
    for indices in _ballot_indices(m, n, up_to_anonymity):
        yield Profile.from_ballots(alts, [rankings[i] for i in indices])


def _tables_to_first(alternatives: AlternativeSet) -> tuple[tuple[int, ...], ...]:
    """For each ranking's index in `all_rankings`, the relabelling table
    that sends it to index 0: the index of every ranking's image under the
    one alternative permutation that does. Built once per alternative set;
    if their (m!)² entries pass the enumeration budget, they are refused
    before any is built."""
    cells = math.factorial(len(alternatives)) ** 2
    if cells > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"the {cells} relabelling table entries of {len(alternatives)} alternatives exceed "
            f"the enumeration budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    return alternatives._to_first


def _least_in_orbit(indices: tuple[int, ...], to_first: tuple[tuple[int, ...], ...]) -> bool:
    """Is this profile, in either scan mode, the least of its orbit under
    relabelling the alternatives and reordering the voters, its images
    compared sorted?

    Relabelling acts regularly on the rankings: one permutation sends a
    given ranking to index 0. So the least image starts with 0, and a
    profile that does not is not least; nor is an unsorted one, whose
    sorted self is less. Only an image that holds 0, made by the table that
    sends one of the profile's d distinct ballots to 0, can then be less.
    """
    if indices[0]:
        return False
    key = list(indices)
    if sorted(indices) != key:
        return False
    for ballot in set(indices):
        if ballot and sorted(map(to_first[ballot].__getitem__, indices)) < key:
            return False
    return True


@dataclass(frozen=True)
class AxiomSpec:
    """A named axiom: its check of the rule on the profile an `_Edits`
    holds, given or named by a scan's index tuple, and the smallest profile
    it applies to."""

    name: str
    check: Callable[[_Edits], Optional[object]]
    min_voters: int = 1


def _spec_entries() -> dict[str, AxiomSpec]:
    entries: dict[str, AxiomSpec] = {}

    def add(name: str, check: Callable[[_Edits], Optional[object]], min_voters: int = 1) -> None:
        entries[name] = AxiomSpec(name, check, min_voters)

    add("anonymity", lambda e: check_symmetry(e.rule, e.profile, "anonymity"))
    add("neutrality", lambda e: check_symmetry(e.rule, e.profile, "neutrality"))
    add("cancellation", _reversals)
    for level in Decisiveness:
        add(level.value, lambda e, lv=level: _decisiveness(e.profile, lv, e.own))
    for ext in Extension:
        for mode, prefix in ((Mode.Strong, ""), (Mode.Weak, "weak-")):
            add(f"{prefix}{ext.value}-strategyproofness", lambda e, x=ext, md=mode: _misreports(e, x, md))
        for strict, prefix in ((False, ""), (True, "strict-")):
            name = f"{prefix}{ext.value}-participation"
            add(name, lambda e, x=ext, st=strict: _abstentions(e, x, st), min_voters=2)
    for notion in EfficiencyNotion:
        add(f"{notion.value}-efficiency", lambda e, nt=notion: _efficiency(e.profile, e.own(), nt))
    return entries


AXIOMS: dict[str, AxiomSpec] = _spec_entries()


def axiom(name: str) -> AxiomSpec:
    try:
        return AXIOMS[name]
    except KeyError:
        raise DomainError(
            f"unknown axiom {name!r}; available: {', '.join(sorted(AXIOMS))}"
        ) from None


def check_axiom_on_profile(
    rule: SocialDecisionScheme, profile: Profile, axiom_name: str
) -> AxiomReport:
    """The named axiom's check on this one profile, of at least its
    `min_voters` voters, through the same entry a scan uses."""
    spec = axiom(axiom_name)
    if profile.n < spec.min_voters:
        raise DomainError(
            f"axiom {axiom_name!r} needs at least {spec.min_voters} voters, got {profile.n}"
        )
    witness = spec.check(_Edits(rule, profile))
    verdict = Verdict.Holds if witness is None else Verdict.Violated
    return AxiomReport(axiom_name, rule.name, verdict, witness, 1)


def exhaustive_scan(
    rule: SocialDecisionScheme,
    m: int,
    n_max: int,
    axiom_name: str,
    up_to_anonymity: bool = False,
    n_min: Optional[int] = None,
) -> AxiomReport:
    """Run one axiom checker over every profile with n_min..n_max voters,
    stopping at the first witness. Deterministic enumeration order. Each
    voter count's space must fit `DEFAULT_ENUMERATION_BUDGET`; this is
    checked for n_max before the first profile. So is an `anonymity` scan
    that would meet a profile whose voter orders its check refuses (two
    distinct ballots and `ANONYMITY_VOTER_LIMIT` or more voters), with the
    check's own message.

    A rule that declares a statistic is memoized for the scan alone
    (`memoized`), except under `anonymity`, which the memo assumes, and
    except when it is memoized already. So the rule is evaluated, and an
    edited `Profile` built (`_Edits`), once per alternative set and distinct
    tally vector, and for a witness; in a reduced scan (below), once per
    relabelling orbit of the tally vectors met, at the first one met, as
    the memo answers a later member from a stored one (`Memo`). Every
    profile is handed to the check as its index tuple (`_Edits`), whose
    tally vector is its rankings' tallies summed. A misreport search costs
    one tuple add and one memo lookup per misreport class (`_misreports`).
    A misreport, participation or cancellation check builds its `Profile`
    only on a memo miss that evaluates the rule or for a witness; the
    other checks, or a rule with no memo, once.

    A rule that declares a statistic and `neutral` is checked on one
    profile per orbit under the m! relabellings of the alternatives and
    the reorderings of the voters: the one that comes first in the
    enumeration, which is sorted in either mode. Except under `anonymity`
    and `neutrality`, which test those declarations, this is sound. Every
    other axiom is invariant under relabelling the alternatives and, for
    an anonymous rule, under reordering the voters. So for a neutral and
    anonymous rule the violating profiles are a union of orbits, and the
    first of them in enumeration order is the first of its orbit. That
    profile is checked exactly as without the reduction. The skipped
    profiles count as checked, so the verdict, the witness and
    `profiles_checked` are those of the unreduced scan, ordered or not.
    The memo's orbit keys rest on the same declaration; the `neutrality`
    scan, which tests it, keys its memo by the raw vector.
    """
    spec = axiom(axiom_name)
    _require_size(n_max, "n_max")
    if n_min is not None:
        _require_size(n_min, "n_min")
    reduced = (
        rule.statistic is not None
        and rule.neutral
        and axiom_name not in ("anonymity", "neutrality")
    )
    if axiom_name != "anonymity":
        rule = memoized(rule, orbits=reduced)
    lo = max(spec.min_voters, n_min if n_min is not None else 1)
    if n_max < lo:
        raise DomainError(f"n_max={n_max} below the smallest applicable size {lo}")
    # the budget holds per voter count, and the largest count has the most profiles
    _check_enumerable(m, n_max, up_to_anonymity, DEFAULT_ENUMERATION_BUDGET)
    if axiom_name == "anonymity" and m >= 2 and n_max >= ANONYMITY_VOTER_LIMIT:
        # every n >= 2 has a profile with two distinct ballots
        _check_voter_orders(max(lo, ANONYMITY_VOTER_LIMIT))
    alts = _alternatives(m)
    all_rankings(alts)  # budgeted before `_Edits` reads them
    to_first = _tables_to_first(alts) if reduced else None
    checked = 0
    for n in range(lo, n_max + 1):
        for indices in _ballot_indices(m, n, up_to_anonymity):
            checked += 1
            if to_first is not None and not _least_in_orbit(indices, to_first):
                continue
            witness = spec.check(_Edits(rule, None, alts, indices))
            if witness is not None:
                return AxiomReport(axiom_name, rule.name, Verdict.Violated, witness, checked)
    return AxiomReport(axiom_name, rule.name, Verdict.Holds, None, checked)
