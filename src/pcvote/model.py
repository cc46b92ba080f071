"""Core domain types for ordinal voting: alternatives, strict rankings,
preference profiles, lotteries, and the majority statistics derived from
them.

A profile is stored as maximal runs of identical consecutive ballots, so
its size grows with the number of runs, not with the number of voters.
Margins and top counts are computed once per profile, from the runs.

Everything here is exact: probabilities are `fractions.Fraction`, margins
are integers, and no operation ever rounds. The construction order of an
alternative set is canonical — it drives deterministic iteration and the
order in which lotteries print.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations, repeat
from operator import attrgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class UnknownAlternativeError(DomainError):
    """A label does not belong to the alternative set in play."""


class ApplicabilityError(DomainError):
    """A rule or check was asked about a profile it is not defined for."""


class InternalError(RuntimeError):
    """A library invariant failed: a defect in pcvote, not in its input.

    Raised explicitly, so the guard survives `python -O`."""


def _require_exact(value: object, what: str) -> Fraction:
    """Coerce ints/Fractions to Fraction; floats are refused outright."""
    if isinstance(value, float):
        raise DomainError(f"{what} must be an exact rational, got float {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"{what} must be an int or Fraction, got {type(value).__name__}")


def _scaled(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """`values` times the lcm of their denominators, as ints, and that lcm.
    An int's denominator is 1, so all-int values come back as they are."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class AlternativeSet:
    """An ordered set of distinct alternative labels. It keeps, each built on
    first use and budgeted by `axioms`, its rankings, their relabelling
    tables and each tally's tables."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise DomainError("an alternative set needs at least one alternative")
        for name in names:
            if not isinstance(name, str) or not name:
                raise DomainError(f"alternative labels must be non-empty strings, got {name!r}")
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate alternative labels in {names!r}")

    @cached_property
    def _indices(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))

    @cached_property
    def _rankings(self) -> tuple["Ranking", ...]:
        """Every strict ranking, in lexicographic order of label tuples;
        built once per set (see `axioms.all_rankings`, which budgets it)."""
        return tuple(Ranking(self, perm) for perm in sorted(permutations(self.names)))

    @cached_property
    def _ranking_index(self) -> dict[tuple[str, ...], int]:
        return {r.order: k for k, r in enumerate(self._rankings)}

    @cached_property
    def _degenerate(self) -> dict[int, "Lottery"]:
        """The degenerate lottery on each alternative asked for so far, by
        index: filled one entry at a time by `Lottery.degenerate`."""
        return {}

    @cached_property
    def _uniform(self) -> "Lottery":
        """The uniform lottery over the whole set, built on the first
        request by `Lottery.uniform`."""
        share = Fraction(1, len(self.names))
        return Lottery(self, (share,) * len(self.names))

    @cached_property
    def _to_first(self) -> tuple[tuple[int, ...], ...]:
        """For each ranking's index in `_rankings`, the index of every
        ranking's image under the one relabelling of the alternatives that
        sends that ranking to index 0: the m! relabelling tables, the
        identity first. Built once per set (see `axioms._tables_to_first`,
        which budgets them)."""
        index, first = self._ranking_index, self._rankings[0].order
        tables = []
        for ranking in self._rankings:
            mapping = dict(zip(ranking.order, first))
            tables.append(tuple(index[tuple(mapping[x] for x in r.order)] for r in self._rankings))
        return tuple(tables)

    @cached_property
    def _tally_tables(self) -> dict["Tally", object]:
        """The tables of each `Tally` asked for so far on this set: its
        rankings' tallies, their classes and its relabellings, one object
        per tally; filled by `axioms._tally_tables`, which budgets them."""
        return {}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self._indices[name]
        except (KeyError, TypeError):
            raise UnknownAlternativeError(
                f"unknown alternative {name!r}; expected one of: {', '.join(self.names)}"
            ) from None


def alternative_set(names: Iterable[str] | AlternativeSet) -> AlternativeSet:
    """Coerce an iterable of labels (or an existing set) to an AlternativeSet."""
    if isinstance(names, AlternativeSet):
        return names
    return AlternativeSet(tuple(names))


@dataclass(frozen=True)
class Ranking:
    """One voter's ballot: a strict total order, best alternative first,
    read by alternative index through `indices` and `positions`."""

    alternatives: AlternativeSet
    order: tuple[str, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        if len(order) != len(set(order)):
            raise DomainError(f"ranking repeats an alternative: {order!r}")
        if set(order) != set(self.alternatives.names):
            missing = set(self.alternatives.names) - set(order)
            extra = set(order) - set(self.alternatives.names)
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if extra:
                parts.append(f"unknown {sorted(extra)}")
            raise DomainError(f"ranking does not cover the alternative set exactly: {'; '.join(parts)}")

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """The alternatives' indices in ballot order, best first."""
        return tuple(map(self.alternatives.index, self.order))

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """The 0-based place of each alternative, in alternative order."""
        return tuple(map(self.order.index, self.alternatives.names))

    @cached_property
    def pair_signs(self) -> tuple[int, ...]:
        """For each pair of alternatives i < j, row by row in alternative
        order: 1 if this ballot puts i above j, else -1. Summed over a
        profile's ballots, it is the upper triangle of the margin matrix."""
        pos = self.positions
        m = len(pos)
        return tuple(1 if pos[i] < pos[j] else -1 for i in range(m - 1) for j in range(i + 1, m))

    @cached_property
    def top_indicator(self) -> tuple[int, ...]:
        """1 for this ballot's top alternative, 0 for the rest, in
        alternative order. Summed over a profile's ballots, the top counts."""
        return tuple(int(p == 0) for p in self.positions)

    @cached_property
    def top_bottom_indicator(self) -> tuple[int, ...]:
        """`top_indicator`, then the same for the bottom alternative."""
        last = len(self.order) - 1
        return self.top_indicator + tuple(int(p == last) for p in self.positions)

    def rank(self, x: str) -> int:
        """1-based position of `x` (1 = best)."""
        return self.positions[self.alternatives.index(x)] + 1

    def prefers(self, x: str, y: str) -> bool:
        """True iff the voter strictly prefers `x` to `y`."""
        index = self.alternatives.index
        return self.positions[index(x)] < self.positions[index(y)]

    @property
    def top(self) -> str:
        return self.order[0]

    @property
    def bottom(self) -> str:
        return self.order[-1]

    def reversed(self) -> "Ranking":
        return Ranking(self.alternatives, self.order[::-1])

    def relabel(self, alt_perm: Mapping[str, str]) -> "Ranking":
        """Apply an alternative permutation elementwise to the order."""
        _check_alt_perm(self.alternatives, alt_perm)
        return Ranking(self.alternatives, tuple(alt_perm[x] for x in self.order))

    def above(self, x: str) -> tuple[str, ...]:
        """Alternatives strictly preferred to `x`, best first."""
        return self.order[: self.rank(x) - 1]

    def below(self, x: str) -> tuple[str, ...]:
        """Alternatives strictly worse than `x`, in ranking order."""
        return self.order[self.rank(x):]


def ranking(alternatives: Iterable[str] | AlternativeSet, order: Iterable[str]) -> Ranking:
    return Ranking(alternative_set(alternatives), tuple(order))


Run = tuple[Ranking, int]


@dataclass(frozen=True)
class Profile:
    """A preference profile: one strict ranking per voter, voters 1-based.

    The voters are stored in order as runs `(ranking, count)` of identical
    consecutive ballots. Adjacent runs of one ranking are merged at
    construction, so two profiles are equal (and hash equal) exactly when
    their voter sequences are, however the runs were split.
    """

    alternatives: AlternativeSet
    runs: tuple[Run, ...]
    _ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alts = self.alternatives
        runs: list[Run] = []
        ends: list[int] = []
        for ballot, count in self.runs:
            if ballot.alternatives is not alts and ballot.alternatives != alts:
                raise DomainError("all ballots must range over the profile's alternative set")
            if type(count) is not int or count < 1:
                raise DomainError(f"a run needs a positive integer count, got {count!r}")
            if runs and runs[-1][0] == ballot:
                runs[-1] = (ballot, runs[-1][1] + count)
                ends[-1] += count
            else:
                runs.append((ballot, count))
                ends.append(ends[-1] + count if ends else count)
        if not runs:
            raise DomainError("a profile needs at least one voter")
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "_ends", tuple(ends))

    @classmethod
    def from_ballots(
        cls, alternatives: AlternativeSet, ballots: Iterable[Ranking]
    ) -> "Profile":
        """The profile in which voter `i` casts `ballots[i-1]`."""
        return cls(alternatives, tuple((b, 1) for b in ballots))

    @property
    def n(self) -> int:
        """Number of voters."""
        return self._ends[-1]

    @property
    def m(self) -> int:
        """Number of alternatives."""
        return len(self.alternatives)

    @property
    def ballots(self) -> tuple[Ranking, ...]:
        """Per-voter view, voter `i` at index `i-1`; O(n), for small profiles."""
        return tuple(chain.from_iterable(repeat(b, count) for b, count in self.runs))

    def ballot(self, i: int) -> Ranking:
        """Ballot of voter `i` (1-based)."""
        self._check_voter(i)
        return self.runs[bisect_left(self._ends, i)][0]

    def replace_ballot(self, i: int, new_ballot: Ranking) -> "Profile":
        self._check_voter(i)
        if new_ballot.alternatives != self.alternatives:
            raise DomainError("replacement ballot must range over the same alternatives")
        return self._splice(i, ((new_ballot, 1),))

    def append(self, *rankings: Ranking) -> "Profile":
        for r in rankings:
            if r.alternatives != self.alternatives:
                raise DomainError("appended ballots must range over the same alternatives")
        return Profile(self.alternatives, self.runs + tuple((r, 1) for r in rankings))

    def _splice(self, i: int, middle: tuple[Run, ...]) -> "Profile":
        """The profile with voter `i`'s ballot replaced by the runs `middle`."""
        k = bisect_left(self._ends, i)
        ballot, count = self.runs[k]
        after = self._ends[k] - i
        before = count - 1 - after
        head = self.runs[:k] + (((ballot, before),) if before else ())
        tail = (((ballot, after),) if after else ()) + self.runs[k + 1:]
        return Profile(self.alternatives, head + middle + tail)

    def _check_voter(self, i: int) -> None:
        if type(i) is not int or not 1 <= i <= self.n:  # a bool is no voter index
            raise DomainError(f"voter index {i!r} out of range 1..{self.n}")

    @cached_property
    def _margins(self) -> "MarginMatrix":
        """The margin matrix: `margin_tally` of the runs, in O(runs * m^2),
        and its negation below the diagonal."""
        m = self.m
        rows = [[0] * m for _ in range(m)]
        upper = iter(margin_tally(self))
        for i in range(m - 1):
            for j in range(i + 1, m):
                rows[i][j] = g = next(upper)
                rows[j][i] = -g
        return MarginMatrix(self.alternatives, tuple(map(tuple, rows)))

    @cached_property
    def _ranking_totals(self) -> tuple[tuple["Ranking", int], ...]:
        """Each distinct ranking with its voter count, in `all_rankings`
        order (sorted label tuples)."""
        totals: dict[Ranking, int] = {}
        for ballot, count in self.runs:
            totals[ballot] = totals.get(ballot, 0) + count
        return tuple(sorted(totals.items(), key=lambda item: item[0].order))

    @cached_property
    def _top_counts(self) -> tuple[int, ...]:
        """First places per alternative, in alternative order."""
        return top_tally(self)


def profile(alternatives: Iterable[str] | AlternativeSet, orders: Iterable[Iterable[str]]) -> Profile:
    """Build a profile from raw order tuples (convenience constructor)."""
    alts = alternative_set(alternatives)
    return Profile.from_ballots(alts, (Ranking(alts, tuple(o)) for o in orders))


@dataclass(frozen=True)
class Lottery:
    """A probability distribution over alternatives, exact rationals only.

    It is validated once, in ints: the probabilities times the lcm of their
    denominators must be >= 0 and sum to that lcm. Those ints and the lcm
    are kept as `_mass`, which the comparisons read."""

    alternatives: AlternativeSet
    probs: tuple[Fraction, ...]
    _mass: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = tuple(_require_exact(p, "probability") for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.alternatives):
            raise DomainError(
                f"lottery has {len(probs)} entries for {len(self.alternatives)} alternatives"
            )
        mass, den = _scaled(probs)
        if min(mass) < 0:
            raise DomainError(f"negative probability {next(p for p in probs if p < 0)}")
        if sum(mass) != den:
            raise DomainError(f"probabilities sum to {sum(probs, Fraction(0))}, expected 1")
        object.__setattr__(self, "_mass", (tuple(mass), den))

    @classmethod
    def from_map(
        cls, alternatives: Iterable[str] | AlternativeSet, mapping: Mapping[str, object]
    ) -> "Lottery":
        """Build from a {label: probability} map; omitted labels get 0."""
        alts = alternative_set(alternatives)
        for key in mapping:
            alts.index(key)  # raises UnknownAlternativeError for a foreign label
        probs = tuple(_require_exact(mapping.get(x, 0), f"probability of {x!r}") for x in alts)
        return cls(alts, probs)

    @classmethod
    def degenerate(cls, alternatives: Iterable[str] | AlternativeSet, x: str) -> "Lottery":
        """Probability one on `x`: one object per alternative set and `x`,
        built on the first request."""
        alts = alternative_set(alternatives)
        i = alts.index(x)  # raises UnknownAlternativeError for a foreign label
        found = alts._degenerate.get(i)
        if found is None:
            probs = tuple(Fraction(int(j == i)) for j in range(len(alts)))
            found = alts._degenerate[i] = cls(alts, probs)
        return found

    @classmethod
    def uniform(
        cls, alternatives: Iterable[str] | AlternativeSet, over: Optional[Iterable[str]] = None
    ) -> "Lottery":
        """Uniform over the whole set, one object per alternative set, or
        over a non-empty subset."""
        alts = alternative_set(alternatives)
        if over is None:
            return alts._uniform
        chosen = set(over)
        if not chosen:
            raise DomainError("uniform lottery needs a non-empty carrier")
        for x in chosen:
            alts.index(x)  # raises UnknownAlternativeError for a foreign label
        share = Fraction(1, len(chosen))
        return cls(alts, tuple(share if x in chosen else Fraction(0) for x in alts))

    def prob(self, x: str) -> Fraction:
        return self.probs[self.alternatives.index(x)]

    def support(self) -> frozenset[str]:
        return frozenset(x for x, p in zip(self.alternatives, self.probs) if p > 0)

    def is_degenerate(self) -> bool:
        return any(p == 1 for p in self.probs)

    def as_map(self) -> dict[str, Fraction]:
        return {x: p for x, p in zip(self.alternatives, self.probs)}

    def relabel(self, alt_perm: Mapping[str, str]) -> "Lottery":
        """Push the lottery forward through an alternative permutation."""
        _check_alt_perm(self.alternatives, alt_perm)
        out = {alt_perm[x]: p for x, p in zip(self.alternatives, self.probs)}
        return Lottery(self.alternatives, tuple(out[x] for x in self.alternatives))


@dataclass(frozen=True)
class MarginMatrix:
    """All pairwise majority margins of a profile, by alternative index;
    skew-symmetric by construction, so the diagonal is 0."""

    alternatives: AlternativeSet
    rows: tuple[tuple[int, ...], ...]

    def margin(self, x: str, y: str) -> int:
        return self.rows[self.alternatives.index(x)][self.alternatives.index(y)]

    def times(self, mass: Sequence[int]) -> tuple[int, ...]:
        """G · mass, in ints. On a lottery's mass over its denominator
        (`Lottery._mass`), entry x is how far x beats the lottery in
        expectation, times that denominator: Σ_r n_r `pc_form(b_r, p)`."""
        return tuple(sum(map(mul, row, mass)) for row in self.rows)

    def condorcet_index(self) -> Optional[int]:
        """The Condorcet winner's index, the row positive off the diagonal, if any."""
        for i, row in enumerate(self.rows):
            # off the 0 diagonal every entry is positive: 0 is the minimum, once
            if min(row) == 0 and row.count(0) == 1:
                return i
        return None


# ---------------------------------------------------------------------------
# profile statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Tally:
    """A statistic of the ballot multiset that is a sum over ballots: each
    ranking contributes the int vector `of(ranking)`, and a profile's value
    is the count-weighted sum of its runs' vectors. It hashes by identity.

    Putting a ballot in or taking one out moves the value by that ballot's
    vector, so the value of a profile with one ballot swapped is its
    parent's minus the true ballot's vector plus the new one's. Fishburn's
    C2 class (rules reading only the margins) is a function of
    `margin_tally`, and random dictatorship of `top_tally`.
    """

    of: Callable[[Ranking], tuple[int, ...]]

    def __call__(self, p: Profile) -> tuple[int, ...]:
        vectors = [
            self.of(ballot) if count == 1 else [count * v for v in self.of(ballot)]
            for ballot, count in p.runs
        ]
        return tuple(map(sum, zip(*vectors)))


# the upper triangle of the margin matrix, row by row
margin_tally = Tally(attrgetter("pair_signs"))
# the top counts
top_tally = Tally(attrgetter("top_indicator"))
# the top counts, then the bottom counts: an alternative is never ranked
# last when its bottom count is 0
top_bottom_tally = Tally(attrgetter("top_bottom_indicator"))


def majority_margin(p: Profile, x: str, y: str) -> int:
    """#voters preferring x to y minus #voters preferring y to x."""
    return p._margins.rows[p.alternatives.index(x)][p.alternatives.index(y)]


def margin_matrix(p: Profile) -> MarginMatrix:
    """All pairwise majority margins; computed once per profile."""
    return p._margins


def top_count(p: Profile, x: str) -> int:
    """How many voters rank `x` first."""
    return p._top_counts[p.alternatives.index(x)]


def top_counts(p: Profile) -> tuple[int, ...]:
    """First places per alternative, in alternative order; computed once per profile."""
    return p._top_counts


def condorcet_winner(p: Profile) -> Optional[str]:
    """The alternative beating every other by a strictly positive margin, if any."""
    i = margin_matrix(p).condorcet_index()
    return None if i is None else p.alternatives.names[i]


def weak_condorcet_winners(p: Profile) -> frozenset[str]:
    """Alternatives never beaten: a margin row >= 0, as the diagonal is 0."""
    return frozenset(x for x, row in zip(p.alternatives, margin_matrix(p).rows) if min(row) >= 0)


def absolute_winner(p: Profile) -> Optional[str]:
    """The alternative top-ranked by a strict majority of voters, if any."""
    return next((x for x, count in zip(p.alternatives, top_counts(p)) if 2 * count > p.n), None)


def pareto_dominated_set(p: Profile) -> frozenset[str]:
    """Alternatives unanimously beaten by some single other alternative,
    that is, beaten by a margin of n."""
    rows = p._margins.rows
    return frozenset(
        y for j, y in enumerate(p.alternatives)
        if any(row[j] == p.n for i, row in enumerate(rows) if i != j)
    )


def never_bottom_set(p: Profile) -> frozenset[str]:
    """Alternatives that no voter ranks last."""
    bottoms = {b.bottom for b, _ in p.runs}
    return frozenset(set(p.alternatives.names) - bottoms)


def remove_voter(p: Profile, i: int) -> Profile:
    """Profile without voter `i` (1-based); needs at least two voters."""
    if p.n < 2:
        raise DomainError("cannot remove the only voter of a profile")
    p._check_voter(i)
    return p._splice(i, ())


def _check_alt_perm(alts: AlternativeSet, alt_perm: Mapping[str, str]) -> None:
    names = set(alts.names)
    if set(alt_perm.keys()) != names or set(alt_perm.values()) != names:
        raise DomainError(
            f"alternative permutation must be a bijection on {sorted(names)}, got {dict(alt_perm)!r}"
        )


def relabel(
    p: Profile,
    voter_perm: Optional[Sequence[int]] = None,
    alt_perm: Optional[Mapping[str, str]] = None,
) -> Profile:
    """Permute voters and/or alternative labels.

    `voter_perm` is 1-based: ballot `i` of the result is ballot
    `voter_perm[i-1]` of the input. `alt_perm` maps old labels to new
    labels and is applied elementwise inside every ballot.
    """
    if voter_perm is not None:
        if any(type(j) is not int for j in voter_perm) or sorted(voter_perm) != list(range(1, p.n + 1)):
            raise DomainError(
                f"voter permutation must rearrange 1..{p.n}, got {list(voter_perm)!r}"
            )
        ballots = p.ballots
        p = Profile.from_ballots(p.alternatives, (ballots[j - 1] for j in voter_perm))
    if alt_perm is not None:
        _check_alt_perm(p.alternatives, alt_perm)
        p = Profile(p.alternatives, tuple((b.relabel(alt_perm), count) for b, count in p.runs))
    return p
