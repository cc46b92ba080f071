"""Core domain types for ordinal voting: alternatives, strict rankings,
preference profiles, lotteries, and the majority statistics derived from
them.

Everything here is exact: probabilities are `fractions.Fraction`, margins
are integers, and no operation ever rounds. The construction order of an
alternative set is canonical — it drives deterministic iteration and the
order in which lotteries print.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence


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


@dataclass(frozen=True)
class AlternativeSet:
    """An ordered set of distinct alternative labels."""

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

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
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
    """One voter's ballot: a strict total order, best alternative first."""

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

    def rank(self, x: str) -> int:
        """1-based position of `x` (1 = best)."""
        if x not in self.alternatives:
            raise UnknownAlternativeError(
                f"unknown alternative {x!r}; expected one of: {', '.join(self.alternatives.names)}"
            )
        return self.order.index(x) + 1

    def prefers(self, x: str, y: str) -> bool:
        """True iff the voter strictly prefers `x` to `y`."""
        return self.rank(x) < self.rank(y)

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


@dataclass(frozen=True)
class Profile:
    """A preference profile: one strict ranking per voter, voters 1-based."""

    alternatives: AlternativeSet
    ballots: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        ballots = tuple(self.ballots)
        object.__setattr__(self, "ballots", ballots)
        if not ballots:
            raise DomainError("a profile needs at least one voter")
        for b in ballots:
            if b.alternatives != self.alternatives:
                raise DomainError("all ballots must range over the profile's alternative set")

    @property
    def n(self) -> int:
        """Number of voters."""
        return len(self.ballots)

    @property
    def m(self) -> int:
        """Number of alternatives."""
        return len(self.alternatives)

    def ballot(self, i: int) -> Ranking:
        """Ballot of voter `i` (1-based)."""
        self._check_voter(i)
        return self.ballots[i - 1]

    def replace_ballot(self, i: int, new_ballot: Ranking) -> "Profile":
        self._check_voter(i)
        if new_ballot.alternatives != self.alternatives:
            raise DomainError("replacement ballot must range over the same alternatives")
        ballots = list(self.ballots)
        ballots[i - 1] = new_ballot
        return Profile(self.alternatives, tuple(ballots))

    def append(self, *rankings: Ranking) -> "Profile":
        for r in rankings:
            if r.alternatives != self.alternatives:
                raise DomainError("appended ballots must range over the same alternatives")
        return Profile(self.alternatives, self.ballots + tuple(rankings))

    def _check_voter(self, i: int) -> None:
        if not isinstance(i, int) or not 1 <= i <= self.n:
            raise DomainError(f"voter index {i!r} out of range 1..{self.n}")


def profile(alternatives: Iterable[str] | AlternativeSet, orders: Iterable[Iterable[str]]) -> Profile:
    """Build a profile from raw order tuples (convenience constructor)."""
    alts = alternative_set(alternatives)
    return Profile(alts, tuple(Ranking(alts, tuple(o)) for o in orders))


@dataclass(frozen=True)
class Lottery:
    """A probability distribution over alternatives, exact rationals only."""

    alternatives: AlternativeSet
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        probs = tuple(_require_exact(p, "probability") for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.alternatives):
            raise DomainError(
                f"lottery has {len(probs)} entries for {len(self.alternatives)} alternatives"
            )
        for p in probs:
            if p < 0:
                raise DomainError(f"negative probability {p}")
        total = sum(probs, Fraction(0))
        if total != 1:
            raise DomainError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def from_map(
        cls, alternatives: Iterable[str] | AlternativeSet, mapping: Mapping[str, object]
    ) -> "Lottery":
        """Build from a {label: probability} map; omitted labels get 0."""
        alts = alternative_set(alternatives)
        for key in mapping:
            if key not in alts:
                raise UnknownAlternativeError(
                    f"unknown alternative {key!r}; expected one of: {', '.join(alts.names)}"
                )
        probs = tuple(_require_exact(mapping.get(x, 0), f"probability of {x!r}") for x in alts)
        return cls(alts, probs)

    @classmethod
    def degenerate(cls, alternatives: Iterable[str] | AlternativeSet, x: str) -> "Lottery":
        alts = alternative_set(alternatives)
        if x not in alts:
            raise UnknownAlternativeError(
                f"unknown alternative {x!r}; expected one of: {', '.join(alts.names)}"
            )
        return cls(alts, tuple(Fraction(1) if y == x else Fraction(0) for y in alts))

    @classmethod
    def uniform(
        cls, alternatives: Iterable[str] | AlternativeSet, over: Optional[Iterable[str]] = None
    ) -> "Lottery":
        """Uniform over the whole set, or over a non-empty subset."""
        alts = alternative_set(alternatives)
        if over is None:
            chosen = set(alts.names)
        else:
            chosen = set(over)
            if not chosen:
                raise DomainError("uniform lottery needs a non-empty carrier")
            for x in chosen:
                if x not in alts:
                    raise UnknownAlternativeError(
                        f"unknown alternative {x!r}; expected one of: {', '.join(alts.names)}"
                    )
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
    """All pairwise majority margins of a profile; skew-symmetric by construction."""

    alternatives: AlternativeSet
    rows: tuple[tuple[int, ...], ...]

    def margin(self, x: str, y: str) -> int:
        return self.rows[self.alternatives.index(x)][self.alternatives.index(y)]


# ---------------------------------------------------------------------------
# profile statistics
# ---------------------------------------------------------------------------

def majority_margin(p: Profile, x: str, y: str) -> int:
    """#voters preferring x to y minus #voters preferring y to x."""
    ix = p.alternatives.index(x)
    iy = p.alternatives.index(y)
    if ix == iy:
        return 0
    wins = sum(1 for b in p.ballots if b.prefers(x, y))
    return wins - (p.n - wins)


def margin_matrix(p: Profile) -> MarginMatrix:
    names = p.alternatives.names
    rows = tuple(
        tuple(majority_margin(p, x, y) if x != y else 0 for y in names) for x in names
    )
    return MarginMatrix(p.alternatives, rows)


def top_count(p: Profile, x: str) -> int:
    """How many voters rank `x` first."""
    if x not in p.alternatives:
        raise UnknownAlternativeError(
            f"unknown alternative {x!r}; expected one of: {', '.join(p.alternatives.names)}"
        )
    return sum(1 for b in p.ballots if b.top == x)


def condorcet_winner(p: Profile) -> Optional[str]:
    """The alternative beating every other by a strictly positive margin, if any."""
    g = margin_matrix(p)
    for x in p.alternatives:
        if all(g.margin(x, y) > 0 for y in p.alternatives if y != x):
            return x
    return None


def weak_condorcet_winners(p: Profile) -> frozenset[str]:
    """Alternatives never beaten: margin >= 0 against everything else."""
    g = margin_matrix(p)
    return frozenset(
        x for x in p.alternatives
        if all(g.margin(x, y) >= 0 for y in p.alternatives if y != x)
    )


def absolute_winner(p: Profile) -> Optional[str]:
    """The alternative top-ranked by a strict majority of voters, if any."""
    for x in p.alternatives:
        if 2 * top_count(p, x) > p.n:
            return x
    return None


def pareto_dominated_set(p: Profile) -> frozenset[str]:
    """Alternatives unanimously beaten by some single other alternative."""
    out = set()
    for y in p.alternatives:
        for x in p.alternatives:
            if x != y and all(b.prefers(x, y) for b in p.ballots):
                out.add(y)
                break
    return frozenset(out)


def never_bottom_set(p: Profile) -> frozenset[str]:
    """Alternatives that no voter ranks last."""
    bottoms = {b.bottom for b in p.ballots}
    return frozenset(set(p.alternatives.names) - bottoms)


def rank(r: Ranking, x: str) -> int:
    """1-based rank of `x` in `r` (1 = best)."""
    return r.rank(x)


def support(lottery: Lottery) -> frozenset[str]:
    """The set of alternatives a lottery gives positive probability."""
    return lottery.support()


def remove_voter(p: Profile, i: int) -> Profile:
    """Profile without voter `i` (1-based); needs at least two voters."""
    if p.n < 2:
        raise DomainError("cannot remove the only voter of a profile")
    p._check_voter(i)
    return Profile(p.alternatives, p.ballots[: i - 1] + p.ballots[i:])


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
    ballots = list(p.ballots)
    if voter_perm is not None:
        if sorted(voter_perm) != list(range(1, p.n + 1)):
            raise DomainError(
                f"voter permutation must rearrange 1..{p.n}, got {list(voter_perm)!r}"
            )
        ballots = [ballots[j - 1] for j in voter_perm]
    if alt_perm is not None:
        _check_alt_perm(p.alternatives, alt_perm)
        ballots = [b.relabel(alt_perm) for b in ballots]
    return Profile(p.alternatives, tuple(ballots))
