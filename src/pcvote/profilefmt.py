"""Plain-text formats for profiles and lotteries.

Profile documents look like:

    # optional full-line comments
    alternatives: a b c
    3: a > b > c
    1: b > a > c

The header names the alternatives (canonical order); each body line is a
multiplicity followed by one strict ranking, best first. A line becomes
one run of the profile without expanding its count, and formatting writes
the profile's maximal runs back, so parse(format(p)) == p.

Lottery specs are compact one-liners like "a:1/2,b:1/2": exact rationals
or integers only (no decimal notation), omitted alternatives get zero,
and the entries must sum to one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .model import AlternativeSet, Lottery, Profile, Ranking, alternative_set


class ParseError(ValueError):
    """A malformed profile document or lottery spec."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_LABEL_RE = re.compile(r"^[^\s:>,#]+$")
_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def _check_label(label: str, line: int | None) -> str:
    if not _LABEL_RE.match(label):
        raise ParseError(f"invalid alternative label {label!r}", line)
    return label


def parse_profile(text: str) -> Profile:
    """Parse a profile document; raises ParseError with a line number.
    Lines with equal orders share one `Ranking`, built on the first, so
    its cached statistics are computed once per distinct ballot."""
    alternatives: AlternativeSet | None = None
    runs: list[tuple[Ranking, int]] = []
    # this document's own, so it holds no more entries than the document has lines
    rankings: dict[tuple[str, ...], Ranking] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if alternatives is None:
            if not line.startswith("alternatives:"):
                raise ParseError(
                    "expected the header 'alternatives: <labels>' before any ballots", lineno
                )
            labels = line[len("alternatives:"):].split()
            if not labels:
                raise ParseError("the alternatives header names no alternatives", lineno)
            for label in labels:
                _check_label(label, lineno)
            if len(set(labels)) != len(labels):
                dupes = sorted({x for x in labels if labels.count(x) > 1})
                raise ParseError(f"duplicate alternative label(s): {', '.join(dupes)}", lineno)
            alternatives = AlternativeSet(tuple(labels))
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("expected '<count>: <ranking>'", lineno)
        try:
            count = int(head.strip())
        except ValueError:
            raise ParseError(f"invalid ballot multiplicity {head.strip()!r}", lineno) from None
        if count < 1:
            raise ParseError(f"ballot multiplicity must be positive, got {count}", lineno)
        order = tuple(part.strip() for part in tail.split(">"))
        ballot = rankings.get(order)
        if ballot is None:  # an order seen before passed these checks on its first line
            if any(not part for part in order):
                raise ParseError("empty entry in ranking", lineno)
            seen = set()
            for x in order:
                if x not in alternatives:
                    raise ParseError(
                        f"unknown alternative {x!r}; declared: {' '.join(alternatives.names)}", lineno
                    )
                if x in seen:
                    raise ParseError(f"ranking repeats alternative {x!r}", lineno)
                seen.add(x)
            if len(order) != len(alternatives):
                missing = [x for x in alternatives.names if x not in seen]
                raise ParseError(f"ranking does not mention: {', '.join(missing)}", lineno)
            ballot = rankings[order] = Ranking(alternatives, order)
        runs.append((ballot, count))
    if alternatives is None:
        raise ParseError("empty document: no alternatives header found")
    if not runs:
        raise ParseError("profile has no ballots")
    return Profile(alternatives, tuple(runs))


def format_profile(profile: Profile) -> str:
    """Canonical text form: one line per maximal run of identical ballots,
    so the voter order round-trips exactly."""
    lines = [f"alternatives: {' '.join(profile.alternatives.names)}"]
    for ballot, count in profile.runs:
        lines.append(f"{count}: {' > '.join(ballot.order)}")
    return "\n".join(lines) + "\n"


def parse_lottery(text: str, alternatives: AlternativeSet | Iterable[str]) -> Lottery:
    """Parse a lottery spec like "a:1/2,b:1/2" against known alternatives."""
    alts = alternative_set(alternatives)
    entries: dict[str, Fraction] = {}
    if not text.strip():
        raise ParseError("empty lottery spec")
    for chunk in text.split(","):
        part = chunk.strip()
        if not part:
            raise ParseError(f"empty entry in lottery spec {text!r}")
        name, sep, value = part.partition(":")
        name = name.strip()
        value = value.strip()
        if not sep or not value:
            raise ParseError(f"expected '<alternative>:<probability>', got {part!r}")
        if name not in alts:
            raise ParseError(
                f"unknown alternative {name!r}; expected one of: {', '.join(alts.names)}"
            )
        if name in entries:
            raise ParseError(f"alternative {name!r} appears twice in lottery spec")
        if not _RATIONAL_RE.match(value):
            raise ParseError(
                f"invalid probability {value!r} for {name!r}: use an exact "
                "non-negative rational like 2/3 or 1 (decimals are not accepted)"
            )
        try:
            entries[name] = Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"invalid probability {value!r} for {name!r}: zero denominator") from None
        except ValueError:  # more digits than int() converts
            raise ParseError(f"invalid probability for {name!r}: too many digits") from None
    total = sum(entries.values(), Fraction(0))
    if total != 1:
        raise ParseError(f"lottery probabilities sum to {total}, expected 1")
    return Lottery.from_map(alts, entries)


def format_lottery(lottery: Lottery) -> str:
    """Compact spec listing the support in canonical alternative order."""
    parts = [
        f"{x}:{p}" for x, p in zip(lottery.alternatives, lottery.probs) if p > 0
    ]
    return ",".join(parts)
