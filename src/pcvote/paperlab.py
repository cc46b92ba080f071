"""Bundled example profiles with machine-checked facts.

Each fixture couples a profile (shipped as a text data file) with named
lotteries and a list of recorded facts. The whole catalog is one table,
`_CATALOG`: per fixture, its lotteries as specs ("a:3/5,b:1/5,c:1/5"),
its facts and a note. A fact is a description plus a check; the small
constructors below (`margin`, `condorcet`, `dominates`, ...) build one per
kind. Nothing in this module computes social-choice quantities itself:
every fact replays through the core modules when checked, so the suite
doubles as an end-to-end regression net over the whole package.

`verify_paper_suite` runs every fact of every fixture. Two negative
controls deliberately break one core computation each (the sign of the
PC score; the canonical maximal-lottery tie-break) to demonstrate the
suite actually fails when the computations are wrong — a green suite
with inverted internals would be worthless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Mapping, Optional

from . import axioms, efficiency, extensions, rules
from .extensions import ComparisonOutcome, Extension
from .efficiency import EfficiencyNotion, PathTermination
from .model import DomainError, Lottery, Profile, relabel, remove_voter
from .model import (
    condorcet_winner,
    majority_margin,
    never_bottom_set,
    pareto_dominated_set,
    top_count,
    weak_condorcet_winners,
)
from .profilefmt import parse_lottery, parse_profile

DATA_VERSION = "v1"


@dataclass(frozen=True)
class Bench:
    """The swappable function surface fixture facts run through.

    The default bench delegates to the core modules unchanged; negative
    controls replace exactly one entry. `swap_pc_lotteries` makes PC and
    PC1 compare the two lotteries the wrong way round, which flips the
    sign of every PC score."""

    swap_pc_lotteries: bool = False
    ml_fn: Callable[[Profile], Lottery] = rules.ml

    def comparator(self, extension: Extension) -> extensions.Comparator:
        compare_fn = extensions.comparator(extension)
        if self.swap_pc_lotteries and extension is not Extension.SD:
            return lambda ranking, p, q: compare_fn(ranking, q, p)
        return compare_fn

    def rule(self, name: str) -> rules.SocialDecisionScheme:
        sds = rules.get_rule(name)
        if name == "ml" and self.ml_fn is not rules.ml:
            return replace(sds, evaluate=self.ml_fn)
        return sds

    def dominates(self, profile: Profile, extension: Extension, q: Lottery, p: Lottery) -> bool:
        return extensions.dominates_under(profile, self.comparator(extension), q, p)


DEFAULT_BENCH = Bench()


def _ml_with_broken_tiebreak(profile: Profile) -> Lottery:
    """Deliberately wrong canonicalization: uniform over the support of the
    true canonical output instead of the leximin point."""
    true = rules.ml(profile)
    return Lottery.uniform(profile.alternatives, over=true.support())


NEGATIVE_CONTROLS: dict[str, Bench] = {
    "pc-sign-flip": Bench(swap_pc_lotteries=True),
    "ml-tie-break": Bench(ml_fn=_ml_with_broken_tiebreak),
}


@dataclass(frozen=True)
class FactResult:
    fixture: str
    fact: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[FactResult, ...]
    negative_control: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[FactResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def render(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            suffix = f" ({r.detail})" if (r.detail and not r.passed) else ""
            lines.append(f"[{status}] {r.fixture}: {r.fact}{suffix}")
        lines.append(
            f"{sum(r.passed for r in self.results)}/{len(self.results)} facts pass"
            + (f" under negative control {self.negative_control!r}" if self.negative_control else "")
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class Fixture:
    name: str
    profile: Profile
    lotteries: Mapping[str, Lottery]
    facts: tuple["Fact", ...]
    notes: str = ""

    def lottery(self, key: str) -> Lottery:
        try:
            return self.lotteries[key]
        except KeyError:
            raise DomainError(
                f"fixture {self.name!r} has no lottery {key!r}; "
                f"available: {', '.join(sorted(self.lotteries))}"
            ) from None


@dataclass(frozen=True)
class Fact:
    """One recomputable assertion about a fixture: what it says, and a
    check that recomputes it, returning (passed, detail)."""

    text: str
    holds: Callable[[Fixture, Bench], tuple[bool, str]]

    def check(self, fixture: Fixture, bench: Bench) -> FactResult:
        passed, detail = self.holds(fixture, bench)
        return FactResult(fixture.name, self.text, passed, detail)


# ---------------------------------------------------------------------------
# fact kinds
# ---------------------------------------------------------------------------

def _names(xs) -> str:
    return "{" + ", ".join(sorted(xs)) + "}"


def _verdict(efficient: bool) -> str:
    return "efficient" if efficient else "inefficient"


def _equals(text: str, compute: Callable[[Fixture], object], expected: object, show=str) -> Fact:
    """A fact that a value computed from the fixture equals `expected`."""

    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        actual = compute(fx)
        return actual == expected, f"got {show(actual)}"

    return Fact(text, holds)


def top_counts(**expected: int) -> Fact:
    text = "top counts " + ", ".join(f"{x}:{k}" for x, k in expected.items())
    return _equals(text, lambda fx: {x: top_count(fx.profile, x) for x in expected}, expected)


def margin(x: str, y: str, k: int) -> Fact:
    text = f"majority margin ({x} over {y}) = {k}"
    return _equals(text, lambda fx: majority_margin(fx.profile, x, y), k)


def condorcet(winner: Optional[str]) -> Fact:
    text = f"condorcet winner = {winner or 'none'}"
    return _equals(text, lambda fx: condorcet_winner(fx.profile), winner, lambda w: w or "none")


def weak_condorcet(*xs: str) -> Fact:
    text = f"weak condorcet winners = {_names(xs)}"
    return _equals(text, lambda fx: weak_condorcet_winners(fx.profile), frozenset(xs), _names)


def never_bottom(*xs: str) -> Fact:
    text = f"never-bottom set = {_names(xs)}"
    return _equals(text, lambda fx: never_bottom_set(fx.profile), frozenset(xs), _names)


def pareto_dominated(*xs: str) -> Fact:
    text = f"pareto-dominated set = {_names(xs)}"
    return _equals(text, lambda fx: pareto_dominated_set(fx.profile), frozenset(xs), _names)


def support(key: str, *xs: str) -> Fact:
    text = f"support({key}) = {_names(xs)}"
    return _equals(text, lambda fx: fx.lottery(key).support(), frozenset(xs), _names)


def maximal(key: str, expected: bool = True) -> Fact:
    text = f"{key!r} is {'a' if expected else 'not a'} maximal lottery"
    return _equals(text, lambda fx: rules.is_maximal_lottery(fx.profile, fx.lottery(key)), expected)


def efficient(notion: EfficiencyNotion, key: str, expected: bool) -> Fact:
    text = f"{key!r} is {notion.value}-{_verdict(expected)}"
    return _equals(
        text, lambda fx: efficiency.is_efficient(fx.profile, fx.lottery(key), notion), expected, _verdict
    )


def rule_output(rule: str, key: str) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        actual = bench.rule(rule)(fx.profile)
        return actual == fx.lottery(key), f"got {dict(actual.as_map())}"

    return Fact(f"{rule} returns lottery {key!r}", holds)


def violates(rule: str, level: axioms.Decisiveness) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        witness = axioms.check_decisiveness(bench.rule(rule), fx.profile, level)
        return witness is not None, "no violation found" if witness is None else ""

    return Fact(f"{rule} violates {level.value} here", holds)


def dominates(extension: Extension, q: str, p: str) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        ok = bench.dominates(fx.profile, extension, fx.lottery(q), fx.lottery(p))
        return ok, "" if ok else "dominance did not hold"

    return Fact(f"{q!r} {extension.value}-dominates {p!r}", holds)


def pc1_dominator(key: str, expected: str) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        cert = efficiency.pc1_find_dominator(fx.profile, fx.lottery(key))
        if cert is None:
            return False, "no dominator found"
        return cert.dominator == fx.lottery(expected), f"got {dict(cert.dominator.as_map())}"

    return Fact(f"pc1 dominator search on {key!r} returns {expected!r}", holds)


def manipulates(
    rule: str, voter: int, misreport: str, extension: Extension, mode: axioms.Mode
) -> Fact:
    """`voter`'s first profitable misreport is `misreport` ("c > a > b")."""

    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        witness = axioms.find_manipulation(
            bench.rule(rule), fx.profile, extension, mode, voters=(voter,)
        )
        if witness is None:
            return False, "no manipulation found"
        found = " > ".join(witness.misreport.order)
        if found != misreport:
            return False, f"found misreport {found}"
        # re-validate the gain through the bench comparator
        gain = bench.comparator(extension)(
            fx.profile.ballot(voter), witness.manipulated_outcome, witness.truthful_outcome
        )
        if gain is not ComparisonOutcome.StrictlyPreferred:
            return False, f"witness does not re-validate (comparison: {gain.value})"
        return True, ""

    text = f"voter {voter} manipulates {rule} by reporting {misreport} ({mode.value} {extension.value})"
    return Fact(text, holds)


def symmetric(**moves: str) -> Fact:
    """Relabeling alternatives by `moves` (the rest stay) maps the profile
    onto itself as a multiset of ballots."""

    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        mapping = {x: moves.get(x, x) for x in fx.profile.alternatives}
        relabeled = relabel(fx.profile, alt_perm=mapping)
        same = sorted(b.order for b in relabeled.ballots) == sorted(
            b.order for b in fx.profile.ballots
        )
        return same, "" if same else "relabeled profile is a different multiset of ballots"

    moved = ", ".join(f"{a}->{b}" for a, b in sorted(moves.items()) if a != b)
    return Fact(f"relabeling {{{moved}}} maps the profile onto itself", holds)


def removing_voter_yields(voter: int, other: str) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        same = remove_voter(fx.profile, voter) == fixture_profile(other)
        return same, "" if same else "profiles differ"

    return Fact(f"removing voter {voter} yields fixture {other!r}", holds)


def improvement_path_avoids(start: str, max_steps: int, forbidden: PathTermination) -> Fact:
    def holds(fx: Fixture, bench: Bench) -> tuple[bool, str]:
        path = efficiency.improvement_path(fx.profile, fx.lottery(start), max_steps)
        return path.termination is not forbidden, f"terminated with {path.termination.value}"

    text = (
        f"improvement path from {start!r} never terminates with "
        f"{forbidden.value} within {max_steps} steps"
    )
    return Fact(text, holds)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

# cw_gallery fixture -> (its Condorcet winner, the facts after that one)
_CW_GALLERY: dict[str, tuple[Optional[str], tuple[Fact, ...]]] = {
    "cw_gallery_R1": (None, (rule_output("condorcet-uniform", "uniform"),)),
    "cw_gallery_R2": ("b", (rule_output("condorcet-uniform", "deg_b"),)),
    "cw_gallery_R3": ("a", ()),
    "cw_gallery_R4": ("d", ()),
    "cw_gallery_R5": (None, ()),
    "cw_gallery_R6": ("b", ()),
    "cw_gallery_R7": ("a", ()),
    "cw_gallery_R8": ("c", ()),
}

# fixture -> (lottery specs, facts, notes); its profile is data/fixtures/<version>/<name>.profile
_CATALOG: dict[str, tuple[dict[str, str], tuple[Fact, ...], str]] = {
    "rd_example": (
        {"rd": "a:3/5,b:1/5,c:1/5", "deg_a": "a:1"},
        (
            top_counts(a=3, b=1, c=1), margin("a", "b", 3), never_bottom("a"),
            rule_output("rd", "rd"), rule_output("f2", "deg_a"),
            violates("rd", axioms.Decisiveness.AbsoluteWinner),
            pc1_dominator("rd", "deg_a"),
            efficient(EfficiencyNotion.SD, "rd", True),
            efficient(EfficiencyNotion.PC, "rd", False),
            efficient(EfficiencyNotion.PC1, "rd", False),
        ),
        "A strict majority tops a, yet random dictatorship still spreads "
        "probability: SD-efficient but PC- and PC1-inefficient.",
    ),
    "ml_manipulation_R": (
        {"ml": "a:3/5,b:1/5,c:1/5", "uniform": "a:1/3,b:1/3,c:1/3"},
        (
            margin("a", "b", 1), margin("b", "c", 3), margin("c", "a", 1), condorcet(None),
            rule_output("ml", "ml"), maximal("ml", True), maximal("uniform", False),
            manipulates("ml", 4, "c > a > b", Extension.PC, axioms.Mode.Weak),
        ),
        "Cyclic margins with a unique optimal strategy; voter 4's swap to "
        "c > a > b produces ml_manipulation_Rprime and a strict PC gain.",
    ),
    "ml_manipulation_Rprime": (
        {"ml": "a:1/5,b:1/5,c:3/5"},
        (
            margin("a", "b", 3), margin("b", "c", 1), margin("c", "a", 1),
            rule_output("ml", "ml"), maximal("ml", True),
        ),
        "The post-deviation electorate of ml_manipulation_R.",
    ),
    **{
        name: (
            {"uniform": "a:1/4,b:1/4,c:1/4,d:1/4", **({f"deg_{w}": f"{w}:1"} if w else {})},
            (condorcet(w), *more),
            "Single-ballot edits of one five-voter electorate make Condorcet "
            "winners appear and move around.",
        )
        for name, (w, more) in _CW_GALLERY.items()
    },
    "pareto_join_R1": (
        {"deg_a": "a:1", "uniform_abcd": "a:1/4,b:1/4,c:1/4,d:1/4", "uniform_bcd": "b:1/3,c:1/3,d:1/3"},
        (
            top_counts(a=6, b=2, c=2, d=0), pareto_dominated("d"),
            dominates(Extension.PC1, "deg_a", "uniform_abcd"),
            pc1_dominator("uniform_abcd", "deg_a"),
            efficient(EfficiencyNotion.ExPost, "uniform_abcd", False),
            symmetric(b="c", c="b"),
        ),
        "d is Pareto-dominated by a; the b/c relabeling maps the electorate onto itself.",
    ),
    "pareto_join_R2": (
        {},
        (top_counts(a=6, b=2, c=2, d=1), removing_voter_yields(11, "pareto_join_R1"), pareto_dominated()),
        "One more voter who tops d; with them, nothing is Pareto-dominated any more.",
    ),
    "pareto_join_R3": (
        {"deg_a": "a:1", "uniform_bcd": "b:1/3,c:1/3,d:1/3"},
        (
            removing_voter_yields(12, "pareto_join_R2"),
            dominates(Extension.PC1, "deg_a", "uniform_bcd"),
            pc1_dominator("uniform_bcd", "deg_a"),
            symmetric(b="c", c="b"), symmetric(c="d", d="c"), symmetric(b="d", d="b"),
            symmetric(b="c", c="d", d="b"), symmetric(b="d", c="b", d="c"),
        ),
        "Twelve voters; every permutation of {b, c, d} maps the electorate onto itself.",
    ),
    "improvement_cycle": (
        {"p1": "a:1/2,b:1/2", "p2": "c:1", "p3": "d:1/2,e:1/2"},
        (
            pareto_dominated(), support("p1", "a", "b"),
            dominates(Extension.PC, "p2", "p1"),
            dominates(Extension.PC, "p3", "p2"),
            dominates(Extension.PC, "p1", "p3"),
            efficient(EfficiencyNotion.PC, "p1", False),
            efficient(EfficiencyNotion.PC, "p2", False),
            efficient(EfficiencyNotion.PC, "p3", False),
            improvement_path_avoids("p1", 50, PathTermination.ReachedEfficient),
        ),
        "PC-dominance cycles: p2 beats p1, p3 beats p2, p1 beats p3, and "
        "none of the three is PC-efficient.",
    ),
    "swap_pair_R": (
        {},
        (
            condorcet(None), margin("a", "b", 3), margin("a", "d", 3), margin("b", "c", 1),
            margin("c", "a", 1), margin("c", "d", 1), margin("d", "b", 3),
        ),
        "Five voters, no Condorcet winner; swapping c and d inside voter "
        "3's ballot flips exactly the c/d margin (see swap_pair_Rprime).",
    ),
    "swap_pair_Rprime": (
        {},
        (
            condorcet(None), margin("a", "b", 3), margin("a", "d", 3), margin("b", "c", 1),
            margin("c", "a", 1), margin("d", "c", 1), margin("d", "b", 3),
        ),
        "Twin of swap_pair_R with voter 3's c/d swap applied.",
    ),
    "weak_cw_balanced": (
        {"f1": "a:3/5,b:1/5,c:1/5"},
        (condorcet(None), weak_condorcet("a"), rule_output("f1", "f1")),
        "Smallest member of the balanced cyclic family weak_cw_family(1, 1): "
        "a is unbeaten but not a Condorcet winner.",
    ),
}


def weak_cw_family(n3: int, n5: int) -> Profile:
    """The balanced cyclic family: n3 + n5 voters report a > b > c, n3 report
    b > c > a and n5 report c > a > b. For positive n3, n5 the unique weak
    Condorcet winner is a and there is no Condorcet winner."""
    if n3 < 1 or n5 < 1:
        raise DomainError("weak_cw_family needs n3 >= 1 and n5 >= 1")
    from .model import profile as make_profile

    orders = (
        [("a", "b", "c")] * (n3 + n5)
        + [("b", "c", "a")] * n3
        + [("c", "a", "b")] * n5
    )
    return make_profile(("a", "b", "c"), orders)


def fixture_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


@lru_cache(maxsize=None)
def fixture(name: str) -> Fixture:
    try:
        specs, facts, notes = _CATALOG[name]
    except KeyError:
        raise DomainError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    path = resources.files("pcvote").joinpath(f"data/fixtures/{DATA_VERSION}/{name}.profile")
    profile = parse_profile(path.read_text(encoding="utf-8"))
    lotteries = {key: parse_lottery(spec, profile.alternatives) for key, spec in specs.items()}
    return Fixture(name, profile, lotteries, facts, notes)


def fixture_profile(name: str) -> Profile:
    return fixture(name).profile


def verify_paper_suite(negative_control: Optional[str] = None) -> SuiteReport:
    """Re-verify every recorded fact of every fixture.

    With `negative_control` set to one of the NEGATIVE_CONTROLS keys, one
    core computation is deliberately broken first; a correct suite must
    then report failures."""
    if negative_control is None:
        bench = DEFAULT_BENCH
    else:
        try:
            bench = NEGATIVE_CONTROLS[negative_control]
        except KeyError:
            raise DomainError(
                f"unknown negative control {negative_control!r}; "
                f"available: {', '.join(sorted(NEGATIVE_CONTROLS))}"
            ) from None
    results = []
    for name in fixture_names():
        fx = fixture(name)
        for fact in fx.facts:
            results.append(fact.check(fx, bench))
    return SuiteReport(tuple(results), negative_control)
