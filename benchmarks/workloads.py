"""The benchmark's workloads: inputs, operations and output checks.

A workload builds one *pass* from a seed: a fixed list of operations.
Each operation is a call into pcvote's public entry points (`cli.main`,
`profilefmt`, `model`, `rules`, `efficiency`, `paperlab`), which is what
gets timed, plus a check of its output, which is not. A check returns
None when the output is right and a description of the fault otherwise.

Every entry point is looked up when the operation runs, not when the pass
is built, so that a traced pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from pcvote import cli, efficiency, extensions, model, paperlab, profilefmt, rules
from pcvote.extensions import ComparisonOutcome, Extension

RECORDED = json.loads((Path(__file__).parent / "expected.json").read_text())


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "main" ops make op_ms.*; "suite" and "control" ops are the fact-suite runs
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Pass:
    ops: tuple[Op, ...]
    profiles_scanned: int  # profiles the pass's axiom scans enumerate, unreduced


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _lottery(alternatives, payload: dict) -> model.Lottery:
    return model.Lottery.from_map(alternatives, {x: Fraction(p) for x, p in payload.items()})


# ---------------------------------------------------------------------------
# axiom scans through the CLI
# ---------------------------------------------------------------------------

def _recheck_manipulation(axiom: str, rule_name: str, w: dict) -> Optional[str]:
    """Re-validate a strong-mode manipulation witness from its JSON form."""
    extension = Extension(axiom.split("-")[0])
    prof = profilefmt.parse_profile(w["profile"])
    voter = w["voter"]
    truthful = _lottery(prof.alternatives, w["truthful_outcome"])
    manipulated = _lottery(prof.alternatives, w["manipulated_outcome"])
    rule = rules.get_rule(rule_name)
    deviated = prof.replace_ballot(voter, model.Ranking(prof.alternatives, tuple(w["misreport"])))
    if rule(prof) != truthful or rule(deviated) != manipulated:
        return "witness outcomes do not recompute"
    outcome = extensions.compare(extension, prof.ballot(voter), truthful, manipulated)
    if outcome in (ComparisonOutcome.StrictlyPreferred, ComparisonOutcome.Indifferent):
        return f"witness does not re-validate: truthful outcome is {outcome.value}"
    return None


def scan_op(axiom: str, rule: str, space: str, anonymous: bool, expect: tuple[int, str, int]) -> Op:
    """`pcvote check --scan`, expecting (exit status, verdict, profiles_checked)."""
    argv = ["check", "--axiom", axiom, "--rule", rule, "--scan", space, "--json"]
    if anonymous:
        argv.append("--anonymous")

    def check(output) -> Optional[str]:
        status, text = output
        result = json.loads(text)["result"]
        got = (status, result["verdict"], result["profiles_checked"])
        if got != expect:
            return f"expected {expect}, got {got}"
        if result["witness"] is not None:
            return _recheck_manipulation(axiom, rule, result["witness"])
        return None

    return Op(" ".join(argv), "main", lambda: call_cli(argv), check)


def scan_ml(seed: int, space: str = "m=3,n=2", expect: tuple[int, str, int] = (0, "holds", 36)) -> Pass:
    """Exhaustive scan; the seed is ignored."""
    return Pass((scan_op("pc-strategyproofness", "ml", space, False, expect),), expect[2])


# `rd` and `f1` solve no LP. The third scan finds a witness after 10 profiles.
NOLP_SCANS = (
    ("sd-strategyproofness", "rd", "m=4,n<=2", True, (0, "holds", 324)),
    ("pc-strategyproofness", "f1", "m=3,n<=5", True, (0, "holds", 461)),
    ("sd-strategyproofness", "f1", "m=3,n<=4", True, (1, "violated", 10)),
)


def scan_nolp(seed: int, scans=NOLP_SCANS) -> Pass:
    """One operation runs all the scans in turn; the seed is ignored."""
    ops = [scan_op(*spec) for spec in scans]

    def run():
        return [op.run() for op in ops]

    def check(outputs) -> Optional[str]:
        problems = [f"{op.label}: {p}" for op, out in zip(ops, outputs) if (p := op.check(out))]
        return "; ".join(problems) or None

    label = " && ".join(op.label for op in ops)
    return Pass((Op(label, "main", run, check),), sum(spec[4][2] for spec in scans))


# ---------------------------------------------------------------------------
# corpus: many small seeded profiles through every oracle, plus the fact suite
# ---------------------------------------------------------------------------

def corpus_profiles(seed: int, count: int) -> list[model.Profile]:
    """The generator of acceptance criterion 08: m in [2, 4], n in [1, 7]."""
    rng = random.Random(seed)
    profiles = []
    for _ in range(count):
        m, n = rng.randint(2, 4), rng.randint(1, 7)
        alts = "abcd"[:m]
        profiles.append(model.profile(alts, [rng.sample(alts, m) for _ in range(n)]))
    return profiles


def _describe(lottery) -> str:
    return "-" if lottery is None else profilefmt.format_lottery(lottery)


class OutputDigest:
    """Running sha256 over a pass's corpus outputs, compared at checkpoints."""

    def __init__(self, checkpoints: dict[int, str]):
        self.checkpoints = checkpoints
        self._hash = hashlib.sha256()

    def add(self, index: int, text: str) -> Optional[str]:
        if index == 0:
            self._hash = hashlib.sha256()
        self._hash.update(text.encode())
        want = self.checkpoints.get(index + 1)
        if want is not None and self._hash.hexdigest() != want:
            return f"output digest after {index + 1} profiles differs from the recorded one"
        return None


def profile_op(index: int, prof: model.Profile, digest: OutputDigest) -> Op:
    def run():
        ml = rules.get_rule("ml")(prof)
        rd = rules.get_rule("rd")(prof)
        find = efficiency.find_dominator
        certs = (
            (Extension.PC, ml, find(prof, ml, Extension.PC)),
            (Extension.PC, rd, find(prof, rd, Extension.PC)),
            (Extension.SD, rd, find(prof, rd, Extension.SD)),
            (Extension.PC1, rd, efficiency.pc1_find_dominator(prof, rd)),
        )
        return ml, rd, certs

    def check(output) -> Optional[str]:
        ml, rd, certs = output
        if not rules.is_maximal_lottery(prof, ml):
            return "ml output is not a maximal lottery"
        winner = model.condorcet_winner(prof)
        if winner is not None and ml.prob(winner) != 1:
            return f"ml misses the Condorcet winner {winner}"
        if rd.probs != tuple(Fraction(model.top_count(prof, x), prof.n) for x in prof.alternatives):
            return "rd output differs from the top-count shares"
        for extension, p, cert in certs:
            if cert is not None and not (
                cert.dominated == p and extensions.dominates(prof, extension, cert.dominator, p)
            ):
                return f"{extension.value} dominator does not re-validate"
        text = "|".join([_describe(ml), _describe(rd)] + [_describe(c and c.dominator) for _, _, c in certs])
        return digest.add(index, text + "\n")

    return Op(f"corpus profile {index}", "main", run, check)


def suite_op() -> Op:
    def check(output) -> Optional[str]:
        status, text = output
        result = json.loads(text)["result"]
        passed = sum(f["passed"] for f in result["facts"])
        if (status, result["passed"], passed, len(result["facts"])) != (0, True, 76, 76):
            return f"paper-suite: exit {status}, {passed}/{len(result['facts'])} facts pass"
        return None

    return Op("paper-suite", "suite", lambda: call_cli(["paper-suite", "--json"]), check)


def control_op(name: str) -> Op:
    argv = ["paper-suite", "--negative-control", name, "--json"]

    def check(output) -> Optional[str]:
        status, text = output
        if status != 1 or json.loads(text)["result"]["passed"]:
            return f"negative control {name} did not fail the suite (exit {status})"
        return None

    return Op(f"paper-suite --negative-control {name}", "control", lambda: call_cli(argv), check)


def corpus(seed: int, profiles: int = 500, block: int = 100) -> Pass:
    """The fact suite and both negative controls, then the profiles with one
    more suite run after every `block` of them. Loads the fixtures. For the
    default seed the outputs are also compared with a recorded digest."""
    paperlab.fixture.cache_clear()
    for name in paperlab.fixture_names():
        paperlab.fixture(name)
    recorded = RECORDED["corpus_digests"]
    checkpoints = {int(k): v for k, v in recorded["after_profiles"].items()} if seed == recorded["seed"] else {}
    digest = OutputDigest(checkpoints)
    ops = [suite_op(), control_op("pc-sign-flip"), control_op("ml-tie-break")]
    for i, prof in enumerate(corpus_profiles(seed, profiles)):
        ops.append(profile_op(i, prof, digest))
        if (i + 1) % block == 0:
            ops.append(suite_op())
    return Pass(tuple(ops), 0)


# ---------------------------------------------------------------------------
# electorate: one large cyclic profile, then dominance at a few hundred voters
# ---------------------------------------------------------------------------

BALLOTS = ("a > b > c > d", "b > c > a > d", "c > a > b > d")
ELECTORATE_COUNTS = (200001, 199999, 200000)
DOMINANCE_COUNTS = (68, 66, 67)


def electorate_text(counts: tuple[int, int, int], rng: random.Random, chunks: int = 8) -> str:
    """The three ballots with the given counts, each split into `chunks`
    seeded runs and the runs shuffled. Adjacent runs of one ballot are
    merged, so the text is in `format_profile`'s canonical form."""
    runs = []
    for ballot, count in zip(BALLOTS, counts):
        cuts = sorted(rng.sample(range(1, count), chunks - 1))
        runs += [(ballot, hi - lo) for lo, hi in zip([0] + cuts, cuts + [count])]
    rng.shuffle(runs)
    merged: list[list] = []
    for ballot, size in runs:
        if merged and merged[-1][0] == ballot:
            merged[-1][1] += size
        else:
            merged.append([ballot, size])
    return "alternatives: a b c d\n" + "".join(f"{size}: {ballot}\n" for ballot, size in merged)


def cyclic_closed_form(counts: tuple[int, int, int]):
    """Margins, rd and ml of the three-ballot profile, from the counts alone.

    With a > b, b > c and c > a all by positive margins, the maximal
    lottery puts on each of a, b, c the margin of the pair it is not in.
    `d` is last on every ballot.
    """
    ca, cb, cc = counts
    n = ca + cb + cc
    ab, bc, ca_ = ca + cc - cb, ca + cb - cc, cb + cc - ca
    rows = ((0, ab, -ca_, n), (-ab, 0, bc, n), (ca_, -bc, 0, n), (-n, -n, -n, 0))
    rd = tuple(Fraction(k, n) for k in counts) + (Fraction(0),)
    ml = (Fraction(bc, n), Fraction(ca_, n), Fraction(ab, n), Fraction(0))
    return rows, rd, ml


def electorate(seed: int, counts=ELECTORATE_COUNTS, dominance_counts=DOMINANCE_COUNTS) -> Pass:
    """The seed only reorders runs and voters; the counts stay fixed."""
    rng = random.Random(seed)
    text = electorate_text(counts, rng)
    small = profilefmt.parse_profile(electorate_text(dominance_counts, rng))
    rows, rd_want, ml_want = cyclic_closed_form(counts)
    _, small_rd_want, _ = cyclic_closed_form(dominance_counts)

    def run():
        prof = profilefmt.parse_profile(text)
        back = profilefmt.format_profile(prof)
        margins = model.margin_matrix(prof)
        rd = rules.get_rule("rd")(prof)
        ml = rules.get_rule("ml")(prof)
        small_rd = rules.get_rule("rd")(small)
        cert = efficiency.find_dominator(small, small_rd, Extension.PC)
        return back, margins, rd, ml, small_rd, cert

    def check(output) -> Optional[str]:
        back, margins, rd, ml, small_rd, cert = output
        problems = []
        if back != text:
            problems.append("format(parse(text)) != text")
        if margins.rows != rows:
            problems.append("margins differ from the closed form")
        if rd.probs != rd_want or small_rd.probs != small_rd_want:
            problems.append("rd differs from the closed form")
        if ml.probs != ml_want:
            problems.append(f"ml returned {ml.probs}, closed form {ml_want}")
        if cert is not None:
            problems.append("rd's lottery on the small profile got a PC dominator; it is PC-efficient")
        return "; ".join(problems) or None

    n, small_n = sum(counts), sum(dominance_counts)
    return Pass((Op(f"electorate n={n}, dominance n={small_n}", "main", run, check),), 0)


WORKLOADS: dict[str, Callable[..., Pass]] = {
    "scan-ml": scan_ml,
    "scan-nolp": scan_nolp,
    "corpus": corpus,
    "electorate": electorate,
}
