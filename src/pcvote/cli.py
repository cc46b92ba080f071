"""Command-line surface.

Subcommands: compute (evaluate a rule), dominate (search for a dominating
lottery), efficient (decide efficiency), path (follow improvement chains),
check (axioms on one profile or exhaustively over small profile spaces),
and paper-suite (replay every bundled fixture fact).

Exit status: 0 when the computation succeeded and every checked property
holds; 1 when a violation, dominance, or fact failure was found; 2 for
usage errors and unparsable inputs; 3 when pcvote caught a defect in
itself (`model.InternalError`), so no verdict was reached.

`--profile` accepts either a path to a profile document or the name of a
bundled fixture (an existing file wins if both apply). `--json` switches
any subcommand to a versioned machine-readable report on stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Optional

from . import axioms, efficiency, paperlab, rules
from .axioms import (
    CancellationWitness,
    DecisivenessWitness,
    EfficiencyWitness,
    ManipulationWitness,
    ParticipationWitness,
    SymmetryWitness,
    Verdict,
)
from .efficiency import EfficiencyNotion, PathTermination
from .extensions import Extension
from .model import DomainError, InternalError, Lottery, Profile, remove_voter
from .profilefmt import ParseError, format_lottery, format_profile, parse_lottery, parse_profile

REPORT_VERSION = 2

_EXTENSIONS = {e.value: e for e in Extension}
_NOTIONS = {n.value: n for n in EfficiencyNotion}


def _load_profile_arg(value: str) -> tuple[Profile, dict]:
    path = Path(value)
    if path.is_file():
        profile = parse_profile(path.read_text(encoding="utf-8"))
        source: dict = {"kind": "file", "path": str(path)}
    elif value in paperlab.fixture_names():
        profile = paperlab.fixture_profile(value)
        source = {"kind": "fixture", "name": value}
    else:
        raise ParseError(
            f"profile {value!r} is neither a readable file nor one of the "
            f"bundled fixtures ({', '.join(paperlab.fixture_names())})"
        )
    digest = hashlib.sha256(format_profile(profile).encode("utf-8")).hexdigest()
    return profile, {"profile": source, "profile_sha256": digest}


def _lottery_json(lottery: Lottery) -> dict:
    return {x: str(p) for x, p in lottery.as_map().items() if p > 0}


def _emit(args: argparse.Namespace, report: dict, exit_status: int, human: str) -> int:
    if args.json:
        report = {"report_version": REPORT_VERSION, **report, "exit_status": exit_status}
        print(json.dumps(report, indent=2, sort_keys=True))
    elif human:
        print(human)
    return exit_status


def _describe_witness(w: object) -> tuple[str, dict]:
    """(human text, json fragment) for any axiom witness: a headline, the
    witness's lotteries as `label -> (json key, lottery)`, its other json
    fields, and the profile."""
    lotteries: dict[str, tuple[str, Lottery]] = {}
    if isinstance(w, ManipulationWitness):
        headline = f"voter {w.voter} gains by reporting {' > '.join(w.misreport.order)}"
        lotteries = {
            "truthful outcome": ("truthful_outcome", w.truthful_outcome),
            "manipulated outcome": ("manipulated_outcome", w.manipulated_outcome),
        }
        fields = {"type": "manipulation", "voter": w.voter, "misreport": list(w.misreport.order)}
    elif isinstance(w, ParticipationWitness):
        headline = f"voter {w.voter}: {w.kind}"
        lotteries = {
            "with the voter": ("with_voter", w.with_voter),
            "without the voter": ("without_voter", w.without_voter),
        }
        fields = {"type": "participation", "voter": w.voter, "kind": w.kind}
    elif isinstance(w, SymmetryWitness):
        perm = (
            f"voter permutation {w.voter_perm}"
            if w.voter_perm is not None
            else f"alternative permutation {dict(w.alt_perm or ())}"
        )
        headline = f"{w.kind} breaks under {perm}"
        lotteries = {"expected": ("expected", w.expected), "actual": ("actual", w.actual)}
        fields = {
            "type": w.kind,
            "voter_perm": list(w.voter_perm) if w.voter_perm else None,
            "alt_perm": dict(w.alt_perm) if w.alt_perm else None,
        }
    elif isinstance(w, CancellationWitness):
        headline = f"adding {' > '.join(w.added.order)} plus its reverse moved the outcome"
        lotteries = {"before": ("before", w.before), "after": ("after", w.after)}
        fields = {"type": "cancellation", "added": list(w.added.order)}
    elif isinstance(w, DecisivenessWitness):
        headline = (
            f"{w.level.value}: {w.required!r} must get probability 1, "
            f"outcome was {format_lottery(w.outcome)}"
        )
        fields = {
            "type": "decisiveness",
            "level": w.level.value,
            "required": w.required,
            "outcome": _lottery_json(w.outcome),
        }
    elif isinstance(w, EfficiencyWitness):
        dominator = w.certificate.dominator if w.certificate is not None else None
        headline = f"outcome {format_lottery(w.outcome)} is {w.notion.value}-inefficient" + (
            f"; dominated by {format_lottery(dominator)}" if dominator is not None else ""
        )
        fields = {
            "type": "inefficiency",
            "notion": w.notion.value,
            "outcome": _lottery_json(w.outcome),
            "dominator": _lottery_json(dominator) if dominator is not None else None,
        }
    else:  # pragma: no cover - future witness kinds
        return repr(w), {"type": "unknown", "repr": repr(w)}
    width = max((len(label) for label in lotteries), default=0) + 1
    lines = [headline]
    lines += [f"  {label + ':':<{width}} {format_lottery(q)}" for label, (_, q) in lotteries.items()]
    profile = format_profile(w.profile)
    text = "\n".join(lines) + f"\nprofile:\n{profile}"
    payload = {**fields, **{key: _lottery_json(q) for key, q in lotteries.values()}, "profile": profile}
    return text, payload


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args: argparse.Namespace) -> int:
    profile, inputs = _load_profile_arg(args.profile)
    if args.remove_voter is not None:
        profile = remove_voter(profile, args.remove_voter)
        inputs["removed_voter"] = args.remove_voter
    rule = rules.get_rule(args.rule)
    lottery = rule(profile)
    report = {
        "command": "compute",
        "inputs": {**inputs, "rule": args.rule},
        "result": {"lottery": _lottery_json(lottery)},
    }
    return _emit(args, report, 0, format_lottery(lottery))


def _cmd_dominate(args: argparse.Namespace) -> int:
    profile, inputs = _load_profile_arg(args.profile)
    extension = _EXTENSIONS[args.ext]
    lottery = parse_lottery(args.lottery, profile.alternatives)
    if extension is Extension.PC1:
        cert = efficiency.pc1_find_dominator(profile, lottery)
    else:
        cert = efficiency.find_dominator(profile, lottery, extension)
    inputs = {**inputs, "extension": args.ext, "lottery": _lottery_json(lottery)}
    if cert is None:
        report = {
            "command": "dominate",
            "inputs": inputs,
            "result": {"dominated": False, "dominator": None},
        }
        return _emit(args, report, 0, f"no {args.ext}-dominator: the lottery is {args.ext}-efficient")
    lines = [f"dominated under {args.ext}", f"  dominator: {format_lottery(cert.dominator)}"]
    lines.append("  outcomes per ranking:")
    lines += [f"    {voters}: {' > '.join(ballot.order)}  {o.value}" for ballot, voters, o in cert.outcomes]
    outcomes = [
        {"ranking": list(ballot.order), "voters": voters, "outcome": o.value}
        for ballot, voters, o in cert.outcomes
    ]
    report = {
        "command": "dominate",
        "inputs": inputs,
        "result": {
            "dominated": True,
            "dominator": _lottery_json(cert.dominator),
            "outcomes": outcomes,
        },
    }
    return _emit(args, report, 1, "\n".join(lines))


def _cmd_efficient(args: argparse.Namespace) -> int:
    profile, inputs = _load_profile_arg(args.profile)
    notion = _NOTIONS[args.ext]
    lottery = parse_lottery(args.lottery, profile.alternatives)
    efficient = efficiency.is_efficient(profile, lottery, notion)
    report = {
        "command": "efficient",
        "inputs": {**inputs, "notion": args.ext, "lottery": _lottery_json(lottery)},
        "result": {"efficient": efficient},
    }
    status = 0 if efficient else 1
    verdict = "efficient" if efficient else "inefficient"
    return _emit(args, report, status, f"{args.ext}-{verdict}")


def _cmd_path(args: argparse.Namespace) -> int:
    profile, inputs = _load_profile_arg(args.profile)
    start = parse_lottery(args.start, profile.alternatives)
    path = efficiency.improvement_path(
        profile, start, args.max_steps, mode=args.mode, seed=args.seed
    )
    lines = [f"start: {format_lottery(path.lotteries[0])}"]
    for step, lottery in zip(path.steps, path.lotteries[1:]):
        lines.append(f"{step} -> {format_lottery(lottery)}")
    lines.append(f"termination: {path.termination.value}")
    report = {
        "command": "path",
        "inputs": {
            **inputs,
            "start": _lottery_json(start),
            "max_steps": args.max_steps,
            "mode": args.mode,
            "seed": args.seed,
        },
        "result": {
            "lotteries": [_lottery_json(q) for q in path.lotteries],
            "steps": list(path.steps),
            "termination": path.termination.value,
        },
    }
    status = 0 if path.termination is PathTermination.ReachedEfficient else 1
    return _emit(args, report, status, "\n".join(lines))


_SCAN_RE = re.compile(r"^m=(\d+),n(<=|=)(\d+)$")


def _cmd_check(args: argparse.Namespace) -> int:
    rule = rules.get_rule(args.rule)
    if (args.profile is None) == (args.scan is None):
        raise ParseError("check needs exactly one of --profile or --scan")
    if args.profile is not None:
        profile, inputs = _load_profile_arg(args.profile)
        report_obj = axioms.check_axiom_on_profile(rule, profile, args.axiom)
        inputs = {**inputs, "axiom": args.axiom, "rule": args.rule}
    else:
        match = _SCAN_RE.match(args.scan.replace(" ", ""))
        if not match:
            raise ParseError(
                f"invalid scan spec {args.scan!r}; expected something like 'm=3,n<=4'"
            )
        try:
            m, n_max = int(match.group(1)), int(match.group(3))
        except ValueError:  # more digits than int() converts
            raise ParseError("invalid scan spec: a number in it has too many digits") from None
        n_min = n_max if match.group(2) == "=" else None
        report_obj = axioms.exhaustive_scan(
            rule,
            m,
            n_max,
            args.axiom,
            up_to_anonymity=args.anonymous,
            n_min=n_min,
        )
        inputs = {
            "axiom": args.axiom,
            "rule": args.rule,
            "scan": {"m": m, "n_max": n_max, "n_min": n_min, "up_to_anonymity": args.anonymous},
        }
    holds = report_obj.verdict is Verdict.Holds
    if holds:
        human = (
            f"{args.axiom} holds for {args.rule} "
            f"({report_obj.profiles_checked} profile(s) checked)"
        )
        witness_payload = None
    else:
        text, witness_payload = _describe_witness(report_obj.witness)
        human = (
            f"{args.axiom} VIOLATED for {args.rule} "
            f"(after {report_obj.profiles_checked} profile(s)):\n{text}"
        )
    report = {
        "command": "check",
        "inputs": inputs,
        "result": {
            "verdict": report_obj.verdict.value,
            "profiles_checked": report_obj.profiles_checked,
            "witness": witness_payload,
        },
    }
    return _emit(args, report, 0 if holds else 1, human)


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    suite = paperlab.verify_paper_suite(negative_control=args.negative_control)
    report = {
        "command": "paper-suite",
        "inputs": {"negative_control": args.negative_control},
        "result": {
            "passed": suite.passed,
            "facts": [
                {
                    "fixture": r.fixture,
                    "fact": r.fact,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in suite.results
            ],
        },
    }
    return _emit(args, report, 0 if suite.passed else 1, suite.render())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built on the first call, then shared."""
    parser = argparse.ArgumentParser(
        prog="pcvote",
        description="Exact workbench for randomized social choice over ranked ballots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_profile: bool = True) -> None:
        if with_profile:
            p.add_argument(
                "--profile",
                required=True,
                help="path to a profile document, or the name of a bundled fixture",
            )
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("compute", help="evaluate a rule on a profile")
    p.add_argument("--rule", required=True, choices=sorted(rules.RULES))
    p.add_argument(
        "--remove-voter",
        type=int,
        default=None,
        metavar="I",
        help="drop voter I (1-based) before evaluating",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("dominate", help="search for a dominating lottery")
    p.add_argument("--ext", required=True, choices=sorted(_EXTENSIONS))
    p.add_argument("--lottery", required=True, help="lottery spec like a:1/2,b:1/2")
    add_common(p)
    p.set_defaults(handler=_cmd_dominate)

    p = sub.add_parser("efficient", help="decide efficiency of a lottery")
    p.add_argument("--ext", required=True, choices=sorted(_NOTIONS))
    p.add_argument("--lottery", required=True, help="lottery spec like a:1/2,b:1/2")
    add_common(p)
    p.set_defaults(handler=_cmd_efficient)

    p = sub.add_parser("path", help="follow a chain of PC-dominating lotteries")
    p.add_argument("--start", required=True, help="starting lottery spec")
    p.add_argument("--max-steps", required=True, type=int)
    p.add_argument("--mode", choices=("canonical", "random"), default="canonical")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=_cmd_path)

    p = sub.add_parser("check", help="check an axiom on a profile or a scanned space")
    p.add_argument("--axiom", required=True, choices=sorted(axioms.AXIOMS))
    p.add_argument("--rule", required=True, choices=sorted(rules.RULES))
    p.add_argument(
        "--profile",
        default=None,
        help="path to a profile document, or the name of a bundled fixture",
    )
    p.add_argument("--scan", default=None, help="profile space to scan, e.g. 'm=3,n<=4'")
    p.add_argument(
        "--anonymous",
        action="store_true",
        help="scan one representative per ballot multiset instead of all voter orders",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("paper-suite", help="replay every bundled fixture fact")
    p.add_argument(
        "--negative-control",
        default=None,
        choices=sorted(paperlab.NEGATIVE_CONTROLS),
        help="deliberately break one core computation; the suite must then fail",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_paper_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
