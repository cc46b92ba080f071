import argparse
import hashlib
import json
import time
from dataclasses import replace

import pytest

from pcvote import InternalError, efficiency, fixture_profile, parse_lottery, rules
from pcvote.axioms import SymmetryWitness
from pcvote.cli import _describe_witness, build_parser, main

RD_TEXT = """\
alternatives: a b c
3: a > b > c
1: b > a > c
1: c > a > b
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_on_fixture(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "ml", "--profile", "ml_manipulation_R")
    assert code == 0
    assert out.strip() == "a:3/5,b:1/5,c:1/5"


def test_compute_on_file(tmp_path, capsys):
    doc = tmp_path / "poll.profile"
    doc.write_text(RD_TEXT)
    code, out, _ = run(capsys, "compute", "--rule", "rd", "--profile", str(doc))
    assert code == 0
    assert out.strip() == "a:3/5,b:1/5,c:1/5"


def test_compute_file_beats_fixture_name(tmp_path, monkeypatch, capsys):
    # a file literally named like a fixture must win the ambiguity
    doc = tmp_path / "rd_example"
    doc.write_text("alternatives: x y\n1: y > x\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "compute", "--rule", "rd", "--profile", "rd_example")
    assert code == 0
    assert out.strip() == "y:1"


def test_compute_remove_voter(capsys):
    code, out, _ = run(
        capsys, "compute", "--rule", "rd", "--profile", "rd_example", "--remove-voter", "5"
    )
    assert code == 0
    assert out.strip() == "a:3/4,b:1/4"


def test_compute_json_report(capsys):
    code, doc, _ = run_json(capsys, "compute", "--rule", "ml", "--profile", "ml_manipulation_R")
    assert code == 0
    assert doc["report_version"] == 2
    assert doc["exit_status"] == 0
    assert doc["command"] == "compute"
    assert doc["inputs"]["profile"] == {"kind": "fixture", "name": "ml_manipulation_R"}
    assert len(doc["inputs"]["profile_sha256"]) == 64
    assert doc["result"]["lottery"] == {"a": "3/5", "b": "1/5", "c": "1/5"}


def test_compute_inapplicable_rule_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--rule", "f1", "--profile", "improvement_cycle")
    assert code == 2
    assert "is not defined for this profile" in err


def test_unknown_rule_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--rule", "borda", "--profile", "rd_example"])
    assert exc.value.code == 2


def test_missing_profile_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--rule", "rd", "--profile", "/no/such/file")
    assert code == 2
    assert "neither a readable file nor one of the bundled fixtures" in err


# ---------------------------------------------------------------------------
# dominate / efficient
# ---------------------------------------------------------------------------

def test_dominate_finds_certificate(capsys):
    code, out, _ = run(
        capsys, "dominate", "--ext", "pc1", "--profile", "rd_example",
        "--lottery", "a:3/5,b:1/5,c:1/5",
    )
    assert code == 1
    assert "dominated under pc1" in out
    assert "dominator: a:1" in out


def test_dominate_none_exits_zero(capsys):
    code, out, _ = run(
        capsys, "dominate", "--ext", "sd", "--profile", "rd_example",
        "--lottery", "a:3/5,b:1/5,c:1/5",
    )
    assert code == 0
    assert "sd-efficient" in out


def test_dominate_json_fields(capsys):
    code, doc, _ = run_json(
        capsys, "dominate", "--ext", "pc", "--profile", "rd_example",
        "--lottery", "a:3/5,b:1/5,c:1/5",
    )
    assert code == 1 and doc["exit_status"] == 1
    assert doc["result"]["dominated"] is True
    assert doc["result"]["outcomes"] == [
        {"ranking": ["a", "b", "c"], "voters": 3, "outcome": "strictly-preferred"},
        {"ranking": ["b", "a", "c"], "voters": 1, "outcome": "indifferent"},
        {"ranking": ["c", "a", "b"], "voters": 1, "outcome": "indifferent"},
    ]


def test_dominate_certificate_is_one_entry_per_ranking(tmp_path, capsys):
    # 600 000 voters in a few runs of three ballots: the report stays the size of the LP
    runs = [(200001, "a > b > c > d"), (99999, "b > c > a > d"), (100000, "c > a > b > d"),
            (100000, "b > c > a > d"), (100000, "c > a > b > d")]
    doc = tmp_path / "electorate.profile"
    doc.write_text("alternatives: a b c d\n" + "".join(f"{k}: {b}\n" for k, b in runs))
    argv = ("dominate", "--ext", "pc", "--profile", str(doc), "--lottery", "d:1")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1 and len(out.encode("utf-8")) < 4096
    result = json.loads(out)["result"]
    assert result["dominator"] == {"a": "1"}
    outcomes = result["outcomes"]
    assert [o["ranking"] for o in outcomes] == [list("abcd"), list("bcad"), list("cabd")]
    assert [o["voters"] for o in outcomes] == [200001, 199999, 200000]
    assert sum(o["voters"] for o in outcomes) == 600_000
    code, out, _ = run(capsys, *argv)
    assert code == 1 and len(out.encode("utf-8")) < 1024


def test_efficient_exit_codes(capsys):
    code, out, _ = run(
        capsys, "efficient", "--ext", "sd", "--profile", "rd_example",
        "--lottery", "a:3/5,b:1/5,c:1/5",
    )
    assert code == 0 and "sd-efficient" in out
    code, out, _ = run(
        capsys, "efficient", "--ext", "pc1", "--profile", "rd_example",
        "--lottery", "a:3/5,b:1/5,c:1/5",
    )
    assert code == 1 and "pc1-inefficient" in out


def test_bad_lottery_spec(capsys):
    code, _, err = run(
        capsys, "efficient", "--ext", "pc", "--profile", "rd_example", "--lottery", "a:0.5,b:0.5"
    )
    assert code == 2
    code, _, err = run(
        capsys, "efficient", "--ext", "pc", "--profile", "rd_example", "--lottery", "a:1/2,z:1/2"
    )
    assert code == 2



@pytest.mark.parametrize("command", ["dominate", "efficient"])
@pytest.mark.parametrize("spec", ["a:1/0,b:1", "a:0/0"])
def test_zero_denominator_is_a_usage_error(capsys, command, spec):
    code, out, err = run(capsys, command, "--ext", "pc", "--profile", "rd_example", "--lottery", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid probability") and "zero denominator" in err


@pytest.mark.parametrize("command", ["dominate", "efficient"])
def test_a_probability_with_too_many_digits_is_a_usage_error(capsys, command):
    digits = "1" * 5000
    spec = f"a:{digits}/{digits}"
    code, out, err = run(capsys, command, "--ext", "pc", "--profile", "rd_example", "--lottery", spec)
    assert (code, out) == (2, "")
    assert err == "error: invalid probability for 'a': too many digits\n"


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------

def test_path_cycle_detection(capsys):
    code, out, _ = run(
        capsys, "path", "--profile", "improvement_cycle", "--start", "a:1/2,b:1/2",
        "--max-steps", "10",
    )
    assert code == 1
    assert "termination: cycle-detected" in out
    assert out.count("->") == 3


def test_path_reaching_efficiency_exits_zero(capsys):
    code, out, _ = run(
        capsys, "path", "--profile", "rd_example", "--start", "a:1", "--max-steps", "5"
    )
    assert code == 0
    assert "termination: reached-efficient" in out


def test_path_json_lists_lotteries(capsys):
    code, doc, _ = run_json(
        capsys, "path", "--profile", "improvement_cycle", "--start", "a:1/2,b:1/2",
        "--max-steps", "10",
    )
    assert code == 1
    assert doc["result"]["termination"] == "cycle-detected"
    assert doc["result"]["lotteries"][0] == {"a": "1/2", "b": "1/2"}
    assert doc["result"]["lotteries"][-1] == doc["result"]["lotteries"][0]


# One alternative: every lottery is the degenerate one, ml's margin matrix is
# (0), and the SD dominator program has no row but Σq <= 1. Each command exits
# 0 with these bytes.
ONE_ALTERNATIVE_OUTPUTS = {
    ("compute", "--rule", "ml"): "a:1\n",
    ("efficient", "--ext", "pc", "--lottery", "a:1"): "pc-efficient\n",
    ("efficient", "--ext", "sd", "--lottery", "a:1"): "sd-efficient\n",
    ("dominate", "--ext", "sd", "--lottery", "a:1"): "no sd-dominator: the lottery is sd-efficient\n",
    ("path", "--start", "a:1", "--max-steps", "3"): "start: a:1\ntermination: reached-efficient\n",
}


@pytest.mark.parametrize("argv", sorted(ONE_ALTERNATIVE_OUTPUTS))
def test_one_alternative_profiles_print_their_pinned_bytes(tmp_path, capsys, argv):
    doc = tmp_path / "one.profile"
    doc.write_text("alternatives: a\n2: a\n")
    code, out, _ = run(capsys, *argv, "--profile", str(doc))
    assert (code, out) == (0, ONE_ALTERNATIVE_OUTPUTS[argv])


@pytest.mark.parametrize("axiom", ["pc-efficiency", "sd-efficiency"])
def test_one_alternative_efficiency_scans_hold(capsys, axiom):
    code, out, _ = run(capsys, "check", "--axiom", axiom, "--rule", "ml", "--scan", "m=1,n<=2")
    assert (code, out) == (0, f"{axiom} holds for ml (2 profile(s) checked)\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_single_profile_violation(capsys):
    code, out, _ = run(
        capsys, "check", "--axiom", "absolute-winner", "--rule", "rd", "--profile", "rd_example"
    )
    assert code == 1
    assert "absolute-winner VIOLATED for rd" in out
    assert "probability 1" in out


def test_check_single_profile_holds(capsys):
    code, out, _ = run(
        capsys, "check", "--axiom", "condorcet-consistency", "--rule", "ml",
        "--profile", "rd_example",
    )
    assert code == 0
    assert "holds for ml" in out


def test_check_scan_mode(capsys):
    code, out, _ = run(
        capsys, "check", "--axiom", "pc-strategyproofness", "--rule", "f1", "--scan", "m=3,n<=2"
    )
    assert code == 0
    assert "(42 profile(s) checked)" in out


def test_check_scan_anonymous_and_exact_n(capsys):
    code, doc, _ = run_json(
        capsys, "check", "--axiom", "anonymity", "--rule", "rd", "--scan", "m=3,n=2",
        "--anonymous",
    )
    assert code == 0
    assert doc["result"]["profiles_checked"] == 21
    assert doc["inputs"]["scan"]["up_to_anonymity"] is True


def test_an_sd_efficiency_scan_of_rd_solves_no_lp(monkeypatch, capsys):
    """rd puts its mass on first-ranked alternatives, which settles
    SD-efficiency with no dominator LP: the scan solves none, where the
    margin certificate alone left 830, and prints the same bytes."""
    solve, solved = efficiency.lp_solve, []
    monkeypatch.setattr(efficiency, "lp_solve", lambda lp: solved.append(lp) or solve(lp))
    argv = "check --axiom sd-efficiency --rule rd --scan m=4,n<=4 --anonymous".split()
    for sha, extra in (
        ("9190e7ad0c02d7497d1221cee3dacf3d07c57cb647117e41863ebe2e30016a00", ()),
        ("6f7b7050ff177b07a48e4aa8a586f85f916efd775d82bf6abf42a4ea95b936be", ("--json",)),
    ):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha, extra
    assert solved == []


def test_check_scan_witness_payload(capsys):
    code, doc, _ = run_json(
        capsys, "check", "--axiom", "absolute-winner", "--rule", "rd", "--scan", "m=3,n<=3"
    )
    assert code == 1
    assert doc["result"]["verdict"] == "violated"
    w = doc["result"]["witness"]
    assert w["type"] == "decisiveness" and w["required"] == "a"
    assert w["outcome"] == {"a": "2/3", "b": "1/3"}


@pytest.mark.parametrize("n", [10_000, 10_000_000])
def test_check_rejects_a_huge_scan_at_once(capsys, n):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "check", "--axiom", "pc-strategyproofness", "--rule", "rd", "--scan", f"m=3,n={n}"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    budget = "exceed the enumeration budget of 2000000"
    assert err == f"error: the {n}-voter profiles over 3 alternatives {budget}\n"


def test_check_rejects_a_huge_bounded_scan_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "check", "--axiom", "pc-strategyproofness", "--rule", "rd", "--scan", "m=3,n<=10000"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    budget = "exceed the enumeration budget of 2000000"
    assert err == f"error: the 10000-voter profiles over 3 alternatives {budget}\n"


def test_check_refuses_an_anonymity_scan_past_the_voter_order_budget_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--axiom", "anonymity", "--rule", "rd", "--scan", "m=2,n<=9")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    needed = "the anonymity check on 9 of 9 voters needs 362879"
    assert err == f"error: {needed} rule evaluations, over the budget of 100000\n"


def test_check_requires_exactly_one_target(capsys):
    code, _, err = run(capsys, "check", "--axiom", "anonymity", "--rule", "rd")
    assert code == 2 and "exactly one of" in err
    code, _, err = run(
        capsys, "check", "--axiom", "anonymity", "--rule", "rd",
        "--profile", "rd_example", "--scan", "m=3,n<=2",
    )
    assert code == 2


def test_check_rejects_malformed_scan(capsys):
    code, _, err = run(capsys, "check", "--axiom", "anonymity", "--rule", "rd", "--scan", "n<=2")
    assert code == 2 and "invalid scan spec" in err


@pytest.mark.parametrize("scan", ["m=3,n<=" + "9" * 5000, "m=" + "9" * 5000 + ",n=2"], ids=["n", "m"])
def test_check_rejects_a_scan_number_with_too_many_digits(capsys, scan):
    code, out, err = run(capsys, "check", "--axiom", "pc-strategyproofness", "--rule", "rd", "--scan", scan)
    assert (code, out) == (2, "")
    assert err == "error: invalid scan spec: a number in it has too many digits\n"


@pytest.mark.parametrize("axiom", ["pc-strategyproofness", "cancellation", "neutrality"])
def test_per_profile_checks_refuse_ten_alternatives_at_once(tmp_path, capsys, axiom):
    names = "abcdefghij"
    doc = tmp_path / "ten.profile"
    doc.write_text(
        f"alternatives: {' '.join(names)}\n1: {' > '.join(names)}\n1: {' > '.join(reversed(names))}\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--axiom", axiom, "--rule", "rd", "--profile", str(doc))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: the 10! rankings of 10 alternatives exceed the enumeration budget of 2000000\n"


@pytest.mark.parametrize(
    "axiom, needed",
    [
        ("pc-strategyproofness", "the misreport search needs 725758"),
        ("cancellation", "the cancellation check needs 362880"),
        ("neutrality", "the neutrality check needs 362879"),
    ],
)
def test_per_profile_checks_refuse_too_many_rule_evaluations_at_once(tmp_path, capsys, axiom, needed):
    names = "abcdefghi"
    doc = tmp_path / "nine.profile"
    doc.write_text(
        f"alternatives: {' '.join(names)}\n1: {' > '.join(names)}\n1: {' > '.join(reversed(names))}\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--axiom", axiom, "--rule", "rd", "--profile", str(doc))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {needed} rule evaluations, over the budget of 100000\n"


@pytest.mark.parametrize("axiom, code", [("pc-participation", 0), ("anonymity", 2)])
def test_per_profile_checks_on_a_large_electorate_answer_at_once(tmp_path, capsys, axiom, code):
    doc = tmp_path / "electorate.profile"
    doc.write_text("alternatives: a b c\n200001: a > b > c\n199999: b > c > a\n200000: c > a > b\n")
    start = time.perf_counter()
    got, out, err = run(capsys, "check", "--axiom", axiom, "--rule", "ml", "--profile", str(doc))
    assert time.perf_counter() - start < 2
    assert got == code
    if code == 2:
        needed = "the anonymity check on 9 of 600000 voters needs 362879"
        assert (out, err) == ("", f"error: {needed} rule evaluations, over the budget of 100000\n")


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------

def test_paper_suite_green(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert "76/76 facts pass" in out


def test_paper_suite_negative_controls_fail(capsys):
    for control in ("pc-sign-flip", "ml-tie-break"):
        code, out, _ = run(capsys, "paper-suite", "--negative-control", control)
        assert code == 1, control
        assert "[FAIL]" in out


def test_paper_suite_json(capsys):
    code, doc, _ = run_json(capsys, "paper-suite", "--negative-control", "ml-tie-break")
    assert code == 1 and doc["exit_status"] == 1
    assert doc["result"]["passed"] is False
    assert sum(not f["passed"] for f in doc["result"]["facts"]) == 3


# sha256 of the human and the --json report (report_version 2), and the
# exit status, per run
SUITE_OUTPUTS = {
    "default": (
        "c8af19334b28f89f9561351ce6985318e61a8ad07c954cd03f65d81eee220b47",
        "aa621d25a60927cfb3ed15fab5693a2376ad275627c66b40d5cda80846b42a0d",
        0,
    ),
    "pc-sign-flip": (
        "54320202ab5c3cf1cdf01897fcf7d045fccfa5f366264187de2f9779931d66ce",
        "500654811e14b78ae3b081c342549008fa160e0f40ffd6a66c074883a05969f2",
        1,
    ),
    "ml-tie-break": (
        "236c46d1955db6ad017574f316e420faee7978afe168d6eb2bdafb6df4f7d4c2",
        "97fe1257db7d81cd52adfdc062897be13ac1b23749e827ec8c71c593855d7e62",
        1,
    ),
}


@pytest.mark.parametrize("control", sorted(SUITE_OUTPUTS))
def test_paper_suite_outputs_pinned(capsys, control):
    argv = ["paper-suite"] + ([] if control == "default" else ["--negative-control", control])
    human_sha, json_sha, status = SUITE_OUTPUTS[control]
    for sha, extra in ((human_sha, ()), (json_sha, ("--json",))):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == status
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha, extra


def test_paper_suite_rejects_unknown_control(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper-suite", "--negative-control", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# witnesses and verdicts, byte for byte
# ---------------------------------------------------------------------------

# sha256 of the human and the --json report (report_version 2, dominance
# certificates one entry per ranking), and the exit status, per run; between
# them these reach every witness kind the CLI prints except symmetry
WITNESS_OUTPUTS = {
    "check --axiom weak-pc-strategyproofness --rule ml --profile ml_manipulation_R": (
        "09eda0e2ba4357f59e329cc700318bbdc5e47f981d9b16cacb0765220f5beace",
        "1e2b35861e2d7532ce65a8ae9fa49194876c4b59f1c1cd3a2ae0a8ed39cedcbc",
        1,
    ),
    "check --axiom pc-strategyproofness --rule ml --scan m=3,n<=3": (
        "f42d1d1b1a6258488b01d664c30958fe2cbd6807a9a29daae27e3781f1feb229",
        "c3c72c44a0f4bec815e0b6a006b38f9b2a9e8bff044308a4e7d2f8230c1a979f",
        0,
    ),
    "check --axiom strict-sd-participation --rule condorcet-uniform --scan m=3,n<=3": (
        "83c07bcf78834818005be64b7da46441c28f941afb6aa8ed25ff33590cdec759",
        "7279b0d838b4eabba5b95a89690e66b5cef1c171a7d54ca616f878347b199cb4",
        1,
    ),
    "check --axiom cancellation --rule rd --profile rd_example": (
        "17762db57df8bc2073dbb42da47a495560a91fc26e8e6d7a176b2e06389232a0",
        "1b3d1da00c0597d6f529a878f122399069b76790c3e4b6e8dd70cb7559200ba1",
        1,
    ),
    "check --axiom absolute-winner --rule rd --profile rd_example": (
        "e26c1ba388606674457b265ea74db3741c3645c42677ef3acac8c26810602f50",
        "cf3238b8a5e7bfd5af8d71cf693b3a9c5a2bd6e60e04c83ee2fd20010a8ee12d",
        1,
    ),
    "check --axiom pc-efficiency --rule rd --profile rd_example": (
        "ee55706e2976f256f0ba813e2153d1e30b48f293ac392923d1da17b22e514035",
        "75bb9309680bc055edeae314d69939ba4d087edf5937f792eed59fb900a96327",
        1,
    ),
    "check --axiom sd-efficiency --rule condorcet-uniform --scan m=3,n<=3": (
        "434726a0374a089fa03d65756dd2b75559779ffbfadb669657d0f0ca4a48642b",
        "8c9594c3aa984f056553e8baa518b3c6d5893abbc60e6bf4ec2099584bb46e96",
        1,
    ),
    "dominate --ext pc1 --profile rd_example --lottery a:3/5,b:1/5,c:1/5": (
        "dac6d0f7472b8b567c9afac975ce2de3820906b1c8c66beb3cfad1e8f0a849ee",
        "79aba208156e649ddb1ac68a3947678c45221e86197555c01fceffc8c569612f",
        1,
    ),
    "dominate --ext pc --profile improvement_cycle --lottery a:1/2,b:1/2": (
        "ddfcd7970524405141326464dfc6fe79dd430b5d86a6b1110b28d46cfa8bb488",
        "5d2b0b14c4774ea5921888f08066a8f7c6bd0233fb484581aa60eaae01a01960",
        1,
    ),
    "dominate --ext sd --profile pareto_join_R1 --lottery c:1/4,d:3/4": (
        "8faece9bbf51062872b66dfa4edecaa58d308987447d781ca170d971eb2432a9",
        "b391a7542533900c9cf99081f57c4549a0f805182abdbec3f1d96808325369a2",
        1,
    ),
    "efficient --ext pc1 --profile rd_example --lottery a:3/5,b:1/5,c:1/5": (
        "c8b40f9c4451647633a32145588106ee5f412af2c4de5d8c6bb790d0ce6c0836",
        "059e1f01b5b5e11d6052a729291397d4b1196d5067223156b8207940913eadd9",
        1,
    ),
    "path --profile improvement_cycle --start a:1/2,b:1/2 --max-steps 6 --mode random --seed 7": (
        "4c8f2fb104372e59f362fdffbb6b06f51028caad341f621cec3da0366df131da",
        "e770e3bce8ee4920bfe38a6e899ccf7ef7635ee4b5e38f4df6cfb38bf992798c",
        1,
    ),
    # m = 4, where a reduced scan's memo answers most misses by pulling a
    # stored image of the vector back through a relabelling: exit 1 after 42,
    # 33 and 31 profiles, and 593 774 profiles that hold
    "check --axiom pc-strategyproofness --rule ml --scan m=4,n<=4 --anonymous": (
        "93375c9c3a0d233d60099caba5d8dad88fdd9ad38b965cbe9ac04ff0336bdfbd",
        "c46b4e67f2fc8b1edd3697ae9306a67e4f6dcaa14bdf1d067f5c999936d0a3c3",
        1,
    ),
    "check --axiom sd-strategyproofness --rule ml --scan m=4,n<=4 --anonymous": (
        "2613ed3ee9075807dba1e5477ff7331a9b9be19c2fedbe3f86717596c495b216",
        "2b0f199bec9dd383bd3658c46278b19c9d9f575de21431c10769ac836781644c",
        1,
    ),
    "check --axiom pc-strategyproofness --rule condorcet-uniform --scan m=4,n<=3": (
        "5efa8071ff4df43c841da7b067f1610bf888e84ab3fc631c7d3820613106c549",
        "7674ab393d4822053d348412b739474e362ed7b110fc85d220938c8d29b7ee86",
        1,
    ),
    "check --axiom sd-strategyproofness --rule rd --scan m=4,n<=6 --anonymous": (
        "d8e74eea173c1ad02de7033abe01035ea9d05352fd4d4b47fe57b228a1bbbf90",
        "45e957d421c4fccbb1a890172ad0f7c975df722af48bfe91a751dc9f6266a9ce",
        0,
    ),
    # pins which weights a random path draws: one per distinct ranking, in
    # `all_rankings` order, takes step 1 to a:3/8,b:3/8,c:1/4, where one per
    # voter took it to a:2/5,b:3/10,c:3/10
    "path --profile swap_pair_R --start a:1/4,b:1/4,c:1/4,d:1/4 --max-steps 3 --mode random --seed 7": (
        "0e3231f30f83c2059aa59aad781fb319e2f457697197cf180f4af46015226b78",
        "49a53b03ba9357b560f16393d6e7968c99271b43dce02b3cf70a496e37d9eb92",
        0,
    ),
}


@pytest.mark.parametrize("argv", sorted(WITNESS_OUTPUTS))
def test_witness_outputs_pinned(capsys, argv):
    human_sha, json_sha, status = WITNESS_OUTPUTS[argv]
    for sha, extra in ((human_sha, ()), (json_sha, ("--json",))):
        code, out, _ = run(capsys, *argv.split(), *extra)
        assert code == status
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha, extra


def test_symmetry_witnesses_are_described():
    # every bundled rule is anonymous and neutral, so no CLI run gets here
    prof = fixture_profile("rd_example")
    rd_out = parse_lottery("a:3/5,b:1/5,c:1/5", prof.alternatives)
    swapped = parse_lottery("a:1/5,b:3/5,c:1/5", prof.alternatives)
    doc = "alternatives: a b c\n3: a > b > c\n1: b > a > c\n1: c > a > b\n"
    by_voters = SymmetryWitness(prof, "anonymity", (2, 1, 3, 4, 5), None, rd_out, swapped)
    assert _describe_witness(by_voters) == (
        "anonymity breaks under voter permutation (2, 1, 3, 4, 5)\n"
        "  expected: a:3/5,b:1/5,c:1/5\n"
        "  actual:   a:1/5,b:3/5,c:1/5\n"
        f"profile:\n{doc}",
        {
            "type": "anonymity",
            "voter_perm": [2, 1, 3, 4, 5],
            "alt_perm": None,
            "expected": {"a": "3/5", "b": "1/5", "c": "1/5"},
            "actual": {"a": "1/5", "b": "3/5", "c": "1/5"},
            "profile": doc,
        },
    )
    alt_perm = (("a", "b"), ("b", "a"), ("c", "c"))
    by_labels = SymmetryWitness(prof, "neutrality", None, alt_perm, swapped, rd_out)
    assert _describe_witness(by_labels) == (
        "neutrality breaks under alternative permutation {'a': 'b', 'b': 'a', 'c': 'c'}\n"
        "  expected: a:1/5,b:3/5,c:1/5\n"
        "  actual:   a:3/5,b:1/5,c:1/5\n"
        f"profile:\n{doc}",
        {
            "type": "neutrality",
            "voter_perm": None,
            "alt_perm": {"a": "b", "b": "a", "c": "c"},
            "expected": {"a": "1/5", "b": "3/5", "c": "1/5"},
            "actual": {"a": "3/5", "b": "1/5", "c": "1/5"},
            "profile": doc,
        },
    )


# ---------------------------------------------------------------------------
# internal defects
# ---------------------------------------------------------------------------

def test_internal_error_has_its_own_exit_status(monkeypatch, capsys):
    def broken(profile):
        raise InternalError("ml lost its invariant")

    monkeypatch.setitem(rules.RULES, "ml", replace(rules.RULES["ml"], evaluate=broken))
    code, out, err = run(capsys, "compute", "--rule", "ml", "--profile", "rd_example")
    assert code == 3
    assert out == ""
    assert err == "internal error: ml lost its invariant\n"


def test_main_calls_share_one_parser(monkeypatch, capsys):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(2):
        assert run(capsys, "compute", "--rule", "rd", "--profile", "rd_example")[0] == 0
    assert len(used) == 2 and used[0] is used[1] is build_parser()
