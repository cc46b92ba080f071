import argparse
import hashlib
import json
import time
from dataclasses import replace

import pytest

from pcvote import InternalError, fixture_profile, parse_lottery, rules
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
    assert doc["report_version"] == 1
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
    assert set(doc["result"]["outcomes"]) <= {"strictly-preferred", "indifferent"}


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


# sha256 of the human and the --json report, and the exit status, per run
SUITE_OUTPUTS = {
    "default": (
        "c8af19334b28f89f9561351ce6985318e61a8ad07c954cd03f65d81eee220b47",
        "28bb2f86d0ad46ebb3fbcdd658b5c08cf6e232a2544f65a36da9dbe31d053072",
        0,
    ),
    "pc-sign-flip": (
        "54320202ab5c3cf1cdf01897fcf7d045fccfa5f366264187de2f9779931d66ce",
        "b9e85d101a22a7436de2fb3aa524128b56d5aaa5d9f437ea6508da3063ea6726",
        1,
    ),
    "ml-tie-break": (
        "236c46d1955db6ad017574f316e420faee7978afe168d6eb2bdafb6df4f7d4c2",
        "2288f895d210a63f3655eccdf8e142aba3c72241c8dab09f48bc9b42e9adf5b4",
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

# sha256 of the human and the --json report, and the exit status, per run;
# between them these reach every witness kind the CLI prints except symmetry
WITNESS_OUTPUTS = {
    "check --axiom weak-pc-strategyproofness --rule ml --profile ml_manipulation_R": (
        "09eda0e2ba4357f59e329cc700318bbdc5e47f981d9b16cacb0765220f5beace",
        "a5ba29a1628fe1e1ea04c99305a7091ab2fd6b04190546fbe5a2c1cde5c8069d",
        1,
    ),
    "check --axiom pc-strategyproofness --rule ml --scan m=3,n<=3": (
        "f42d1d1b1a6258488b01d664c30958fe2cbd6807a9a29daae27e3781f1feb229",
        "b5ee9e744176f9f09ba4607353840a7bba866ec7c868787947597e40a5c0c95f",
        0,
    ),
    "check --axiom strict-sd-participation --rule condorcet-uniform --scan m=3,n<=3": (
        "83c07bcf78834818005be64b7da46441c28f941afb6aa8ed25ff33590cdec759",
        "eba516410080f15935db38ea538f27a863bb36cb6e06374869270d23e372fa74",
        1,
    ),
    "check --axiom cancellation --rule rd --profile rd_example": (
        "17762db57df8bc2073dbb42da47a495560a91fc26e8e6d7a176b2e06389232a0",
        "8f3f066c38067e6f338405948aa1d112edce1bbad72d2fd96f75a224635961fb",
        1,
    ),
    "check --axiom absolute-winner --rule rd --profile rd_example": (
        "e26c1ba388606674457b265ea74db3741c3645c42677ef3acac8c26810602f50",
        "a24a51ebc5cc65f870ef175ae0fe3dc8280bf45b2bcd1318131f1cdd56fb7daa",
        1,
    ),
    "check --axiom pc-efficiency --rule rd --profile rd_example": (
        "ee55706e2976f256f0ba813e2153d1e30b48f293ac392923d1da17b22e514035",
        "860b90e2381c7fb43261a9b03050badbb6a03e8f424e25dd201456d25c5ac68a",
        1,
    ),
    "check --axiom sd-efficiency --rule condorcet-uniform --scan m=3,n<=3": (
        "434726a0374a089fa03d65756dd2b75559779ffbfadb669657d0f0ca4a48642b",
        "4a4e3ccd9325c60c1241acc0cfbad57caf087bd00b7634405e6d7d529835a8a0",
        1,
    ),
    "dominate --ext pc1 --profile rd_example --lottery a:3/5,b:1/5,c:1/5": (
        "a2e3692be6e5fee61fcdadd0741b01ef73227b08ca43b5c92aaca8d0feea101a",
        "f44180106a3f84819bca220416ee971bc5737d9b666cbac2f9f3c667dfa81fbf",
        1,
    ),
    "dominate --ext pc --profile improvement_cycle --lottery a:1/2,b:1/2": (
        "af7e19fce5f95d67af7cec4ecf70469ce5c1c8d4f5b5ce731a0263ff90c27a5d",
        "12de438ce346f55559a4d9a12ac7faf33a16590db2786174d39878fda7265762",
        1,
    ),
    "dominate --ext sd --profile pareto_join_R1 --lottery c:1/4,d:3/4": (
        "3bb2c38b55333af41299d300d1787df9753afdb86566c0fb24cf91e8e12f7b5c",
        "08b84bfab09859473567ba9575c99df6339f18142e02c295eadc545a5ea80b5b",
        1,
    ),
    "efficient --ext pc1 --profile rd_example --lottery a:3/5,b:1/5,c:1/5": (
        "c8b40f9c4451647633a32145588106ee5f412af2c4de5d8c6bb790d0ce6c0836",
        "4a4657cad4649439432bdff9a9d7741abcbccc2753e89bdbc2f3916b8affee23",
        1,
    ),
    "path --profile improvement_cycle --start a:1/2,b:1/2 --max-steps 6 --mode random --seed 7": (
        "4c8f2fb104372e59f362fdffbb6b06f51028caad341f621cec3da0366df131da",
        "0b89acda1b5677872dca6a6ae0c6dfbd2b9595d0f9e40527d6c15aab1f3ae78e",
        1,
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
