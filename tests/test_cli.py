import hashlib
import json
from dataclasses import replace

import pytest

from pcvote import InternalError, rules
from pcvote.cli import main

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
