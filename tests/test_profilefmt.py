import time

import pytest

from pcvote import Lottery, margin_matrix, ml, rd
from pcvote.cli import main
from pcvote.profilefmt import ParseError, format_profile, parse_lottery, parse_profile

HUGE = "alternatives: a b c\n1000000000: a > b > c\n"


def test_lines_become_runs_and_format_writes_maximal_runs():
    prof = parse_profile("# two lines, one run\nalternatives: a b c\n2: a > b > c\n1: a > b > c\n1: c > b > a\n")
    assert [(b.order, count) for b, count in prof.runs] == [(("a", "b", "c"), 3), (("c", "b", "a"), 1)]
    text = format_profile(prof)
    assert text == "alternatives: a b c\n3: a > b > c\n1: c > b > a\n"
    assert parse_profile(text) == prof


def test_equal_lines_share_one_ranking():
    text = "alternatives: a b c\n2: a > b > c\n1: c > b > a\n3: a > b > c\n4: c > b > a\n"
    prof = parse_profile(text)
    first, second, third, fourth = (ballot for ballot, _ in prof.runs)
    assert first is third and second is fourth and first is not second
    assert format_profile(prof) == text
    # a line with a new order is still checked
    with pytest.raises(ParseError, match="line 4: ranking repeats alternative 'a'"):
        parse_profile("alternatives: a b c\n1: a > b > c\n1: c > b > a\n1: a > a > c\n")


def test_every_line_needs_a_count():
    with pytest.raises(ParseError, match="expected '<count>: <ranking>'"):
        parse_profile("alternatives: a b c\na > b > c\n")
    with pytest.raises(ParseError, match="must be positive"):
        parse_profile("alternatives: a b c\n0: a > b > c\n")


def test_a_huge_count_is_one_run():
    start = time.perf_counter()
    prof = parse_profile(HUGE)
    margins = margin_matrix(prof)
    outcomes = (rd(prof), ml(prof))
    text = format_profile(prof)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.3f} s"
    n = 10**9
    assert prof.n == n and len(prof.runs) == 1
    assert margins.rows == ((0, n, n), (-n, 0, n), (-n, -n, 0))
    assert outcomes == (Lottery.degenerate(prof.alternatives, "a"),) * 2
    assert text == HUGE


def test_cli_computes_ml_on_a_huge_count(tmp_path, capsys):
    path = tmp_path / "huge.profile"
    path.write_text(HUGE)
    assert main(["compute", "--rule", "ml", "--profile", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "a:1"


@pytest.mark.parametrize("spec", ["a:1/0,b:1", "a:0/0", "a:1,b:0/0"])
def test_a_zero_denominator_is_a_parse_error(spec):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_lottery(spec, "abc")


@pytest.mark.parametrize(
    "spec", ["a:" + "1" * 5000, "a:1/" + "3" * 5000 + ",b:0"], ids=["numerator", "denominator"]
)
def test_a_probability_with_too_many_digits_is_a_parse_error(spec):
    with pytest.raises(ParseError, match="too many digits"):
        parse_lottery(spec, "abc")
