"""Tests of the benchmark harness: live wrappers, exact counts, clean untraced runs.

    python3 -m pytest benchmarks/tests -q              # about two minutes
    python3 -m pytest benchmarks/tests -q -k "not recorded"   # cut-down sizes only
"""

import json
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pcvote import rules  # noqa: E402

SMALL = {
    "scan-ml": lambda seed: workloads.scan_ml(seed, "m=3,n=1", (0, "holds", 6)),
    "scan-nolp": lambda seed: workloads.scan_nolp(seed, (
        ("sd-strategyproofness", "rd", "m=4,n<=1", True, (0, "holds", 24)),
        ("sd-strategyproofness", "f1", "m=3,n<=4", True, (1, "violated", 10)),
    )),
    "corpus": lambda seed: workloads.corpus(seed, profiles=12, block=6),
    "electorate": lambda seed: workloads.electorate(seed, (2001, 1999, 2000), (12, 10, 11)),
}

# The layers each workload keeps busy; each named metric must come out > 0.
BUSY = {
    "scan-ml": [
        "ratlp.lp_solve.calls", "rules.ml.calls", "rules.eval.calls", "axioms.rule_evals_per_profile",
        "axioms.self_s", "extensions.compare.calls", "model.margin_matrix.calls",
        "model.replace_ballot.calls", "cli.self_s",
    ],
    "scan-nolp": [
        "rules.eval.calls", "axioms.rule_evals_per_profile", "axioms.self_s", "extensions.compare.calls",
        "model.margin_matrix.calls", "model.replace_ballot.calls", "profilefmt.format_s", "cli.self_s",
    ],
    "corpus": [
        "ratlp.lp_solve.calls", "ratlp.lp_cells", "rules.ml.calls", "rules.ml.lp_per_call", "rules.eval.calls",
        "extensions.dominates.calls", "model.margin_matrix.calls", "efficiency.find_dominator.calls",
        "efficiency.lp_rows_per_call", "efficiency.pc1_find_dominator.self_s", "paperlab.verify.self_s",
        "cli.self_s",
    ],
    "electorate": [
        "profilefmt.parse_s", "profilefmt.format_s", "model.margin_matrix.calls", "rules.ml.calls",
        "ratlp.lp_solve.calls", "efficiency.find_dominator.calls", "efficiency.lp_rows_per_call",
    ],
}


def traced(workload_pass):
    tally = run.Tally()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_pass(workload_pass, tally, tracer.paused)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    return tracer.layer_metrics(workload_pass.profiles_scanned)


def counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def wrapped_targets():
    found = [
        f"{owner.__name__}.{attr}"
        for home, attr, bound_in, _ in spans.TARGETS.values()
        for owner in (home, *bound_in)
        if hasattr(getattr(owner, attr), "__wrapped__")
    ]
    if hasattr(rules.RULES["ml"].evaluate, "__wrapped__"):
        found.append("rules.RULES['ml']")
    return found


@pytest.mark.parametrize("name", SMALL)
def test_every_busy_layer_records_work(name):
    metrics = traced(SMALL[name](workloads.RECORDED["corpus_digests"]["seed"]))
    assert [k for k in BUSY[name] if not metrics[k] > 0] == []


def test_scan_nolp_solves_no_lp():
    assert traced(SMALL["scan-nolp"](1))["ratlp.lp_solve.calls"] == 0


def test_tracer_restores_every_binding():
    traced(SMALL["scan-ml"](1))
    assert wrapped_targets() == []


def test_untraced_run_installs_no_wrappers():
    def probe():
        return wrapped_targets()

    def check(found):
        return f"wrappers installed: {found}" if found else None

    probe_op = workloads.Op("probe", "main", probe, check)
    small = SMALL["corpus"](1)
    tally = run.measure(workloads.Pass((probe_op,) + small.ops, 0), seconds=0)
    assert (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize("name", ["scan-ml", "corpus", "electorate"])
def test_traced_counts_repeat_exactly(name):
    assert counts(traced(SMALL[name](5))) == counts(traced(SMALL[name](5)))


@pytest.mark.parametrize("name", SMALL)
def test_non_default_seed_passes_every_check(name):
    tally = run.Tally()
    run.run_pass(SMALL[name](12345), tally)
    assert tally.attempted >= 1 and tally.failed == 0


def test_probe_time_is_taken_out_and_the_rest_rescaled():
    speed = probe.SpeedProbe()
    speed.samples = [0.004] * 3 + [0.002] * 5
    # 0.1 s with five 2 ms samples inside: 0.09 s of work at half the reference speed
    assert speed.reference_time(0.1, 3) == pytest.approx(0.09 * probe.REFERENCE_KERNEL_S / 0.002)
    # an interval with no samples of its own uses the last five
    assert speed.reference_time(0.01, 8) == pytest.approx(0.01 * probe.REFERENCE_KERNEL_S / 0.002)


def test_probe_samples_while_active_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as speed:
        run.run_pass(SMALL["scan-ml"](1), run.Tally())
    assert len(speed.samples) > 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_wrong_output_counts_as_failed_without_stopping():
    ops = (
        workloads.Op("wrong", "main", lambda: 1, lambda out: "wrong on purpose"),
        workloads.Op("raises", "main", lambda: 1 / 0, lambda out: None),
        workloads.Op("right", "main", lambda: 1, lambda out: None),
    )
    tally = run.Tally()
    run.run_pass(workloads.Pass(ops, 0), tally)
    assert (tally.attempted, tally.failed) == (3, 2)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_recorded_counts_for_default_seed(name):
    recorded = json.loads((BENCH / "expected.json").read_text())
    seed = recorded["corpus_digests"]["seed"]
    assert counts(traced(workloads.WORKLOADS[name](seed))) == recorded["counts"][name]


def test_recorded_ml_lp_solves_over_the_corpus():
    """ROADMAP baseline: ml over criterion 08's 500 profiles makes 3014 LP solves."""
    seed = workloads.RECORDED["corpus_digests"]["seed"]
    profile_ops = tuple(op for op in workloads.corpus(seed).ops if op.kind == "main")
    metrics = traced(workloads.Pass(profile_ops, 0))
    assert metrics["rules.ml.calls"] == 500
    assert metrics["rules.ml.lp_per_call"] * 500 == 3014
