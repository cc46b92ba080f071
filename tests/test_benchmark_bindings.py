"""The benchmark's tracer (`benchmarks/spans.py`) wraps each traced
function at every module that binds it by name, and silently skips a
module that no longer does. These checks keep a refactor from dropping a
binding unnoticed. The benchmark's workloads check their own outputs;
one pass of each runs here too, so a wrong output fails this suite, and
so does a change in the number of LPs the pass solves, the pivots they
take, or the memo lookups, misses, rule evaluations and lottery
comparisons its axiom scans make."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pcvote import axioms, ratlp, rules

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_still_holds():
    spans = _load_spans()
    assert spans.TARGETS
    for name, (home, attr, bound_in, _) in spans.TARGETS.items():
        original = getattr(home, attr, None)
        assert callable(original), name
        for owner in bound_in:
            assert getattr(owner, attr, None) is original, (name, owner.__name__)


def test_the_ml_rule_is_registered_for_tracing():
    # the tracer replaces this entry with a copy whose `evaluate` is wrapped
    assert "ml" in rules.RULES
    assert callable(rules.RULES["ml"].evaluate)


# `ratlp.lp_solve.calls` of one pass at seed 90210, as `benchmarks/run.py --trace 1` counts them.
# scan-ml checks ml on the 36 ordered 2-voter profiles over 3 alternatives. Its memo evaluates
# ml once per relabelling orbit of the margin vectors it meets, at the first member met:
# (2, 2, 2) and (2, 2, 0) have a Condorcet winner, and (0, 0, 0) zero row sums (0 LPs each);
# (0, 2, 2) takes the point LP, which proves c 0, then one max-min round over a and b; (0, 0, 2)
# takes the point LP, which proves nothing, then two rounds. So 0 + 0 + 0 + 2 + 3 = 5 LPs.
# electorate: ml's point LP, which the certificate proves the whole optimal set (a 3-cycle over
# a, b, c, with d proven 0), and the 201-voter dominator LP: 2.
# corpus: 1669 dominator LP builds (`efficiency._dominator_lp`), 220 ml LPs. The builds are 1056
# PC (on ml and rd, 24 of them canonical improvement-path steps), 508 SD (on rd) and the 105 PC
# builds of `pc1_find_dominator` on a degenerate rd. The 105 PC1-degenerate builds and the 24
# path steps no longer pass through `find_dominator`, whose `--trace 1` calls are 1540. `rd` puts
# its mass on the first-ranked alternatives, so p's support settles all 508 SD builds with no LP
# (the margins settled 110 of them before the support clause, and the LP decided the other 398).
# G p <= 0 settles 789 PC builds with no LP (684 direct, all 105 of PC1's, whose degenerate rd
# sits on a Condorcet winner). Of its 557 ml calls, 397 have a Condorcet winner and 46 zero row sums
# (0 LPs), 41 all-odd margins (1 LP each, certified), and the other 73 take 179: the point LP
# each and 106 max-min rounds, 73 at a positive floor and 33 at floor 0. 1669 − 789 − 508 + 41 +
# 179 = 592. With the margin certificate alone, 990 (the 398 SD LPs more); before any
# certificate every call solved its LP: 1669 + 220 = 1889.
LP_SOLVES = {"scan-ml": 5, "scan-nolp": 0, "corpus": 592, "electorate": 2}
# `ratlp._pivot` calls of the same pass; every LP starts on its all-slack basis.
# scan-ml: 4 for the (0, 2, 2) orbit's two LPs (1 in the point LP, 3 in the round), 8 for the
# (0, 0, 2) orbit's three (1 in the point LP, 7 in the two rounds), 4 + 8 = 12. The old form's
# rounds took 5 and 12 pivots there, phase one and two: 6 + 13 = 19.
# electorate: 3 for ml's point LP and 2 for the dominator LP, 3 + 2 = 5.
# corpus: 668 in the 372 PC dominator LPs, 239 in ml's point LPs and 427 in its rounds, 668 +
# 239 + 427 = 1334. The 508 SD calls p's support settles take no pivot; their 398 LPs took 600
# under the margin certificate alone (1934), and the 789 PC LPs and 110 SD LPs the margins settle
# took 0 and 14 before it (1948)
PIVOTS = {"scan-ml": 12, "scan-nolp": 0, "corpus": 1334, "electorate": 5}
# `axioms.Memo.outcomes` lookups (`get`, but for a miss's probes of the vector's images), the
# misses among them (`Memo._miss`), the rule evaluations, and `extensions.compare` calls of the
# same pass. The scans look an outcome up once per distinct (tally vector, ballot class) and
# compare once per distinct (ballot, truthful lottery, deviated lottery). A miss is a lookup of
# a vector not stored yet, and it stores the outcome at that vector alone, so the misses are
# the distinct vectors met: scan-ml 18, scan-nolp 14 + 113 + 22 = 149 in its three scans. Each
# scan's memo evaluates its rule once per orbit of the vectors it meets, at the first member
# met, and answers a later member from the stored one: scan-ml 5 (above); scan-nolp 3 (rd: the
# top counts (1, 0, 0, 0), (2, 0, 0, 0) and (1, 1, 0, 0)) + 42 (f1, pc, n <= 5) + 6 (f1, sd,
# until its witness) = 51. When the memo stored each orbit's least image ahead of its first
# lookup, the misses were 14 and 131
MEMO_WORK = {
    "scan-ml": (50, 18, 5, 26),
    "scan-nolp": (988, 149, 51, 183),
    "corpus": (0, 0, 0, 33),
    "electorate": (0, 0, 0, 0),
}


@pytest.mark.parametrize("workload", ["scan-ml", "scan-nolp", "corpus", "electorate"])
def test_one_pass_of_the_workload_passes_its_own_checks(monkeypatch, workload):
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    seed = module.RECORDED["corpus_digests"]["seed"]  # 90210, whose corpus digests are recorded
    # count the solves where the tracer does: at every module that binds lp_solve
    home, attr, bound_in, _ = _load_spans().TARGETS["ratlp.lp_solve"]
    solve, solves = getattr(home, attr), []

    def counting(lp):
        solves.append(lp)
        return solve(lp)

    for owner in (home, *bound_in):
        monkeypatch.setattr(owner, attr, counting)
    pivot, pivoted = ratlp._pivot, []

    def counting_pivot(*args):
        pivoted.append(None)
        return pivot(*args)

    monkeypatch.setattr(ratlp, "_pivot", counting_pivot)
    init, miss = axioms.Memo.__init__, axioms.Memo._miss
    looked_up, missed, evaluated = [], [], []

    class Lookups(dict):  # the kernel looks an outcome up by `Memo.outcomes.get`
        def get(self, key, default=None):
            looked_up.append(None)
            return dict.get(self, key, default)

    def counting_init(memo, *args):
        init(memo, *args)
        memo.outcomes = Lookups()

    def counting_miss(memo, alternatives, vector, build):
        missed.append(None)

        def counting_build():  # the memo builds a profile only to evaluate the rule on it
            evaluated.append(None)
            return build()

        probes = len(looked_up)
        found = miss(memo, alternatives, vector, counting_build)
        del looked_up[probes:]  # its probes of the vector's images are no lookups
        return found

    monkeypatch.setattr(axioms.Memo, "__init__", counting_init)
    monkeypatch.setattr(axioms.Memo, "_miss", counting_miss)
    home, attr, bound_in, _ = _load_spans().TARGETS["extensions.compare"]
    comparison, compared = getattr(home, attr), []

    def counting_compare(*args):
        compared.append(None)
        return comparison(*args)

    for owner in (home, *bound_in):
        monkeypatch.setattr(owner, attr, counting_compare)
    lps = pivots = lookups = misses = evaluations = comparisons = 0
    for op in module.WORKLOADS[workload](seed).ops:
        output = op.run()
        lps += len(solves)
        pivots += len(pivoted)
        lookups += len(looked_up)
        misses += len(missed)
        evaluations += len(evaluated)
        comparisons += len(compared)
        assert op.check(output) is None, op.label
        # the checks' own work is not the pass's, as in the tracer
        for counted in (solves, pivoted, looked_up, missed, evaluated, compared):
            counted.clear()
    assert lps == LP_SOLVES[workload]
    assert pivots == PIVOTS[workload]
    assert (lookups, misses, evaluations, comparisons) == MEMO_WORK[workload]
