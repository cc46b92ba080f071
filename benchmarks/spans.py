"""Per-layer spans, recorded from outside the package.

`Tracer.install()` replaces the public functions of each pcvote layer with
timing wrappers at every place the package binds them by name
(`rules` and `efficiency` import `lp_solve`, `rules` imports
`margin_matrix`, `axioms` imports `compare` and the dominator oracles, ...),
and `uninstall()` puts the originals back. A call made while the wrappers
are installed records one span: (name, start, end, parent index, size).
Spans stay in memory; `layer_metrics()` derives counts and self times
from them. Everything runs on one thread, so the spans of a pass form a
tree and a span's self time is its duration minus its children's.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter

from pcvote import axioms, cli, efficiency, extensions, model, paperlab, profilefmt, ratlp, rules


def _lp_size(args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    return len(lp.constraints), len(lp.objective)


# span name -> (defining module or class, attribute, other modules binding it, size probe)
TARGETS = {
    "profilefmt.parse_profile": (profilefmt, "parse_profile", (cli, paperlab), None),
    "profilefmt.format_profile": (profilefmt, "format_profile", (cli,), None),
    "model.margin_matrix": (model, "margin_matrix", (rules,), None),
    "model.replace_ballot": (model.Profile, "replace_ballot", (), None),
    "extensions.compare": (extensions, "compare", (axioms,), None),
    "extensions.dominates": (extensions, "dominates", (efficiency,), None),
    "ratlp.lp_solve": (ratlp, "lp_solve", (rules, efficiency), _lp_size),
    "rules.eval": (rules.SocialDecisionScheme, "__call__", (), None),
    "efficiency.find_dominator": (efficiency, "find_dominator", (axioms,), None),
    "efficiency.pc1_find_dominator": (efficiency, "pc1_find_dominator", (axioms,), None),
    "axioms.exhaustive_scan": (axioms, "exhaustive_scan", (), None),
    "axioms.find_manipulation": (axioms, "find_manipulation", (), None),
    "paperlab.verify": (paperlab, "verify_paper_suite", (), None),
    "cli.main": (cli, "main", (), None),
}
# `rules.ml` is wrapped inside the rule registry, where every caller finds
# it (`get_rule`, the CLI, the fact suite's default bench).
ML_SPAN = "rules.ml"


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_per_call", "_per_profile", "_ratio")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.recording = True

    def _wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            extent = size(args, kwargs) if size is not None else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, extent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, bound_in, size) in TARGETS.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, size)
            for owner in (home, *bound_in):
                # A module that stopped binding the name is skipped; the
                # harness tests check that every busy layer still records.
                if getattr(owner, attr, None) is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        sds = rules.RULES["ml"]
        self._saved.append((rules.RULES, "ml", sds))
        rules.RULES["ml"] = dataclasses.replace(sds, evaluate=self._wrap(ML_SPAN, sds.evaluate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if owner is rules.RULES:
                rules.RULES[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) record nothing."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def layer_metrics(self, profiles_scanned: int) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span.

        `profiles_scanned` is the number of profiles the pass's axiom scans
        enumerated (the unreduced count), the base of
        `axioms.rule_evals_per_profile`.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        under = {n: [-1] * len(spans) for n in (ML_SPAN, "efficiency.find_dominator", "axioms.exhaustive_scan")}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            for anchor, nearest in under.items():
                nearest[i] = i if name == anchor else (nearest[parent] if parent >= 0 else -1)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])

        def count(name):
            return calls.get(name, 0)

        def own(name):
            return self_s.get(name, 0.0)

        def per(num, den):
            return num / den if den else 0.0

        lps = [i for i, s in enumerate(spans) if s[0] == "ratlp.lp_solve"]
        lps_in_ml = sum(1 for i in lps if under[ML_SPAN][i] >= 0)
        rows_in_dom = sum(spans[i][4][0] for i in lps if under["efficiency.find_dominator"][i] >= 0)
        evals_in_scan = sum(
            1 for i, s in enumerate(spans) if s[0] == "rules.eval" and under["axioms.exhaustive_scan"][i] >= 0
        )
        out = {
            "ratlp.lp_solve.calls": count("ratlp.lp_solve"),
            "ratlp.lp_solve.self_s": own("ratlp.lp_solve"),
            "ratlp.lp_cells": sum(spans[i][4][0] * spans[i][4][1] for i in lps),
            "rules.ml.calls": count(ML_SPAN),
            "rules.ml.self_s": own(ML_SPAN),
            "rules.ml.lp_per_call": per(lps_in_ml, count(ML_SPAN)),
            "rules.eval.calls": count("rules.eval"),
            "rules.eval.self_s": own("rules.eval"),
            "axioms.rule_evals_per_profile": per(evals_in_scan, profiles_scanned),
            "axioms.self_s": own("axioms.exhaustive_scan") + own("axioms.find_manipulation"),
            "extensions.compare.calls": count("extensions.compare"),
            "extensions.compare.self_s": own("extensions.compare"),
            "extensions.dominates.calls": count("extensions.dominates"),
            "extensions.dominates.self_s": own("extensions.dominates"),
            "model.margin_matrix.calls": count("model.margin_matrix"),
            "model.margin_matrix.self_s": own("model.margin_matrix"),
            "model.replace_ballot.calls": count("model.replace_ballot"),
            "model.replace_ballot.self_s": own("model.replace_ballot"),
            "profilefmt.parse_s": own("profilefmt.parse_profile"),
            "profilefmt.format_s": own("profilefmt.format_profile"),
            "efficiency.find_dominator.calls": count("efficiency.find_dominator"),
            "efficiency.find_dominator.self_s": own("efficiency.find_dominator"),
            "efficiency.lp_rows_per_call": per(rows_in_dom, count("efficiency.find_dominator")),
            "efficiency.pc1_find_dominator.self_s": own("efficiency.pc1_find_dominator"),
            "paperlab.verify.self_s": own("paperlab.verify"),
            "cli.self_s": own("cli.main"),
        }
        return out
