"""The benchmark's tracer (`benchmarks/spans.py`) wraps each traced
function at every module that binds it by name, and silently skips a
module that no longer does. These checks keep a refactor from dropping a
binding unnoticed."""

import importlib.util
from pathlib import Path

from pcvote import rules

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


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
