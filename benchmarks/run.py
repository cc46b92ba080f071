"""pcvote benchmark: one workload per process, closed loop, single caller.

    python3 benchmarks/run.py --workload corpus --seed 90210 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, each in its own process

Run from the repository root (the package is imported from `src/`).

--trace 0 cycles through the workload's operations while the next one is
expected to end within --seconds, with no instrumentation but the speed
probe (probe.py), and reports the end-to-end metrics. Times are reported
at the probe's reference speed; the times as measured are printed too.
--trace 1 runs one whole pass untraced and the same pass traced, and
reports per-layer counts and self times with the tracing overhead
(traced / untraced pass time).

Human-readable lines come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A failed output
check counts into "failed" and never stops the run. Workloads, metrics
and the reasons for them are in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("scan-ml", "scan-nolp", "corpus", "electorate")
SETUP_REPEATS = 5
ALL_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=90210)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed):
    """Import pcvote afresh from the checkout and build the workload's pass.

    Bytecode goes to .bench_build/, not next to the sources."""
    if not (ROOT / "src" / "pcvote" / "__init__.py").is_file():
        raise ImportError(f"no pcvote package under {ROOT / 'src'}")
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "pcvote" or m.startswith("pcvote.")] + ["workloads"]:
        sys.modules.pop(name, None)
    import workloads

    return workloads.WORKLOADS[workload](seed)


def run_op(op, pause, probe=None):
    """Time one operation; check its output outside the timed region.

    Returns (seconds, seconds at reference speed, output correct). Without
    a probe the two times are the same."""
    mark = probe.mark() if probe else 0
    start = perf_counter()
    try:
        output = op.run()
        problem = None
    except Exception:
        problem = "raised:\n" + traceback.format_exc()
    elapsed = perf_counter() - start
    reference = probe.reference_time(elapsed, mark) if probe else elapsed
    if problem is None:
        with pause():
            try:
                problem = op.check(output)
            except Exception:
                problem = "check raised:\n" + traceback.format_exc()
    if problem:
        print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    return elapsed, reference, problem is None


class Tally:
    def __init__(self):
        self.times = {"main": [], "suite": [], "control": []}
        self.reference = {"main": [], "suite": [], "control": []}
        self.per_op: dict[int, list[float]] = {}  # main op's index in the pass -> reference times
        self.attempted = 0
        self.failed = 0
        self.pass_rss_mb = None

    def note_rss(self):
        self.pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def record(self, kind, elapsed, reference, ok, index=None):
        self.times[kind].append(elapsed)
        self.reference[kind].append(reference)
        if kind == "main" and index is not None:
            self.per_op.setdefault(index, []).append(reference)
        self.attempted += 1
        self.failed += not ok


def measure(workload_pass, seconds):
    """Cycle through the pass's operations, with the speed probe running,
    while the next one is expected to end within `seconds`. At least one
    main operation runs. Peak memory is noted when the first whole pass is
    done (or at the end, if none is), so that it does not depend on how
    many operations the time allowed."""
    tally = Tally()
    deadline = perf_counter() + seconds
    ops = workload_pass.ops
    i = 0
    with SpeedProbe() as probe:
        while True:
            op = ops[i % len(ops)]
            tally.record(op.kind, *run_op(op, nullcontext, probe), index=i % len(ops))
            i += 1
            if i == len(ops):
                tally.note_rss()
            main = tally.times["main"]
            if main and perf_counter() + statistics.median(main) > deadline:
                if tally.pass_rss_mb is None:
                    tally.note_rss()
                return tally


def run_pass(workload_pass, tally, pause=nullcontext):
    start = perf_counter()
    for op in workload_pass.ops:
        tally.record(op.kind, *run_op(op, pause))
    return perf_counter() - start


def traced_pass(workload_pass, tally):
    """One pass untraced, then the same pass traced. Returns the per-layer
    metrics, with the tracing overhead, and the number of spans kept."""
    from spans import Tracer, unit

    untraced_s = run_pass(workload_pass, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = run_pass(workload_pass, tally, tracer.paused)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(workload_pass.profiles_scanned)
    layer["trace.untraced_pass_s"] = untraced_s
    layer["trace.traced_pass_s"] = traced_s
    layer["trace.overhead_ratio"] = traced_s / untraced_s
    return {name: (value, unit(name)) for name, value in layer.items()}, len(tracer.spans)


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    if len(samples) <= 10:
        return None
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(tally, setups):
    """Metrics with a bound, and lines printed without one. `setups` holds
    (seconds, seconds at reference speed) of each set-up."""
    main = [statistics.fmean(samples) for samples in tally.per_op.values()]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "op_ref_ms.mean": (1e3 * statistics.fmean(main), "ms"),
        "peak_rss_mb": (tally.pass_rss_mb, "MB"),
    }
    info = [
        f"op_ms.mean {1e3 * statistics.fmean(tally.times['main']):.3f} ms as timed, "
        f"{len(tally.times['main'])} ops, {len(main)} distinct",
        f"setup {statistics.median(raw for raw, _ in setups):.4f} s as timed",
        f"op_ref_ms.p50 {1e3 * statistics.median(main):.3f} ms",
    ]
    if (t := tail(main)) is not None:
        info.append(f"op_ref_ms.tail {1e3 * t[0]:.3f} ms (p{t[1]:.1f}, 10 of {len(main)} distinct ops beyond)")
    if suite := tally.reference["suite"]:
        info.append(f"suite_ref_s {statistics.median(suite):.4f} s (median of {len(suite)})")
    return metrics, info


def run_one(args):
    setups = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            start = perf_counter()
            try:
                workload_pass = set_up(args.workload, args.seed)
            except ImportError as exc:
                print(f"error: cannot import pcvote: {exc}", file=sys.stderr)
                return 2
            elapsed = perf_counter() - start
            setups.append((elapsed, probe.reference_time(elapsed, mark)))

    if args.trace:
        tally = Tally()
        metrics, spans_kept = traced_pass(workload_pass, tally)
        info = [f"{spans_kept} spans kept in memory"]
    else:
        tally = measure(workload_pass, args.seconds)
        metrics, info = end_to_end(tally, setups)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    for line in info:
        print(f"  {line}")
    print(f"  ops attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; prints every metric per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ALL_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
