"""Benchmark for vpal: one workload, one seed, one cold process.

    python3 benchmarks/run.py --workload classify --seed 1 --seconds 35 --trace 0

Run from the repository root; vpal is imported from ./src. With ``--trace 0``
the timed pass runs untraced and the end-to-end metrics are printed, every
time in reference seconds (see hostspeed.py); with ``--trace 1`` the same
inputs run under the tracer and the per-layer metrics are printed instead, in
wall seconds. Output checks run after the timed pass. A JSON line
describing the host and the run precedes the result, which is the last line
of standard output. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 11
SETUP_SPEED_PROBES = 5


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop where the timed pass would begin and print the monotonic clock")
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median reference time from launching a fresh interpreter to its first timed item.

    The host's speed is probed just before and just after each launch.
    """
    clock, spans = HostClock(), []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_SPEED_PROBES):
            clock.probe()
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        spans.append((start, float(probe.stdout.split()[-1])))
        for _ in range(SETUP_SPEED_PROBES):
            clock.probe()
    return statistics.median(clock.reference_seconds(start, ready) for start, ready in spans)


def _percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    density, integrated by the midpoint rule. A plain order statistic jumps
    between neighbours where the item costs climb steeply, as they do near the
    90th percentile of ``classify``; this estimator moves smoothly.
    """
    xs, steps = sorted(values), 16
    n, q = len(xs), p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [(a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
            for u in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    weights = [0.0] * n
    for k, log in enumerate(logs):
        weights[k // steps] += math.exp(log - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "vpal" / "__init__.py").is_file():
        print(f"run.py: no vpal sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from vpal.factor import BudgetExhausted
    from workloads import SCHEMA_PATH, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    setup_s = _setup_seconds(args) if args.trace == 0 else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # The traced run reads raw wall time: a probe firing inside a span would count as its self time.
    clock = HostClock() if tracer is None else contextlib.nullcontext()
    outputs, stamps = [], []
    gc.collect()
    with clock:
        pass_start = time.monotonic()
        for index, item in enumerate(inputs):
            if tracer is not None:
                tracer.item = index
            t = time.monotonic()
            try:
                output = workload.run(item)
            except BudgetExhausted:
                output = None
            stamps.append((t, time.monotonic()))
            outputs.append(output)
        pass_end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    raw_times = [end - start for start, end in stamps]
    raw_pass_s = pass_end - pass_start
    if tracer is None:
        times = [clock.reference_seconds(start, end) for start, end in stamps]
        pass_s = clock.reference_seconds(pass_start, pass_end)
    else:
        times, pass_s = raw_times, raw_pass_s

    import jsonschema

    validator = jsonschema.Draft202012Validator(json.loads((ROOT / SCHEMA_PATH).read_text()))
    ops = failed_ops = failed_items = mismatched = 0
    counts: dict[str, int] = {}
    for item, output in zip(inputs, outputs):
        if output is None:
            ops, failed_ops, failed_items = ops + 1, failed_ops + 1, failed_items + 1
            continue
        outcome = workload.outcome(item, output)
        mismatches = workload.check(item, output, validator)
        ops += outcome.ops
        failed_ops += outcome.failed_ops + mismatches
        failed_items += mismatches > 0
        mismatched += mismatches
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value

    items_per_s = len(inputs) / pass_s
    p90 = _percentile(times, 90)
    if tracer is None:
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "item_p50_ms": (_percentile(times, 50) * 1e3, "ms"),
            "item_p90_ms": (p90 * 1e3, "ms"),
            "completed_share": (1 - failed_ops / ops if ops else 1.0, "ratio"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = tracer.metrics(sum(times))
        for key in ("oracle.checks", "oracle.skips.budget", "oracle.skips.omega_cap"):
            metrics[key] = (counts.get(key, 0), "count")
        metrics["trace.items_per_s"] = (items_per_s, "1/s")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(inputs),
        "items_beyond_p90": sum(t > p90 for t in times),
        "pass_s": pass_s,
        "wall_pass_s": raw_pass_s,
        "wall_item_p50_ms": _percentile(raw_times, 50) * 1e3,
        "wall_item_p90_ms": _percentile(raw_times, 90) * 1e3,
        "host_slowdown": clock.slowdown() if tracer is None else None,
        "budgets": workload.budgets,
        "failed_share": failed_ops / ops if ops else 0.0,
        "failed_items": [list(item) for item, out in zip(inputs, outputs) if out is None],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": len(inputs),
        "failed": failed_items,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
