"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py``; not meant to be called by hand. The closed loop runs
one unit at a time, one client, until the time budget is spent:

* untraced (``--trace 0``): one warm-up unit (the byte-identity baseline),
  then timed units for ``--seconds``;
* traced (``--trace 1``): the warm-up, untraced units for half the budget,
  then traced units for the other half. The ratio of their median times is
  the tracing overhead.

Unit times are rescaled to a reference machine speed (calibrate.py).

Every unit, the warm-up included, is checked. The last traced unit's spans
go to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import coherence_lab  # noqa: E402
import numpy  # noqa: E402

import calibrate  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

MIN_UNITS = 3  # timed units per untraced run
MIN_TRACED_UNITS = 2  # per phase of a traced run


def closed_loop(workload, state, baseline, reference, seconds, min_units, tracer=None):
    """Run units back to back until another one would overrun ``seconds``.

    Returns one (scaled wall, raw wall, scale, check result, spans) per unit;
    see calibrate.py for the scaling.
    """
    units = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            outputs, raw, scale = calibrate.timed(workload.run, state)
        finally:
            if tracer is not None:
                tracer.uninstall()
        checked = workload.check(state, outputs, baseline, reference)
        spans = tracer.take() if tracer is not None else None
        units.append((raw * scale, raw, scale, checked, spans))
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed + raw > seconds:
            return units


def traced_metrics(units) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced units, and unstable counts."""
    per_unit = [layer_metrics(spans, c.items, c.info, scale)
                for _, _, scale, c, spans in units]
    metrics = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    unstable = [name for name in COUNT_METRICS
                if any(m[name] != per_unit[0][name] for m in per_unit[1:])]
    for name in COUNT_METRICS:
        metrics[name] = per_unit[0][name]
    return metrics, unstable


def write_spans(path: Path, spans) -> None:
    fields = ("id", "name", "start_ns", "end_ns", "parent", "thread", "trial", "size", "error")
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(fields, span))) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict,
            trace_out: Path | None = None) -> dict:
    """Run one workload; the figures and check failures run.py reports."""
    workload = WORKLOADS[name]
    state = workload.prepare(seed)
    baseline = workload.warmup(state)
    problems = workload.check(state, baseline, baseline, reference).problems

    result = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if trace:
        untraced = closed_loop(workload, state, baseline, reference,
                               seconds / 2, MIN_TRACED_UNITS)
        traced = closed_loop(workload, state, baseline, reference,
                             seconds / 2, MIN_TRACED_UNITS, Tracer())
        metrics, unstable = traced_metrics(traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(u[0] for u in traced) / statistics.median(u[0] for u in untraced))
        metrics["trace.count_mismatches"] = float(len(unstable))
        if unstable:
            print(f"worker: counts differ between traced units: {unstable}", file=sys.stderr)
        if trace_out is not None:
            write_spans(trace_out, traced[-1][4])
        units = untraced + traced
        result["per_layer"] = metrics
    else:
        units = closed_loop(workload, state, baseline, reference, seconds, MIN_UNITS)
        result["walls"] = [u[0] for u in units]
        result["raw_walls"] = [u[1] for u in units]
        result["items"] = [u[3].items for u in units]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [u[3] for u in units]
    for checked in checks:
        problems += checked.problems
    result["attempted"] = sum(c.items for c in checks)
    result["failed"] = sum(c.failed for c in checks)
    result["problems"] = problems
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(coherence_lab.__file__).resolve().parents:
        raise SystemExit(f"imported coherence_lab from {coherence_lab.__file__}, not {src}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_reference(), args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
