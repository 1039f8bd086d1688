"""Quick self-test of the benchmark at tiny sizes (well under a minute).

    python3 benchmarks/selftest.py

It shrinks every workload, builds a matching reference in memory, and checks
that

* every workload runs correctly, untraced and traced, and yields every metric
  BENCHMARK.json names, each with a unit;
* count metrics repeat exactly between two traced runs;
* the correctness checks reject tampered outputs;
* run.py exits non-zero without a result where the sources are missing.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import make_reference  # noqa: E402  (puts the checkout's src on sys.path)
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402

SEEDS = (0, 1)
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def shrink() -> None:
    workloads.VERIFY_TRIALS = 5
    workloads.SATURATE_SEARCHES = (("GAIN_LE_1", 2, None, 1), ("T4_LOWER_A", 2, "Arbitrary", 1))
    workloads.MIXED_DIMS = (2, 4)
    workloads.MIXED_PAIRS = 1


def check_emission(spec: dict, reference: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            counts = []
            for _ in range(2):
                measured = worker.measure(name, SEEDS[1], 0.01, trace, reference)
                result, record = run.summarize(spec, trace, measured, [], 0.1, 1.0)
                counts.append({k: result["metrics"][k]["value"]
                               for k in COUNT_METRICS if k in result["metrics"]})
            label = f"{name} trace={int(trace)}"
            expect(result["correct"], f"{label}: not correct: {record['problems'][:3]}")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
            wanted = [e["name"] for e in spec["per_layer" if trace else "end_to_end"]]
            expect(list(result["metrics"]) == wanted, f"{label}: metric names differ")
            for metric, body in result["metrics"].items():
                expect(isinstance(body["unit"], str) and body["unit"] != "",
                       f"{label}: {metric} has no unit")
                expect(isinstance(body["value"], (int, float)) and math.isfinite(body["value"]),
                       f"{label}: {metric} is not a finite number")
            if trace:
                expect(counts[0] == counts[1], f"{label}: counts differ between traced runs")
            else:
                expect(result["metrics"]["wall_s"]["value"] > 0, f"{label}: wall_s is 0")


def tamper_verify(reference: dict) -> None:
    verify = workloads.WORKLOADS["verify-default"]
    state = verify.prepare(SEEDS[0])
    baseline = verify.warmup(state)
    expect(not verify.check(state, baseline, baseline, reference).problems,
           "verify: untampered output rejected")
    report = json.loads(baseline[1])
    bounds = report["results"]["ensembles"][0]["bounds"]
    bound = sorted(bounds)[0]
    for field, change in (("count", 1), ("violations", 1), ("min_slack", 1e-9)):
        tampered = json.loads(baseline[1])
        tampered["results"]["ensembles"][0]["bounds"][bound][field] += change
        summary = workloads.verify_summary(tampered)
        expected = reference["seeds"][str(state["master"])]["verify"]
        expect(workloads.compare_verify(summary, expected) != [],
               f"verify: {field} + {change} not caught by the reference check")
    flipped = baseline[1].replace('"violations": 0', '"violations": 1', 1)
    expect(verify.check(state, (0, flipped), baseline, reference).problems != [],
           "verify: changed report bytes not caught")
    expect(verify.check(state, (1, baseline[1]), baseline, reference).problems != [],
           "verify: non-zero exit not caught")


def tamper_saturate(reference: dict) -> None:
    saturate = workloads.WORKLOADS["saturate-mix"]
    state = saturate.prepare(SEEDS[0])
    baseline = saturate.warmup(state)
    expect(not saturate.check(state, baseline, baseline, reference).problems,
           "saturate: untampered output rejected")
    for shift in (0.5, -1.0):
        tampered = []
        for code, text in baseline:
            report = json.loads(text)
            report["results"]["best_slack"] += shift
            tampered.append((code, json.dumps(report)))
        checked = saturate.check(state, tampered, tampered, reference)
        expect(len(checked.problems) >= 2, f"saturate: best_slack {shift:+} not caught")
    checked = saturate.check(state, [(1, t) for _, t in baseline], baseline, reference)
    expect(checked.problems != [] and checked.failed > 0, "saturate: non-zero exit not caught")


def tamper_mixed() -> None:
    mixed = workloads.WORKLOADS["mixed-oracle"]
    state = mixed.prepare(SEEDS[0])
    baseline = mixed.warmup(state)
    expect(not mixed.check(state, baseline, baseline, {}).problems,
           "mixed: untampered output rejected")
    t1, t2, matrix, values = baseline[0]
    cases = {
        "pure coherence": [(values[0][0] + 1e-6, values[0][1]), values[1], values[2]],
        "mixture entropy": [values[0], values[1], (values[2][0], values[2][1] + 1e-6)],
    }
    for label, changed in cases.items():
        outputs = [(t1, t2, matrix, changed)] + baseline[1:]
        checked = mixed.check(state, outputs, outputs, {})
        expect(checked.problems != [] and checked.failed >= 1, f"mixed: {label} not caught")
    outputs = ["ZeroVectorError: injected"] + baseline[1:]
    checked = mixed.check(state, outputs, baseline, {})
    expect(checked.failed == 3, "mixed: a raising pair does not fail its three matrices")


def check_stripped_directory() -> None:
    """In a directory with only BENCHMARK.json and benchmarks/, run.py must fail."""
    stripped = ROOT / ".bench_out" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0, "stripped directory: run.py exited 0")
        expect('"correct"' not in proc.stdout, "stripped directory: run.py printed a result")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json and workloads.py name different workloads")
    shrink()
    reference = make_reference.build_reference(SEEDS)
    check_emission(spec, reference)
    tamper_verify(reference)
    tamper_saturate(reference)
    tamper_mixed()
    check_stripped_directory()
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
