"""coherence-lab benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload verify-default --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, nothing is installed. With ``--trace 0`` the run measures

* ``setup_s``: median time from launching a fresh interpreter until
  ``coherence_lab`` and its CLI are imported (several launches);
* ``wall_s``: median time of one unit of work (inputs handed over until the
  report is complete), in a closed loop with one client;
* ``items_per_s``: median items per second of a unit;
* ``peak_rss_mb``: peak resident memory of the worker process.

Times are rescaled to a reference machine speed (calibrate.py); the raw
medians are in the record line. The three rates above come from untraced
runs only; ``--trace 1`` reports the per-layer metrics of ``tracer.py``. The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the machine, commit, workload and seed. ``failed`` over
``attempted`` is the run's error ratio; a crash, a timeout, a non-zero exit
or a failed check counts every attempted item as failed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 11
# A set-up probe or the worker (after its budget) that takes longer than this
# is killed; keeps every run under 180 s with a 20 s budget.
PROBE_TIMEOUT_S = 10.0
WORKER_GRACE_S = 120.0
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import coherence_lab, coherence_lab.cli; print('ready', flush=True)"
)


def worker_env() -> dict:
    """One BLAS thread, so the run uses at most the worker threads it asks for."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def machine_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup() -> tuple[float, float]:
    """Median launch-to-ready time of fresh interpreters: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        (line, code), seconds, scale = calibrate.timed(launch_probe)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        scaled.append(seconds * scale)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def launch_probe() -> tuple[str, int]:
    """Start an interpreter and return once it reports the program imported."""
    proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                            stdout=subprocess.PIPE, env=worker_env(), text=True)
    line = ""
    try:
        if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            line = proc.stdout.readline()
    finally:
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    return line, proc.returncode


def run_worker(args) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"problems": [f"worker timed out after {args.seconds + WORKER_GRACE_S} s"]}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"worker exited {proc.returncode}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"problems": ["worker printed no result"]}


def summarize(spec: dict, trace: bool, worker: dict, problems: list[str],
              setup_s: float | None, elapsed: float) -> tuple[dict, dict]:
    """The result line and the record fields that come from the worker.

    ``spec`` is BENCHMARK.json, which names every metric and its unit. A
    metric it names that the run did not measure reads 0 and fails the run.
    """
    problems = problems + worker.get("problems", [])
    attempted = max(1, worker.get("attempted", 0))
    failed = attempted if problems else worker.get("failed", attempted)
    record = {"numpy": worker.get("numpy")}
    if trace:
        values = dict(worker.get("per_layer") or {})
        values["error_ratio"] = failed / attempted
    else:
        walls = worker.get("walls") or [elapsed]
        rates = [n / w for n, w in zip(worker.get("items", []), walls)] or [0.0]
        peak = worker.get("peak_rss_mb")
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(rates),
            "setup_s": setup_s if setup_s is not None else elapsed,
            "peak_rss_mb": peak,
        }
        record["units_timed"] = len(walls)
        if worker.get("raw_walls"):
            record["wall_raw_s"] = statistics.median(worker["raw_walls"])
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in values:
            problems.append(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
    if problems:
        failed = attempted
    record["error_ratio"] = failed / attempted
    record["problems"] = problems[:20]
    record["problem_count"] = len(problems)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "coherence_lab" / "__init__.py").is_file():
        print(f"run.py: no coherence_lab sources under {SRC}", file=sys.stderr)
        return 2

    record = machine_record(args.workload, args.seed, args.seconds, args.trace)
    problems = []
    setup_s = None
    if not args.trace:
        try:
            setup_s, record["setup_raw_s"] = measure_setup()
        except (OSError, RuntimeError) as exc:
            problems.append(f"set-up: {exc}")
    start = time.perf_counter()
    worker = run_worker(args)
    elapsed = time.perf_counter() - start
    result, worker_record = summarize(spec, bool(args.trace), worker, problems, setup_s, elapsed)
    record.update(worker_record)

    for problem in record["problems"]:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>16} {name:<48} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>16} {'error_ratio':<48} {record['error_ratio']:>14.6g} "
          "failed/attempted", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
