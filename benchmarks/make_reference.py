"""Regenerate reference.json: the stored outputs verify and saturate must match.

    python3 benchmarks/make_reference.py

Run it only when the workload sizes in workloads.py change, on a commit whose
outputs are trusted; a change that claims a speed-up must not touch it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from workloads import POOL_SIZE, REFERENCE_PATH, Saturate, Verify, verify_summary  # noqa: E402


def build_reference(seeds) -> dict:
    """Run verify and saturate at each master seed and keep what checks compare."""
    verify, saturate = Verify(workers=1), Saturate()
    stored = {}
    for master in seeds:
        code, text = verify.run(verify.prepare(master))
        if code != 0:
            raise SystemExit(f"verify at seed {master} exited {code}")
        searches = saturate.run(saturate.prepare(master))
        if any(code != 0 for code, _ in searches):
            raise SystemExit(f"saturate at seed {master} ended unsatisfied")
        stored[str(master)] = {
            "verify": verify_summary(json.loads(text)),
            "saturate": [json.loads(t)["results"]["best_slack"] for _, t in searches],
        }
    return {
        "verify_trials": workloads.VERIFY_TRIALS,
        "saturate": [list(s) for s in workloads.SATURATE_SEARCHES],
        "seeds": stored,
    }


def main() -> int:
    reference = build_reference(range(POOL_SIZE))
    # One line per seed keeps the file small and its diffs readable.
    lines = [f' "verify_trials": {reference["verify_trials"]},',
             f' "saturate": {json.dumps(reference["saturate"])},',
             ' "seeds": {']
    lines += [f'  "{k}": {json.dumps(v, sort_keys=True)},' for k, v in reference["seeds"].items()]
    lines[-1] = lines[-1].rstrip(",")
    REFERENCE_PATH.write_text("{\n" + "\n".join(lines) + "\n }\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
