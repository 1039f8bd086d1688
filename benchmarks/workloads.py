"""The four benchmark workloads and the checks on their outputs.

Each workload splits one unit of work into three steps:

* ``prepare(seed)`` derives the inputs from the workload seed (untimed);
* ``run(state)`` hands those inputs to the program and returns its raw
  outputs (the only timed step);
* ``check(state, outputs, baseline)`` verifies the outputs against the stored
  reference, an independent oracle, and the first run of the same inputs
  (untimed), and counts items and failed items.

``warmup(state)`` produces the baseline run that later units must reproduce
byte for byte; for ``verify-workers2`` it is the ``--workers 1`` run, so the
check also proves that the worker count does not change the report.

The program is always reached through module attributes (``cli.main``,
``entropy.relative_entropy_coherence``, ...), so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coherence_lab import cli, ensembles, entropy, linalg, rng
from coherence_lab.errors import CoherenceLabError

# The package's ``superpose`` attribute is the function; this is the module.
superpose = importlib.import_module("coherence_lab.superpose")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# verify and saturate compare against a stored reference, kept for these many
# master seeds: workload seed n runs master seed n % POOL_SIZE.
POOL_SIZE = 32
VERIFY_TRIALS = 125  # per (pair kind, dimension): 16 x 125 = 2000 trials per unit
# (bound, dim, pair kind or None for the bound's default, restarts)
SATURATE_SEARCHES = (
    ("GAIN_LE_1", 2, None, 4),
    ("T4_LOWER_A", 8, "Arbitrary", 2),
)
MIXED_DIMS = (2, 4, 8, 16)
MIXED_PAIRS = 12  # per dimension and pair kind (non-orthogonal, orthogonal)

# Gate of the batched-kernel work: per-bound slack extremes agree to 1e-12.
SLACK_ATOL = 1e-12
# Acceptance 8's bound on the pure path versus the eigensolver path.
PURE_GAP_ATOL = 1e-8
# Mixture entropy versus the eigvalsh oracle below.
ORACLE_ATOL = 1e-8
# A search may end above its stored best slack by 1e-9 plus 1% of it. Tiny
# round-off changes move the stored values by ~1e-17; cutting the searches to
# 1500 iterations raises them by 2x or more.
SATURATE_ABS_MARGIN = 1e-9
SATURATE_REL_MARGIN = 0.01
SLACK_TOLERANCE = 1e-9  # the program's default verdict tolerance


def oracle_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in bits from LAPACK's Hermitian eigenvalues."""
    eigs = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    p = eigs[eigs > 0.0]
    return float(-(p * np.log2(p)).sum())


def oracle_coherence(matrix: np.ndarray) -> float:
    """Relative entropy of coherence: diagonal entropy minus oracle entropy."""
    diag = np.clip(matrix.diagonal().real, 0.0, None)
    p = diag[diag > 0.0]
    return float(-(p * np.log2(p)).sum()) - oracle_entropy(matrix)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout payload)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass
class Checked:
    """What one unit did: items attempted, items failed, and check failures."""

    items: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# verify


def verify_summary(report: dict) -> dict:
    """The reference-comparable part of a verify report."""
    summary = {}
    for ens in report["results"]["ensembles"]:
        summary[f"{ens['pair_kind']}/{ens['dim']}"] = {
            "trials": ens["trials"],
            "errors": ens["errors"],
            "violations": ens["violations"],
            "bounds": {
                bound: [s["count"], s["violations"], s["min_slack"], s["max_slack"]]
                for bound, s in ens["bounds"].items()
            },
        }
    return summary


def compare_verify(summary: dict, expected: dict) -> list[str]:
    """Counts must match exactly and slack extremes within SLACK_ATOL."""
    problems = []
    if summary.keys() != expected.keys():
        return [f"ensembles {sorted(summary)} != reference {sorted(expected)}"]
    for key, want in expected.items():
        got = summary[key]
        for name in ("trials", "errors", "violations"):
            if got[name] != want[name]:
                problems.append(f"{key}: {name} {got[name]} != reference {want[name]}")
        if got["bounds"].keys() != want["bounds"].keys():
            problems.append(f"{key}: bounds {sorted(got['bounds'])} != reference")
            continue
        for bound, (count, viol, lo, hi) in want["bounds"].items():
            g_count, g_viol, g_lo, g_hi = got["bounds"][bound]
            if (g_count, g_viol) != (count, viol):
                problems.append(
                    f"{key} {bound}: count/violations {g_count}/{g_viol} != {count}/{viol}"
                )
            if abs(g_lo - lo) > SLACK_ATOL or abs(g_hi - hi) > SLACK_ATOL:
                problems.append(
                    f"{key} {bound}: slack range [{g_lo!r}, {g_hi!r}] != [{lo!r}, {hi!r}]"
                )
    return problems


class Verify:
    """``coherence-lab verify`` on the README default config, sized down."""

    def __init__(self, workers: int):
        self.workers = workers

    def argv(self, master: int, workers: int) -> list[str]:
        return ["verify", "--seed", str(master), "--trials", str(VERIFY_TRIALS),
                "--workers", str(workers)]

    def prepare(self, seed: int) -> dict:
        master = seed % POOL_SIZE
        return {"master": master, "argv": self.argv(master, self.workers)}

    def warmup(self, state: dict):
        return call_cli(self.argv(state["master"], 1))

    def run(self, state: dict):
        return call_cli(state["argv"])

    def check(self, state: dict, outputs, baseline, reference: dict) -> Checked:
        code, text = outputs
        report = json.loads(text)
        trials = sum(e["trials"] for e in report["results"]["ensembles"])
        errors = sum(e["errors"] for e in report["results"]["ensembles"])
        violating = 0
        for ens in report["results"]["ensembles"]:
            recorded = len(ens["violating_trials"])
            # The report lists at most 20 violating trials per ensemble; past
            # that, its count of violated reports bounds the violating trials.
            violating += recorded if recorded < 20 else ens["violations"]
        checked = Checked(items=trials, failed=errors + violating)
        checked.info = {"trials": trials, "trial_errors": errors}
        if code != 0:
            checked.problems.append(f"verify exited {code}")
        if reference.get("verify_trials") != VERIFY_TRIALS:
            checked.problems.append("reference.json was made for another trial count")
        expected = reference["seeds"][str(state["master"])]["verify"]
        checked.problems += compare_verify(verify_summary(report), expected)
        if text != baseline[1]:
            checked.problems.append("report differs from the --workers 1 baseline bytes")
        return checked


# ---------------------------------------------------------------------------
# saturate


class Saturate:
    """Two saturation searches: the README default and the largest simplex."""

    def prepare(self, seed: int) -> dict:
        master = seed % POOL_SIZE
        argvs = []
        for bound, dim, kind, restarts in SATURATE_SEARCHES:
            argv = ["saturate", "--bound", bound, "--dim", str(dim),
                    "--restarts", str(restarts), "--seed", str(master)]
            if kind is not None:
                argv += ["--pair-kind", kind]
            argvs.append(argv)
        return {"master": master, "argvs": argvs}

    def run(self, state: dict):
        return [call_cli(argv) for argv in state["argvs"]]

    warmup = run

    def check(self, state: dict, outputs, baseline, reference: dict) -> Checked:
        expected = reference["seeds"][str(state["master"])]["saturate"]
        evaluations = restarts = failed = 0
        problems = []
        if reference.get("saturate") != [list(s) for s in SATURATE_SEARCHES]:
            problems.append("reference.json was made for other searches")
        for (code, text), best_ref, search in zip(outputs, expected, SATURATE_SEARCHES):
            payload = json.loads(text)["results"]
            evaluations += payload["evaluations"]
            restarts += payload["restarts"]
            best = payload["best_slack"]
            if code != 0:
                problems.append(f"{search[0]}: saturate exited {code}")
                failed += payload["evaluations"]
            if not best >= -SLACK_TOLERANCE:
                problems.append(f"{search[0]}: best slack {best!r} below -tolerance")
            ceiling = best_ref + SATURATE_ABS_MARGIN + SATURATE_REL_MARGIN * abs(best_ref)
            if not best <= ceiling:
                problems.append(
                    f"{search[0]}: best slack {best!r} above reference {best_ref!r}"
                )
        if [text for _, text in outputs] != [text for _, text in baseline]:
            problems.append("saturate reports differ from the first run's bytes")
        return Checked(items=evaluations, failed=failed, problems=problems,
                       info={"evaluations": evaluations, "restarts": restarts})


# ---------------------------------------------------------------------------
# mixed-state oracle


class MixedOracle:
    """Density matrices of superposition branches through the eigensolver."""

    def prepare(self, seed: int) -> dict:
        pairs = []
        index = 0
        for dim in MIXED_DIMS:
            for _ in range(MIXED_PAIRS):
                phi = ensembles.haar_random_state(dim, rng.subseed(seed, index))
                psi = ensembles.haar_random_state(dim, rng.subseed(seed, index + 1))
                coeffs = ensembles.random_coefficients(rng.subseed(seed, index + 2))
                pairs.append((coeffs, phi, psi))
                phi, psi = ensembles.random_orthogonal_pair(dim, rng.subseed(seed, index + 3))
                coeffs = ensembles.random_coefficients(rng.subseed(seed, index + 4))
                pairs.append((coeffs, phi, psi))
                index += 5
        return {"pairs": pairs}

    def run(self, state: dict):
        results = []
        for coeffs, phi, psi in state["pairs"]:
            try:
                t1, t2 = superpose.t_states(coeffs, phi, psi)
                rho1 = linalg.DensityMatrix.from_pure(t1)
                rho2 = linalg.DensityMatrix.from_pure(t2)
                mixture = linalg.DensityMatrix(0.5 * (rho1.matrix + rho2.matrix))
                values = [
                    (entropy.relative_entropy_coherence(rho), entropy.von_neumann_entropy(rho))
                    for rho in (rho1, rho2, mixture)
                ]
            except (CoherenceLabError, ValueError) as exc:
                results.append(f"{type(exc).__name__}: {exc}")
                continue
            results.append((t1, t2, mixture.matrix, values))
        return results

    warmup = run

    def check(self, state: dict, outputs, baseline, reference: dict) -> Checked:
        checked = Checked(items=3 * len(outputs))
        for k, (result, first) in enumerate(zip(outputs, baseline)):
            if isinstance(result, str):
                checked.failed += 3
                checked.problems.append(f"pair {k}: {result}")
                continue
            t1, t2, matrix, values = result
            failed = set()
            for m, branch in ((0, t1), (1, t2)):
                gap = abs(values[m][0] - entropy.pure_state_coherence(branch))
                if not gap <= PURE_GAP_ATOL:
                    failed.add(m)
                    checked.problems.append(f"pair {k}: T{m + 1} pure-path gap {gap:.3e}")
            mix_coherence, mix_entropy = values[2]
            want_entropy, want_coherence = oracle_entropy(matrix), oracle_coherence(matrix)
            if not (abs(mix_entropy - want_entropy) <= ORACLE_ATOL
                    and abs(mix_coherence - want_coherence) <= ORACLE_ATOL):
                failed.add(2)
                checked.problems.append(
                    f"pair {k}: mixture (C, S) = ({mix_coherence!r}, {mix_entropy!r}), "
                    f"oracle ({want_coherence!r}, {want_entropy!r})"
                )
            if isinstance(first, str) or values != first[3]:
                failed.update((0, 1, 2))
                checked.problems.append(f"pair {k}: values differ from the first run")
            checked.failed += len(failed)
        return checked


WORKLOADS = {
    "verify-default": Verify(workers=1),
    "verify-workers2": Verify(workers=2),
    "saturate-mix": Saturate(),
    "mixed-oracle": MixedOracle(),
}

