"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; none is tuned at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from coherence_lab import (
    GAIN_LE_1,
    T4_LOWER_A,
    EnsembleConfig,
    PairKind,
    SearchSpec,
    SuperpositionCoefficients,
    StateVector,
    TOLERANCES,
    evaluate_bound,
    haar_random_state,
    hermitian_eigenvalues,
    minimize_slack,
    mixing_identity_residual,
    norm_identity_residual,
    pure_state_coherence,
    random_coefficients,
    relative_entropy_coherence,
    summarize_ensembles,
)
from coherence_lab.linalg import DensityMatrix
from philox_oracle import numpy_generator

TRIALS_PER_DIM = 10_000
SWEEP_DIMS = (2, 4, 8, 16)
ALL_DIMS = tuple(range(2, 17))


def _announce(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "coherence_lab", *args],
        capture_output=True,
        text=True,
    )


def _spread_trials(total: int, dims) -> int:
    return math.ceil(total / len(dims))


def _summary(config: EnsembleConfig, bound_ids) -> dict:
    """``verify``'s summary of an ensemble, after the checks every criterion
    shares: no trial raised, and each of ``bound_ids`` was reported by every
    trial."""
    summary = summarize_ensembles([config])[0]
    assert summary["errors"] == 0, summary["error_samples"]
    for bound_id in bound_ids:
        assert summary["bounds"][bound_id]["count"] == config.trials
    return summary


@pytest.fixture(scope="module")
def disjoint_ensembles():
    """10^4 disjoint-support trials per dimension, shared by criteria 3 and 4."""
    started = time.perf_counter()
    summaries = {
        dim: _summary(
            EnsembleConfig(
                dim=dim,
                trials=TRIALS_PER_DIM,
                pair_kind=PairKind.DISJOINT_SUPPORT,
                seed=1_000 + dim,
            ),
            ("T1_EQUALITY", "GAIN_LE_1"),
        )
        for dim in SWEEP_DIMS
    }
    return summaries, time.perf_counter() - started


def test_acceptance_1_demo_uniform_basis_example():
    started = time.perf_counter()
    result = _cli("demo")
    elapsed = time.perf_counter() - started
    assert result.returncode == 0
    report = json.loads(result.stdout)
    omega_1 = report["results"][0]
    assert omega_1["id"] == "omega_1"
    assert abs(omega_1["superposition_coherence"] - 1.0) <= 1e-12
    assert omega_1["term_coherences"][0] == 0.0
    assert omega_1["term_coherences"][1] == 0.0
    assert elapsed < 1.0
    _announce(1, f"coherence 1 within 1e-12, terms incoherent, {elapsed:.2f}s")


def test_acceptance_2_demo_plus_minus_example():
    started = time.perf_counter()
    result = _cli("demo")
    elapsed = time.perf_counter() - started
    assert result.returncode == 0
    report = json.loads(result.stdout)
    omega_2 = report["results"][1]
    assert omega_2["id"] == "omega_2"
    assert abs(omega_2["superposition_coherence"]) <= 1e-12
    assert abs(omega_2["term_coherences"][0] - 1.0) <= 1e-12
    assert abs(omega_2["term_coherences"][1] - 1.0) <= 1e-12
    assert elapsed < 1.0
    _announce(2, f"superposition incoherent, terms at 1 bit, {elapsed:.2f}s")


def test_acceptance_3_disjoint_support_equality(disjoint_ensembles):
    summaries, build_time = disjoint_ensembles
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for summary in summaries.values():
        stats = summary["bounds"]["T1_EQUALITY"]
        assert stats["max_slack"] <= 1e-9
        worst = max(worst, stats["max_slack"])
        checked += stats["count"]
    elapsed = build_time + (time.perf_counter() - started)
    assert elapsed < 60.0
    _announce(3, f"{checked} trials, max residual {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_4_gain_ceiling_and_saturation(disjoint_ensembles):
    summaries, build_time = disjoint_ensembles
    started = time.perf_counter()
    worst = math.inf
    for summary in summaries.values():
        # The slack is 1 - gain, so this is gain <= 1 + 1e-9.
        stats = summary["bounds"]["GAIN_LE_1"]
        assert stats["min_slack"] >= -1e-9
        worst = min(worst, stats["min_slack"])

    spec = SearchSpec(
        bound_id="GAIN_LE_1",
        dim=2,
        pair_kind=PairKind.DISJOINT_SUPPORT,
        seed=4_242,
        restarts=16,
        iterations=2000,
    )
    result = minimize_slack(spec)
    coeffs, phi, psi = result.best_inputs
    best_gain = evaluate_bound(GAIN_LE_1, coeffs, phi, psi).lhs
    assert best_gain >= 1.0 - 1e-6
    assert result.best_slack >= -1e-9
    elapsed = build_time + (time.perf_counter() - started)
    assert elapsed < 60.0
    _announce(
        4,
        f"ensemble min slack {worst:.3e}, search best gain {best_gain:.9f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_5_orthogonal_and_general_upper_bounds():
    started = time.perf_counter()
    per_dim = _spread_trials(TRIALS_PER_DIM, ALL_DIMS)
    totals = {"T2_UPPER": 0, "T3_UPPER": 0}
    worst = {"T2_UPPER": math.inf, "T3_UPPER": math.inf}
    plans = [
        (PairKind.ORTHOGONAL_SAME_SPACE, "T2_UPPER", 2_000),
        (PairKind.NON_ORTHOGONAL, "T3_UPPER", 3_000),
    ]
    for kind, bound_id, seed_base in plans:
        for dim in ALL_DIMS:
            summary = _summary(
                EnsembleConfig(dim=dim, trials=per_dim, pair_kind=kind, seed=seed_base + dim),
                (bound_id,),
            )
            stats = summary["bounds"][bound_id]
            assert stats["min_slack"] >= -1e-9
            totals[bound_id] += stats["count"]
            worst[bound_id] = min(worst[bound_id], stats["min_slack"])
    elapsed = time.perf_counter() - started
    assert totals["T2_UPPER"] >= TRIALS_PER_DIM
    assert totals["T3_UPPER"] >= TRIALS_PER_DIM
    assert elapsed < 120.0
    _announce(
        5,
        f"{totals['T2_UPPER']}+{totals['T3_UPPER']} trials, min slacks "
        f"{worst['T2_UPPER']:.3e} / {worst['T3_UPPER']:.3e}, {elapsed:.1f}s",
    )


def test_acceptance_6_two_branch_lower_bound():
    started = time.perf_counter()
    per_dim = _spread_trials(TRIALS_PER_DIM, ALL_DIMS)
    checked = 0
    worst = math.inf
    lower = ("T4_LOWER_A", "T4_LOWER_B")
    for dim in ALL_DIMS:
        summary = _summary(
            EnsembleConfig(dim=dim, trials=per_dim, pair_kind=PairKind.ARBITRARY, seed=6_000 + dim),
            lower,
        )
        for bound_id in lower:
            assert summary["bounds"][bound_id]["min_slack"] >= -1e-9
            worst = min(worst, summary["bounds"][bound_id]["min_slack"])
        checked += per_dim

    # Hand-checked point: uniform weights on two basis states.
    inv = 1.0 / math.sqrt(2.0)
    branch_a = evaluate_bound(
        T4_LOWER_A,
        SuperpositionCoefficients(inv, inv),
        StateVector([1, 0]),
        StateVector([0, 1]),
    )
    expected = -1.5 * (math.log2(3.0) - 2.0 / 3.0)  # = -1.3774437510817346
    assert abs(branch_a.rhs - expected) <= 1e-6
    elapsed = time.perf_counter() - started
    assert checked >= TRIALS_PER_DIM
    _announce(
        6,
        f"{checked} pairs, min branch slack {worst:.3e}, "
        f"hand point rhs_A = {branch_a.rhs:.9f}, {elapsed:.1f}s",
    )


def test_acceptance_7_proof_identity_suite():
    started = time.perf_counter()
    per_dim = _spread_trials(1_000, ALL_DIMS)
    checked = 0
    worst_mixing = 0.0
    worst_norm = 0.0
    for dim in ALL_DIMS:
        for k in range(per_dim):
            seed = 70_000 + dim * 1_000 + k
            phi = haar_random_state(dim, seed)
            psi = haar_random_state(dim, seed + 500_000)
            coeffs = random_coefficients(seed + 900_000)
            mixing = mixing_identity_residual(coeffs, phi, psi)
            norm = norm_identity_residual(coeffs, phi, psi)
            assert mixing <= TOLERANCES.identity_residual
            assert norm <= TOLERANCES.identity_residual
            worst_mixing = max(worst_mixing, mixing)
            worst_norm = max(worst_norm, norm)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1_000
    _announce(
        7,
        f"{checked} triples, max residuals {worst_mixing:.2e} / {worst_norm:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_8_oracle_equivalence():
    started = time.perf_counter()
    worst_path = 0.0
    for k in range(1_000):
        dim = ALL_DIMS[k % len(ALL_DIMS)]
        state = haar_random_state(dim, 80_000 + k)
        pure = pure_state_coherence(state)
        mixed = relative_entropy_coherence(DensityMatrix.from_pure(state))
        gap = abs(pure - mixed)
        assert gap <= 1e-8
        worst_path = max(worst_path, gap)

    gen = numpy_generator(81_000)
    worst_eig = 0.0
    for _ in range(1_000):
        entries = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        matrix = np.array(
            [[entries[0].real, entries[1]], [np.conj(entries[1]), entries[2].real]]
        )
        eigs = hermitian_eigenvalues(matrix)
        mean = 0.5 * (matrix[0, 0].real + matrix[1, 1].real)
        radius = math.sqrt(
            0.25 * (matrix[0, 0].real - matrix[1, 1].real) ** 2 + abs(matrix[0, 1]) ** 2
        )
        gap = max(abs(eigs[0] - (mean + radius)), abs(eigs[1] - (mean - radius)))
        assert gap <= 1e-12
        worst_eig = max(worst_eig, gap)
    elapsed = time.perf_counter() - started
    _announce(
        8,
        f"path gap {worst_path:.2e}, 2x2 oracle gap {worst_eig:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_9_verify_reports_are_byte_identical(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "acceptance.cfg"
    config.write_text(
        "seed = 90\n"
        "trials = 100\n"
        "dims = 2,4\n"
        "pair_kinds = DisjointSupport,OrthogonalSameSpace,NonOrthogonal,Arbitrary\n",
        encoding="utf-8",
    )
    outputs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{name}.json"
        result = _cli(
            "verify", "--config", str(config), "--workers", workers, "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - started
    _announce(9, f"3 runs byte-identical ({len(outputs[0])} bytes), {elapsed:.1f}s")
