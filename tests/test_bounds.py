"""Bound reports: frozen examples, slack conventions, and random sweeps."""

import math

import numpy as np
import pytest

from coherence_lab import (
    ALL_BOUND_IDS,
    BOUNDS,
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T3_UPPER,
    T4_LOWER_A,
    T4_LOWER_B,
    EnsembleConfig,
    PairKind,
    StateVector,
    SuperpositionCoefficients,
    WrongPairClassError,
    ZeroVectorError,
    evaluate_all,
    evaluate_bound,
    haar_random_state,
    inputs_digest,
    random_coefficients,
    random_disjoint_support_pair,
    random_orthogonal_pair,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

E0 = StateVector([1.0, 0.0])
E1 = StateVector([0.0, 1.0])
PLUS = StateVector([INV_SQRT2, INV_SQRT2])
MINUS = StateVector([INV_SQRT2, -INV_SQRT2])
EQUAL = SuperpositionCoefficients(INV_SQRT2, INV_SQRT2)


def shannon_oracle(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def h_oracle(x) -> float:
    return shannon_oracle([x, 1.0 - x])


# --- disjoint-support equality -------------------------------------------------


def test_equality_on_uniform_basis_pair():
    report = evaluate_bound(T1_EQUALITY, EQUAL, E0, E1)
    assert abs(report.lhs - 1.0) < 1e-12
    assert abs(report.rhs - 1.0) < 1e-12
    assert report.slack <= 1e-12
    assert report.satisfied


def test_equality_with_degenerate_weight():
    coeffs = SuperpositionCoefficients(1.0, 0.0)
    report = evaluate_bound(T1_EQUALITY, coeffs, E0, E1)
    assert report.lhs == report.rhs == 0.0


def test_equality_four_dimensional_example():
    phi = StateVector([INV_SQRT2, INV_SQRT2, 0.0, 0.0])
    psi = StateVector([0.0, 0.0, INV_SQRT2, INV_SQRT2])
    coeffs = SuperpositionCoefficients(math.sqrt(0.3), math.sqrt(0.7))
    expected = 0.3 + 0.7 + h_oracle(0.3)  # = 1.8812908992306927
    omega_probs = [0.15, 0.15, 0.35, 0.35]
    assert abs(shannon_oracle(omega_probs) - expected) < 1e-12
    report = evaluate_bound(T1_EQUALITY, coeffs, phi, psi)
    assert abs(report.lhs - expected) < 1e-12
    assert abs(report.rhs - expected) < 1e-12
    assert report.slack <= 1e-12


def test_equality_rejects_non_disjoint_pairs():
    with pytest.raises(WrongPairClassError):
        evaluate_bound(T1_EQUALITY, EQUAL, PLUS, MINUS)


def test_equality_verdict_uses_residual_rule():
    report = evaluate_bound(T1_EQUALITY, EQUAL, E0, E1, tolerance=1e-20)
    assert report.slack > 1e-20
    assert not report.satisfied


# --- gain ceiling ----------------------------------------------------------------


def test_gain_saturates_on_uniform_basis_pair():
    report = evaluate_bound(GAIN_LE_1, EQUAL, E0, E1)
    assert abs(report.lhs - 1.0) < 1e-12
    assert report.rhs == 1.0
    assert abs(report.slack) < 1e-12
    assert report.satisfied


def test_gain_zero_for_degenerate_weight():
    report = evaluate_bound(GAIN_LE_1, SuperpositionCoefficients(1.0, 0.0), E0, E1)
    assert report.lhs == 0.0


def test_gain_rejects_non_disjoint_pairs():
    with pytest.raises(WrongPairClassError):
        evaluate_bound(GAIN_LE_1, EQUAL, E0, PLUS)


def test_gain_sweep_never_exceeds_one():
    for seed in range(300):
        dim = (2, 4, 8, 16)[seed % 4]
        config = EnsembleConfig(
            dim=dim, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=seed
        )
        phi, psi = random_disjoint_support_pair(config)
        report = evaluate_bound(GAIN_LE_1, random_coefficients(seed + 1), phi, psi)
        assert report.lhs <= 1.0 + 1e-9
        assert report.satisfied


# --- orthogonal upper bound --------------------------------------------------------


def test_orthogonal_bound_on_plus_minus_pair():
    report = evaluate_bound(T2_UPPER, EQUAL, PLUS, MINUS)
    assert report.lhs <= 1e-12
    assert abs(report.rhs - 4.0) < 1e-12
    assert report.satisfied


def test_orthogonal_bound_on_disjoint_pair():
    report = evaluate_bound(T2_UPPER, EQUAL, E0, E1)
    assert abs(report.lhs - 1.0) < 1e-12
    assert abs(report.rhs - 2.0) < 1e-12


def test_orthogonal_bound_rejects_overlapping_pairs():
    with pytest.raises(WrongPairClassError):
        evaluate_bound(T2_UPPER, EQUAL, E0, PLUS)


def test_orthogonal_bound_sweep():
    for seed in range(300):
        dim = 2 + seed % 15
        phi, psi = random_orthogonal_pair(dim, seed)
        report = evaluate_bound(T2_UPPER, random_coefficients(seed + 7), phi, psi)
        assert report.slack >= -1e-9


# --- general upper bound -------------------------------------------------------------


def test_general_bound_on_parallel_plus_states():
    report = evaluate_bound(T3_UPPER, EQUAL, PLUS, PLUS)
    assert abs(report.lhs - 2.0) < 1e-12
    assert abs(report.rhs - 4.0) < 1e-12
    assert report.satisfied


def test_general_bound_on_zero_plus_example():
    raw = np.array([INV_SQRT2 + 0.5, 0.5])
    s_sq = float(raw @ raw)
    probs = raw**2 / s_sq
    expected_lhs = s_sq * shannon_oracle(probs)
    report = evaluate_bound(T3_UPPER, EQUAL, E0, PLUS)
    assert abs(report.lhs - expected_lhs) < 1e-12
    assert abs(report.rhs - 3.0) < 1e-12
    assert report.slack >= 0.0


def test_general_bound_sweep():
    for seed in range(300):
        dim = 2 + seed % 15
        phi = haar_random_state(dim, seed)
        psi = haar_random_state(dim, seed + 50_021)
        report = evaluate_bound(T3_UPPER, random_coefficients(seed + 11), phi, psi)
        assert report.slack >= -1e-9


# --- two-branch lower bound ------------------------------------------------------------


def test_lower_bound_on_uniform_basis_pair():
    branch_a = evaluate_bound(T4_LOWER_A, EQUAL, E0, E1)
    branch_b = evaluate_bound(T4_LOWER_B, EQUAL, E0, E1)
    expected_rhs = -1.5 * h_oracle(1.0 / 3.0)  # = -1.3774437510817346
    assert abs(expected_rhs - (-1.377443751)) < 1e-6
    assert abs(branch_a.rhs - expected_rhs) < 1e-12
    assert abs(branch_a.lhs - 1.0) < 1e-12
    assert branch_a.satisfied and branch_b.satisfied


def test_lower_bound_with_degenerate_weight():
    phi = StateVector([math.sqrt(0.4), math.sqrt(0.6)])
    coeffs = SuperpositionCoefficients(1.0, 0.0)
    branch_a = evaluate_bound(T4_LOWER_A, coeffs, phi, E1)
    coherence = shannon_oracle([0.4, 0.6])
    assert abs(branch_a.lhs - coherence) < 1e-12
    assert abs(branch_a.rhs - coherence / 2.0) < 1e-12
    assert branch_a.satisfied


def test_lower_bound_sweep():
    for seed in range(300):
        dim = 2 + seed % 15
        phi = haar_random_state(dim, seed)
        psi = haar_random_state(dim, seed + 90_001)
        coeffs = random_coefficients(seed + 13)
        branch_a = evaluate_bound(T4_LOWER_A, coeffs, phi, psi)
        branch_b = evaluate_bound(T4_LOWER_B, coeffs, phi, psi)
        assert branch_a.slack >= -1e-9
        assert branch_b.slack >= -1e-9


def test_lower_bound_coefficient_symmetry():
    for seed in range(50):
        phi = haar_random_state(4, seed)
        psi = haar_random_state(4, seed + 777)
        coeffs = random_coefficients(seed + 3)
        swapped = SuperpositionCoefficients(coeffs.beta, coeffs.alpha)
        branch_a = evaluate_bound(T4_LOWER_A, coeffs, phi, psi)
        swapped_b = evaluate_bound(T4_LOWER_B, swapped, psi, phi)
        assert abs(branch_a.lhs - swapped_b.lhs) < 1e-12
        assert abs(branch_a.rhs - swapped_b.rhs) < 1e-12


# --- routing and report plumbing ---------------------------------------------------------


def test_evaluate_all_routes_disjoint_pairs():
    ids = [r.bound_id for r in evaluate_all(EQUAL, E0, E1)]
    assert ids == [T1_EQUALITY, GAIN_LE_1, T2_UPPER, T4_LOWER_A, T4_LOWER_B]


def test_evaluate_all_routes_orthogonal_pairs():
    ids = [r.bound_id for r in evaluate_all(EQUAL, PLUS, MINUS)]
    assert ids == [T2_UPPER, T4_LOWER_A, T4_LOWER_B]


def test_evaluate_all_routes_non_orthogonal_pairs():
    ids = [r.bound_id for r in evaluate_all(EQUAL, E0, PLUS)]
    assert ids == [T3_UPPER, T4_LOWER_A, T4_LOWER_B]


def test_evaluate_all_propagates_cancellation_error():
    # Antiparallel branches cancel exactly; the general upper bound needs the
    # normalized superposition, so the degeneracy propagates.
    coeffs = SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2)
    with pytest.raises(ZeroVectorError):
        evaluate_all(coeffs, PLUS, PLUS)


def test_orthogonal_bound_never_tighter_than_equality():
    for seed in range(100):
        config = EnsembleConfig(
            dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=seed
        )
        phi, psi = random_disjoint_support_pair(config)
        coeffs = random_coefficients(seed)
        equality = evaluate_bound(T1_EQUALITY, coeffs, phi, psi)
        upper = evaluate_bound(T2_UPPER, coeffs, phi, psi)
        assert upper.slack >= equality.slack - 1e-9


def test_reports_are_phase_invariant():
    theta = 0.83
    rotation = complex(np.exp(1j * theta))
    for seed in range(30):
        phi = haar_random_state(3, seed)
        psi = haar_random_state(3, seed + 41)
        coeffs = random_coefficients(seed)
        rotated_phi = StateVector(rotation * phi.amps)
        rotated_coeffs = SuperpositionCoefficients(
            coeffs.alpha * np.conj(rotation), coeffs.beta
        )
        base = evaluate_bound(T3_UPPER, coeffs, phi, psi)
        rotated = evaluate_bound(T3_UPPER, rotated_coeffs, rotated_phi, psi)
        assert abs(base.lhs - rotated.lhs) < 1e-12
        assert abs(base.rhs - rotated.rhs) < 1e-12
        base_a = evaluate_bound(T4_LOWER_A, coeffs, phi, psi)
        rotated_a = evaluate_bound(T4_LOWER_A, rotated_coeffs, rotated_phi, psi)
        assert abs(base_a.lhs - rotated_a.lhs) < 1e-12
        assert abs(base_a.rhs - rotated_a.rhs) < 1e-12


def test_slack_sign_conventions():
    upper = evaluate_bound(T2_UPPER, EQUAL, E0, E1)
    assert upper.slack == upper.rhs - upper.lhs
    lower = evaluate_bound(T4_LOWER_A, EQUAL, E0, E1)
    assert lower.slack == lower.lhs - lower.rhs
    equality = evaluate_bound(T1_EQUALITY, EQUAL, E0, E1)
    assert equality.slack == abs(equality.lhs - equality.rhs)
    assert equality.slack >= 0.0


def test_inputs_digest_is_stable_and_discriminating():
    first = inputs_digest(EQUAL, E0, E1)
    again = inputs_digest(EQUAL, E0, E1)
    other = inputs_digest(EQUAL, E0, PLUS)
    assert first == again
    assert first != other
    assert len(first) == 16
    assert all(ch in "0123456789abcdef" for ch in first)
    report = evaluate_bound(T1_EQUALITY, EQUAL, E0, E1)
    assert report.inputs_digest == first


def test_bounds_registry_covers_every_bound():
    assert set(BOUNDS) == set(ALL_BOUND_IDS)
    for bound in BOUNDS.values():
        assert bound.default_kind in bound.kinds
        assert bound.direction in ("equality", "upper", "lower")


def test_evaluate_bound_matches_evaluate_all():
    config = EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17)
    pairs = [
        random_disjoint_support_pair(config),
        random_orthogonal_pair(4, 18),
        (haar_random_state(4, 19), haar_random_state(4, 20)),
    ]
    coeffs = random_coefficients(21)
    for phi, psi in pairs:
        for report in evaluate_all(coeffs, phi, psi):
            assert evaluate_bound(report.bound_id, coeffs, phi, psi) == report
