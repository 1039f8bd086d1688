"""Parameter projection and saturation-search behavior."""

import math

import numpy as np
import pytest

from coherence_lab import (
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T4_LOWER_A,
    PairKind,
    SearchSpec,
    ZeroVectorError,
    encode_inputs,
    evaluate_bound,
    max_gain,
    minimize_slack,
    parameter_count,
    parameterize,
    theorem1_equality,
)
from coherence_lab.rng import make_generator, standard_normals


def random_vector(seed, dim):
    return standard_normals(make_generator(seed), parameter_count(dim))


# --- parameterize -----------------------------------------------------------------


def test_parameterize_encodes_uniform_basis_pair():
    # Layout: [theta, phase, re f0, im f0, re f1, im f1, re p0, im p0, re p1, im p1]
    x = np.zeros(parameter_count(2))
    x[0] = math.pi / 4.0  # theta -> alpha = beta = 1/sqrt(2)
    x[2] = 1.0  # phi block -> |0>
    x[8] = 1.0  # psi block -> |1>
    coeffs, phi, psi = parameterize(x, 2, PairKind.DISJOINT_SUPPORT)
    inv = 1.0 / math.sqrt(2.0)
    assert abs(coeffs.alpha - inv) < 1e-12
    assert abs(coeffs.beta - inv) < 1e-12
    assert np.allclose(phi.amps, [1.0, 0.0])
    assert np.allclose(psi.amps, [0.0, 1.0])


@pytest.mark.parametrize(
    "pair_kind",
    [PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE,
     PairKind.NON_ORTHOGONAL, PairKind.ARBITRARY],
)
def test_parameterize_projection_is_idempotent(pair_kind):
    for seed in range(30):
        x = random_vector(seed, 4)
        coeffs, phi, psi = parameterize(x, 4, pair_kind)
        again = parameterize(encode_inputs(coeffs, phi, psi), 4, pair_kind)
        assert abs(again[0].alpha - coeffs.alpha) < 1e-12
        assert abs(again[0].beta - coeffs.beta) < 1e-12
        assert np.max(np.abs(again[1].amps - phi.amps)) < 1e-12
        assert np.max(np.abs(again[2].amps - psi.amps)) < 1e-12


def test_parameterize_fuzz_outputs_are_valid():
    for seed in range(100):
        kind = list(PairKind)[seed % 4]
        coeffs, phi, psi = parameterize(random_vector(seed, 5), 5, kind)
        assert abs(coeffs.alpha_sq + coeffs.beta_sq - 1.0) < 1e-12
        assert abs(float(np.linalg.norm(phi.amps)) - 1.0) < 1e-12
        assert abs(float(np.linalg.norm(psi.amps)) - 1.0) < 1e-12
        if kind is PairKind.DISJOINT_SUPPORT:
            assert np.all(phi.amps[2:] == 0)
            assert np.all(psi.amps[:2] == 0)
        if kind is PairKind.ORTHOGONAL_SAME_SPACE:
            assert abs(np.vdot(phi.amps, psi.amps)) <= 1e-10


def test_parameterize_rejects_degenerate_block():
    x = np.zeros(parameter_count(2))
    x[0] = math.pi / 4.0
    x[8] = 1.0  # psi block only; phi block is all zeros
    with pytest.raises(ZeroVectorError):
        parameterize(x, 2, PairKind.DISJOINT_SUPPORT)


def test_parameterize_rejects_wrong_length():
    with pytest.raises(ValueError):
        parameterize(np.zeros(5), 2, PairKind.ARBITRARY)


# --- minimize_slack ------------------------------------------------------------------


def test_spec_validates_bound_kind_compatibility():
    with pytest.raises(ValueError):
        SearchSpec(bound_id=T1_EQUALITY, dim=2, pair_kind=PairKind.ARBITRARY, seed=0)
    with pytest.raises(ValueError):
        SearchSpec(bound_id="NO_SUCH_BOUND", dim=2, pair_kind=PairKind.ARBITRARY, seed=0)


def test_gain_search_saturates_quickly():
    spec = SearchSpec(
        bound_id=GAIN_LE_1,
        dim=2,
        pair_kind=PairKind.DISJOINT_SUPPORT,
        seed=101,
        restarts=4,
        iterations=600,
    )
    result = minimize_slack(spec)
    coeffs, phi, psi = result.best_inputs
    gain = max_gain(coeffs, phi, psi).lhs
    assert gain >= 1.0 - 1e-6
    assert result.best_slack >= -1e-9


def test_equality_search_finds_zero_residual_immediately():
    spec = SearchSpec(
        bound_id=T1_EQUALITY,
        dim=2,
        pair_kind=PairKind.DISJOINT_SUPPORT,
        seed=7,
        restarts=2,
        iterations=50,
    )
    result = minimize_slack(spec)
    assert 0.0 <= result.best_slack <= 1e-9
    coeffs, phi, psi = result.best_inputs
    assert theorem1_equality(coeffs, phi, psi).slack <= 1e-9


def test_upper_bound_search_never_goes_negative():
    spec = SearchSpec(
        bound_id=T2_UPPER,
        dim=2,
        pair_kind=PairKind.ORTHOGONAL_SAME_SPACE,
        seed=5,
        restarts=3,
        iterations=300,
    )
    result = minimize_slack(spec)
    assert result.best_slack >= -1e-9


def test_search_is_deterministic():
    spec = SearchSpec(
        bound_id=T4_LOWER_A,
        dim=3,
        pair_kind=PairKind.ARBITRARY,
        seed=77,
        restarts=2,
        iterations=150,
    )
    first = minimize_slack(spec)
    second = minimize_slack(spec)
    assert first.best_slack == second.best_slack
    assert first.trace == second.trace
    assert np.array_equal(first.best_inputs[1].amps, second.best_inputs[1].amps)
    assert np.array_equal(first.best_inputs[2].amps, second.best_inputs[2].amps)


def test_search_traces_are_monotone_non_increasing():
    spec = SearchSpec(
        bound_id=T2_UPPER,
        dim=2,
        pair_kind=PairKind.ORTHOGONAL_SAME_SPACE,
        seed=13,
        restarts=3,
        iterations=200,
    )
    result = minimize_slack(spec)
    assert len(result.trace) == 3
    for trace in result.trace:
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


def test_search_result_reevaluates_consistently():
    spec = SearchSpec(
        bound_id=T4_LOWER_A,
        dim=2,
        pair_kind=PairKind.ARBITRARY,
        seed=21,
        restarts=2,
        iterations=150,
    )
    result = minimize_slack(spec)
    coeffs, phi, psi = result.best_inputs
    report = evaluate_bound(T4_LOWER_A, coeffs, phi, psi, tolerance=1e-9)
    assert abs(report.slack - result.best_slack) <= 1e-12
