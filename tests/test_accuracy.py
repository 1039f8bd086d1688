"""Float results against the 50-digit mpmath oracle in ``mp_oracle``."""

import numpy as np
import pytest

import mp_oracle
from coherence_lab import (
    BOUNDS,
    T2_UPPER,
    T3_UPPER,
    T4_LOWER_A,
    T4_LOWER_B,
    SearchSpec,
    StateVector,
    binary_entropy,
    minimize_slack,
    pure_state_coherence,
)
from coherence_lab import entropy


def test_qubit_coherence_and_binary_entropy_match_the_oracle():
    # p from 1e-300 to 1/2, where the old 1e-15 floor dropped terms up to 5e-14,
    # and 1 - 2^-k up to 1 - 2^-52.
    p = np.concatenate([np.geomspace(1e-300, 0.5, 301), 1.0 - 2.0 ** -np.arange(1.0, 53.0)])
    amps = np.stack([np.sqrt(p), np.sqrt(1.0 - p)], axis=-1).astype(complex)
    h_rows, h_ok = entropy.binary_entropy_rows(p)
    c_rows, c_ok = entropy.row_coherences(amps[:, None])
    assert h_ok.all() and c_ok.all()
    worst = 0.0
    for x, state, h_row, c_row in zip(p.tolist(), amps, h_rows.tolist(), c_rows[:, 0].tolist()):
        h_mp = mp_oracle.binary_entropy(x)
        c_mp = mp_oracle.pure_state_coherence(state)
        errors = [abs(binary_entropy(x) - h_mp), abs(h_row - h_mp),
                  abs(pure_state_coherence(StateVector(state)) - c_mp), abs(c_row - c_mp)]
        worst = max(worst, *map(float, errors))
    assert worst <= 1e-15


@pytest.fixture(scope="module")
def saturating_points():
    """Best inputs and slack of default ``saturate`` (d = 2, 16 restarts, seed 42)."""
    points = {}
    for bound_id in (T2_UPPER, T3_UPPER, T4_LOWER_A, T4_LOWER_B):
        result = minimize_slack(SearchSpec(bound_id=bound_id, dim=2,
                                           pair_kind=BOUNDS[bound_id].default_kind, seed=42))
        coeffs, phi, psi = result.best_inputs
        points[bound_id] = result.best_slack, (coeffs.alpha, coeffs.beta, phi.amps, psi.amps)
    return points


@pytest.mark.parametrize("bound_id", [T2_UPPER, T3_UPPER, T4_LOWER_A, T4_LOWER_B])
def test_saturating_points_match_the_oracle(saturating_points, bound_id):
    best_slack, inputs = saturating_points[bound_id]
    # The float slack carries only its own rounding error at the inputs found.
    assert abs(best_slack - mp_oracle.slack(bound_id, *inputs)) <= 1e-14
    # At the same inputs scaled to unit norm the relation holds exactly.
    assert mp_oracle.slack(bound_id, *inputs, renormalize=True) >= -1e-40
