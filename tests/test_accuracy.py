"""Float results against the 50-digit mpmath oracle in ``mp_oracle``."""

import numpy as np
import pytest

import mp_oracle
from coherence_lab import (
    ALL_BOUND_IDS,
    BOUNDS,
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T3_UPPER,
    T4_LOWER_A,
    T4_LOWER_B,
    DensityMatrix,
    EnsembleConfig,
    PairKind,
    SearchSpec,
    SuperpositionCoefficients,
    StateVector,
    WrongPairClassError,
    binary_entropy,
    evaluate_bound,
    haar_random_state,
    minimize_slack,
    normalize,
    pure_state_coherence,
    random_coefficients,
    t_states,
    von_neumann_entropy,
)
from coherence_lab import entropy
from coherence_lab.ensembles import sample_pair, trial_stream
from coherence_lab.rng import subseed


def test_qubit_coherence_and_binary_entropy_match_the_oracle():
    # p from 1e-300 to 1/2, where the old 1e-15 floor dropped terms up to 5e-14,
    # and 1 - 2^-k up to 1 - 2^-52.
    p = np.concatenate([np.geomspace(1e-300, 0.5, 301), 1.0 - 2.0 ** -np.arange(1.0, 53.0)])
    amps = np.stack([np.sqrt(p), np.sqrt(1.0 - p)], axis=-1).astype(complex)
    h_rows, h_ok = entropy.binary_entropy_rows(p)
    c_rows = entropy.row_coherences(amps[:, None])
    assert h_ok.all() and not np.isnan(c_rows).any()
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


def _oracle_cases():
    """``demo``'s two qubit cases, then three sampled disjoint pairs at each of
    d = 2, 3, 8 and 16 with their own coefficients."""
    inv = 1.0 / np.sqrt(2.0)
    half = SuperpositionCoefficients(inv, inv)
    cases = [(half, StateVector([1.0, 0.0]), StateVector([0.0, 1.0])),
             (half, StateVector([inv, inv]), StateVector([inv, -inv]))]
    for dim in (2, 3, 8, 16):
        config = EnsembleConfig(dim=dim, trials=3, pair_kind=PairKind.DISJOINT_SUPPORT, seed=dim)
        for index in range(config.trials):
            phi, psi = sample_pair(trial_stream(config, index), config)
            cases.append((random_coefficients(subseed(dim + 100, index)), phi, psi))
    return cases


def test_every_relation_matches_the_oracle_on_demo_and_disjoint_pairs():
    # The largest errors measured here were 3.3e-16 (T1_EQUALITY's residual),
    # 5.5e-16 (GAIN_LE_1) and 1.04e-15 (T4_LOWER_A, the largest of the other
    # four); the bounds below are about twice those.
    worst = dict.fromkeys(ALL_BOUND_IDS, 0.0)
    for coeffs, phi, psi in _oracle_cases():
        inputs = (coeffs.alpha, coeffs.beta, phi.amps, psi.amps)
        for bound_id in ALL_BOUND_IDS:
            try:
                report = evaluate_bound(bound_id, coeffs, phi, psi)
            except WrongPairClassError:  # demo's second pair is not disjoint
                continue
            error = float(abs(report.slack - mp_oracle.slack(bound_id, *inputs)))
            worst[bound_id] = max(worst[bound_id], error)
            # At the inputs scaled to unit norm, the equality holds exactly
            # and the gain is h(a) <= 1.
            exact = mp_oracle.slack(bound_id, *inputs, renormalize=True)
            if bound_id == T1_EQUALITY:
                assert exact <= 1e-40
            elif bound_id == GAIN_LE_1:
                assert exact >= -1e-40
    assert max(worst[T1_EQUALITY], worst[GAIN_LE_1]) <= 1e-15, worst
    assert max(worst.values()) <= 2e-15, worst


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_rows_with_a_probability_above_one_match_the_scalar_path_and_the_oracle(dim):
    # Unit states with one dominant amplitude, as a search passes through:
    # about a fifth of them have an |a|^2 that rounds above 1.
    rng = np.random.default_rng(dim)
    states = []
    while len(states) < 16:
        raw = np.zeros(dim, dtype=complex)
        raw[0] = np.exp(2j * np.pi * rng.random())
        tail = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
        raw[1:] = tail * 10.0 ** rng.uniform(-12, -7)
        state = normalize(raw)
        if (np.abs(state.amps) ** 2 > 1.0).any():
            states.append(state)
    values = entropy.row_coherences(np.stack([s.amps for s in states])[:, None])
    assert not np.isnan(values).any()
    for state, value in zip(states, values[:, 0].tolist()):
        assert np.float64(value).tobytes() == np.float64(pure_state_coherence(state)).tobytes()
        assert abs(value - mp_oracle.pure_state_coherence(state.amps, renormalize=True)) <= 1e-15


@pytest.mark.parametrize("amps, above", [([0.6, 0.8], -9.9e-11), ([1.0, 1e-5], -1.4427e-10)])
def test_coherence_off_unit_norm_stays_in_the_documented_envelope(amps, above):
    # StateVector accepts a norm within 1e-10 of 1, and the entropy takes
    # |a|^2 as given: the error against the unit state is the norm's, within
    # |n^2 - 1| max(log2 e, log2 d) (``entropy``'s docstring), not round-off.
    unit = np.array(amps) / np.linalg.norm(amps)
    for n in (1.0 + 0.99e-10, 1.0 - 0.99e-10):
        state = StateVector(unit * n)
        eps = float(np.vdot(state.amps, state.amps).real) - 1.0
        error = pure_state_coherence(state) - float(
            mp_oracle.pure_state_coherence(state.amps, renormalize=True)
        )
        assert abs(error) <= abs(eps) * max(np.log2(np.e), np.log2(state.dim)) + 1e-15
        if n > 1.0:
            assert error == pytest.approx(above, rel=1e-3)


def test_von_neumann_entropy_of_projectors_and_branch_mixtures_matches_the_oracle():
    # The T1/T2 branches of random pairs, alone and in the equal mixture, as
    # the mixed-state benchmark builds them.  Over 60 pairs per dimension the
    # largest errors were 1.3e-15 (projectors) and 2.1e-15 (mixtures); with
    # eigvalsh's round-off eigenvalues kept they were 2.7e-14 and 1.6e-14.
    worst = {"projector": 0.0, "mixture": 0.0}
    for dim in range(2, 17):
        for k in range(2):
            seed = subseed(dim, k)
            coeffs = random_coefficients(subseed(seed, 2))
            t1, t2 = t_states(coeffs, haar_random_state(dim, seed),
                              haar_random_state(dim, subseed(seed, 1)))
            rho1, rho2 = DensityMatrix.from_pure(t1), DensityMatrix.from_pure(t2)
            cases = [("projector", rho1, [t1], [1.0]), ("projector", rho2, [t2], [1.0]),
                     ("mixture", DensityMatrix(0.5 * (rho1.matrix + rho2.matrix)),
                      [t1, t2], [0.5, 0.5])]
            for kind, rho, states, weights in cases:
                exact = mp_oracle.von_neumann_entropy([s.amps for s in states], weights)
                worst[kind] = max(worst[kind], float(abs(von_neumann_entropy(rho) - exact)))
    assert worst["projector"] <= 1.5e-15
    assert worst["mixture"] <= 2.5e-15
