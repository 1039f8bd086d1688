"""Seeded sampling distributions, determinism, and trial aggregation."""

import numpy as np
import pytest

from coherence_lab import (
    BadSplitError,
    CoherenceLabError,
    EnsembleConfig,
    PairKind,
    classify_pair,
    default_split,
    haar_random_state,
    random_coefficients,
    random_disjoint_support_pair,
    random_orthogonal_pair,
    run_ensemble,
)
from coherence_lab.ensembles import _coefficients, _haar_state
from coherence_lab.rng import MASK64, make_generator, subseed


# --- sub-seed mixing -----------------------------------------------------------


def test_subseeds_are_distinct_and_u64():
    seen = {subseed(123456789, k) for k in range(100_000)}
    assert len(seen) == 100_000
    assert all(0 <= s <= MASK64 for s in list(seen)[:100])


def test_subseeds_depend_on_master():
    assert subseed(1, 0) != subseed(2, 0)


# --- haar states -----------------------------------------------------------------


def test_haar_state_is_unit_norm():
    for seed in range(50):
        state = haar_random_state(7, seed)
        assert abs(float(np.linalg.norm(state.amps)) - 1.0) < 1e-12


def test_haar_state_is_deterministic():
    first = haar_random_state(5, 999)
    second = haar_random_state(5, 999)
    assert np.array_equal(first.amps, second.amps)
    assert not np.array_equal(first.amps, haar_random_state(5, 1000).amps)


def test_haar_qubit_population_is_symmetric():
    # |amps_0|^2 of a Haar qubit is uniform on [0, 1]: mean 1/2.
    gen = make_generator(2024)
    total = 0.0
    samples = 100_000
    for _ in range(samples):
        total += abs(_haar_state(gen, 2).amps[0]) ** 2
    assert abs(total / samples - 0.5) < 0.01


# --- orthogonal pairs --------------------------------------------------------------


def test_orthogonal_pair_overlap_below_threshold():
    for seed in range(100):
        dim = 2 + seed % 15
        phi, psi = random_orthogonal_pair(dim, seed)
        assert abs(np.vdot(phi.amps, psi.amps)) <= 1e-12


def test_orthogonal_pair_is_deterministic():
    a = random_orthogonal_pair(6, 4242)
    b = random_orthogonal_pair(6, 4242)
    assert np.array_equal(a[0].amps, b[0].amps)
    assert np.array_equal(a[1].amps, b[1].amps)


def test_orthogonal_pair_qubit_completeness():
    # In d=2 the orthogonal complement is unique up to phase.
    for seed in range(30):
        phi, psi = random_orthogonal_pair(2, seed)
        complement = np.array([-np.conj(phi.amps[1]), np.conj(phi.amps[0])])
        assert abs(abs(np.vdot(complement, psi.amps)) - 1.0) < 1e-10


# --- disjoint-support pairs ----------------------------------------------------------


def test_disjoint_pair_minimal_blocks():
    config = EnsembleConfig(
        dim=2, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=5, split=(1, 1)
    )
    phi, psi = random_disjoint_support_pair(config)
    assert abs(abs(phi.amps[0]) - 1.0) < 1e-12 and phi.amps[1] == 0
    assert psi.amps[0] == 0 and abs(abs(psi.amps[1]) - 1.0) < 1e-12


def test_disjoint_pair_out_of_block_amplitudes_are_exactly_zero():
    config = EnsembleConfig(
        dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17, split=(3, 4)
    )
    phi, psi = random_disjoint_support_pair(config)
    assert np.all(phi.amps[3:] == 0)
    assert np.all(psi.amps[:3] == 0)
    assert phi.amps[7] == 0 and psi.amps[7] == 0


def test_disjoint_pair_classifies_as_declared():
    for seed in range(50):
        config = EnsembleConfig(
            dim=6, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=seed
        )
        phi, psi = random_disjoint_support_pair(config)
        assert classify_pair(phi, psi).tag is PairKind.DISJOINT_SUPPORT


def test_default_split_covers_dimension():
    assert default_split(2) == (1, 1)
    assert default_split(9) == (4, 5)


def test_permuted_disjoint_pair_keeps_disjointness():
    base = EnsembleConfig(
        dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17, split=(3, 4)
    )
    shuffled = EnsembleConfig(
        dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17, split=(3, 4),
        permute=True,
    )
    phi, psi = random_disjoint_support_pair(shuffled)
    assert classify_pair(phi, psi).tag is PairKind.DISJOINT_SUPPORT
    # Same underlying blocks, relocated: squared-amplitude multisets agree.
    phi0, psi0 = random_disjoint_support_pair(base)
    assert np.allclose(
        np.sort(np.abs(phi.amps)), np.sort(np.abs(phi0.amps)), atol=1e-15
    )
    assert np.allclose(
        np.sort(np.abs(psi.amps)), np.sort(np.abs(psi0.amps)), atol=1e-15
    )


def test_bad_split_rejected():
    with pytest.raises(BadSplitError):
        EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=0, split=(0, 4))
    with pytest.raises(BadSplitError):
        EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=0, split=(3, 2))


# --- coefficients -----------------------------------------------------------------------


def test_coefficients_satisfy_constraint():
    for seed in range(100):
        coeffs = random_coefficients(seed)
        assert abs(coeffs.alpha_sq + coeffs.beta_sq - 1.0) < 1e-12
        assert coeffs.alpha.imag == 0.0
        assert 0.0 <= coeffs.alpha.real <= 1.0


def test_coefficients_deterministic():
    assert random_coefficients(77) == random_coefficients(77)


def test_coefficients_weight_is_symmetric_on_average():
    gen = make_generator(31337)
    samples = 100_000
    total = sum(_coefficients(gen).alpha_sq for _ in range(samples))
    assert abs(total / samples - 0.5) < 0.01


# --- ensembles ----------------------------------------------------------------------------


def test_run_ensemble_zero_trials():
    config = EnsembleConfig(dim=4, trials=0, pair_kind=PairKind.ARBITRARY, seed=1)
    assert run_ensemble(config) == []


def test_run_ensemble_is_deterministic():
    config = EnsembleConfig(dim=4, trials=40, pair_kind=PairKind.NON_ORTHOGONAL, seed=8)
    assert run_ensemble(config) == run_ensemble(config)


def test_run_ensemble_trials_do_not_depend_on_trial_count():
    short = EnsembleConfig(dim=3, trials=20, pair_kind=PairKind.ARBITRARY, seed=12)
    long = EnsembleConfig(dim=3, trials=60, pair_kind=PairKind.ARBITRARY, seed=12)
    assert run_ensemble(long)[:20] == run_ensemble(short)


def test_run_ensemble_disjoint_equality_residuals():
    config = EnsembleConfig(
        dim=8, trials=300, pair_kind=PairKind.DISJOINT_SUPPORT, seed=55
    )
    records = run_ensemble(config)
    assert len(records) == 300
    for record in records:
        assert record.error is None
        assert record.pair_class == "DisjointSupport"
        equality = [r for r in record.reports if r.bound_id == "T1_EQUALITY"]
        assert len(equality) == 1 and equality[0].slack <= 1e-9


def test_run_ensemble_records_are_indexed_in_order():
    config = EnsembleConfig(dim=2, trials=25, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=3)
    records = run_ensemble(config)
    assert [r.index for r in records] == list(range(25))
    assert all(r.seed == subseed(3, r.index) for r in records)


def test_run_ensemble_captures_trial_errors(monkeypatch):
    def explode(*args, **kwargs):
        raise CoherenceLabError("synthetic failure")

    monkeypatch.setattr("coherence_lab.ensembles.evaluate_all", explode)
    config = EnsembleConfig(dim=2, trials=5, pair_kind=PairKind.ARBITRARY, seed=9)
    records = run_ensemble(config)
    assert len(records) == 5
    for record in records:
        assert record.error == "CoherenceLabError: synthetic failure"
        assert record.reports == ()


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(dim=1, trials=1, pair_kind=PairKind.ARBITRARY, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(dim=2, trials=-1, pair_kind=PairKind.ARBITRARY, seed=0)


def test_generated_pairs_match_declared_kind():
    kinds = {
        PairKind.DISJOINT_SUPPORT: "DisjointSupport",
        PairKind.ORTHOGONAL_SAME_SPACE: "OrthogonalSameSpace",
        PairKind.NON_ORTHOGONAL: "NonOrthogonal",
    }
    for kind, tag in kinds.items():
        config = EnsembleConfig(dim=5, trials=30, pair_kind=kind, seed=21)
        for record in run_ensemble(config):
            assert record.pair_class == tag
