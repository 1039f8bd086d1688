"""Entropy functionals: frozen oracle values and the two mixing inequalities."""

import math
import struct

import mp_oracle
import numpy as np
import pytest

from coherence_lab import entropy
from coherence_lab import (
    DensityMatrix,
    DomainError,
    StateVector,
    TOLERANCES,
    binary_entropy,
    normalize,
    pure_state_coherence,
    relative_entropy_coherence,
    von_neumann_entropy,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def shannon_oracle(probs) -> float:
    """Independent direct-sum entropy in bits."""
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def shannon(probs) -> float:
    """The package's Shannon entropy of ``probs``: the coherence of the state
    whose squared amplitudes they are."""
    return pure_state_coherence(StateVector(np.sqrt(probs)))


def random_distribution(rng, dim):
    raw = rng.random(dim) + 1e-3
    return raw / raw.sum()


# --- shannon -----------------------------------------------------------------


def test_shannon_deterministic_distribution():
    assert shannon([1.0, 0.0]) == 0.0


def test_shannon_uniform_qubit():
    assert abs(shannon([0.5, 0.5]) - 1.0) < 1e-15


def test_shannon_dyadic_example():
    value = shannon([0.5, 0.25, 0.25])
    assert abs(value - 1.5) < 1e-15


def test_shannon_matches_oracle_on_random_distributions():
    rng = np.random.default_rng(21)
    for _ in range(100):
        probs = random_distribution(rng, int(rng.integers(2, 17)))
        assert abs(shannon(probs) - shannon_oracle(probs)) < 1e-12


# --- binary entropy ----------------------------------------------------------


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_maximum():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_one_third():
    expected = math.log2(3.0) - 2.0 / 3.0  # = 0.9182958340544896
    assert abs(binary_entropy(1.0 / 3.0) - expected) < 1e-15
    assert abs(expected - 0.918296) < 1e-6


def test_binary_entropy_symmetric():
    rng = np.random.default_rng(8)
    for x in rng.random(50):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(1.1)
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    # A weight |alpha|^2 passes validation within TOLERANCES.norm of [0, 1];
    # the entropy takes that window and clips it to the endpoints.
    window = TOLERANCES.norm
    assert binary_entropy(1.0 + 1e-13) == 0.0
    assert binary_entropy(1.0 + 0.99 * window) == 0.0
    assert binary_entropy(-0.99 * window) == 0.0
    for x in (1.0 + 1.01 * window, -1.01 * window):
        with pytest.raises(DomainError):
            binary_entropy(x)


def test_binary_entropy_rows_match_the_scalar_function_bit_for_bit():
    slop = TOLERANCES.norm
    edges = [
        0.0, -0.0, 5e-324, 1e-16, np.nextafter(1e-15, 0.0), 1e-15, np.nextafter(1e-15, 1.0),
        0.5, 1.0 - 2.0**-53, 1.0 - 1e-15, 1.0,
        -slop, np.nextafter(-slop, -1.0), 1.0 + slop, np.nextafter(1.0 + slop, 2.0),
        np.nextafter(-slop, 0.0), np.nextafter(1.0 + slop, 1.0),
        math.nan, math.inf, -math.inf,
    ]
    x = np.concatenate([edges, np.random.default_rng(11).random(2000),
                        np.geomspace(1e-300, 1e-3, 500)])
    values = entropy.binary_entropy_rows(x)
    for xi, value in zip(x.tolist(), values.tolist()):
        try:
            want = binary_entropy(xi)
        except DomainError:
            continue  # no caller passes a row outside the domain
        assert type(want) is float
        assert struct.pack("<d", value) == struct.pack("<d", want), xi


# --- von Neumann -------------------------------------------------------------


def test_von_neumann_pure_projector_is_zero():
    rng = np.random.default_rng(9)
    state = normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    rho = DensityMatrix.from_pure(state)
    assert von_neumann_entropy(rho) < 1e-12


def test_von_neumann_maximally_mixed():
    for dim in (2, 3, 8):
        rho = DensityMatrix(np.eye(dim) / dim)
        assert abs(von_neumann_entropy(rho) - math.log2(dim)) < 1e-12


def test_von_neumann_diagonal_example():
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    expected = shannon_oracle([0.3, 0.7])  # = 0.8812908992306927
    assert abs(von_neumann_entropy(rho) - expected) < 1e-12
    assert abs(expected - 0.881291) < 1e-6


# --- relative entropy of coherence --------------------------------------------


def test_coherence_of_incoherent_state_is_zero():
    assert relative_entropy_coherence(DensityMatrix(np.diag([0.3, 0.7]))) == 0.0


def test_coherence_of_plus_projector_is_one():
    plus = StateVector([INV_SQRT2, INV_SQRT2])
    value = relative_entropy_coherence(DensityMatrix.from_pure(plus))
    assert abs(value - 1.0) < 1e-12


def test_pure_path_matches_eigensolver_path():
    rng = np.random.default_rng(10)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        state = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        via_matrix = relative_entropy_coherence(DensityMatrix.from_pure(state))
        via_amplitudes = pure_state_coherence(state)
        assert abs(via_matrix - via_amplitudes) < 1e-8


# --- pure-state coherence -----------------------------------------------------


def test_pure_coherence_basis_state():
    assert pure_state_coherence(StateVector([1.0, 0.0])) == 0.0


def test_pure_coherence_uniform_superposition():
    assert abs(pure_state_coherence(StateVector([INV_SQRT2, INV_SQRT2])) - 1.0) < 1e-15


def test_pure_coherence_biased_superposition():
    state = StateVector([math.sqrt(0.9), math.sqrt(0.1)])
    expected = shannon_oracle([0.9, 0.1])  # = h(0.9) = 0.46899559358928117
    assert abs(pure_state_coherence(state) - expected) < 1e-12
    assert abs(expected - 0.468996) < 1e-6


# --- row coherences: the batched search's entropies ---------------------------


def test_row_sums_of_entropy_terms_equal_the_one_row_sums():
    # The row form of the entropy sum gives each row's bits whatever the
    # batch around it; the lockstep search relies on it.
    rng = np.random.default_rng(31)
    for dim in [*range(1, 71), 128, 1024]:
        for rows in (1, 3, 16):
            p = rng.random((rows, dim)) ** 3 + 1e-300
            p /= p.sum(axis=1, keepdims=True)
            rowwise = (p * np.log2(p)).sum(axis=1)
            for i in range(rows):
                assert rowwise[i].tobytes() == (p[i] * np.log2(p[i])).sum().tobytes()


def unit_rows(rng, shape):
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return raw / np.sqrt((np.abs(raw) ** 2).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 33, 130])
def test_row_coherences_match_pure_state_coherence(dim):
    rng = np.random.default_rng(dim)
    full = unit_rows(rng, (6, 3, dim))
    # Zero columns in every row, as parameterize leaves outside a disjoint
    # support: a -0.0 term on both paths.
    gapped = full.copy()
    gapped[:, 0, dim // 2 + 1 :] = 0.0
    gapped[:, 1, : dim // 3] = 0.0
    gapped[:, 0] /= np.sqrt((np.abs(gapped[:, 0]) ** 2).sum(axis=-1, keepdims=True))
    gapped[:, 1] /= np.sqrt((np.abs(gapped[:, 1]) ** 2).sum(axis=-1, keepdims=True))
    for amps in (full, gapped):
        if dim > 1:
            # p = 0 where the other rows have none: exactly, and by underflow
            # (1e-170 squared).  It is a -0.0 term on both paths too.
            amps[4, 2, -1] = 0.0
            amps[3, 2, 0] = 1e-170
            amps[3:5, 2] /= np.sqrt((np.abs(amps[3:5, 2]) ** 2).sum(axis=-1, keepdims=True))
        values = entropy.row_coherences(amps)
        assert values.shape == (6, 3) and np.isfinite(values).all()
        for r in range(6):
            for j in range(3):
                expected = pure_state_coherence(StateVector(amps[r, j]))
                assert values[r, j].tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("dim", range(2, 18))
def test_zero_padded_states_have_one_coherence_on_both_paths(dim):
    # A unit block of every width below dim, zero-padded at the start, at the
    # end and in the middle.  numpy sums fewer than 8 terms in order and more
    # pairwise; either way the -0.0 terms of p = 0 leave the sum at the
    # oracle's value, the same on both paths, and a basis state (width 1, an
    # amplitude of modulus 1 exactly) at +0.0, not -0.0.
    rng = np.random.default_rng(dim)
    states = []
    for width in range(1, dim):
        block = unit_rows(rng, (width,)) if width > 1 else [(-1j) ** dim]
        for start in (0, dim - width, (dim - width) // 2):
            amps = np.zeros(dim, dtype=np.complex128)
            amps[start : start + width] = block
            states.append(amps)
    values = entropy.row_coherences(np.array(states)[:, None])[:, 0].tolist()
    for amps, value in zip(states, values):
        scalar = pure_state_coherence(StateVector(amps))
        assert struct.pack("<d", value) == struct.pack("<d", scalar)
        assert abs(value - float(mp_oracle.pure_state_coherence(amps))) <= 1e-15
        if np.count_nonzero(amps) == 1:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_a_nan_row_supports_no_column():
    # A row whose norm a caller rejects (0/0 amplitudes) beside rows with
    # exactly-zero columns, as a disjoint search batch holds: the other rows
    # keep their values, ok, to the bit.
    rng = np.random.default_rng(5)
    amps = unit_rows(rng, (4, 3, 6))
    amps[:, 0, 3:] = 0.0
    amps[:, 0] /= np.sqrt((np.abs(amps[:, 0]) ** 2).sum(axis=-1, keepdims=True))
    spoiled = amps.copy()
    spoiled[2] = np.nan
    values = entropy.row_coherences(amps)
    with np.errstate(invalid="ignore"):
        spoiled_values = entropy.row_coherences(spoiled)
    others = [0, 1, 3]
    assert not np.isnan(values).any() and np.isnan(spoiled_values[2]).all()
    assert spoiled_values[others].tobytes() == values[others].tobytes()


# --- validated inputs with a probability above 1 --------------------------------


def _nonnegative(value) -> bool:
    """value >= 0 and not -0.0."""
    return value >= 0.0 and math.copysign(1.0, value) == 1.0


def test_pure_coherence_of_a_state_above_unit_norm_is_zero():
    assert pure_state_coherence(StateVector([1 + 5e-11, 0])) == 0.0


def test_shannon_entropy_of_a_probability_above_one_is_zero():
    assert shannon([1 + 5e-11]) == 0.0


def test_von_neumann_entropy_of_a_trace_above_one_is_zero():
    assert von_neumann_entropy(DensityMatrix([[1 + 5e-11]])) == 0.0


def _at_edge(values, size, limit):
    """Each array scaled so that size(array) is as close to 1 + limit as
    ``abs(size - 1) <= TOLERANCES.norm`` accepts (limit may be negative)."""
    edged = []
    for value in values:
        value = np.asarray(value) / size(np.asarray(value))
        scale = 1.0 + limit
        while abs(size(value * scale) - 1.0) > TOLERANCES.norm:
            scale = np.nextafter(scale, 1.0)
        edged.append(value * scale)
    return edged


def test_inputs_at_the_edges_of_the_norm_tolerance_have_nonnegative_entropies():
    # One-hot and near-one-hot, real and complex: some |a|^2 or trace is
    # above 1 on the upper edge.
    tiny = [1e-300, 1e-170, 1e-9, 1e-5]
    real = [[1.0], [1.0, 0.0], [0.0, 0.0, 1.0]]
    real += [[1.0, t] for t in tiny] + [[t, 1.0, t] for t in tiny]
    phase = np.exp(0.7j)
    states = real + [[phase * a for a in amps] for amps in real]
    states += [[phase, 1j * t] for t in tiny]
    probs = [[1.0], [1.0, 0.0], [0.5, 0.5]] + [[1.0, t * t] for t in tiny]
    matrices = [np.diag(p) for p in probs]
    matrices += [np.outer(v, v.conj()) for v in map(np.asarray, states)]
    for limit in (TOLERANCES.norm, -TOLERANCES.norm):
        for amps in _at_edge(states, lambda v: float(np.linalg.norm(v)), limit):
            state = StateVector(amps)
            value = pure_state_coherence(state)
            assert _nonnegative(value), (amps, value)
            rows = entropy.row_coherences(state.amps[None, None])
            assert rows[0, 0].tobytes() == np.float64(value).tobytes()
    for limit in (TOLERANCES.norm / 2, -TOLERANCES.norm / 2):
        for p in _at_edge(probs, lambda v: float(v.sum()), limit):
            assert _nonnegative(shannon(p)), p
        for matrix in _at_edge(matrices, lambda m: float(np.trace(m).real), limit):
            rho = DensityMatrix(matrix)
            assert _nonnegative(von_neumann_entropy(rho)), matrix
            assert _nonnegative(relative_entropy_coherence(rho)), matrix


# --- mixing inequalities -------------------------------------------------------


def _entropy_triple(rng):
    dim = int(rng.integers(2, 17))
    p = random_distribution(rng, dim)
    q = random_distribution(rng, dim)
    lam = float(rng.uniform(0.01, 0.99))
    return p, q, lam


def test_entropy_concavity_sweep():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        p, q, lam = _entropy_triple(rng)
        mixed = shannon(lam * p + (1 - lam) * q)
        average = lam * shannon(p) + (1 - lam) * shannon(q)
        assert average <= mixed + 1e-12


def test_entropy_mixing_upper_bound_sweep():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p, q, lam = _entropy_triple(rng)
        mixed = shannon(lam * p + (1 - lam) * q)
        average = lam * shannon(p) + (1 - lam) * shannon(q)
        assert mixed <= average + binary_entropy(lam) + 1e-12


def test_mixing_upper_bound_tight_on_disjoint_supports():
    rng = np.random.default_rng(14)
    for _ in range(100):
        half = int(rng.integers(1, 9))
        p = np.concatenate([random_distribution(rng, half), np.zeros(half)])
        q = np.concatenate([np.zeros(half), random_distribution(rng, half)])
        lam = float(rng.uniform(0.01, 0.99))
        mixed = shannon(lam * p + (1 - lam) * q)
        average = lam * shannon(p) + (1 - lam) * shannon(q)
        assert abs(mixed - (average + binary_entropy(lam))) < 1e-12


def test_concavity_tight_on_identical_distributions():
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = random_distribution(rng, int(rng.integers(2, 17)))
        lam = float(rng.uniform(0.01, 0.99))
        mixed = shannon(lam * p + (1 - lam) * p)
        assert abs(mixed - shannon(p)) < 1e-12
