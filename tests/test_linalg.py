"""State, density-matrix, and eigensolver contracts."""

import math
import struct

import numpy as np
import pytest

from coherence_lab import linalg
from coherence_lab import (
    DensityMatrix,
    DimensionMismatchError,
    NotHermitianError,
    StateVector,
    ZeroVectorError,
    classify_pair,
    hermitian_eigenvalues,
    normalize,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def eig2_oracle(matrix):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, descending."""
    a = matrix[0][0].real
    d = matrix[1][1].real
    c = complex(matrix[0][1])
    mean = 0.5 * (a + d)
    radius = math.sqrt(0.25 * (a - d) ** 2 + abs(c) ** 2)
    return mean + radius, mean - radius


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


# --- normalize ---------------------------------------------------------------


def test_normalize_scaling_identity():
    state = normalize([2.0, 0.0])
    assert np.allclose(state.amps, [1.0, 0.0])


def test_normalize_symmetric_pair():
    state = normalize([1.0, 1.0])
    assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2])


def test_normalize_complex_amplitude():
    state = normalize([1.0 + 1.0j, 0.0])
    expected = (1.0 + 1.0j) / math.sqrt(2.0)
    assert abs(state.amps[0] - expected) < 1e-15
    assert abs(float(np.linalg.norm(state.amps)) - 1.0) < 1e-12


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize([0.0, 1e-13])


def test_normalize_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        once = normalize(raw)
        twice = normalize(once.amps)
        assert np.max(np.abs(once.amps - twice.amps)) < 1e-12


@pytest.mark.parametrize(
    "raw, error, message",
    [
        ([np.nan, 1.0], ValueError, "vector has non-finite components"),
        ([np.inf, 0.0], ValueError, "vector has non-finite components"),
        ([1.0, complex(0.0, -np.inf)], ValueError, "vector has non-finite components"),
        ([0.0, 1e-13], ZeroVectorError, "cannot normalize vector with norm 1.000e-13"),
        ([1e-12, 0.0], ZeroVectorError, "cannot normalize vector with norm 1.000e-12"),
        ([0.0, 0.0], ZeroVectorError, "cannot normalize vector with norm 0.000e+00"),
        # Finite entries whose norm overflows: vec / inf is zeros, not a unit state.
        ([1e200, 1e200], ValueError, "state vector norm is 0.0, not 1"),
        ([1.5e308, -1.5e308j], ValueError, "state vector norm is 0.0, not 1"),
    ],
)
def test_normalize_errors_are_unchanged(raw, error, message):
    with np.errstate(over="ignore"):
        with pytest.raises(error) as exc:
            normalize(raw)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_normalize_returns_the_checked_state_of_vec_over_norm():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 5, 64):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = normalize(raw)
        assert type(state) is StateVector
        reference = StateVector(raw / np.linalg.norm(raw)).amps
        assert state.amps.tobytes() == reference.tobytes()
        assert not state.amps.flags.writeable
        assert not np.shares_memory(state.amps, raw)


# --- norm ----------------------------------------------------------------------


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def norm_cases():
    rng = np.random.default_rng(20240601)
    for dim in [*range(1, 71), 128, 1024]:
        for scale in np.logspace(-300, 300, 13):
            yield scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    tiny = np.nextafter(0.0, 1.0)
    yield np.array([tiny, -tiny * 1j, 2.5e-310 + 1e-320j])  # subnormals
    yield np.array([0.0, -0.0, complex(-0.0, 0.0)])
    yield np.zeros(3, dtype=complex)
    yield np.array([1e200, 1.0])  # a square overflows to inf
    yield np.array([1.7e308, 1.7e308j])
    yield np.full(1024, 1e154 + 1e154j)  # the sum overflows, no single square does
    yield np.array([np.nan, 1.0])
    yield np.array([complex(1.0, np.nan)])
    yield np.array([np.inf, 1.0])
    yield np.array([complex(0.0, -np.inf), np.nan])


def test_norm_is_numpy_norm_bit_for_bit():
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for vec in norm_cases():
            vec = np.asarray(vec, dtype=np.complex128)
            got = linalg.norm(vec)
            assert type(got) is float
            assert same_float(got, float(np.linalg.norm(vec))), vec
            count += 1
    assert count == 72 * 13 + 10


# --- row helpers: the batched search's arithmetic, bit for bit -----------------
# These pin the platform facts the lockstep search relies on.  If one fails on
# a platform, the batched search there no longer reproduces the scalar bytes.


def row_blocks():
    """(R, d) complex blocks: d in 1..70, 128 and 1024, 1-16 rows, each row at
    its own scale in 1e-300..1e300, and rows of subnormals."""
    rng = np.random.default_rng(20261018)
    tiny = np.finfo(np.float64).smallest_subnormal
    for dim in [*range(1, 71), 128, 1024]:
        for rows in (1, 2, 5, 16):
            scale = 10.0 ** rng.uniform(-300, 300, size=(rows, 1))
            block = scale * (rng.standard_normal((rows, dim))
                             + 1j * rng.standard_normal((rows, dim)))
            if rows > 1:
                block[-1] = tiny * (rng.integers(-9, 10, dim) + 1j * rng.integers(-9, 10, dim))
            yield block


def test_moduli_equal_python_abs_bit_for_bit():
    # What the batched paths compare with a threshold or square, so it must
    # be the scalar path's abs(complex) exactly (np.abs need not be).
    rng = np.random.default_rng(41)
    z = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * np.exp(
        rng.uniform(-700.0, 700.0, 20000)
    )
    z = np.concatenate([z, [0j, -0.0 + 0j, 5e-324j, 3.0, -4.0j, complex(1e308, 1e308)]])
    got = linalg.moduli(z).tolist()
    assert [value.hex() for value in got] == [abs(complex(v)).hex() for v in z.tolist()]
    assert [value.hex() for value in got] == [float(abs(v)).hex() for v in z]


def test_row_helpers_equal_norm_and_vdot_bit_for_bit():
    rng = np.random.default_rng(5)
    count = 0
    for block in row_blocks():
        other = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # squares overflow at 1e300
            norms, dots = linalg.row_norms(block), linalg.row_vdot(block, other)
            for row, other_row, n, dot in zip(block, other, norms.tolist(), dots.tolist()):
                assert same_float(n, linalg.norm(row))
                assert np.asarray(dot).tobytes() == np.vdot(row, other_row).tobytes()
                count += 1
    assert count == 72 * (1 + 2 + 5 + 16)


def assert_normalize_rows_is_normalize(block):
    with np.errstate(all="ignore"):
        states, norms = linalg.normalize_rows(block)
        ok = linalg.normalizable(norms)
        into = np.empty_like(block), np.empty(block.shape[:-1])
        assert linalg.normalize_rows(block, out=into)[0] is into[0]
        assert into[0].tobytes() == states.tobytes() and into[1].tobytes() == norms.tobytes()
        for row, state, n, good in zip(block, states, norms.tolist(), ok.tolist()):
            try:
                expected = normalize(row)
            except (ValueError, ZeroVectorError):
                assert not good
                continue
            assert good
            assert state.tobytes() == expected.amps.tobytes()
            assert same_float(n, linalg.norm(row))
    return ok.tolist()


def test_normalize_rows_matches_normalize_row_by_row():
    rng = np.random.default_rng(8)
    edge = []
    for dim in (1, 2, 7, 64):
        block = rng.standard_normal((14, dim)) + 1j * rng.standard_normal((14, dim))
        block[1] = 0.0
        block[2] *= 1e-14  # below the degeneracy threshold
        block[3, 0] = np.nan
        block[4, -1] = complex(0.0, np.inf)
        block[5] *= 1e160  # the norm overflows
        block[6] *= 1e-300  # so does the norm, to 0
        block[12] *= 1e153  # at the overflow edge: the norm is finite or not
        block[13] *= 1e154
        ok = assert_normalize_rows_is_normalize(block)
        assert ok[:12] == [True] + [False] * 6 + [True] * 5
        edge += ok[12:]
    assert True in edge and False in edge
    # The widest state the CLI accepts: the scaled row's norm is furthest from 1.
    wide = rng.standard_normal((2, 2**16)) + 1j * rng.standard_normal((2, 2**16))
    wide[1] *= 1e150
    assert assert_normalize_rows_is_normalize(wide) == [True, True]


def test_array_trig_and_exp_equal_the_scalar_calls():
    rng = np.random.default_rng(9)
    theta = np.concatenate([rng.uniform(-20.0, 20.0, 3000), 10.0 ** rng.uniform(-300, 300, 500),
                            [0.0, -0.0, math.pi, -math.pi / 2, 1e-320, 1e300]])
    phase = rng.permutation(theta)
    cos, sin, unit = np.cos(theta), np.sin(theta), np.exp(1j * phase)
    beta = sin * unit  # parameterize's beta, on rows
    for i, (t, p) in enumerate(zip(theta.tolist(), phase.tolist())):
        assert cos[i].tobytes() == np.cos(t).tobytes()
        assert sin[i].tobytes() == np.sin(t).tobytes()
        assert unit[i].tobytes() == np.exp(1j * p).tobytes()
        assert beta[i].tobytes() == np.asarray(complex(np.sin(t)) * np.exp(1j * p)).tobytes()


# --- inner product -----------------------------------------------------------
# <a|b> = sum_i conj(a_i) b_i, the overlap that ``classify_pair`` returns.


def inner_product(a, b):
    return classify_pair(a, b).overlap


def test_inner_product_orthogonal_basis_states():
    assert inner_product(StateVector([1, 0]), StateVector([0, 1])) == 0


def test_inner_product_self_is_one():
    rng = np.random.default_rng(3)
    state = normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    assert abs(inner_product(state, state) - 1.0) < 1e-12


def test_inner_product_plus_with_zero():
    plus = StateVector([INV_SQRT2, INV_SQRT2])
    zero = StateVector([1.0, 0.0])
    assert abs(inner_product(plus, zero) - INV_SQRT2) < 1e-15


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(4)
    a = normalize(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    b = normalize(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert inner_product(a, b) == np.conj(inner_product(b, a))


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(StateVector([1, 0]), StateVector([1, 0, 0]))


# --- eigensolver -------------------------------------------------------------


def test_eigenvalues_diagonal_matrix():
    eigs = hermitian_eigenvalues(np.diag([0.3, 0.7]))
    assert np.allclose(eigs, [0.7, 0.3], atol=1e-15)


def test_eigenvalues_plus_projector():
    eigs = hermitian_eigenvalues([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(eigs, eig2_oracle([[0.5, 0.5], [0.5, 0.5]]), atol=1e-14)
    assert np.allclose(eigs, [1.0, 0.0], atol=1e-14)


def test_eigenvalues_match_2x2_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = random_hermitian(rng, 2)
        eigs = hermitian_eigenvalues(h)
        expected = eig2_oracle(h)
        assert abs(eigs[0] - expected[0]) < 1e-12
        assert abs(eigs[1] - expected[1]) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_eigenvalues_conserve_trace_and_frobenius(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        h = random_hermitian(rng, dim)
        eigs = hermitian_eigenvalues(h)
        assert eigs.shape == (dim,)
        assert np.all(np.diff(eigs) <= 0)
        assert abs(eigs.sum() - np.trace(h).real) < 1e-10
        assert abs((eigs**2).sum() - np.linalg.norm(h) ** 2) < 1e-9


def test_eigenvalues_one_dimensional():
    assert np.allclose(hermitian_eigenvalues([[0.25]]), [0.25])


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


# --- type invariants ---------------------------------------------------------


def test_state_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])


def test_state_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        StateVector([np.nan, 0.0])


def read_only(values):
    arr = np.array(values, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize(
    "amps, message",
    [
        ([np.nan, 0.0], "vector has non-finite components"),
        ([1.0, np.inf], "vector has non-finite components"),
        ([complex(np.nan, 0.0)], "vector has non-finite components"),
        (read_only([complex(0.0, np.inf), 0.0]), "vector has non-finite components"),
        (read_only([1.0, 1.0]), f"state vector norm is {math.sqrt(2.0)!r}, not 1"),
        ([0.5, 0.0], "state vector norm is 0.5, not 1"),
        (1.0, "expected a 1-d complex vector, got shape ()"),
        (read_only(1.0), "expected a 1-d complex vector, got shape ()"),
        ([], "expected a 1-d complex vector, got shape (0,)"),
        (read_only([]), "expected a 1-d complex vector, got shape (0,)"),
        ([[1.0, 0.0]], "expected a 1-d complex vector, got shape (1, 2)"),
    ],
)
def test_state_vector_still_validates_outside_input(amps, message):
    with pytest.raises(ValueError) as exc:
        StateVector(amps)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_state_vector_copies_read_only_unit_input():
    amps = read_only([INV_SQRT2, 1j * INV_SQRT2])
    state = StateVector(amps)
    assert state.amps.tobytes() == amps.tobytes()
    assert not np.shares_memory(state.amps, amps)


def test_state_vector_is_immutable():
    state = StateVector([1.0, 0.0])
    with pytest.raises(ValueError):
        state.amps[0] = 0.0


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_from_pure_caches_spectrum():
    state = StateVector([INV_SQRT2, INV_SQRT2])
    rho = DensityMatrix.from_pure(state)
    assert abs(rho.eigenvalues()[0] - 1.0) < 1e-12
    assert abs(rho.eigenvalues()[1]) < 1e-12
