"""Superposition construction, pair classification, and the exact identities."""

import importlib
import math

import numpy as np
import pytest

from coherence_lab import (
    DimensionMismatchError,
    normalize,
    PairKind,
    StateVector,
    SuperpositionCoefficients,
    TOLERANCES,
    Tolerances,
    ZeroVectorError,
    classify_pair,
    haar_random_state,
    mixing_identity_residual,
    norm_identity_residual,
    random_coefficients,
    superpose,
    t_states,
)
from coherence_lab.linalg import normalizable
from coherence_lab.superpose import class_masks, coefficient_map, is_orthogonal, superpose_rows

INV_SQRT2 = 1.0 / math.sqrt(2.0)

E0 = StateVector([1.0, 0.0])
E1 = StateVector([0.0, 1.0])
PLUS = StateVector([INV_SQRT2, INV_SQRT2])
MINUS = StateVector([INV_SQRT2, -INV_SQRT2])
EQUAL = SuperpositionCoefficients(INV_SQRT2, INV_SQRT2)


def random_triple(seed, dim):
    phi = haar_random_state(dim, seed)
    psi = haar_random_state(dim, seed + 10_000_019)
    coeffs = random_coefficients(seed + 20_000_003)
    return coeffs, phi, psi


# --- coefficients ---------------------------------------------------------------


def test_coefficients_validate_constraint():
    with pytest.raises(ValueError):
        SuperpositionCoefficients(1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["alpha.real", "alpha.imag", "beta.real", "beta.imag"])
def test_coefficients_reject_non_finite_parts(bad, where):
    parts = {"alpha.real": 1.0, "alpha.imag": 0.0, "beta.real": 0.0, "beta.imag": 0.0}
    parts[where] = bad
    alpha = complex(parts["alpha.real"], parts["alpha.imag"])
    beta = complex(parts["beta.real"], parts["beta.imag"])
    name = where.split(".")[0]
    with pytest.raises(ValueError) as exc:
        SuperpositionCoefficients(alpha, beta)
    value = alpha if name == "alpha" else beta
    assert str(exc.value) == f"{name} has non-finite components: {value!r}"


def test_coefficients_weights():
    coeffs = SuperpositionCoefficients(math.sqrt(0.3), 1j * math.sqrt(0.7))
    assert abs(coeffs.alpha_sq - 0.3) < 1e-12
    assert abs(coeffs.beta_sq - 0.7) < 1e-12


# --- superpose ------------------------------------------------------------------


def test_superpose_uniform_basis_pair():
    sup = superpose(EQUAL, E0, E1)
    assert np.allclose(sup.s * sup.normalized.amps, [INV_SQRT2, INV_SQRT2])
    assert abs(sup.s - 1.0) < 1e-12
    assert sup.normalized is not None


def test_superpose_plus_minus_collapses_to_basis_state():
    sup = superpose(EQUAL, PLUS, MINUS)
    assert abs(sup.s - 1.0) < 1e-12
    assert np.allclose(sup.normalized.amps, [1.0, 0.0], atol=1e-12)


def test_superpose_exact_cancellation_yields_absent_normalized():
    coeffs = SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2)
    sup = superpose(coeffs, E0, E0)
    assert sup.s == 0.0
    assert sup.normalized is None


@pytest.mark.parametrize("eps", [1e-12, 1.4e-12, 1.5e-12, 1e-11])
def test_superpose_normalizes_only_above_the_zero_vector_threshold(eps):
    # s = ||(E0 - psi) / sqrt(2)|| = eps / sqrt(2) for psi = (1, eps).
    psi = StateVector([1.0, eps])
    coeffs = SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2)
    sup = superpose(coeffs, E0, psi)
    raw = coeffs.alpha * E0.amps + coeffs.beta * psi.amps
    assert sup.s == float(np.linalg.norm(raw))
    if sup.s <= TOLERANCES.zero_vector:
        assert eps < 1.5e-12
        assert sup.normalized is None
    else:
        assert eps >= 1.5e-12
        expected = StateVector(raw / sup.s).amps
        assert sup.normalized.amps.tobytes() == expected.tobytes()


def test_superpose_norm_formula():
    for seed in range(50):
        coeffs, phi, psi = random_triple(seed, 5)
        sup = superpose(coeffs, phi, psi)
        overlap = complex(np.vdot(phi.amps, psi.amps))
        expected_sq = 1.0 + 2.0 * (np.conj(coeffs.alpha) * coeffs.beta * overlap).real
        assert abs(sup.s**2 - expected_sq) < 1e-10


def test_superpose_orthogonal_inputs_have_unit_norm():
    sup = superpose(random_coefficients(7), PLUS, MINUS)
    assert abs(sup.s - 1.0) < 1e-10


def test_superpose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        superpose(EQUAL, E0, StateVector([1.0, 0.0, 0.0]))


def test_superpose_seals_the_state_normalize_would_return():
    for seed in range(40):
        coeffs, phi, psi = random_triple(seed, 2 + seed % 9)
        state = superpose(coeffs, phi, psi)
        expected = normalize(coeffs.alpha * phi.amps + coeffs.beta * psi.amps)
        assert state.normalized.amps.tobytes() == expected.amps.tobytes()
        assert not state.normalized.amps.flags.writeable


def test_superpose_rows_match_superpose_row_by_row():
    triples = [random_triple(seed, 6) for seed in range(12)]
    uniform = StateVector(np.full(6, 1.0 / math.sqrt(6.0)))
    triples.append((SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2), uniform, uniform))
    alpha = np.array([c.alpha for c, _, _ in triples])
    beta = np.array([c.beta for c, _, _ in triples])
    phi = np.array([p.amps for _, p, _ in triples])
    psi = np.array([q.amps for _, _, q in triples])
    states = np.stack([phi, psi, np.zeros_like(phi)], axis=1)
    norms = np.ones((len(triples), 3))
    with np.errstate(all="ignore"):
        superpose_rows(alpha, beta, states, norms)
    s, normalized, ok = norms[:, 2], states[:, 2], normalizable(norms[:, 2])
    assert states[:, 0].tobytes() == phi.tobytes() and states[:, 1].tobytes() == psi.tobytes()
    assert ok.tolist() == [True] * (len(triples) - 1) + [False]
    for (coeffs, p, q), s_i, row, good in zip(triples, s.tolist(), normalized, ok.tolist()):
        state = superpose(coeffs, p, q)
        assert s_i == state.s
        if good:
            assert row.tobytes() == state.normalized.amps.tobytes()
        else:
            assert state.normalized is None


# --- t_states -------------------------------------------------------------------


def test_t_states_disjoint_pair():
    t1, t2 = t_states(EQUAL, E0, E1)
    assert np.allclose(t1.amps, [INV_SQRT2, INV_SQRT2])
    assert np.allclose(t2.amps, [INV_SQRT2, -INV_SQRT2])


def test_t_states_plus_minus_pair():
    t1, t2 = t_states(EQUAL, PLUS, MINUS)
    assert np.allclose(t1.amps, [1.0, 0.0], atol=1e-12)
    assert np.allclose(t2.amps, [0.0, 1.0], atol=1e-12)


def test_t_states_orthogonal_inputs_have_unit_branch_norms():
    for seed in range(20):
        coeffs = random_coefficients(seed)
        raw_plus = coeffs.alpha * PLUS.amps + coeffs.beta * MINUS.amps
        raw_minus = coeffs.alpha * PLUS.amps - coeffs.beta * MINUS.amps
        assert abs(np.linalg.norm(raw_plus) - 1.0) < 1e-10
        assert abs(np.linalg.norm(raw_minus) - 1.0) < 1e-10
        t_states(coeffs, PLUS, MINUS)


def test_t_states_degenerate_branches_are_named():
    with pytest.raises(ZeroVectorError, match="difference branch"):
        t_states(EQUAL, E0, E0)
    with pytest.raises(ZeroVectorError, match="sum branch"):
        t_states(SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2), E0, E0)


# --- classification --------------------------------------------------------------


def test_classify_disjoint_pair():
    assert classify_pair(E0, E1).tag is PairKind.DISJOINT_SUPPORT


def test_classify_orthogonal_same_space():
    result = classify_pair(PLUS, MINUS)
    assert result.tag is PairKind.ORTHOGONAL_SAME_SPACE
    assert abs(result.overlap) < 1e-12


def test_classify_non_orthogonal():
    result = classify_pair(E0, PLUS)
    assert result.tag is PairKind.NON_ORTHOGONAL
    assert abs(result.overlap - INV_SQRT2) < 1e-15


def test_classify_disjoint_takes_precedence_over_orthogonal():
    # Disjoint supports are orthogonal too; the finer tag wins.
    result = classify_pair(E0, E1)
    assert result.tag is PairKind.DISJOINT_SUPPORT
    assert result.overlap == 0


def test_classify_symmetric_with_conjugated_overlap():
    for seed in range(20):
        phi = haar_random_state(4, seed)
        psi = haar_random_state(4, seed + 1000)
        forward = classify_pair(phi, psi)
        backward = classify_pair(psi, phi)
        assert forward.tag is backward.tag
        assert forward.overlap == np.conj(backward.overlap)


def classification_rule(phi, psi) -> PairKind:
    """The rule, written out: a shared amplitude above the support threshold
    rules out disjoint support, then the overlap decides."""
    shared = max(min(abs(p), abs(q)) for p, q in zip(phi.amps.tolist(), psi.amps.tolist()))
    if shared <= TOLERANCES.support:
        return PairKind.DISJOINT_SUPPORT
    if abs(complex(np.vdot(phi.amps, psi.amps))) <= TOLERANCES.overlap:
        return PairKind.ORTHOGONAL_SAME_SPACE
    return PairKind.NON_ORTHOGONAL


def test_class_masks_and_classify_pair_follow_the_rule():
    pairs = [random_triple(seed, 4)[1:] for seed in range(10)]
    disjoint = (StateVector([1.0, 0.0, 0.0, 0.0]), StateVector([0.0, 0.6, 0.8j, 0.0]))
    orthogonal = (StateVector([0.5, 0.5, 0.5, 0.5]), StateVector([0.5, -0.5, 0.5, -0.5]))
    # A shared amplitude at the support threshold, and one just above it.
    edge = math.sqrt(1.0 - TOLERANCES.support**2)
    at_support = (StateVector([edge, TOLERANCES.support]), StateVector([TOLERANCES.support, edge]))
    above = np.nextafter(TOLERANCES.support, 1.0)
    over_support = (StateVector([edge, above]), StateVector([above, edge]))
    pairs += [disjoint, orthogonal, at_support, over_support]
    expected = [classification_rule(p, q) for p, q in pairs]
    assert expected[-4:] == [PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE,
                             PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE]
    assert PairKind.NON_ORTHOGONAL in expected
    for (p, q), tag in zip(pairs, expected):
        got = classify_pair(p, q)
        assert got.tag is tag
        assert type(got.overlap) is complex and got.overlap == complex(np.vdot(p.amps, q.amps))
    for dim in (2, 4):
        rows = [(p, q) for p, q in pairs if p.dim == dim]
        masks, overlaps = class_masks(np.array([p.amps for p, _ in rows]),
                                      np.array([q.amps for _, q in rows]))
        assert overlaps.tolist() == [classify_pair(p, q).overlap for p, q in rows]
        for i, (p, q) in enumerate(rows):
            assert [kind for kind, mask in masks.items() if mask[i]] == [classification_rule(p, q)]


def test_class_masks_compare_the_overlap_as_abs_does(monkeypatch):
    # With the orthogonality threshold set to |<phi|psi>| itself, the pair is
    # orthogonal to classify_pair; a modulus rounded the other way (np.abs
    # on some platforms) would call it non-orthogonal.
    module = importlib.import_module("coherence_lab.superpose")
    rng = np.random.default_rng(3)
    overlaps = 0.3 * np.exp(2j * np.pi * rng.random(400))
    rounded_apart = np.abs(overlaps) != np.hypot(overlaps.real, overlaps.imag)
    for o in overlaps[rounded_apart][:20].tolist() + [0.3j]:
        phi, psi = StateVector([1.0, 0.0]), StateVector([o, math.sqrt(1.0 - abs(o) ** 2)])
        monkeypatch.setattr(module, "TOLERANCES", Tolerances(overlap=abs(o)))
        want = classify_pair(phi, psi)
        assert want.tag is PairKind.ORTHOGONAL_SAME_SPACE
        masks, _ = class_masks(phi.amps[None], psi.amps[None])
        assert [kind for kind, rows in masks.items() if rows[0]] == [want.tag]


def test_is_orthogonal_at_the_overlap_threshold():
    # The one orthogonality test, on complexes and on an array: a modulus at
    # the threshold is orthogonal, the next float above it is not, nor is NaN.
    above = np.nextafter(TOLERANCES.overlap, 1.0)
    overlaps = [complex(TOLERANCES.overlap, 0.0), complex(0.0, -TOLERANCES.overlap),
                complex(above, 0.0), complex(math.nan, 0.0)]
    expected = [True, True, False, False]
    assert [bool(is_orthogonal(z)) for z in overlaps] == expected
    assert is_orthogonal(np.array(overlaps)).tolist() == expected


# --- identities -------------------------------------------------------------------


def test_mixing_identity_on_plus_minus_example():
    assert mixing_identity_residual(EQUAL, PLUS, MINUS) <= TOLERANCES.identity_residual


def test_mixing_identity_on_random_inputs():
    coeffs, phi, psi = random_triple(99, 4)
    assert mixing_identity_residual(coeffs, phi, psi) <= TOLERANCES.identity_residual


def test_mixing_identity_sweep():
    for seed in range(200):
        dim = 2 + seed % 15
        coeffs, phi, psi = random_triple(seed, dim)
        assert mixing_identity_residual(coeffs, phi, psi) <= TOLERANCES.identity_residual


def test_norm_identity_on_uniform_basis_pair():
    assert norm_identity_residual(EQUAL, E0, E1) <= TOLERANCES.identity_residual


def test_norm_identity_non_orthogonal_example():
    assert norm_identity_residual(EQUAL, E0, PLUS) <= TOLERANCES.identity_residual


def test_norm_identity_parallel_states():
    coeffs = SuperpositionCoefficients(INV_SQRT2, INV_SQRT2)
    sup_plus = superpose(coeffs, E0, E0)
    assert abs(sup_plus.s**2 - 2.0) < 1e-12
    assert norm_identity_residual(coeffs, E0, E0) <= TOLERANCES.identity_residual


def test_norm_identity_sweep():
    for seed in range(200):
        dim = 2 + seed % 15
        coeffs, phi, psi = random_triple(seed, dim)
        assert norm_identity_residual(coeffs, phi, psi) <= TOLERANCES.identity_residual


def test_coefficient_map_gives_the_same_bits_on_floats_and_on_rows():
    angles = (0.0, -0.0, math.pi / 2, math.pi, 1e-300, 0.3)
    pairs = [(theta, phase) for theta in angles for phase in angles]
    thetas, phases = np.array(pairs).T
    alphas, betas = coefficient_map(thetas, phases)

    def bits(z):  # float.hex keeps the sign of zero
        return float(np.real(z)).hex(), float(np.imag(z)).hex()

    for (theta, phase), alpha, beta in zip(pairs, alphas, betas):
        scalar_alpha, scalar_beta = coefficient_map(theta, phase)
        assert bits(scalar_alpha) == bits(alpha), (theta, phase)
        assert bits(scalar_beta) == bits(beta), (theta, phase)
