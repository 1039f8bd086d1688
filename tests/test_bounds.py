"""Bound reports: frozen examples, slack conventions, and random sweeps."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from coherence_lab import bounds as bounds_module
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
    PairClass,
    PairKind,
    StateVector,
    SuperpositionCoefficients,
    Tolerances,
    WrongPairClassError,
    ZeroVectorError,
    binary_entropy,
    classify_pair,
    evaluate_all,
    evaluate_bound,
    haar_random_state,
    normalize,
    random_coefficients,
    random_orthogonal_pair,
)
from coherence_lab.ensembles import sample_pair
from philox_oracle import numpy_generator

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
        phi, psi = sample_pair(numpy_generator(config.seed), config)
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
        phi, psi = sample_pair(numpy_generator(config.seed), config)
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


@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_reports_are_invariant_under_a_basis_permutation(kind):
    # A permutation of the incoherent basis is an incoherent unitary: it keeps
    # every coherence, weight, norm and overlap, so every report.
    for dim in range(2, 17):
        config = EnsembleConfig(dim=dim, trials=1, pair_kind=kind, seed=dim)
        for seed in range(40):
            gen = numpy_generator(1000 * dim + seed)
            phi, psi = sample_pair(gen, config)
            coeffs = random_coefficients(seed)
            order = np.random.default_rng(seed).permutation(dim)
            moved_phi, moved_psi = StateVector(phi.amps[order]), StateVector(psi.amps[order])
            assert classify_pair(moved_phi, moved_psi).tag is classify_pair(phi, psi).tag
            base = evaluate_all(coeffs, phi, psi)
            moved = evaluate_all(coeffs, moved_phi, moved_psi)
            assert [(r.bound_id, r.satisfied) for r in moved] == [
                (r.bound_id, r.satisfied) for r in base
            ]
            for b, m in zip(base, moved):
                assert abs(b.slack - m.slack) <= 1e-13, (dim, seed, b.bound_id)


def test_weight_at_the_edge_of_validation_is_evaluated():
    # |alpha|^2 = 1 + 8e-11 passes the coefficient check (TOLERANCES.norm),
    # so the binary entropies of the weights must take it too.
    coeffs = SuperpositionCoefficients(1.0 + 4e-11, 0.0)
    reports = evaluate_all(coeffs, E0, E1)
    assert [r.bound_id for r in reports] == [T1_EQUALITY, GAIN_LE_1, T2_UPPER, T4_LOWER_A, T4_LOWER_B]
    assert all(r.satisfied for r in reports)
    for bound_id in (T1_EQUALITY, T2_UPPER, T3_UPPER):
        assert evaluate_bound(bound_id, coeffs, E0, E1).satisfied


def test_slack_sign_conventions():
    upper = evaluate_bound(T2_UPPER, EQUAL, E0, E1)
    assert upper.slack == upper.rhs - upper.lhs
    lower = evaluate_bound(T4_LOWER_A, EQUAL, E0, E1)
    assert lower.slack == lower.lhs - lower.rhs
    equality = evaluate_bound(T1_EQUALITY, EQUAL, E0, E1)
    assert equality.slack == abs(equality.lhs - equality.rhs)
    assert equality.slack >= 0.0


# The pair kinds each bound may be searched over, as a literal.
SEARCH_KINDS = {
    T1_EQUALITY: {PairKind.DISJOINT_SUPPORT},
    GAIN_LE_1: {PairKind.DISJOINT_SUPPORT},
    T2_UPPER: {PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE},
    T3_UPPER: set(PairKind),
    T4_LOWER_A: set(PairKind),
    T4_LOWER_B: set(PairKind),
}


# The pair classes evaluate_all and verify check each bound on, as a literal:
# T3 reduces to T2 when s = 1, so it is checked only where T2 is not.
CHECKED_CLASSES = {
    T1_EQUALITY: {PairKind.DISJOINT_SUPPORT},
    GAIN_LE_1: {PairKind.DISJOINT_SUPPORT},
    T2_UPPER: {PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE},
    T3_UPPER: {PairKind.NON_ORTHOGONAL},
    T4_LOWER_A: set(PairKind) - {PairKind.ARBITRARY},
    T4_LOWER_B: set(PairKind) - {PairKind.ARBITRARY},
}


def test_bounds_registry_covers_every_bound():
    assert set(BOUNDS) == set(ALL_BOUND_IDS)
    for bound_id, bound in BOUNDS.items():
        assert bound.kinds == SEARCH_KINDS[bound_id]
        assert bound.classes == CHECKED_CLASSES[bound_id]
        assert bound.classes <= bound.kinds
        assert bound.default_kind in bound.kinds
        assert bound.direction in ("equality", "upper", "lower")
    # A sampled pair of a kind a bound does not take is outside its hypothesis.
    coeffs = random_coefficients(5)
    for kind in set(PairKind) - {PairKind.ARBITRARY}:
        config = EnsembleConfig(dim=4, trials=1, pair_kind=kind, seed=3)
        for seed in range(5):
            phi, psi = sample_pair(numpy_generator(seed), config)
            for bound_id, bound in BOUNDS.items():
                if kind in bound.kinds:
                    assert math.isfinite(evaluate_bound(bound_id, coeffs, phi, psi).slack)
                else:
                    with pytest.raises(WrongPairClassError):
                        evaluate_bound(bound_id, coeffs, phi, psi)


def test_evaluate_bound_matches_evaluate_all():
    config = EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17)
    pairs = [
        sample_pair(numpy_generator(config.seed), config),
        random_orthogonal_pair(4, 18),
        (haar_random_state(4, 19), haar_random_state(4, 20)),
    ]
    coeffs = random_coefficients(21)
    for phi, psi in pairs:
        for report in evaluate_all(coeffs, phi, psi):
            assert evaluate_bound(report.bound_id, coeffs, phi, psi) == report


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_context_computes_each_quantity_once(monkeypatch):
    coherences = count_calls(monkeypatch, bounds_module, "pure_state_coherence")
    superposes = count_calls(monkeypatch, bounds_module, "superpose")
    config = EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17)
    phi, psi = sample_pair(numpy_generator(config.seed), config)
    coeffs = random_coefficients(21)

    evaluate_bound(T4_LOWER_A, coeffs, phi, psi)
    assert (len(coherences), len(superposes)) == (3, 1)
    reports = evaluate_all(coeffs, phi, psi)
    assert [r.bound_id for r in reports] == [
        T1_EQUALITY, GAIN_LE_1, T2_UPPER, T4_LOWER_A, T4_LOWER_B
    ]
    assert (len(coherences), len(superposes)) == (6, 2)

    # A second context recomputes from its own inputs rather than reusing values.
    other = random_coefficients(22)
    assert evaluate_all(other, phi, psi) != reports
    assert (len(coherences), len(superposes)) == (9, 3)
    assert superposes[-1][0] is other


# --- the bound formulas on arrays ---------------------------------------------------


CLASS_EXEMPLARS = {
    PairKind.DISJOINT_SUPPORT: (E0, E1),
    PairKind.ORTHOGONAL_SAME_SPACE: (PLUS, MINUS),
    PairKind.NON_ORTHOGONAL: (E0, PLUS),
}


@pytest.mark.parametrize("kind", list(CLASS_EXEMPLARS), ids=lambda k: k.value)
def test_evaluate_rows_runs_the_scalar_formulas_on_arrays(kind):
    # Rows where s ** 2 (pow) and s * s round differently are kept on
    # purpose: the formulas must square by multiplying, as numpy does.
    rng = np.random.default_rng(17)
    n = 20000
    s = rng.uniform(0.01, 1.99, n)
    a = rng.random(n)
    values = {
        "alpha_sq": a, "beta_sq": 1.0 - a, "s": s,
        "coherence_phi": rng.uniform(0.0, 3.0, n), "coherence_psi": rng.uniform(0.0, 3.0, n),
        "coherence_t1": rng.uniform(0.0, 3.0, n),
    }
    overlap = rng.uniform(0.0, 2e-10, n) * np.exp(2j * np.pi * rng.random(n))
    pow_rows = [i for i, x in enumerate(s.tolist()) if x ** 2 != x * x]
    assert len(pow_rows) >= 5
    rows = np.array(pow_rows + list(range(200)))
    values = {k: v[rows] for k, v in values.items()}
    classes = {pair_class: np.full(len(rows), pair_class is kind) for pair_class in CLASS_EXEMPLARS}
    ok, results = bounds_module.evaluate_rows(
        classes, overlap[rows], values, np.ones(len(rows), dtype=bool), tolerance=1e-9
    )
    # The bounds evaluate_all reports for the class, in its order, each at every ok row.
    verdicts = {bound_id: (slack, satisfied) for bound_id, applied, slack, satisfied in results
                if applied.size}
    assert list(verdicts) == [rep.bound_id for rep in evaluate_all(EQUAL, *CLASS_EXEMPLARS[kind])]
    for bound_id, applied, _, _ in results:
        assert applied.tolist() == (np.flatnonzero(ok).tolist() if bound_id in verdicts else [])
    for j, i in enumerate(np.flatnonzero(ok).tolist()):
        # Row i's floats as a scalar record, as row_slacks builds one per row.
        record = bounds_module._Quantities(**{k: v[i].item() for k, v in values.items()})
        for bound_id, (slack, satisfied) in verdicts.items():
            report = bounds_module._report(bound_id, record, 1e-9)
            assert (slack[j].hex(), bool(satisfied[j])) == (report.slack.hex(), report.satisfied)
    for i in range(len(rows)):
        # The pair class evaluate_all checks each hypothesis on.
        pair_class = PairClass(kind, complex(overlap[rows[i]]))
        raised = False
        for bound_id in verdicts:
            try:
                bounds_module._require(BOUNDS[bound_id].hypothesis, pair_class)
            except WrongPairClassError:
                raised = True
        assert bool(ok[i]) is not raised
    if kind is PairKind.NON_ORTHOGONAL:
        assert ok.all()
    else:  # T2's overlap hypothesis fails on some rows and holds on others
        assert 0 < np.count_nonzero(ok) < len(rows)


def largest_shared(phi, psi) -> float:
    """max_i min(|phi_i|, |psi_i|): disjoint support when at most the threshold."""
    return max(min(abs(p), abs(q)) for p, q in zip(phi.amps.tolist(), psi.amps.tolist()))


def overlap_modulus(phi, psi) -> float:
    return abs(complex(np.vdot(phi.amps, psi.amps)))


def unit_slots(phi, psi):
    """(R, d) unit rows as ``row_slacks`` reads them: (states, norms), phi and
    psi in slots 0 and 1 (slot 2 is for the superposition), each of norm 1."""
    return np.stack([phi, psi, psi], axis=1), np.ones((len(phi), 3))


def hypothesis_rows():
    """Pairs of every kind at d = 4, some exactly at the support or overlap
    threshold they are returned with.  Returns (pairs, moved tolerances)."""
    pairs = []
    for kind in (PairKind.ORTHOGONAL_SAME_SPACE, PairKind.NON_ORTHOGONAL, PairKind.ARBITRARY):
        config = EnsembleConfig(dim=4, trials=1, pair_kind=kind, seed=0)
        pairs += [sample_pair(numpy_generator(seed), config) for seed in range(3)]

    def shared(x):  # disjoint but for the real amplitude x in the other's block
        return normalize([0.8, 0.6j, x, x]), normalize([x, x, 0.6, -0.8j])

    def overlapping(x):  # |<phi|psi>| close to x, every amplitude near 1/2
        return normalize([1.0, 1.0, 1.0, 1.0]), normalize([1 + x, x - 1, 1 + x, x - 1])

    support_pair, overlap_pair = shared(1e-3), overlapping(1e-6)
    pairs += [support_pair, shared(1e-12), shared(2e-3),
              overlap_pair, overlapping(1e-8), overlapping(2e-6)]
    return pairs, Tolerances(support=largest_shared(*support_pair),
                             overlap=overlap_modulus(*overlap_pair))


def test_the_three_paths_agree_on_each_hypothesis(monkeypatch):
    # One row_slacks call per bound over rows of every pair kind.  A row has
    # evaluate_bound's slack bits exactly where it meets the bound's hypothesis
    # by the rule written out here; elsewhere it is NaN and evaluate_bound
    # raises WrongPairClassError.  evaluate_rows keeps the rows that meet every
    # hypothesis of their class.
    pairs, moved = hypothesis_rows()
    for module in (bounds_module, importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", moved)
    coeffs = [random_coefficients(40 + i) for i in range(len(pairs))]
    disjoint = [largest_shared(phi, psi) <= moved.support for phi, psi in pairs]
    orthogonal = [overlap_modulus(phi, psi) <= moved.overlap for phi, psi in pairs]
    # The support row is disjoint and fails T2's overlap test; the overlap row is orthogonal.
    assert disjoint[-6:] == [True, True, False, False, False, False]
    assert orthogonal[-6:] == [False, True, False, True, True, False]
    meets = {
        None: [True] * len(pairs),
        PairKind.DISJOINT_SUPPORT: disjoint,
        PairKind.ORTHOGONAL_SAME_SPACE: orthogonal,
    }
    alpha = np.array([c.alpha for c in coeffs])
    beta = np.array([c.beta for c in coeffs])
    phi = np.array([p.amps for p, _ in pairs])
    psi = np.array([q.amps for _, q in pairs])
    vouched_slacks = {}
    for bound_id, bound in BOUNDS.items():
        slacks = bounds_module.row_slacks(bound_id, alpha, beta, *unit_slots(phi, psi))
        vouched = ~np.isnan(slacks)
        assert vouched.tolist() == meets[bound.hypothesis], bound_id
        for i, (c, (p, q)) in enumerate(zip(coeffs, pairs)):
            if vouched[i]:
                assert slacks[i].hex() == evaluate_bound(bound_id, c, p, q).slack.hex()
            else:
                assert math.isnan(slacks[i])
                with pytest.raises(WrongPairClassError):
                    evaluate_bound(bound_id, c, p, q)
        vouched_slacks[bound_id] = vouched, slacks

    classes = [classify_pair(p, q) for p, q in pairs]
    records = [bounds_module._record(c, p, q) for c, (p, q) in zip(coeffs, pairs)]
    values = {name: np.array([getattr(record, name) for record in records])
              for name in bounds_module._Quantities._fields}
    masks = {kind: np.array([c.tag is kind for c in classes]) for kind in CLASS_EXEMPLARS}
    ok, results = bounds_module.evaluate_rows(
        masks, np.array([c.overlap for c in classes]), values, np.ones(len(pairs), dtype=bool)
    )
    for i, pair_class in enumerate(classes):
        checked = [b for b, bound in BOUNDS.items() if pair_class.tag in bound.classes]
        assert bool(ok[i]) is all(vouched_slacks[b][0][i] for b in checked), i
    for bound_id, rows, slack, _ in results:
        assert rows.tolist() == [i for i in np.flatnonzero(ok).tolist()
                                 if classes[i].tag in BOUNDS[bound_id].classes], bound_id
        assert [x.hex() for x in slack.tolist()] == [
            vouched_slacks[bound_id][1][i].hex() for i in rows.tolist()]
    disjoint = masks[PairKind.DISJOINT_SUPPORT]
    assert ok[disjoint].tolist() == [False, True]  # the support row fails T2


@pytest.mark.parametrize("kind", [PairKind.ARBITRARY, PairKind.DISJOINT_SUPPORT],
                         ids=lambda k: k.value)
def test_a_hypothesis_test_computes_only_what_it_reads(monkeypatch, kind):
    # A disjointness hypothesis reads the supports, an orthogonality one the
    # overlap; rows drawn disjoint meet the first with no test at all.
    calls = []
    for name in ("disjoint_rows", "row_vdot"):
        def counted(*args, _name=name, _real=getattr(bounds_module, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(bounds_module, name, counted)
    expected = {None: [], PairKind.ORTHOGONAL_SAME_SPACE: ["row_vdot"],
                PairKind.DISJOINT_SUPPORT: [] if kind is PairKind.DISJOINT_SUPPORT
                else ["disjoint_rows"]}
    coefficients = np.array([EQUAL.alpha]), np.array([EQUAL.beta])
    for bound_id, bound in BOUNDS.items():
        calls.clear()
        slacks = bounds_module.row_slacks(
            bound_id, *coefficients, *unit_slots(E0.amps[None], E1.amps[None]), kind=kind
        )
        assert not np.isnan(slacks).any() and calls == expected[bound.hypothesis], bound_id


def test_one_mutant_reaches_every_evaluator(monkeypatch):
    # Each relation is written once: T2 loosened from 2 to 2.1 in BOUNDS alone
    # moves the slack of all four evaluators (evaluate_bound, evaluate_all,
    # row_slacks, evaluate_rows), scalar and batched, to the same bits.
    triples = [(random_coefficients(60 + i), *random_orthogonal_pair(2, 60 + i)) for i in range(4)]
    assert all(classify_pair(phi, psi).tag is PairKind.ORTHOGONAL_SAME_SPACE
               for _, phi, psi in triples)
    before = [evaluate_bound(T2_UPPER, *triple).slack for triple in triples]

    def loose_t2_sides(q, entropy):
        return q.coherence_t1, 2.1 * bounds_module._weighted_mix(q, entropy)

    loose = dataclasses.replace(BOUNDS[T2_UPPER], sides=loose_t2_sides)
    monkeypatch.setattr(bounds_module, "BOUNDS", {**BOUNDS, T2_UPPER: loose})
    records = [bounds_module._record(*triple) for triple in triples]
    expected = [
        2.1 * (r.alpha_sq * r.coherence_phi + r.beta_sq * r.coherence_psi
               + binary_entropy(r.alpha_sq)) - r.coherence_t1
        for r in records
    ]
    rows = bounds_module.row_slacks(
        T2_UPPER,
        np.array([c.alpha for c, _, _ in triples]), np.array([c.beta for c, _, _ in triples]),
        *unit_slots(np.array([p.amps for _, p, _ in triples]),
                    np.array([q.amps for _, _, q in triples])),
    )
    vouched, results = bounds_module.evaluate_rows(
        {kind: np.full(len(triples), kind is PairKind.ORTHOGONAL_SAME_SPACE)
         for kind in CLASS_EXEMPLARS},
        np.array([classify_pair(p, q).overlap for _, p, q in triples]),
        {name: np.array([getattr(r, name) for r in records])
         for name in bounds_module._Quantities._fields},
        np.ones(len(triples), dtype=bool),
    )
    assert not np.isnan(rows).any() and vouched.all()
    verdicts = {bound_id: slack for bound_id, _, slack, _ in results}
    for i, triple in enumerate(triples):
        report = evaluate_all(*triple)[0]
        assert report.bound_id == T2_UPPER
        slacks = [evaluate_bound(T2_UPPER, *triple).slack, report.slack, rows[i].item(),
                  verdicts[T2_UPPER][i].item()]
        assert {slack.hex() for slack in slacks} == {expected[i].hex()}
        assert expected[i] != before[i]
