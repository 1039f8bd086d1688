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
    TOLERANCES,
    EnsembleConfig,
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
from coherence_lab.superpose import coefficient_map
from philox_oracle import numpy_generator
from test_invariance import row_values

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


def test_equality_with_degenerate_weight():
    coeffs = SuperpositionCoefficients(1.0, 0.0)
    report = evaluate_bound(T1_EQUALITY, coeffs, E0, E1)
    assert report.lhs == report.rhs == 0.0


def test_equality_rejects_non_disjoint_pairs():
    with pytest.raises(WrongPairClassError) as exc:
        evaluate_bound(T1_EQUALITY, EQUAL, PLUS, MINUS)
    assert str(exc.value) == "pair classified as OrthogonalSameSpace; disjoint support required"


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


def test_orthogonal_bound_rejects_overlapping_pairs():
    # The text pins |<phi|psi>| = 1/sqrt(2), which only this message computes.
    with pytest.raises(WrongPairClassError) as exc:
        evaluate_bound(T2_UPPER, EQUAL, E0, PLUS)
    assert str(exc.value) == "|<phi|psi>| = 7.071e-01 exceeds the orthogonality threshold 1e-10"


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


def test_evaluate_all_routes_non_orthogonal_pairs():
    kind, reports = evaluate_all(EQUAL, E0, PLUS)
    assert kind is PairKind.NON_ORTHOGONAL
    assert [r.bound_id for r in reports] == [T3_UPPER, T4_LOWER_A, T4_LOWER_B]


@pytest.mark.parametrize("state", [E0, PLUS], ids=["E0", "PLUS"])
@pytest.mark.parametrize("bound_id", [None, T3_UPPER, T4_LOWER_A, T4_LOWER_B],
                         ids=lambda b: b or "evaluate_all")
def test_cancelling_branches_raise_the_text_a_trial_records(bound_id, state):
    # A state with itself is NonOrthogonal, so every bound that takes the
    # pair reads the normalized superposition, and the antiparallel branches
    # cancel exactly.  A scalar trial's error string lands in verify's
    # error_samples, so the text is report bytes.
    coeffs = SuperpositionCoefficients(INV_SQRT2, -INV_SQRT2)
    with pytest.raises(ZeroVectorError) as exc:
        if bound_id is None:
            evaluate_all(coeffs, state, state)
        else:
            evaluate_bound(bound_id, coeffs, state, state)
    assert f"{type(exc.value).__name__}: {exc.value}" == (
        "ZeroVectorError: superposition norm is numerically zero")


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
            kind, base = evaluate_all(coeffs, phi, psi)
            moved_kind, moved = evaluate_all(coeffs, moved_phi, moved_psi)
            assert moved_kind is kind
            assert [(r.bound_id, r.satisfied) for r in moved] == [
                (r.bound_id, r.satisfied) for r in base
            ]
            for b, m in zip(base, moved):
                assert abs(b.slack - m.slack) <= 1e-13, (dim, seed, b.bound_id)


def test_weight_at_the_edge_of_validation_is_evaluated():
    # |alpha|^2 = 1 + 8e-11 passes the coefficient check (TOLERANCES.norm),
    # so the binary entropies of the weights must take it too.
    coeffs = SuperpositionCoefficients(1.0 + 4e-11, 0.0)
    kind, reports = evaluate_all(coeffs, E0, E1)
    assert kind is PairKind.DISJOINT_SUPPORT
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
        kind, reports = evaluate_all(coeffs, phi, psi)
        assert kind is classify_pair(phi, psi)
        for report in reports:
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
    _, reports = evaluate_all(coeffs, phi, psi)
    assert [r.bound_id for r in reports] == [
        T1_EQUALITY, GAIN_LE_1, T2_UPPER, T4_LOWER_A, T4_LOWER_B
    ]
    assert (len(coherences), len(superposes)) == (6, 2)

    # A second context recomputes from its own inputs rather than reusing values.
    other = random_coefficients(22)
    assert evaluate_all(other, phi, psi)[1] != reports
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
    pow_rows = [i for i, x in enumerate(s.tolist()) if x ** 2 != x * x]
    assert len(pow_rows) >= 5
    rows = np.array(pow_rows + list(range(200)))
    values = {k: v[rows] for k, v in values.items()}
    classes = {pair_class: np.full(len(rows), pair_class is kind) for pair_class in CLASS_EXEMPLARS}
    results = bounds_module.evaluate_rows(classes, values, tolerance=1e-9)
    # The bounds evaluate_all reports for the class, in its order, each at every row.
    verdicts = {bound_id: (slack, satisfied) for bound_id, applied, slack, satisfied in results
                if applied.size}
    exemplar_kind, reports = evaluate_all(EQUAL, *CLASS_EXEMPLARS[kind])
    assert exemplar_kind is kind and list(verdicts) == [rep.bound_id for rep in reports]
    for bound_id, applied, _, _ in results:
        assert applied.tolist() == (list(range(len(rows))) if bound_id in verdicts else [])
    for i in range(len(rows)):
        # Row i's floats as a scalar record, as row_slacks builds one per row.
        record = bounds_module._Quantities(**{k: v[i].item() for k, v in values.items()})
        for bound_id, (slack, satisfied) in verdicts.items():
            report = bounds_module._report(bound_id, record, 1e-9)
            assert (slack[i].hex(), bool(satisfied[i])) == (report.slack.hex(), report.satisfied)


def edge_triples():
    """Input triples at the edges of the binary entropy's domain, at d = 2:
    (alpha, beta, phi, psi) rows."""
    theta_top = math.nextafter(0.5 * math.pi, 0.0)  # a near 8e-32, b 1 within an ulp
    # The largest alpha whose weight SuperpositionCoefficients accepts with beta = 0.
    alpha_top = math.sqrt(1.0 + TOLERANCES.norm)
    while abs(alpha_top * alpha_top - 1.0) > TOLERANCES.norm:
        alpha_top = math.nextafter(alpha_top, 0.0)
    coefficients = [coefficient_map(0.0, 0.3), coefficient_map(theta_top, 0.3),
                    (alpha_top, 0.0), (0.0, alpha_top)]
    pairs = [(E0, E1), (PLUS, MINUS), (E0, PLUS)]
    rows = [(alpha, beta, phi, psi) for alpha, beta in coefficients for phi, psi in pairs]
    # NonOrthogonal, with alpha phi + beta psi of norm s just above zero_vector.
    rows.append((INV_SQRT2, -INV_SQRT2, E0, normalize([1.0, 1.42e-12])))
    return rows


def test_a_kept_row_never_leaves_the_binary_entropy_domain(monkeypatch):
    # evaluate_rows drops no row for the entropy's sake: on every row the
    # pass keeps, each argument it hands binary_entropy_rows lies in
    # [-norm, 1 + norm], and every verdict is evaluate_all's.
    rows = edge_triples()
    alpha, beta = (np.array([row[k] for row in rows], dtype=complex) for k in (0, 1))
    phi, psi = (np.array([row[k].amps for row in rows]) for k in (2, 3))
    classes, values, ok = row_values(alpha, beta, phi, psi)
    assert ok.all()
    assert values["alpha_sq"].max() > 1.0 and values["beta_sq"].max() > 1.0
    assert 0.0 < values["s"].min() - TOLERANCES.zero_vector < 1e-14
    arguments = []
    entropy_rows = bounds_module.binary_entropy_rows

    def recorded(x):
        arguments.append(x.copy())
        return entropy_rows(x)

    monkeypatch.setattr(bounds_module, "binary_entropy_rows", recorded)
    results = bounds_module.evaluate_rows(classes, values)
    assert len(arguments) == 3  # h(a) once, and one per T4 branch
    for x in arguments:
        assert ((x >= -TOLERANCES.norm) & (x <= 1.0 + TOLERANCES.norm)).all(), x
    assert max(x.max() for x in arguments) > 1.0
    verdicts = {}
    for bound_id, applied, slack, satisfied in results:
        for i, value, met in zip(applied.tolist(), slack.tolist(), satisfied.tolist()):
            verdicts.setdefault(i, []).append((bound_id, value.hex(), met))
    for i, (a, b, p, q) in enumerate(rows):
        _, reports = evaluate_all(SuperpositionCoefficients(a, b), p, q)
        assert verdicts[i] == [(r.bound_id, r.slack.hex(), r.satisfied) for r in reports], i


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
    # raises WrongPairClassError.  Each class meets the hypotheses of the
    # bounds checked on it, so evaluate_rows has every row's slack.
    pairs, moved = hypothesis_rows()
    for module in (bounds_module, importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", moved)
    coeffs = [random_coefficients(40 + i) for i in range(len(pairs))]
    disjoint = [largest_shared(phi, psi) <= moved.support for phi, psi in pairs]
    orthogonal = [overlap_modulus(phi, psi) <= moved.overlap for phi, psi in pairs]
    # The support row is disjoint but not orthogonal; the overlap row is orthogonal.
    assert disjoint[-6:] == [True, True, False, False, False, False]
    assert orthogonal[-6:] == [False, True, False, True, True, False]
    meets = {
        None: [True] * len(pairs),
        PairKind.DISJOINT_SUPPORT: [d and o for d, o in zip(disjoint, orthogonal)],
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
    masks = {kind: np.array([c is kind for c in classes]) for kind in CLASS_EXEMPLARS}
    results = bounds_module.evaluate_rows(masks, values)
    for i, pair_class in enumerate(classes):
        checked = [b for b, bound in BOUNDS.items() if pair_class in bound.classes]
        assert all(vouched_slacks[b][0][i] for b in checked), i
    for bound_id, rows, slack, _ in results:
        assert rows.tolist() == [i for i, pair_class in enumerate(classes)
                                 if pair_class in BOUNDS[bound_id].classes], bound_id
        assert [x.hex() for x in slack.tolist()] == [
            vouched_slacks[bound_id][1][i].hex() for i in rows.tolist()]
    # The support row is NonOrthogonal, and only the shared(1e-12) row is DisjointSupport.
    assert classes[-6] is PairKind.NON_ORTHOGONAL
    assert np.flatnonzero(masks[PairKind.DISJOINT_SUPPORT]).tolist() == [len(pairs) - 5]


def test_a_support_disjoint_pair_that_is_not_orthogonal_is_non_orthogonal(monkeypatch):
    # Disjoint support within a support tolerance above 0 does not make the
    # overlap vanish.  Such a pair meets neither hypothesis: it is classed
    # NonOrthogonal and checked on the bounds that take any pair.
    pairs, moved = hypothesis_rows()
    for module in (bounds_module, importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", moved)
    phi, psi = pairs[-6]  # shared(1e-3)
    assert largest_shared(phi, psi) <= moved.support and overlap_modulus(phi, psi) > moved.overlap
    kind, reports = evaluate_all(EQUAL, phi, psi)
    assert kind is PairKind.NON_ORTHOGONAL
    assert [r.bound_id for r in reports] == [T3_UPPER, T4_LOWER_A, T4_LOWER_B]
    with pytest.raises(WrongPairClassError, match="disjoint support required"):
        evaluate_bound(T1_EQUALITY, EQUAL, phi, psi)


@pytest.mark.parametrize("kind", [PairKind.ARBITRARY, PairKind.DISJOINT_SUPPORT],
                         ids=lambda k: k.value)
def test_a_hypothesis_test_computes_only_what_it_reads(monkeypatch, kind):
    # An orthogonality hypothesis reads the overlap, a disjointness one the
    # overlap and the supports; rows drawn disjoint meet both with no test at all.
    calls = []
    for name in ("disjoint_rows", "row_vdot"):
        def counted(*args, _name=name, _real=getattr(bounds_module, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(bounds_module, name, counted)
    drawn_disjoint = kind is PairKind.DISJOINT_SUPPORT
    expected = {None: [], PairKind.ORTHOGONAL_SAME_SPACE: [] if drawn_disjoint else ["row_vdot"],
                PairKind.DISJOINT_SUPPORT: [] if drawn_disjoint
                else ["row_vdot", "disjoint_rows"]}
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
    assert all(classify_pair(phi, psi) is PairKind.ORTHOGONAL_SAME_SPACE
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
    results = bounds_module.evaluate_rows(
        {kind: np.full(len(triples), kind is PairKind.ORTHOGONAL_SAME_SPACE)
         for kind in CLASS_EXEMPLARS},
        {name: np.array([getattr(r, name) for r in records])
         for name in bounds_module._Quantities._fields},
    )
    verdicts = {bound_id: (applied, slack) for bound_id, applied, slack, _ in results}
    assert not np.isnan(rows).any()
    assert verdicts[T2_UPPER][0].tolist() == list(range(len(triples)))
    for i, triple in enumerate(triples):
        report = evaluate_all(*triple)[1][0]
        assert report.bound_id == T2_UPPER
        slacks = [evaluate_bound(T2_UPPER, *triple).slack, report.slack, rows[i].item(),
                  verdicts[T2_UPPER][1][i].item()]
        assert {slack.hex() for slack in slacks} == {expected[i].hex()}
        assert expected[i] != before[i]
