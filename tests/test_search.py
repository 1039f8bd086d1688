"""Parameter projection and saturation-search behavior."""

import math

import numpy as np
import pytest

from coherence_lab import (
    BOUNDS,
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T4_LOWER_A,
    PairKind,
    SearchSpec,
    ZeroVectorError,
    encode_inputs,
    evaluate_bound,
    minimize_slack,
    parameter_count,
    parameterize,
)
from coherence_lab import bounds, search
from coherence_lab.rng import make_generator, standard_normals
from coherence_lab.search import _DIAMETER_TOL, _SIMPLEX_OFFSET, _diameter, _nelder_mead


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


def test_spec_caps_dimension_by_simplex_memory():
    # The simplex holds 8 * (4 * dim + 2)^2 bytes; only the spec is built here.
    SearchSpec(bound_id=T4_LOWER_A, dim=1024, pair_kind=PairKind.ARBITRARY, seed=0)
    for dim in (1, 1025, 2**16):
        with pytest.raises(ValueError, match="dimension"):
            SearchSpec(bound_id=T4_LOWER_A, dim=dim, pair_kind=PairKind.ARBITRARY, seed=0)


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
    gain = evaluate_bound(GAIN_LE_1, coeffs, phi, psi).lhs
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
    assert evaluate_bound(T1_EQUALITY, coeffs, phi, psi).slack <= 1e-9


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


def test_search_result_reevaluates_consistently(monkeypatch):
    digests = []
    real_digest = bounds.inputs_digest

    def counted_digest(*args):
        digests.append(args)
        return real_digest(*args)

    monkeypatch.setattr(bounds, "inputs_digest", counted_digest)
    spec = SearchSpec(
        bound_id=T4_LOWER_A,
        dim=2,
        pair_kind=PairKind.ARBITRARY,
        seed=21,
        restarts=2,
        iterations=150,
    )
    result = minimize_slack(spec, tolerance=1e-9)
    coeffs, phi, psi = result.best_inputs
    report = evaluate_bound(T4_LOWER_A, coeffs, phi, psi, tolerance=1e-9)
    assert result.report == report
    assert abs(report.slack - result.best_slack) <= 1e-12
    # The search objective builds no report; only the final one has a digest.
    assert len(digests) == 2  # the final report, then the one rebuilt here


# --- the array simplex against the list-based reference -------------------------------


def list_nelder_mead(objective, x0, iterations):
    """The list-of-vertices Nelder-Mead that ``_nelder_mead`` replaced.

    Returns ``_nelder_mead``'s tuple plus the number of shrink steps.
    """
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        vertex = x0.copy()
        vertex[i] += _SIMPLEX_OFFSET
        simplex.append(vertex)
    values = [objective(v) for v in simplex]
    evaluations = n + 1
    trace = []
    shrinks = 0

    for _ in range(iterations):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        trace.append(values[0] if not trace else min(trace[-1], values[0]))

        diameter = max(
            float(np.max(np.abs(vertex - simplex[0]))) for vertex in simplex[1:]
        )
        if diameter < _DIAMETER_TOL:
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = objective(reflected)
        evaluations += 1

        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = objective(expanded)
            evaluations += 1
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (centroid - worst)
            f_contracted = objective(contracted)
            evaluations += 1
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = centroid - 0.5 * (centroid - worst)
            f_contracted = objective(contracted)
            evaluations += 1
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        shrinks += 1
        for i in range(1, n + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = objective(simplex[i])
            evaluations += 1

    order = np.argsort(values, kind="stable")
    best = int(order[0])
    final_best = values[best]
    trace.append(final_best if not trace else min(trace[-1], final_best))
    return simplex[best], final_best, trace, evaluations, shrinks


def compared_descent(objective, x0, iterations):
    """``_nelder_mead``'s result, checked bit for bit against the reference,
    and the reference's shrink count."""
    result = _nelder_mead(objective, x0, iterations)
    x, f, trace, evaluations = result
    ref_x, ref_f, ref_trace, ref_evaluations, shrinks = list_nelder_mead(
        objective, x0, iterations
    )
    assert x.tobytes() == ref_x.tobytes()
    assert (f, trace, evaluations) == (ref_f, ref_trace, ref_evaluations)
    assert type(f) is float and all(type(t) is float for t in trace)
    return result, shrinks


SEARCHABLE = [(b, k) for b in BOUNDS for k in PairKind if k in BOUNDS[b].kinds]


@pytest.mark.parametrize(
    "bound_id, pair_kind", SEARCHABLE, ids=[f"{b}-{k.value}" for b, k in SEARCHABLE]
)
def test_nelder_mead_matches_list_reference_on_slack(monkeypatch, bound_id, pair_kind):
    runs = []

    def checked(objective, x0, iterations):
        runs.append(x0.size)
        return compared_descent(objective, x0, iterations)[0]

    monkeypatch.setattr(search, "_nelder_mead", checked)
    for dim in (2, 3, 4):
        for seed in (0, 9):
            spec = SearchSpec(bound_id=bound_id, dim=dim, pair_kind=pair_kind, seed=seed,
                              restarts=2, iterations=60)
            minimize_slack(spec)
    assert runs == [parameter_count(dim) for dim in (2, 3, 4) for _ in range(4)]


def test_nelder_mead_matches_list_reference_across_an_infinite_region():
    seen = []

    def walled(x):
        value = math.inf if x[0] > 0.2 else float(np.sum((x - 1.0) ** 2))
        seen.append(value)
        return value

    for seed in range(3):
        x0 = 0.05 * random_vector(seed, 1)
        compared_descent(walled, x0, 300)
    assert math.inf in seen and any(v < math.inf for v in seen)


def test_nelder_mead_matches_list_reference_through_shrinks_and_ties():
    def plateaus(x):
        # Integer levels: many vertices tie, and reflections rarely improve.
        return float(np.floor(4.0 * np.sum(x * x)))

    for seed in range(3):
        assert compared_descent(plateaus, random_vector(seed, 1), 200)[1] > 0


def test_two_reduction_diameter_equals_per_vertex_maximum():
    rng = np.random.default_rng(2024)
    huge = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    for trial in range(300):
        rows, cols = rng.integers(2, 12), rng.integers(1, 9)
        simplex = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300)
        if trial % 3 == 0:  # ties: repeated rows and repeated column values
            simplex[rng.integers(rows, size=rows // 2)] = simplex[0]
            simplex[:, rng.integers(cols)] = simplex[0, 0]
        if trial % 5 == 0:  # extremes, still finite
            picks = rng.choice([huge, -huge, tiny, -tiny, 0.0, -0.0], size=simplex.shape)
            mask = rng.random(simplex.shape) < 0.5
            simplex[mask] = picks[mask]
        with np.errstate(over="ignore"):  # huge - (-huge) rounds to inf on both sides
            expected = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
            assert _diameter(simplex) == expected
