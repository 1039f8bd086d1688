"""Parameter projection and saturation-search behavior."""

import contextlib
import dataclasses
import importlib
import json
import math
import types

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
    evaluate_bound,
    minimize_slack,
    parameter_count,
    parameterize,
)
from coherence_lab import bounds, cli, entropy, linalg, search
from coherence_lab.errors import (
    ConsistencyError,
    DegeneratePairError,
    DomainError,
    WrongPairClassError,
)
from coherence_lab.rng import MASK64, UniformRows, ragged_uniforms, standard_normals, subseed
from coherence_lab.search import (
    _DIAMETER_TOL,
    _MAX_SEARCH_DIM,
    _SIMPLEX_OFFSET,
    _complex_block,
    _descent,
    _diameter,
    _group_width,
    _lockstep,
    _parameterize_rows,
    _starts,
)
from coherence_lab.superpose import coefficient_map, default_split
from coherence_lab.tolerances import TOLERANCES, Tolerances
from philox_oracle import numpy_generator


def random_vector(seed, dim, pair_kind=PairKind.ARBITRARY):
    return standard_normals(numpy_generator(seed), parameter_count(dim, pair_kind))


# --- parameterize -----------------------------------------------------------------


def test_parameterize_encodes_uniform_basis_pair():
    # Disjoint layout at d = 2: [theta, f0, p1]
    x = np.zeros(parameter_count(2, PairKind.DISJOINT_SUPPORT))
    assert x.size == 3
    x[0] = math.pi / 4.0  # theta -> alpha = beta = 1/sqrt(2)
    x[1] = 1.0  # phi block -> |0>
    x[2] = 1.0  # psi block -> |1>
    coeffs, phi, psi = parameterize(x, 2, PairKind.DISJOINT_SUPPORT)
    inv = 1.0 / math.sqrt(2.0)
    assert abs(coeffs.alpha - inv) < 1e-12
    assert abs(coeffs.beta - inv) < 1e-12
    assert np.allclose(phi.amps, [1.0, 0.0])
    assert np.allclose(psi.amps, [0.0, 1.0])


def encoded(coeffs, phi, psi, pair_kind):
    """The parameter vector of a triple that ``parameterize`` produced (alpha
    real): (theta, phase), then the states' interleaved re/im amplitudes; for
    a disjoint pair (beta and amplitudes real) theta, then the amplitudes
    inside the blocks of ``default_split``."""
    beta = coeffs.beta
    if pair_kind is PairKind.DISJOINT_SUPPORT:
        d1 = default_split(phi.dim)[0]
        theta = np.arctan2(beta.real, coeffs.alpha.real)
        return np.concatenate([[theta], phi.amps[:d1].real, psi.amps[d1:].real])
    head = [np.arctan2(abs(beta), coeffs.alpha.real), np.angle(beta) if beta != 0 else 0.0]
    amps = np.concatenate([phi.amps, psi.amps])
    return np.concatenate([head, np.column_stack([amps.real, amps.imag]).ravel()])


@pytest.mark.parametrize(
    "pair_kind",
    [PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE,
     PairKind.NON_ORTHOGONAL, PairKind.ARBITRARY],
)
def test_parameterize_projection_is_idempotent(pair_kind):
    for seed in range(30):
        x = random_vector(seed, 4, pair_kind)
        coeffs, phi, psi = parameterize(x, 4, pair_kind)
        again = parameterize(encoded(coeffs, phi, psi, pair_kind), 4, pair_kind)
        assert abs(again[0].alpha - coeffs.alpha) < 1e-12
        assert abs(again[0].beta - coeffs.beta) < 1e-12
        assert np.max(np.abs(again[1].amps - phi.amps)) < 1e-12
        assert np.max(np.abs(again[2].amps - psi.amps)) < 1e-12


def test_parameterize_fuzz_outputs_are_valid():
    for seed in range(100):
        kind = list(PairKind)[seed % 4]
        coeffs, phi, psi = parameterize(random_vector(seed, 5, kind), 5, kind)
        assert abs(coeffs.alpha_sq + coeffs.beta_sq - 1.0) < 1e-12
        assert abs(float(np.linalg.norm(phi.amps)) - 1.0) < 1e-12
        assert abs(float(np.linalg.norm(psi.amps)) - 1.0) < 1e-12
        if kind is PairKind.DISJOINT_SUPPORT:
            assert np.all(phi.amps[2:] == 0)
            assert np.all(psi.amps[:2] == 0)
        if kind is PairKind.ORTHOGONAL_SAME_SPACE:
            assert abs(np.vdot(phi.amps, psi.amps)) <= 1e-10


def test_parameterize_rejects_degenerate_block():
    x = np.zeros(parameter_count(2, PairKind.DISJOINT_SUPPORT))
    x[0] = math.pi / 4.0
    x[2] = 1.0  # psi block only; phi block is all zeros
    with pytest.raises(ZeroVectorError):
        parameterize(x, 2, PairKind.DISJOINT_SUPPORT)


def test_parameterize_rejects_wrong_length():
    with pytest.raises(ValueError):
        parameterize(np.zeros(5), 2, PairKind.ARBITRARY)


def test_parameter_count_drops_the_off_block_amplitudes_of_disjoint_pairs():
    # And every phase: a disjoint pair's search reads theta and dim real amplitudes.
    for dim in (2, 3, 16, _MAX_SEARCH_DIM):
        assert parameter_count(dim, PairKind.DISJOINT_SUPPORT) == dim + 1
        for kind in (PairKind.ORTHOGONAL_SAME_SPACE, PairKind.NON_ORTHOGONAL, PairKind.ARBITRARY):
            assert parameter_count(dim, kind) == parameter_count(dim) == 4 * dim + 2


def test_parameterize_rejects_the_full_layout_for_a_disjoint_pair():
    # Neither the 4d + 2 layout nor the 2d + 2 one (phase and re/im pairs) fits.
    for dim in (2, 5):
        for n in (4 * dim + 2, 2 * dim + 2):
            with pytest.raises(ValueError, match=f"must have length {dim + 1} for DisjointSupport"):
                parameterize(np.zeros(n), dim, PairKind.DISJOINT_SUPPORT)


@pytest.mark.parametrize("dim", [2, 3, 5, 16])
def test_disjoint_moduli_layout_gives_the_complex_layouts_triples_bit_for_bit(dim):
    # The former disjoint layout read 2d + 2 parameters: theta, the phase, and
    # the re/im pairs of each block's amplitudes, written into zeroed blocks.
    # Rebuilt here with phase and imaginary parts 0.0 around the same reals, it
    # gives the coefficients, amplitudes and norms that parameterize and
    # _parameterize_rows give now.
    rng = np.random.default_rng(dim)
    d1 = default_split(dim)[0]
    X = rng.standard_normal((8, parameter_count(dim, PairKind.DISJOINT_SUPPORT)))
    # Signs the real parts keep: theta, and an amplitude beside nonzero ones.
    X[1, 0] = -0.0
    if d1 > 1:
        X[2, 1] = -0.0
    if dim - d1 > 1:
        X[3, -1] = -0.0
    X[4, 0] = -abs(X[4, 0])  # beta = sin(theta) < 0
    complex_layout = np.zeros((8, 2 + 2 * dim))
    complex_layout[:, 0] = X[:, 0]
    complex_layout[:, 2::2] = X[:, 1:]  # phi's d1 reals, then psi's dim - d1
    alpha, beta, states, norms = _parameterize_rows(X, dim, PairKind.DISJOINT_SUPPORT)
    for i, (x, y) in enumerate(zip(X, complex_layout)):
        raw_phi, raw_psi = np.zeros((2, dim), dtype=np.complex128)
        raw_phi[:d1] = y[2 : 2 + 2 * d1].copy().view(np.complex128)
        raw_psi[d1:] = y[2 + 2 * d1 :].copy().view(np.complex128)
        old_alpha, old_beta = coefficient_map(float(y[0]), float(y[1]))
        old_phi, old_psi = linalg.normalize(raw_phi), linalg.normalize(raw_psi)
        coeffs, phi, psi = parameterize(x, dim, PairKind.DISJOINT_SUPPORT)
        old_coeffs = np.complex128([old_alpha, old_beta]).tobytes()
        assert np.complex128([coeffs.alpha, coeffs.beta]).tobytes() == old_coeffs
        assert np.complex128([alpha[i], beta[i]]).tobytes() == old_coeffs
        assert phi.amps.tobytes() == states[i, 0].tobytes() == old_phi.amps.tobytes()
        assert psi.amps.tobytes() == states[i, 1].tobytes() == old_psi.amps.tobytes()
        assert norms[i, :2].tolist() == [linalg.norm(raw_phi), linalg.norm(raw_psi)]


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


def test_equality_search_reports_its_largest_residual():
    spec = SearchSpec(
        bound_id=T1_EQUALITY,
        dim=2,
        pair_kind=PairKind.DISJOINT_SUPPORT,
        seed=7,
        restarts=2,
        iterations=50,
    )
    result = minimize_slack(spec)
    # The relation holds, so the worst residual is round-off, but not zero.
    assert 0.0 < result.best_slack <= 1e-9
    assert result.best_slack == max(result.restart_best)
    assert all(value >= 0.0 for value in result.restart_best)
    coeffs, phi, psi = result.best_inputs
    assert evaluate_bound(T1_EQUALITY, coeffs, phi, psi).slack == result.best_slack


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
    assert first.restart_best == second.restart_best
    assert first.best_slack == min(first.restart_best)
    assert np.array_equal(first.best_inputs[1].amps, second.best_inputs[1].amps)
    assert np.array_equal(first.best_inputs[2].amps, second.best_inputs[2].amps)


def test_search_result_reevaluates_consistently(monkeypatch):
    reports = []
    real_evaluate_bound = search.evaluate_bound

    def counted_evaluate_bound(*args, **kwargs):
        reports.append(args)
        return real_evaluate_bound(*args, **kwargs)

    monkeypatch.setattr(search, "evaluate_bound", counted_evaluate_bound)
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
    assert report.slack == result.best_slack
    # Every row is vouched for, so the objective builds no report: the search's
    # one evaluate_bound call is its final report.
    assert len(reports) == 1


# --- the lockstep simplex against the list-based reference ----------------------------


def list_nelder_mead(objective, x0, iterations):
    """The list-of-vertices Nelder-Mead for one start, run on a scalar objective.

    Returns ``_lockstep``'s per-start tuple plus the number of iterations
    begun and of shrink steps.
    """
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        vertex = x0.copy()
        vertex[i] += _SIMPLEX_OFFSET
        simplex.append(vertex)
    values = [objective(v) for v in simplex]
    evaluations = n + 1
    begun = shrinks = 0

    for _ in range(iterations):
        begun += 1
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

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
    return simplex[best], values[best], evaluations, begun, shrinks


def batched(objective):
    """A batched objective for ``_lockstep`` from a scalar one: each row's value."""
    return lambda X: np.array([objective(x) for x in X], dtype=np.float64)


def signed_slack(bound_id, *inputs):
    """``evaluate_bound(...).slack``, negated for an equality: the value the search minimizes."""
    slack = bounds.evaluate_bound(bound_id, *inputs).slack
    return -slack if BOUNDS[bound_id].direction == "equality" else slack


def scalar_objective(spec):
    """The search's objective at one point on the scalar path alone: +inf
    where the point has no valid input triple."""

    def objective(x):
        try:
            inputs = parameterize(x, spec.dim, spec.pair_kind)
        except (ValueError, ZeroVectorError):
            return math.inf
        try:
            return signed_slack(spec.bound_id, *inputs)
        except (ZeroVectorError, WrongPairClassError):
            return math.inf

    return objective


def compare_to_reference(results, objective, starts, iterations):
    """Check each of ``_lockstep``'s results bit for bit against the reference
    run alone from its start on the scalar ``objective``; returns the
    reference's iteration and shrink counts."""
    assert len(results) == len(starts)
    begun, shrinks = [], []
    for x0, (x, f, evaluations) in zip(starts, results):
        ref_x, ref_f, ref_evaluations, ref_begun, ref_shrinks = list_nelder_mead(
            objective, x0, iterations
        )
        assert x.tobytes() == ref_x.tobytes()
        assert (f, evaluations) == (ref_f, ref_evaluations)
        assert type(f) is float and type(evaluations) is int
        begun.append(ref_begun)
        shrinks.append(ref_shrinks)
    return begun, shrinks


def compared_lockstep(objective, starts, iterations):
    """``_lockstep`` on the scalar ``objective`` batched row by row, checked
    against the reference: (results, iterations begun, shrinks)."""
    results = _lockstep(batched(objective), np.asarray(starts), iterations)
    return (results, *compare_to_reference(results, objective, starts, iterations))


def checked_lockstep(groups, spec):
    """A stand-in for ``search._lockstep`` that runs it on the search's own
    objective, checks every group against the reference on ``spec``'s scalar
    objective, and records (n, group size)."""

    def checked(objective, starts, iterations):
        groups.append(starts.shape[::-1])
        results = _lockstep(objective, starts, iterations)
        compare_to_reference(results, scalar_objective(spec), starts, iterations)
        return results

    return checked


SEARCHABLE = [(b, k) for b in BOUNDS for k in PairKind if k in BOUNDS[b].kinds]


@pytest.mark.parametrize(
    "bound_id, pair_kind", SEARCHABLE, ids=[f"{b}-{k.value}" for b, k in SEARCHABLE]
)
def test_nelder_mead_matches_list_reference_on_slack(monkeypatch, bound_id, pair_kind):
    runs = []
    for dim in (2, 3, 4):
        for seed in (0, 9):
            spec = SearchSpec(bound_id=bound_id, dim=dim, pair_kind=pair_kind, seed=seed,
                              restarts=2, iterations=60)
            monkeypatch.setattr(search, "_lockstep", checked_lockstep(runs, spec))
            minimize_slack(spec)
    assert runs == [(parameter_count(dim, pair_kind), 2) for dim in (2, 3, 4) for _ in range(2)]


def test_nelder_mead_matches_list_reference_across_an_infinite_region():
    seen = []

    def walled(x):
        value = math.inf if x[0] > 0.2 else float(np.sum((x - 1.0) ** 2))
        seen.append(value)
        return value

    starts = [0.05 * random_vector(seed, 1) for seed in range(3)]
    compared_lockstep(walled, starts, 300)
    assert math.inf in seen and any(v < math.inf for v in seen)


def test_nelder_mead_matches_list_reference_with_nan_values():
    def walled(x):
        # Five of the seven initial vertices read NaN, and the first
        # reflection and its expansion are new bests that rank ahead of them.
        if np.max(x[1:]) > 0.05:
            return math.nan
        return -float(x[0] + 10.0 * np.sum(x[1:5]))

    compared_lockstep(walled, [np.zeros(parameter_count(1))], 40)


def plateaus(x):
    # Integer levels: many vertices tie, and reflections rarely improve.
    return float(np.floor(4.0 * np.sum(x * x)))


def test_nelder_mead_matches_list_reference_through_shrinks_and_ties():
    starts = [random_vector(seed, 1) for seed in range(3)]
    *_, shrinks = compared_lockstep(plateaus, starts, 200)
    assert all(count > 0 for count in shrinks)


def test_lockstep_restarts_stop_at_different_iterations():
    def bowl(x):
        return float(np.sum((x - 0.3) ** 2))

    # Starts at different distances from the minimum meet the diameter stop
    # at different iterations; the rest of the group goes on without them.
    starts = [scale * random_vector(seed, 1) for seed, scale in enumerate((1.0, 30.0, 1e-3))]
    _, begun, _ = compared_lockstep(bowl, starts, 2000)
    assert len(set(begun)) == 3 and max(begun) < 2000


def test_lockstep_shrinks_in_only_some_restarts():
    def half_plateau(x):
        return plateaus(x) if x[0] > 0.0 else float(np.sum((x + 2.0) ** 2))

    starts = []
    for seed in range(6):
        x0 = random_vector(seed, 1)
        x0[0] = (1.0 if seed % 2 else -1.0) * (2.0 + abs(x0[0]))
        starts.append(x0)
    *_, shrinks = compared_lockstep(half_plateau, starts, 300)
    assert any(count == 0 for count in shrinks) and any(count > 0 for count in shrinks)


FALLBACKS = {
    # Blocks and superpositions this short are degenerate: the objective is inf.
    "zero_vector": Tolerances(zero_vector=0.99),
}


def patch_tolerances(monkeypatch, tolerances):
    # Every module that reads a tolerance, so both paths see the same ones
    # (the package re-exports a function named ``superpose``).
    for module in (bounds, entropy, linalg, search,
                   importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", tolerances)


@pytest.mark.parametrize(
    "bound_id, pair_kind, threshold",
    [(GAIN_LE_1, PairKind.DISJOINT_SUPPORT, "zero_vector"),
     (T4_LOWER_A, PairKind.ARBITRARY, "zero_vector")],
)
def test_lockstep_matches_reference_through_fallback_rows(
    monkeypatch, bound_id, pair_kind, threshold
):
    patch_tolerances(monkeypatch, FALLBACKS[threshold])
    counts = {"batched": 0, "fallback": 0}
    real_row_slacks, real_parameterize = search.row_slacks, search.parameterize
    real_evaluate_bound = search.evaluate_bound

    def counted_rows(*args, **kwargs):
        values, ok = real_row_slacks(*args, **kwargs)
        counts["batched"] += int(ok.sum())
        return values, ok

    def counted_scalar(*args, **kwargs):
        # The final report's call passes its tolerance; the objective's do not.
        counts["fallback"] += not kwargs
        return real_evaluate_bound(*args, **kwargs)

    def counted_parameterize(*args):
        # A degenerate row ends here; the final best point's call does not.
        try:
            return real_parameterize(*args)
        except ZeroVectorError:
            counts["fallback"] += 1
            raise

    monkeypatch.setattr(search, "row_slacks", counted_rows)
    monkeypatch.setattr(search, "evaluate_bound", counted_scalar)
    monkeypatch.setattr(search, "parameterize", counted_parameterize)
    # A disjoint pair's phi block at d = 3 is one real, which a start rarely
    # puts above 0.99: restarts 0-3 see only degenerate points, restart 4 does not.
    restarts = 5 if pair_kind is PairKind.DISJOINT_SUPPORT else 3
    spec = SearchSpec(bound_id=bound_id, dim=3, pair_kind=pair_kind, seed=4,
                      restarts=restarts, iterations=80)
    runs = []
    monkeypatch.setattr(search, "_lockstep", checked_lockstep(runs, spec))
    minimize_slack(spec)
    assert runs == [(parameter_count(3, pair_kind), restarts)]
    assert counts["batched"] > 0 and counts["fallback"] > 0


def test_restarts_that_reach_no_valid_triple_read_inf(monkeypatch, capsys):
    # The GAIN_LE_1 search above, whose restarts 0-3 see only degenerate
    # points: a search of them alone raises DegeneratePairError, not a bare
    # ZeroVectorError from the best point's parameterize.  Of 8 restarts,
    # 4 and 6 reach a valid triple; the others keep +inf, which the CLI
    # writes as null.
    patch_tolerances(monkeypatch, FALLBACKS["zero_vector"])
    spec = SearchSpec(bound_id=GAIN_LE_1, dim=3, pair_kind=PairKind.DISJOINT_SUPPORT, seed=4,
                      restarts=8, iterations=80)
    for restarts in (3, 4):
        with pytest.raises(DegeneratePairError, match=rf"GAIN_LE_1 .* dim 3 \({restarts} restarts"):
            minimize_slack(dataclasses.replace(spec, restarts=restarts))
    result = minimize_slack(spec)
    infinite = [r for r, value in enumerate(result.restart_best) if value == math.inf]
    assert infinite == [0, 1, 2, 3, 5, 7]
    assert math.isfinite(result.best_slack) and result.report.satisfied

    argv = ["saturate", "--bound", GAIN_LE_1, "--dim", "3", "--seed", "4",
            "--restarts", "8", "--iterations", "80"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    restart_best = json.loads(out)["results"]["restart_best"]
    assert [r for r, value in enumerate(restart_best) if value is None] == infinite
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bound_id, pair_kind", SEARCHABLE, ids=[f"{b}-{k.value}" for b, k in SEARCHABLE]
)
def test_batched_rows_equal_the_scalar_objective_bit_for_bit(bound_id, pair_kind):
    rng = np.random.default_rng(7)
    disjoint = pair_kind is PairKind.DISJOINT_SUPPORT
    amps = 1 if disjoint else 2  # the first amplitude column: a disjoint layout has no phase
    for dim in (2, 5, 16):
        X = rng.standard_normal((24, parameter_count(dim, pair_kind)))
        X[1] *= 1e-12  # blocks near the degeneracy threshold, on either side
        X[2, amps:] = 0.0  # zero blocks
        X[3, 0] = math.inf
        X[4, amps] = math.nan
        X[5] *= 1e160  # norms overflow
        # A -0.0 phase, or a -0.0 amplitude of phi's beside nonzero ones (at
        # d = 2 a disjoint pair's blocks hold one amplitude each, so none).
        if not disjoint or dim > 2:
            X[6, 1] = -0.0
        # One exact-zero amplitude inside the other rows' support: phi[0], or
        # at d = 2 with disjoint support (phi's block is one amplitude) T1's
        # psi amplitude, through beta = 0.
        if disjoint and dim == 2:
            X[7, 0] = 0.0
        else:
            X[7, amps : 2 * amps] = 0.0
        with np.errstate(all="ignore"):
            alpha, beta, states, norms = _parameterize_rows(X, dim, pair_kind)
            # The rows parameterize accepts: a finite beta and both norms
            # ones normalize accepts.
            ok = np.isfinite(beta) & linalg.normalizable(norms[:, :2]).all(axis=1)
            slacks, vouched = bounds.row_slacks(
                bound_id, alpha[ok], beta[ok], states[ok], norms[ok], kind=pair_kind
            )
            # One call over the whole batch vouches for the same rows, with the same bits.
            whole, whole_vouched = bounds.row_slacks(
                bound_id, alpha, beta, states, norms, kind=pair_kind
            )
        assert not ok[2:6].any() and ok[6:].all()
        assert vouched.sum() >= 16
        assert np.flatnonzero(whole_vouched).tolist() == np.flatnonzero(ok)[vouched].tolist()
        assert whole[whole_vouched].tobytes() == slacks[vouched].tobytes()
        zero = np.flatnonzero(np.flatnonzero(ok) == 7)[0]
        assert not vouched[zero] and math.isnan(slacks[zero])
        inputs = parameterize(X[7], dim, pair_kind)
        assert math.isfinite(bounds.evaluate_bound(bound_id, *inputs).slack)
        for i, slack, good in zip(np.flatnonzero(ok), slacks, vouched):
            coeffs, phi_i, psi_i = parameterize(X[i], dim, pair_kind)
            assert np.float64(coeffs.alpha.real).tobytes() == alpha[i].tobytes()
            assert coeffs.alpha.imag == 0.0
            assert np.complex128(coeffs.beta).tobytes() == beta[i].tobytes()
            assert states[i, 0].tobytes() == phi_i.amps.tobytes()
            assert states[i, 1].tobytes() == psi_i.amps.tobytes()
            if good:
                expected = bounds.evaluate_bound(bound_id, coeffs, phi_i, psi_i).slack
                assert struct_bits(slack) == struct_bits(expected)

        # The search's objective gives every row the scalar path's value, and
        # +inf to a row with no valid input triple: the zero blocks, and the
        # non-finite and overflowing rows, which parameterize rejects.  The
        # scalar path warns at those (cos of inf, an overflowing dot), and the
        # test's warning filter would turn a warning into an exception.
        spec = SearchSpec(bound_id=bound_id, dim=dim, pair_kind=pair_kind, seed=0)
        with np.errstate(all="ignore"):
            values = search._objective(spec, X)
            expected = [scalar_objective(spec)(x) for x in X]
            for i in (3, 4, 5):
                with pytest.raises(ValueError):
                    parameterize(X[i], dim, pair_kind)
        assert values.dtype == np.float64 and values.shape == (len(X),)
        assert [struct_bits(v) for v in values] == [struct_bits(v) for v in expected]
        assert values[2:6].tolist() == [math.inf] * 4


def struct_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("pair_kind", list(PairKind), ids=[k.value for k in PairKind])
def test_the_objective_never_writes_into_the_simplex(pair_kind):
    # The search hands the objective its simplex itself (the initial vertices,
    # the shrunk ones), so the blocks it reads must be copies.  A one-row
    # slice reads as C-contiguous: a copy made only of strided input misses it.
    dim = 4
    bound_id = next(b for b, k in SEARCHABLE if k is pair_kind)
    spec = SearchSpec(bound_id=bound_id, dim=dim, pair_kind=pair_kind, seed=0)
    simplex = np.random.default_rng(13).standard_normal((6, parameter_count(dim, pair_kind)))
    simplex[3, 2:] = 0.0  # a degenerate row, which takes the scalar path
    before = simplex.tobytes()
    for X in (simplex, simplex[1:], simplex[-1:], simplex[3:4]):
        with np.errstate(all="ignore"):  # the degenerate row's 0/0
            _parameterize_rows(X, dim, pair_kind)
        search._objective(spec, X)
        for x in X:
            with contextlib.suppress(ZeroVectorError):  # the degenerate row
                parameterize(x, dim, pair_kind)
        assert simplex.tobytes() == before


def test_complex_block_is_the_interleaved_sum_bit_for_bit():
    # Exact on finite entries that are not zero: re + 1j * im turns a -0.0
    # part into +0.0 (0.0 + -0.0 is 0.0), where the complex view keeps its sign.
    rng = np.random.default_rng(17)
    for shape in ((2 + 4 * 2,), (3, parameter_count(8)), (1, parameter_count(5))):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        assert np.all(np.isfinite(x)) and np.all(x != 0.0)
        for block in (x[..., 2:], x):  # strided rows, as the search slices them, and whole
            got = _complex_block(block)
            expected = block[..., 0::2] + 1j * block[..., 1::2]
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert not np.shares_memory(got, x)
    # Any other real dtype is read as its float64 values, never as raw bytes.
    for x in (np.arange(1, 13, dtype=np.int32), np.linspace(-3, 3, 12, dtype=np.float32)):
        y = x.astype(np.float64)
        assert _complex_block(x).tobytes() == (y[0::2] + 1j * y[1::2]).tobytes()


def scalar_calls(monkeypatch):
    """Record each ``parameterize`` and ``evaluate_bound`` call the search
    makes, as ("parameterize", x's bytes) and ("evaluate_bound", keywords)."""
    calls = []
    real_parameterize, real_evaluate_bound = search.parameterize, search.evaluate_bound

    def parameterize_(x, *args):
        calls.append(("parameterize", x.tobytes()))
        return real_parameterize(x, *args)

    def evaluate_bound_(*args, **kwargs):
        calls.append(("evaluate_bound", kwargs))
        return real_evaluate_bound(*args, **kwargs)

    monkeypatch.setattr(search, "parameterize", parameterize_)
    monkeypatch.setattr(search, "evaluate_bound", evaluate_bound_)
    return calls


def test_a_degenerate_row_alone_takes_the_scalar_path(monkeypatch):
    # A zero phi block makes the row's amplitudes 0/0 = NaN.  Beside the good
    # rows of a disjoint search, whose off-block amplitudes are exact zeros,
    # it must not mark those columns as supported: only it reaches the scalar
    # path, and every good row keeps its batched value, the scalar one's bits.
    dim = 4
    spec = SearchSpec(bound_id=GAIN_LE_1, dim=dim, pair_kind=PairKind.DISJOINT_SUPPORT, seed=0)
    X = np.random.default_rng(11).standard_normal((5, parameter_count(dim, spec.pair_kind)))
    X[2, 2:] = 0.0
    calls = scalar_calls(monkeypatch)
    values = search._objective(spec, X)
    assert calls == [("parameterize", X[2].tobytes())]
    assert values[2] == math.inf
    for i in (0, 1, 3, 4):
        expected = signed_slack(GAIN_LE_1, *parameterize(X[i], dim, spec.pair_kind))
        assert struct_bits(values[i]) == struct_bits(expected)


@pytest.mark.parametrize("bound_id, dim, pair_kind, restarts", [
    (GAIN_LE_1, 2, PairKind.DISJOINT_SUPPORT, 8), (T4_LOWER_A, 8, PairKind.ARBITRARY, 2),
])
def test_the_benchmark_searches_never_leave_the_batched_path(
    monkeypatch, bound_id, dim, pair_kind, restarts
):
    # The searches of the benchmark's saturate-mix workload, at one of its
    # seeds: every point keeps its batched value, so the only scalar calls
    # are the final report's (which passes its tolerance).  The bytes would
    # not show good rows routed through the slower scalar path; this does.
    # GAIN_LE_1 runs the workload's 4 restarts and 4 more (restart r's start
    # is its own), so that it still makes over 1000 evaluations.
    calls = scalar_calls(monkeypatch)
    spec = SearchSpec(bound_id=bound_id, dim=dim, pair_kind=pair_kind, seed=3, restarts=restarts)
    result = minimize_slack(spec)
    assert result.evaluations > 1000
    assert [name for name, _ in calls] == ["parameterize", "evaluate_bound"]
    assert calls[1][1] == {"tolerance": TOLERANCES.bound_slack}


# --- restart starts -----------------------------------------------------------------


def hex_rows(rows):
    return [[value.hex() for value in row] for row in np.atleast_2d(rows).tolist()]


def box_muller(seed, n):
    """n Box-Muller normals from the stream keyed by ``seed``, written out here."""
    pairs = (n + 1) // 2
    u = numpy_generator(seed).random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
    angle = 2.0 * np.pi * u[pairs:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


@pytest.mark.parametrize("seed", [0, 42, MASK64])
@pytest.mark.parametrize("first", [0, 3])
@pytest.mark.parametrize("count", [1, 3, 17])
def test_starts_are_each_restarts_own_stream_bit_for_bit(seed, first, count):
    for n in (10, 34, 2050):
        keys = [subseed(seed, restart) for restart in range(first, first + count)]
        expected = [standard_normals(numpy_generator(key), n) for key in keys]
        assert hex_rows(expected) == hex_rows([box_muller(key, n) for key in keys])
        # At n = 2050 the group width is 3, so a search draws these in split groups.
        width = _group_width(n)
        groups = [_starts(seed, lo, min(lo + width, first + count), n)
                  for lo in range(first, first + count, width)]
        assert hex_rows(np.concatenate(groups)) == hex_rows(expected)
        assert hex_rows(_starts(seed, first, first + count, n)) == hex_rows(expected)
    assert _group_width(2050) == 3


def test_standard_normals_reads_rows_like_generators():
    seeds = [5, 6]
    keys = np.array(seeds, dtype=np.uint64)
    streams = UniformRows(ragged_uniforms(keys, np.full(keys.size, 8)).reshape(keys.size, 8))
    rows = standard_normals(streams, 7)
    assert rows.shape == (2, 7)
    expected = [standard_normals(numpy_generator(seed), 7) for seed in seeds]
    assert hex_rows(rows) == hex_rows(expected)


# --- groups and the stopping test ---------------------------------------------------


def simplex_elements(dim):
    n = parameter_count(dim)
    return (n + 1) * n


@pytest.mark.parametrize("dim, width", [(2, 152706), (8, 14115), (512, 3), (1024, 1)])
def test_group_width_fits_one_simplex_at_the_dimension_ceiling(dim, width):
    assert _group_width(parameter_count(dim)) == width
    budget = simplex_elements(_MAX_SEARCH_DIM)
    assert width * simplex_elements(dim) <= budget < (width + 1) * simplex_elements(dim)


@pytest.mark.parametrize("dim, groups", [(512, [3, 3, 1]), (1024, [1] * 3)])
def test_large_searches_run_in_groups_of_the_width(monkeypatch, dim, groups):
    seen = []

    def first_points(objective, starts, iterations):
        # Only the group sizes matter here; no simplex is built.
        seen.append(len(starts))
        values = objective(starts)
        return [(x0, f, 1) for x0, f in zip(starts, values.tolist())]

    monkeypatch.setattr(search, "_lockstep", first_points)
    result = minimize_slack(SearchSpec(bound_id=T4_LOWER_A, dim=dim, pair_kind=PairKind.ARBITRARY,
                                       seed=3, restarts=sum(groups), iterations=5))
    assert seen == groups
    assert result.evaluations == sum(groups)


def test_objective_calls_hold_at_most_the_group_width(monkeypatch):
    spec = SearchSpec(bound_id=T4_LOWER_A, dim=4, pair_kind=PairKind.ARBITRARY, seed=5,
                      restarts=5, iterations=100)
    unpatched = minimize_slack(spec)
    monkeypatch.setattr(search, "_MAX_SEARCH_DIM", 8)
    assert _group_width(parameter_count(4)) == 3
    rows = []
    real_objective = search._objective

    def counted(spec, X):
        rows.append(len(X))
        return real_objective(spec, X)

    monkeypatch.setattr(search, "_objective", counted)
    capped = minimize_slack(spec)
    assert max(rows) <= 3
    # Restart 0's initial simplex, n + 1 = 19 points, opens the search and
    # spans seven calls.
    assert rows[:7] == [3] * 7
    assert result_bits(capped) == result_bits(unpatched)


def result_bits(result):
    """The best inputs, best slack, restart bests and evaluations of a search, as bytes."""
    coeffs, phi, psi = result.best_inputs
    return (np.complex128([coeffs.alpha, coeffs.beta]).tobytes(), phi.amps.tobytes(),
            psi.amps.tobytes(), struct_bits(result.best_slack),
            [struct_bits(value) for value in result.restart_best], result.evaluations)


def test_a_restart_that_raises_ends_the_search_with_its_exception(monkeypatch):
    calls = []

    def failing(bound_id, coeffs, phi, psi):
        calls.append(bound_id)
        if len(calls) == 20:
            raise ConsistencyError("simulated invariant failure in a restart")
        return types.SimpleNamespace(slack=1.0)

    # Every row goes through the scalar path, whose evaluate_bound fails once.
    monkeypatch.setattr(search, "row_slacks", lambda bound_id, a, *rest, **kind: (
        np.full(len(a), np.nan), np.zeros(len(a), dtype=bool)))
    monkeypatch.setattr(search, "evaluate_bound", failing)
    spec = SearchSpec(bound_id=GAIN_LE_1, dim=2, pair_kind=PairKind.DISJOINT_SUPPORT, seed=1,
                      restarts=3, iterations=50)
    with pytest.raises(ConsistencyError, match="in a restart"):
        minimize_slack(spec)
    assert len(calls) == 20  # the search stopped at that call


@pytest.mark.parametrize("error, infeasible", [
    (ZeroVectorError, True), (WrongPairClassError, True),
    (ConsistencyError, False), (DomainError, False), (ValueError, False),
])
def test_only_an_invalid_triple_reads_inf(monkeypatch, error, infeasible):
    # evaluate_bound rejecting the triple makes the row +inf; any other
    # exception there is a bug, which leaves the objective.  parameterize's
    # own ValueError is a row with no triple (the bit-for-bit test's rows 3-5).
    def raising(*args, **kwargs):
        raise error("simulated")

    monkeypatch.setattr(search, "row_slacks", lambda bound_id, a, *rest, **kind: (
        np.full(len(a), np.nan), np.zeros(len(a), dtype=bool)))
    monkeypatch.setattr(search, "evaluate_bound", raising)
    spec = SearchSpec(bound_id=GAIN_LE_1, dim=2, pair_kind=PairKind.DISJOINT_SUPPORT, seed=1)
    X = np.random.default_rng(3).standard_normal((2, parameter_count(2, spec.pair_kind)))
    if infeasible:
        assert search._objective(spec, X).tolist() == [math.inf, math.inf]
    else:
        with pytest.raises(error, match="simulated"):
            search._objective(spec, X)


def test_a_re_evaluated_slack_one_ulp_off_is_an_inconsistency(monkeypatch):
    # Batched and scalar slacks are bit-identical, so the best point's report
    # must reproduce the search's value exactly.
    def off_by_one_ulp(*args, **kwargs):
        report = evaluate_bound(*args, **kwargs)
        return dataclasses.replace(report, slack=float(np.nextafter(report.slack, 1.0)))

    monkeypatch.setattr(search, "evaluate_bound", off_by_one_ulp)
    spec = SearchSpec(bound_id=GAIN_LE_1, dim=2, pair_kind=PairKind.DISJOINT_SUPPORT, seed=1,
                      restarts=2, iterations=50)
    with pytest.raises(ConsistencyError, match="differs from search value"):
        minimize_slack(spec)


def test_two_reduction_diameter_equals_per_vertex_maximum():
    rng = np.random.default_rng(2024)
    for simplex in extreme_simplices(rng):
        with np.errstate(over="ignore"):  # huge - (-huge) rounds to inf on both sides
            expected = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
            assert _diameter(simplex) == expected


def test_worst_gap_never_exceeds_the_diameter():
    # The descent's first stopping test, |S[-1, 0] - S[0, 0]|, may only settle
    # that it goes on: a gap at or above the tolerance implies the diameter is.
    rng = np.random.default_rng(2025)
    checked = 0
    for simplex in extreme_simplices(rng):
        with np.errstate(over="ignore"):
            gap = abs(simplex[-1, 0] - simplex[0, 0])
            diameter = _diameter(simplex)
        assert gap <= diameter
        checked += gap == diameter
    assert checked > 0  # the bound is reached, so the test can see a violation


def test_descent_goes_on_when_only_coordinate_0_has_converged():
    # The start (row 0) ranks best and the start moved in its last coordinate
    # (row n) worst: they agree in coordinate 0, so the pre-test passes, but
    # the diameter is the simplex offset, and the descent asks for a reflection.
    start = random_vector(3, 1)
    n = start.size
    descent = _descent(start, 1)
    simplex = next(descent)
    reflection = descent.send([float(value) for value in range(n + 1)])
    assert abs(simplex[-1, 0] - simplex[0, 0]) == 0.0 < _DIAMETER_TOL
    assert _diameter(simplex) >= _SIMPLEX_OFFSET / 2
    assert reflection.shape == (1, n)


def extreme_simplices(rng):
    """Finite simplices with ties (repeated rows and column values), +-0,
    subnormals and +-max float."""
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
        yield simplex
