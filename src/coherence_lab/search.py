"""Derivative-free saturation search over bound slack.

The slack of a bound is minimized as a function of an unconstrained real
parameter vector; an equality's residual |lhs - rhs| is maximized, so that the
search reports its worst residual.  Feasibility (normalization, index-block
support, orthogonality) is handled by projection inside ``parameterize``, and
a point with no valid input triple reads +inf, the extreme barrier of
derivative-free search (Audet & Dennis, SIAM J. Optim. 17, 2006).  Nelder-Mead
with standard coefficients (Lagarias, Reeds, Wright & Wright, SIAM J. Optim.
9, 1998) is used because the slack landscape is non-smooth where entropy terms
hit their boundary.

The objective (``_objective``) gives the slacks at a batch of points with
the scalar path's arithmetic, in one pass: ``_parameterize_rows`` writes
phi and psi into one (R, 3, d) buffer and their norms into one (R, 3) array,
``bounds.row_slacks`` adds the superposition and its s, takes every
coherence in one call, and checks each row in the loop that reads its
floats.  A row those checks reject (a degenerate or non-finite block or
superposition, a pair outside the bound's class) has no valid input triple
and reads +inf; an exception from a checked row's sides is a bug and ends
the search.  Each restart is a generator (``_descent``) that yields the
points it needs.  It stops at a simplex diameter below ``_DIAMETER_TOL``,
after a pre-test on the worst and best vertices' gap in coordinate 0, which
never exceeds the diameter: the stop is exactly the diameter's.  ``_lockstep`` runs restarts in rounds and batches
the points of all live ones into objective calls.

A simplex holds about 8 * n^2 bytes, n = ``parameter_count(dim, kind)``
(4 * dim + 2, or dim + 1 for disjoint pairs: ``_unpack``), hence the
``SearchSpec`` dimension ceiling of 1024.  Restarts run in groups whose
simplices fit in one 4 * dim + 2 simplex at that ceiling (one at a time at
d = 1024, fifteen for disjoint pairs).  A batched evaluation computes only
the slack, ``evaluate_bound(...).slack`` bit for bit; the search's
``BoundReport`` is built for the best point at the end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from .bounds import BOUNDS, BoundReport, evaluate_bound, row_slacks
from .errors import ConsistencyError, DegeneratePairError, ZeroVectorError
from .linalg import StateVector, normalize, normalize_rows, project_out_rows
from .rng import UniformRows, standard_normals, stream, subseed
from .superpose import PairKind, SuperpositionCoefficients, coefficient_map, default_split
from .tolerances import TOLERANCES

_SIMPLEX_OFFSET = 0.1
_DIAMETER_TOL = 1e-10
# The simplex holds 8 * (4 * dim + 2)^2 bytes (8 * (dim + 1)^2 for disjoint pairs):
# 134 MB at this ceiling, about 550 GB at the 2^16 that verify and sweep accept.
_MAX_SEARCH_DIM = 1024
# The objective is the slack times this sign: an equality's worst residual is its largest.
_SIGN = {"equality": -1.0, "upper": 1.0, "lower": 1.0}


@dataclass(frozen=True)
class SearchSpec:
    """What to minimize and how hard to try."""

    bound_id: str
    dim: int
    pair_kind: PairKind
    seed: int
    restarts: int = 16
    iterations: int = 2000

    def __post_init__(self):
        if self.bound_id not in BOUNDS:
            raise ValueError(f"unknown bound id {self.bound_id!r}")
        if self.pair_kind not in BOUNDS[self.bound_id].kinds:
            raise ValueError(
                f"bound {self.bound_id} cannot be searched over "
                f"{self.pair_kind.value} pairs"
            )
        if not 2 <= self.dim <= _MAX_SEARCH_DIM:
            raise ValueError(
                f"dimension must be in [2, {_MAX_SEARCH_DIM}] (the search simplex holds 8 * n^2 "
                f"bytes, n = {parameter_count(self.dim, self.pair_kind)}), got {self.dim}"
            )
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best inputs found, their bound report, and each restart's best slack.

    ``report`` is ``evaluate_bound`` re-run on ``best_inputs`` at the
    caller's tolerance; its slack is the search's value bit for bit, and
    ``min(restart_best)``.  ``restart_best[r]`` is the lowest slack restart r
    reached, +inf if it reached no valid input triple.  An equality's are its
    largest residuals instead (-inf for no triple), and its slack is
    ``max(restart_best)``.
    """

    best_inputs: tuple[SuperpositionCoefficients, StateVector, StateVector]
    report: BoundReport
    restart_best: tuple[float, ...]
    evaluations: int

    @property
    def best_slack(self) -> float:
        return self.report.slack


def parameter_count(dim: int, pair_kind: PairKind = PairKind.ARBITRARY) -> int:
    """Length of the unconstrained parameter vector: 1 + dim for disjoint pairs
    (theta and the dim amplitudes of the two blocks, as reals), else 2 + 4 * dim."""
    return 1 + dim if pair_kind is PairKind.DISJOINT_SUPPORT else 2 + 4 * dim


# A float64 copy of x viewed as complex, never x's memory:
# x[..., 0::2] + 1j * x[..., 1::2] bit for bit, but a -0.0 part keeps its sign.
def _complex_block(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64, order="C").view(np.complex128)


def _unpack(x: np.ndarray, dim: int, pair_kind: PairKind) -> tuple:
    """(alpha, beta, raw) of parameter vectors x: ``coefficient_map(theta, phase)``
    and the (..., 2, dim) raw phi and psi blocks, a new array.  x holds theta, the
    phase and the re/im pairs of all 2 * dim amplitudes; for a disjoint pair only
    theta (phase 0.0), then the reals of phi's first d1 = ``default_split(dim)[0]``
    amplitudes and psi's last dim - d1, with 0.0 elsewhere.  There every phase is
    flat, beta's too: a diagonal unitary on the two blocks sets them and moves no
    coherence (Baumgratz, Cramer & Plenio, PRL 113, 140401, 2014)."""
    shape = x.shape[:-1] + (2, dim)
    if pair_kind is not PairKind.DISJOINT_SUPPORT:
        return (*coefficient_map(x[..., 0], x[..., 1]), _complex_block(x[..., 2:]).reshape(shape))
    raw = np.zeros(shape, dtype=np.complex128)
    cut = 1 + default_split(dim)[0]
    raw.real[..., 0, : cut - 1], raw.real[..., 1, cut - 1 :] = x[..., 1:cut], x[..., cut:]
    return (*coefficient_map(x[..., 0], 0.0), raw)


def parameterize(
    x, dim: int, pair_kind: PairKind
) -> tuple[SuperpositionCoefficients, StateVector, StateVector]:
    """Map an unconstrained real vector, laid out as ``_unpack`` reads it, to a
    valid input triple: coefficients ``coefficient_map(theta, phase)`` = (cos
    theta, sin theta * e^{i phase}), and states normalized after the pair-kind
    projection (Gram-Schmidt for orthogonal same-space pairs)."""
    x = np.asarray(x, dtype=np.float64)
    n = parameter_count(dim, pair_kind)
    if x.shape != (n,):
        raise ValueError(
            f"parameter vector must have length {n} for {pair_kind.value} pairs "
            f"at dim {dim}, got {x.shape}"
        )
    alpha, beta, (raw_phi, raw_psi) = _unpack(x, dim, pair_kind)
    coeffs = SuperpositionCoefficients(alpha=alpha, beta=beta)
    phi = normalize(raw_phi)
    if pair_kind is PairKind.ORTHOGONAL_SAME_SPACE:
        (projected,), (first,) = project_out_rows(phi.amps[None], raw_psi[None])
        if first <= TOLERANCES.zero_vector:
            raise ZeroVectorError("second state degenerated under orthogonal projection")
        psi = normalize(projected)
    else:
        psi = normalize(raw_psi)
    return coeffs, phi, psi


def _parameterize_rows(
    X: np.ndarray, dim: int, pair_kind: PairKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``parameterize`` on each row of X: (alpha, beta, states, norms).

    Slots 0 and 1 of the (R, 3, d) ``states`` hold phi and psi, and columns
    0 and 1 of the (R, 3) ``norms`` the norms they were scaled by; slot and
    column 2 are left for ``bounds.row_slacks`` to fill with the
    superposition.  The same numpy expressions run on arrays, so where beta
    is finite and both norms are ``linalg.normalizable``, row i gives
    ``parameterize(X[i])``'s coefficients and amplitudes bit for bit.
    Elsewhere ``parameterize`` raises for the row: a non-finite theta or
    phase (which makes beta NaN), a block ``normalize`` rejects, or a
    degenerate orthogonal projection, whose psi norm reads 0.  Finite theta
    and phase put |alpha|^2 + |beta|^2 within a few ulps of 1, so the
    coefficient check cannot fail on such a row.  alpha stays real: numpy
    multiplies a real by a complex array as (alpha + 0j) times it, as the
    scalar path does.
    """
    rows = len(X)
    alpha, beta, raw = _unpack(X, dim, pair_kind)
    # Each block is normalized from a contiguous array straight into its slot:
    # at a few rows, numpy's calls on strided slot views cost more.
    states, norms = np.empty((rows, 3, dim), dtype=np.complex128), np.empty((rows, 3))
    if pair_kind is PairKind.ORTHOGONAL_SAME_SPACE:
        phi, _ = normalize_rows(raw[:, 0], out=(states[:, 0], norms[:, 0]))
        projected, first = project_out_rows(phi, raw[:, 1])
        normalize_rows(projected, out=(states[:, 1], norms[:, 1]))
        norms[:, 1][~(first > TOLERANCES.zero_vector)] = 0.0
    else:
        normalize_rows(raw, out=(states[:, :2], norms[:, :2]))
    return alpha, beta, states, norms


def _objective(spec: SearchSpec, X: np.ndarray) -> np.ndarray:
    """The slack of ``spec``'s bound at each row of X, times its ``_SIGN``:
    ``row_slacks``' value, and +inf where it reads NaN, a row with no valid
    input triple.  It runs under ``np.errstate(all="ignore")``: a
    warnings-as-errors filter would end the search at a non-finite row.
    """
    with np.errstate(all="ignore"):
        inputs = _parameterize_rows(X, spec.dim, spec.pair_kind)
        values = row_slacks(spec.bound_id, *inputs, kind=spec.pair_kind)
    return np.fmin(_SIGN[BOUNDS[spec.bound_id].direction] * values, np.inf)


def _diameter(simplex: np.ndarray) -> float:
    """max over rows i and columns j of |simplex[i, j] - simplex[0, j]|.

    Two column reductions give it exactly: rounding is monotone, so
    fl(colmax - best) and fl(best - colmin) are the largest of the per-vertex
    differences, bit for bit.
    """
    best = simplex[0]
    return float(max((simplex.max(axis=0) - best).max(), (best - simplex.min(axis=0)).max()))


def _group_width(n: int) -> int:
    """Restarts that run in lockstep: as many (n + 1, n) simplices as fit in
    the bytes of the largest simplex, of ``parameter_count(_MAX_SEARCH_DIM)``
    parameters, and at least one.

    A batched objective call takes at most this many rows too, so its
    temporaries stay within a few simplices' bytes.
    """
    largest = parameter_count(_MAX_SEARCH_DIM)
    return max(1, (largest + 1) * largest // ((n + 1) * n))


def _sort(S: np.ndarray, V: list) -> None:
    """Sort the simplex S and its values V in place, by value with stable ties."""
    order = np.argsort(V, kind="stable").tolist()
    S[:], V[:] = S[order], [V[i] for i in order]


def _descent(start: np.ndarray, iterations: int):
    """The one-start Nelder-Mead descent from ``start``, as a generator.

    It yields each batch of points it needs (the initial simplex, a
    reflection, a second point, or the n shrunk vertices) as the rows of an
    array, is sent their values as a list of floats, and returns
    (best_x, best_f, evaluations).  The simplex stays sorted by value with
    stable ties: wholly after the initial evaluation and after a shrink, else
    by moving the new vertex to the rank a stable sort gives it.
    """
    n = start.size
    S = np.repeat(start[None], n + 1, axis=0)
    np.fill_diagonal(S[1:], start + _SIMPLEX_OFFSET)
    best, worst = S[0], S[-1]  # views: S only ever changes in place
    V = yield S
    _sort(S, V)
    evaluations = n + 1
    for _ in range(iterations):
        # |worst[0] - best[0]| <= the diameter settles most iterations alone; the
        # diameter decides, and a NaN or inf anywhere in S makes it fail the test.
        if abs(worst[0] - best[0]) < _DIAMETER_TOL and _diameter(S) < _DIAMETER_TOL:
            break
        centroid = np.add.reduce(S[:-1], axis=0) / n  # ndarray.mean's arithmetic
        step = centroid - worst
        x = centroid + step
        [f] = yield x[None]
        evaluations += 1
        if f < V[0]:
            expanded = centroid + 2.0 * step
            [f_expanded] = yield expanded[None]
            evaluations += 1
            if f_expanded < f:
                x, f = expanded, f_expanded
        elif not f < V[-2]:
            # The inside contraction c - (c - w)/2 is c + (-0.5)(c - w) bit for bit.
            outside = f < V[-1]
            contracted = centroid + (0.5 if outside else -0.5) * step
            [f_contracted] = yield contracted[None]
            evaluations += 1
            if f_contracted <= f if outside else f_contracted < V[-1]:
                x, f = contracted, f_contracted
            else:  # shrink toward the best vertex, in place
                S[1:] -= best
                S[1:] *= 0.5
                S[1:] += best
                V[1:] = yield S[1:]
                _sort(S, V)
                evaluations += n
                continue
        # A new best goes first, ahead of any NaN (NaN sorts last); any other
        # new vertex goes after the first n values that it does not undercut.
        rank = 0 if f < V[0] else bisect_right(V, f, 1, n)
        S[rank + 1 :] = S[rank:-1]
        S[rank] = x
        V.pop()
        V.insert(rank, f)
    return best.copy(), V[0], evaluations


def _calls(batches: list, width: int):
    """The rows of ``batches`` in order, in arrays of at most ``width`` rows."""
    parts, room = [], width
    for X in batches:
        while len(X) >= room:
            yield np.concatenate([*parts, X[:room]])
            X, parts, room = X[room:], [], width
        parts.append(X)
        room -= len(X)
    if room < width:
        yield np.concatenate(parts)


def _lockstep(objective, starts: np.ndarray, iterations: int) -> list:
    """Nelder-Mead from each row of ``starts``, one ``_descent`` per start:
    result r is what ``_descent(starts[r], iterations)`` returns.

    ``objective(X)`` returns the values of the rows of X as one array.  Each
    round packs the points that all live descents ask for, in start order,
    into calls of at most ``_group_width`` rows, and sends each descent its
    values.  An exception the objective raises ends every descent.
    """
    width = _group_width(starts.shape[1])
    results: list = [None] * len(starts)
    descents = enumerate(_descent(start, iterations) for start in starts)
    live = [(r, descent, next(descent)) for r, descent in descents]  # (start, descent, its points)
    while live:
        values = []  # this round's values, in the order of the live descents' points
        for X in _calls([X for *_, X in live], width):
            values += objective(X).tolist()
        going, end = [], 0
        for r, descent, X in live:
            first, end = end, end + len(X)
            try:
                going.append((r, descent, descent.send(values[first:end])))
            except StopIteration as stop:
                results[r] = stop.value
        live = going
    return results


def _starts(seed: int, first: int, stop: int, n: int) -> np.ndarray:
    """Row r: ``standard_normals`` of n on the stream of sub-seed (seed, first + r).

    Each restart's stream is its own ``stream`` call, which costs microseconds
    where one array Philox call over the group costs about 0.4 ms at any size.
    """
    length = 2 * ((n + 1) // 2)
    rows = [stream(subseed(seed, r), length).uniforms for r in range(first, stop)]
    return standard_normals(UniformRows(np.stack(rows)), n)


def minimize_slack(
    spec: SearchSpec, *, tolerance: float = TOLERANCES.bound_slack
) -> SearchResult:
    """Seeded multi-restart Nelder-Mead over the slack of one bound.

    Restart r starts from a Gaussian point drawn from the stream of sub-seed
    (spec.seed, r); the global best is the minimum across restarts with ties
    broken by the lowest restart index.  Every point is evaluated by
    ``_objective``, which negates an equality's residual, so that its worst
    one is sought.  An inequality's slack below -tolerance indicates an
    implementation bug, not a counterexample.  If no restart reaches a valid
    input triple (every value +inf), the search raises ``DegeneratePairError``.
    """
    objective = partial(_objective, spec)
    n = parameter_count(spec.dim, spec.pair_kind)
    width = _group_width(n)
    results = []
    for first in range(0, spec.restarts, width):
        starts = _starts(spec.seed, first, min(first + width, spec.restarts), n)
        results += _lockstep(objective, starts, spec.iterations)

    sign = _SIGN[BOUNDS[spec.bound_id].direction]
    best_x, best_slack, _ = min(results, key=itemgetter(1))  # the first of equal minima
    if best_slack == np.inf:
        raise DegeneratePairError(
            f"no valid input triple in the {spec.bound_id} search over {spec.pair_kind.value} "
            f"pairs at dim {spec.dim} ({spec.restarts} restarts)"
        )
    best_slack *= sign
    coeffs, phi, psi = parameterize(best_x, spec.dim, spec.pair_kind)
    report = evaluate_bound(spec.bound_id, coeffs, phi, psi, tolerance=tolerance)
    if report.slack != best_slack:
        raise ConsistencyError(
            f"re-evaluated slack {report.slack!r} differs from search value {best_slack!r}"
        )
    return SearchResult(
        best_inputs=(coeffs, phi, psi),
        report=report,
        restart_best=tuple(sign * value for _, value, _ in results),
        evaluations=sum(evaluations for *_, evaluations in results),
    )
