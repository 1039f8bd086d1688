"""Derivative-free saturation search over bound slack.

The slack of a bound is minimized as a function of an unconstrained real
parameter vector; feasibility (normalization, index-block support,
orthogonality) is handled by projection inside ``parameterize`` so every
evaluated point is a valid input triple.  Nelder-Mead with standard
coefficients (Lagarias, Reeds, Wright & Wright, SIAM J. Optim. 9, 1998) is
used because the slack landscape is non-smooth where entropy terms hit their
boundary.

The objective (``_objective``) gives the slacks at a batch of points with
the scalar path's arithmetic; a row it cannot vouch for (a degenerate or
non-finite block, a zero probability inside a support, a failed unit-norm
check, sides that raise) goes once through the scalar path.  The
restarts of a search run in lockstep (``_lockstep``): their simplices are
one (restarts, n + 1, n) array, n = 4 * dim + 2, and each iteration
evaluates the points of all live restarts in batched calls.  Every restart
still takes exactly the steps, values and evaluation count it takes when run
alone.  A restart whose point raised stops there, and the search raises the
exception of the lowest such restart.

A simplex holds about 8 * n^2 bytes, hence the ``SearchSpec`` dimension
ceiling of 1024.  Restarts run in groups whose simplices fit in the bytes of
one simplex at that ceiling (one restart at a time at d = 1024).  Each
evaluation computes only the slack; the one ``BoundReport`` is built for the
best point at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from .bounds import BOUNDS, BoundReport, bound_slack, evaluate_bound, row_slacks
from .ensembles import default_split
from .errors import ConsistencyError, ZeroVectorError
from .linalg import StateVector, norm, normalize, normalize_rows, project_out_rows
from .rng import make_generator, standard_normals, subseed
from .superpose import PairKind, SuperpositionCoefficients, coefficient_map
from .tolerances import TOLERANCES

_SIMPLEX_OFFSET = 0.1
# A second point is centroid + factor * (centroid - worst); the inside
# contraction c - (c - w)/2 equals c + (-(c - w)/2) bit for bit.
_SECOND_POINT = {"expand": 2.0, "outside": 0.5, "inside": -0.5}
_DIAMETER_TOL = 1e-10
# The simplex holds 8 * (4 * dim + 2)^2 bytes: 134 MB at this ceiling, about
# 550 GB at the 2^16 that verify and sweep accept.
_MAX_SEARCH_DIM = 1024


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
                f"dimension must be in [2, {_MAX_SEARCH_DIM}] (the search simplex holds "
                f"8 * (4 * dim + 2)^2 bytes), got {self.dim}"
            )
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best inputs found, their bound report, and each restart's best slack.

    ``report`` is ``evaluate_bound`` re-run on ``best_inputs`` at the
    caller's tolerance; its slack is the search's value bit for bit, and
    ``min(restart_best)``.  ``restart_best[r]`` is the lowest slack restart r
    reached.
    """

    best_inputs: tuple[SuperpositionCoefficients, StateVector, StateVector]
    report: BoundReport
    restart_best: tuple[float, ...]
    evaluations: int

    @property
    def best_slack(self) -> float:
        return self.report.slack


def parameter_count(dim: int) -> int:
    """Length of the unconstrained parameter vector: 2 + 4 * dim."""
    return 2 + 4 * dim


def _complex_block(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def parameterize(
    x, dim: int, pair_kind: PairKind
) -> tuple[SuperpositionCoefficients, StateVector, StateVector]:
    """Map an unconstrained real vector to a valid input triple.

    Layout: (theta, phase) for the coefficients, then interleaved re/im
    amplitudes for each state.  Coefficients become
    ``coefficient_map(theta, phase)`` = (cos theta, sin theta * e^{i phase});
    states are normalized after the pair-kind projection (amplitudes outside
    the blocks of ``default_split(dim)`` zeroed for disjoint support,
    Gram-Schmidt for orthogonal same-space pairs).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (parameter_count(dim),):
        raise ValueError(
            f"parameter vector must have length {parameter_count(dim)}, got {x.shape}"
        )
    alpha, beta = coefficient_map(float(x[0]), float(x[1]))
    coeffs = SuperpositionCoefficients(alpha=alpha, beta=beta)

    raw_phi = _complex_block(x[2 : 2 + 2 * dim])
    raw_psi = _complex_block(x[2 + 2 * dim :])
    if pair_kind is PairKind.DISJOINT_SUPPORT:
        d1 = default_split(dim)[0]
        raw_phi = raw_phi.copy()
        raw_psi = raw_psi.copy()
        raw_phi[d1:] = 0.0
        raw_psi[:d1] = 0.0
    phi = normalize(raw_phi)
    if pair_kind is PairKind.ORTHOGONAL_SAME_SPACE:
        projected = raw_psi - np.vdot(phi.amps, raw_psi) * phi.amps
        if norm(projected) <= TOLERANCES.zero_vector:
            raise ZeroVectorError("second state degenerated under orthogonal projection")
        projected = projected - np.vdot(phi.amps, projected) * phi.amps
        psi = normalize(projected)
    else:
        psi = normalize(raw_psi)
    return coeffs, phi, psi


def _parameterize_rows(
    X: np.ndarray, dim: int, pair_kind: PairKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``parameterize`` on each row of X: (alpha, beta, phi, psi, ok).

    The same numpy expressions run on arrays, so where ``ok`` holds, row i
    gives ``parameterize(X[i])``'s coefficients and amplitudes bit for bit.
    Elsewhere ``parameterize`` raises for the row: a non-finite theta or
    phase (which makes beta NaN), a block ``normalize`` rejects, or a
    degenerate orthogonal projection.  Finite theta and phase put
    |alpha|^2 + |beta|^2 within a few ulps of 1, so the coefficient check
    cannot fail on a row marked ok.  alpha stays real: numpy multiplies a
    real by a complex array as (alpha + 0j) times it, as the scalar path does.
    """
    alpha, beta = coefficient_map(X[:, 0], X[:, 1])
    raw = _complex_block(X[:, 2:]).reshape(len(X), 2, dim)  # the phi and psi blocks
    if pair_kind is PairKind.DISJOINT_SUPPORT:
        d1 = default_split(dim)[0]
        raw[:, 0, d1:] = 0.0
        raw[:, 1, :d1] = 0.0
    if pair_kind is PairKind.ORTHOGONAL_SAME_SPACE:
        phi, _, ok = normalize_rows(raw[:, 0])
        projected, norms = project_out_rows(phi, raw[:, 1])
        ok &= norms > TOLERANCES.zero_vector
        psi, _, ok_psi = normalize_rows(projected)
        ok &= ok_psi
    else:
        states, _, ok = normalize_rows(raw)
        phi, psi = states[:, 0], states[:, 1]
        ok = ok[:, 0] & ok[:, 1]
    return alpha, beta, phi, psi, ok & np.isfinite(beta)


def _objective(spec: SearchSpec, X: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """The slack of ``spec``'s bound at each row of X: (values, errors).

    Rows that ``_parameterize_rows`` and ``row_slacks`` vouch for keep their
    batched value.  Every other row runs once through ``parameterize`` and
    ``bound_slack``, outside ``np.errstate``, so it warns as it always has:
    ``ZeroVectorError`` reads as +inf, which steers the simplex elsewhere, and
    any other exception goes into ``errors[row]`` (in row order) with value NaN.
    """
    with np.errstate(all="ignore"):
        alpha, beta, phi, psi, ok = _parameterize_rows(X, spec.dim, spec.pair_kind)
        if np.logical_and.reduce(ok):
            values, ok = row_slacks(spec.bound_id, alpha, beta, phi, psi)
        else:
            values = np.full(len(X), np.nan)
            values[ok], ok[ok] = row_slacks(
                spec.bound_id, alpha[ok], beta[ok], phi[ok], psi[ok]
            )
    errors: dict[int, Exception] = {}
    for i in (~ok).nonzero()[0].tolist():
        try:
            values[i] = bound_slack(
                spec.bound_id, *parameterize(X[i], spec.dim, spec.pair_kind)
            )
        except ZeroVectorError:
            values[i] = np.inf
        except Exception as exc:  # the caller decides what a failed row means
            values[i] = np.nan
            errors[i] = exc
    return values, errors


def encode_inputs(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> np.ndarray:
    """Inverse of ``parameterize`` up to the coefficients' global phase.

    A coefficient pair with complex alpha is first rotated so alpha is real
    (a global phase on the superposition, invisible to every coherence);
    triples produced by ``parameterize`` encode exactly.
    """
    alpha, beta = coeffs.alpha, coeffs.beta
    if alpha.imag != 0.0:
        rotation = np.exp(-1j * np.angle(alpha))
        alpha = alpha * rotation
        beta = beta * rotation
    x = np.empty(parameter_count(phi.dim))
    x[0] = np.arctan2(abs(beta), alpha.real)
    x[1] = np.angle(beta) if beta != 0 else 0.0
    x[2 : 2 + 2 * phi.dim : 2] = phi.amps.real
    x[3 : 2 + 2 * phi.dim : 2] = phi.amps.imag
    x[2 + 2 * phi.dim :: 2] = psi.amps.real
    x[3 + 2 * phi.dim :: 2] = psi.amps.imag
    return x


def _diameter(simplex: np.ndarray) -> float:
    """max over rows i and columns j of |simplex[i, j] - simplex[0, j]|.

    Two column reductions give it exactly: rounding is monotone, so
    fl(colmax - best) and fl(best - colmin) are the largest of the per-vertex
    differences, bit for bit.
    """
    best = simplex[0]
    return float(max((simplex.max(axis=0) - best).max(), (best - simplex.min(axis=0)).max()))


def _worst_gap(simplices: np.ndarray) -> np.ndarray:
    """max_j |S[r, -1, j] - S[r, 0, j]| for each simplex S[r] of a 3-d array.

    Never above ``_diameter(S[r])``: rounding is monotone and
    fl(b - w) = -fl(w - b), so each |fl(w_j - b_j)| is at most
    fl(colmax_j - b_j) or fl(b_j - colmin_j).  A gap at or above the stopping
    tolerance therefore settles that the descent goes on, without the two
    column reductions over the whole simplex.
    """
    return np.maximum.reduce(np.abs(simplices[:, -1] - simplices[:, 0]), axis=1)


def _group_width(n: int) -> int:
    """Restarts that run in lockstep: as many (n + 1, n) simplices as fit in
    the bytes of one simplex at ``_MAX_SEARCH_DIM``, and at least one.

    A batched objective call takes at most this many rows too, so its
    temporaries stay within a few simplices' bytes.
    """
    largest = parameter_count(_MAX_SEARCH_DIM)
    return max(1, (largest + 1) * largest // ((n + 1) * n))


def _lockstep(objective, starts: np.ndarray, iterations: int) -> list:
    """Nelder-Mead from each row of ``starts``, all starts in lockstep.

    Result r is what the classic one-start descent from starts[r] returns,
    bit for bit: (best_x, best_f, evaluations).  If the objective failed at
    one of start r's points, result r is that exception instead: the first
    one in the order the one-start descent evaluates its points.

    ``objective(X)`` returns (values, errors) for the rows of X, where
    ``errors`` maps each row that failed to its exception, in row order.  An
    iteration evaluates the reflections of all live starts in one call, then
    the second points (an expansion or a contraction) of the starts that
    need one, then the shrunk simplices; a call takes at most
    ``_group_width`` rows.

    Slot k of the simplex array S holds start ids[k].  The first ``live``
    slots hold the starts still descending, each simplex sorted by value
    with stable ties, moving only the rows that change rank.
    """
    count, n = starts.shape
    chunk = _group_width(n)
    S = np.repeat(starts[:, None, :], n + 1, axis=1)
    diagonal = np.arange(n)
    S[:, diagonal + 1, diagonal] = starts + _SIMPLEX_OFFSET
    V = np.empty((count, n + 1))
    E = [n + 1] * count  # evaluations per slot
    ids = np.arange(count)
    results: list = [None] * count
    failed: dict[int, Exception] = {}  # slot -> its first exception

    def evaluate(slots: list[int], rows) -> np.ndarray:
        """Values at the points rows(lo, hi) of slots[lo:hi].  A point that
        failed records its exception for its slot, unless the slot has one."""
        parts = []
        for lo in range(0, len(slots), chunk):
            part, errors = objective(rows(lo, min(lo + chunk, len(slots))))
            for i, exc in errors.items():  # raised for its start once the group is done
                failed.setdefault(slots[lo + i], exc)
            parts.append(part)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def retire(slots) -> None:
        """Record the results of ``slots`` and close up the live slots."""
        nonlocal live
        for slot in sorted(slots, reverse=True):
            start = ids[slot]
            if slot in failed:
                results[start] = failed.pop(slot)
            else:
                best = int(np.argsort(V[slot], kind="stable")[0])
                results[start] = (S[slot, best].copy(), float(V[slot, best]), E[slot])
            live -= 1
            if slot != live:  # the retired simplex is no longer needed
                S[slot], V[slot], ids[slot] = S[live], V[live], ids[live]
                E[slot] = E[live]

    live = count
    owner = np.repeat(np.arange(count), n + 1)
    vertex = np.tile(np.arange(n + 1), count)
    V[:] = evaluate(owner.tolist(), lambda lo, hi: S[owner[lo:hi], vertex[lo:hi]]).reshape(
        count, n + 1
    )
    retire(list(failed))
    ranks = np.arange(n + 1)
    corner_columns = np.array([0, n - 1, n])  # best, second worst, worst
    slot_index = np.arange(count)[:, None]

    for _ in range(iterations):
        if not live:
            break
        order = V[:live].argsort(axis=1, kind="stable")
        slot, rank = (order != ranks).nonzero()  # copy only these rows
        S[slot, rank] = S[slot, order[slot, rank]]
        V[:live] = V[slot_index[:live], order]
        near = (_worst_gap(S[:live]) < _DIAMETER_TOL).nonzero()[0].tolist()
        if near:
            retire([k for k in near if _diameter(S[k]) < _DIAMETER_TOL])
            if not live:
                break

        slots = list(range(live))
        centroid = np.add.reduce(S[:live, :-1], axis=1) / n  # ndarray.mean's arithmetic
        step = centroid - S[:live, -1]
        reflected = centroid + step
        f_reflected = evaluate(slots, lambda lo, hi: reflected[lo:hi]).tolist()

        # Each start takes its branch as the one-start descent does.
        accepted = []  # (slot, value) of reflections that replace the worst row
        again, branches = [], []
        corners = V[:live].take(corner_columns, axis=1).tolist()
        for k, f_r, (best, second_worst, worst) in zip(slots, f_reflected, corners):
            E[k] += 1
            if k in failed:
                continue
            if best <= f_r < second_worst:
                accepted.append((k, f_r))
                continue
            again.append(k)
            E[k] += 1
            branches.append("expand" if f_r < best else "outside" if f_r < worst else "inside")
        shrink = []
        if again:
            if len(again) < live:
                centroid, step = centroid[again], step[again]
            factors = np.array([_SECOND_POINT[branch] for branch in branches])
            second = centroid + factors[:, None] * step
            f_second = evaluate(again, lambda lo, hi: second[lo:hi]).tolist()
            for j, (k, branch, f_c) in enumerate(zip(again, branches, f_second)):
                if k in failed:
                    continue
                f_r, worst = f_reflected[k], corners[k][2]
                if branch == "expand":
                    if f_c < f_r:
                        S[k, -1], V[k, -1] = second[j], f_c
                    else:
                        accepted.append((k, f_r))
                elif f_c <= f_r if branch == "outside" else f_c < worst:
                    S[k, -1], V[k, -1] = second[j], f_c
                else:
                    shrink.append(k)
        for k, f_r in accepted:
            S[k, -1], V[k, -1] = reflected[k], f_r

        if shrink:
            for k in shrink:  # toward the best vertex, in place
                S[k, 1:] -= S[k, 0]
                S[k, 1:] *= 0.5
                S[k, 1:] += S[k, 0]
                E[k] += n
            owner = np.repeat(shrink, n)
            vertex = np.tile(np.arange(1, n + 1), len(shrink))
            V[shrink, 1:] = evaluate(
                owner.tolist(), lambda lo, hi: S[owner[lo:hi], vertex[lo:hi]]
            ).reshape(len(shrink), n)
        if failed:
            retire(list(failed))

    retire(range(live))
    return results


def minimize_slack(
    spec: SearchSpec, *, tolerance: float = TOLERANCES.bound_slack
) -> SearchResult:
    """Seeded multi-restart Nelder-Mead over the slack of one bound.

    Restart r starts from a Gaussian point drawn from sub-seed (spec.seed, r);
    the global best is the minimum across restarts with ties broken by the
    lowest restart index.  Every point is evaluated by ``_objective``, which
    owns the fallback to the scalar path.  A slack below -tolerance in the
    result indicates an implementation bug, not a counterexample.  If
    restarts raise, the exception of the lowest such restart is raised.
    """
    objective = partial(_objective, spec)
    n = parameter_count(spec.dim)
    starts = np.array([
        standard_normals(make_generator(subseed(spec.seed, restart)), n)
        for restart in range(spec.restarts)
    ])
    width = _group_width(n)
    results = []
    for first in range(0, spec.restarts, width):
        for outcome in _lockstep(objective, starts[first : first + width], spec.iterations):
            if isinstance(outcome, Exception):
                raise outcome  # the lowest failing restart, as run one after another
            results.append(outcome)

    best_x, best_slack, _ = min(results, key=itemgetter(1))  # the first of equal minima
    coeffs, phi, psi = parameterize(best_x, spec.dim, spec.pair_kind)
    report = evaluate_bound(spec.bound_id, coeffs, phi, psi, tolerance=tolerance)
    if report.slack != best_slack:
        raise ConsistencyError(
            f"re-evaluated slack {report.slack!r} differs from search value {best_slack!r}"
        )
    return SearchResult(
        best_inputs=(coeffs, phi, psi),
        report=report,
        restart_best=tuple(value for _, value, _ in results),
        evaluations=sum(evaluations for *_, evaluations in results),
    )
