"""Derivative-free saturation search over bound slack.

The slack of a bound is minimized as a function of an unconstrained real
parameter vector; feasibility (normalization, index-block support,
orthogonality) is handled by projection inside ``parameterize`` so every
evaluated point is a valid input triple.  Nelder-Mead with standard
coefficients (Lagarias, Reeds, Wright & Wright, SIAM J. Optim. 9, 1998) is
used because the slack landscape is non-smooth where entropy terms hit their
boundary.

The restarts of a search run in lockstep (``_lockstep``): their simplices
are one (restarts, n + 1, n) array, n = 4 * dim + 2, and each iteration
evaluates the points of all live restarts in batched calls.  Every restart
still takes exactly the steps, values, trace and evaluation count it takes
when run alone.  A batched call runs ``parameterize`` and ``bound_slack`` on
rows with the scalar path's arithmetic; a row it cannot vouch for (a
degenerate or non-finite block, a probability the floor drops inside a
support, a failed unit-norm or clamp check, sides that raise) goes through
the scalar objective, which gives its value or raises its exception.  A
restart whose point raised stops there, and the search raises the exception
of the lowest such restart.

A simplex holds about 8 * n^2 bytes, hence the ``SearchSpec`` dimension
ceiling of 1024.  Restarts run in groups whose simplices fit in the bytes of
one simplex at that ceiling (one restart at a time at d = 1024).  Each
evaluation computes only the slack; the one ``BoundReport`` is built for the
best point at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BOUNDS, BoundReport, bound_slack, evaluate_bound, row_slacks
from .ensembles import default_split
from .errors import ConsistencyError, ZeroVectorError
from .linalg import StateVector, norm, normalize, normalize_rows, row_norms, row_vdot
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
    """Best inputs found, their bound report, and per-restart traces.

    ``report`` is ``evaluate_bound`` re-run on ``best_inputs`` at the
    caller's tolerance; its slack agrees with the search's value to 1e-12.
    ``trace[r]`` is the best-so-far slack after each iteration of restart r,
    hence non-increasing.
    """

    best_inputs: tuple[SuperpositionCoefficients, StateVector, StateVector]
    report: BoundReport
    trace: tuple[tuple[float, ...], ...]
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
    x,
    dim: int,
    pair_kind: PairKind,
    split: tuple[int, int] | None = None,
) -> tuple[SuperpositionCoefficients, StateVector, StateVector]:
    """Map an unconstrained real vector to a valid input triple.

    Layout: (theta, phase) for the coefficients, then interleaved re/im
    amplitudes for each state.  Coefficients become
    ``coefficient_map(theta, phase)`` = (cos theta, sin theta * e^{i phase});
    states are normalized after the pair-kind projection (zeroed out-of-block
    amplitudes for disjoint support, Gram-Schmidt for orthogonal same-space
    pairs).
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
        d1, d2 = split if split is not None else default_split(dim)
        raw_phi = raw_phi.copy()
        raw_psi = raw_psi.copy()
        raw_phi[d1:] = 0.0
        raw_psi[:d1] = 0.0
        raw_psi[d1 + d2 :] = 0.0
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
    X: np.ndarray, dim: int, pair_kind: PairKind, split: tuple[int, int] | None
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
        d1, d2 = split if split is not None else default_split(dim)
        raw[:, 0, d1:] = 0.0
        raw[:, 1, :d1] = 0.0
        raw[:, 1, d1 + d2 :] = 0.0
    if pair_kind is PairKind.ORTHOGONAL_SAME_SPACE:
        phi, _, ok = normalize_rows(raw[:, 0])
        raw_psi = raw[:, 1]
        projected = raw_psi - row_vdot(phi, raw_psi)[:, None] * phi
        ok &= row_norms(projected) > TOLERANCES.zero_vector
        projected = projected - row_vdot(phi, projected)[:, None] * phi
        psi, _, ok_psi = normalize_rows(projected)
        ok &= ok_psi
    else:
        states, _, ok = normalize_rows(raw)
        phi, psi = states[:, 0], states[:, 1]
        ok = ok[:, 0] & ok[:, 1]
    return alpha, beta, phi, psi, ok & np.isfinite(beta)


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


def _lockstep(slack_rows, objective, starts: np.ndarray, iterations: int) -> list:
    """Nelder-Mead from each row of ``starts``, all starts in lockstep.

    Result r is what the classic one-start descent from starts[r] returns,
    bit for bit: (best_x, best_f, trace, evaluations), where trace[k] is the
    best value seen after iteration k.  If the objective raised at one of
    start r's points, result r is that exception instead: the first one in
    the order the one-start descent evaluates its points.

    An iteration evaluates the reflections of all live starts in one batched
    call, then the second points (an expansion or a contraction) of the
    starts that need one, then the shrunk simplices; a call takes at most
    ``_group_width`` rows.  ``slack_rows(X)`` returns (values, ok), and the
    rows where ok is False are evaluated by ``objective`` one at a time.

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
    traces: list[list[float]] = [[] for _ in range(count)]
    results: list = [None] * count
    failed: dict[int, Exception] = {}  # slot -> its first exception

    def evaluate(slots: list[int], rows) -> np.ndarray:
        """Values at the points rows(lo, hi) of slots[lo:hi].  A point that
        raises records the exception for its slot and reads as NaN."""
        parts = []
        for lo in range(0, len(slots), chunk):
            X = rows(lo, min(lo + chunk, len(slots)))
            part, ok = slack_rows(X)
            if not np.logical_and.reduce(ok):
                for i in (~ok).nonzero()[0].tolist():
                    slot = slots[lo + i]
                    try:
                        part[i] = np.nan if slot in failed else objective(X[i])
                    except Exception as exc:  # raised for its start once the group is done
                        failed[slot] = exc
                        part[i] = np.nan
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
                final_best = float(V[slot, best])
                trace = traces[start]
                trace.append(final_best if not trace else min(trace[-1], final_best))
                results[start] = (S[slot, best].copy(), final_best, trace, E[slot])
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
        for start, best_f in zip(ids[:live].tolist(), V[:live, 0].tolist()):
            trace = traces[start]
            trace.append(best_f if not trace else min(trace[-1], best_f))
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
    lowest restart index.  A slack below -tolerance in the result indicates
    an implementation bug, not a counterexample.  If restarts raise, the
    exception of the lowest such restart is raised.
    """
    split = default_split(spec.dim) if spec.pair_kind is PairKind.DISJOINT_SUPPORT else None

    def objective(x: np.ndarray) -> float:
        try:
            return bound_slack(spec.bound_id, *parameterize(x, spec.dim, spec.pair_kind, split))
        except ZeroVectorError:
            # Degenerate projection; steer the simplex elsewhere.
            return float("inf")

    def slack_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Rows the batch does not vouch for are re-run one by one on the
        # scalar path, which warns (or raises) for them as it always has.
        with np.errstate(all="ignore"):
            alpha, beta, phi, psi, ok = _parameterize_rows(
                X, spec.dim, spec.pair_kind, split
            )
            if np.logical_and.reduce(ok):
                return row_slacks(spec.bound_id, alpha, beta, phi, psi)
            values = np.full(len(X), np.nan)
            values[ok], ok[ok] = row_slacks(
                spec.bound_id, alpha[ok], beta[ok], phi[ok], psi[ok]
            )
        return values, ok

    n = parameter_count(spec.dim)
    starts = np.array([
        standard_normals(make_generator(subseed(spec.seed, restart)), n)
        for restart in range(spec.restarts)
    ])
    width = _group_width(n)
    results = []
    for first in range(0, spec.restarts, width):
        group = starts[first : first + width]
        for outcome in _lockstep(slack_rows, objective, group, spec.iterations):
            if isinstance(outcome, Exception):
                raise outcome  # the lowest failing restart, as run one after another
            results.append(outcome)

    best_x = None
    best_slack = float("inf")
    for x, value, trace, evaluations in results:
        if best_x is None or value < best_slack:
            best_slack = value
            best_x = x

    coeffs, phi, psi = parameterize(best_x, spec.dim, spec.pair_kind, split)
    report = evaluate_bound(spec.bound_id, coeffs, phi, psi, tolerance=tolerance)
    if abs(report.slack - best_slack) > 1e-12:
        raise ConsistencyError(
            f"re-evaluated slack {report.slack!r} differs from search value {best_slack!r}"
        )
    return SearchResult(
        best_inputs=(coeffs, phi, psi),
        report=report,
        trace=tuple(tuple(trace) for _, _, trace, _ in results),
        evaluations=sum(evaluations for *_, evaluations in results),
    )
