"""Derivative-free saturation search over bound slack.

The slack of a bound is minimized as a function of an unconstrained real
parameter vector; feasibility (normalization, index-block support,
orthogonality) is handled by projection inside ``parameterize`` so every
evaluated point is a valid input triple.  Nelder-Mead with standard
coefficients is used because the slack landscape is non-smooth where entropy
terms hit their boundary.

The simplex is one (n + 1, n) array, n = 4 * dim + 2, updated in place: a
step rewrites the worst row (a shrink, every row but the best) and only rows
that change rank move, so rows stay in stable value order.  The centroid is
then the mean of a contiguous slice and the diameter two column reductions.
The array holds about 8 * n^2 bytes, hence the ``SearchSpec`` dimension
ceiling of 1024.  Each evaluation computes only the slack (``bound_slack``);
the one ``BoundReport`` is built for the best point at the end.  It validates
each of phi, psi and the superposition once, in ``normalize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BOUNDS, BoundReport, bound_slack, evaluate_bound
from .ensembles import default_split
from .errors import ConsistencyError, ZeroVectorError
from .linalg import StateVector, norm, normalize
from .rng import make_generator, standard_normals, subseed
from .superpose import PairKind, SuperpositionCoefficients
from .tolerances import TOLERANCES

_SIMPLEX_OFFSET = 0.1
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
    return x[0::2] + 1j * x[1::2]


def parameterize(
    x,
    dim: int,
    pair_kind: PairKind,
    split: tuple[int, int] | None = None,
) -> tuple[SuperpositionCoefficients, StateVector, StateVector]:
    """Map an unconstrained real vector to a valid input triple.

    Layout: (theta, phase) for the coefficients, then interleaved re/im
    amplitudes for each state.  Coefficients become (cos theta,
    sin theta * e^{i phase}); states are normalized after the pair-kind
    projection (zeroed out-of-block amplitudes for disjoint support,
    Gram-Schmidt for orthogonal same-space pairs).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (parameter_count(dim),):
        raise ValueError(
            f"parameter vector must have length {parameter_count(dim)}, got {x.shape}"
        )
    theta, phase = float(x[0]), float(x[1])
    alpha = complex(np.cos(theta))
    beta = complex(np.sin(theta)) * np.exp(1j * phase)
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


def _nelder_mead(objective, x0: np.ndarray, iterations: int):
    """Classic simplex descent; returns (best_x, best_f, trace, evaluations).

    The simplex is one (n + 1, n) array whose rows stay in stable value order.
    """
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    np.fill_diagonal(simplex[1:], x0 + _SIMPLEX_OFFSET)
    values = np.array([objective(v) for v in simplex], dtype=float)
    evaluations = n + 1
    trace: list[float] = []

    for _ in range(iterations):
        order = np.argsort(values, kind="stable")
        moved = np.flatnonzero(order != np.arange(n + 1))  # copy only these rows
        simplex[moved] = simplex[order[moved]]
        values = values[order]
        best_f = float(values[0])
        trace.append(best_f if not trace else min(trace[-1], best_f))
        if _diameter(simplex) < _DIAMETER_TOL:
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / n  # ndarray.mean's arithmetic
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
        # Shrink toward the best vertex, in place: no (n, n) temporaries.
        simplex[1:] -= simplex[0]
        simplex[1:] *= 0.5
        simplex[1:] += simplex[0]
        values[1:] = [objective(v) for v in simplex[1:]]
        evaluations += n

    best = int(np.argsort(values, kind="stable")[0])
    final_best = float(values[best])
    trace.append(final_best if not trace else min(trace[-1], final_best))
    return simplex[best].copy(), final_best, trace, evaluations


def minimize_slack(
    spec: SearchSpec, *, tolerance: float = TOLERANCES.bound_slack
) -> SearchResult:
    """Seeded multi-restart Nelder-Mead over the slack of one bound.

    Restart r starts from a Gaussian point drawn from sub-seed (spec.seed, r);
    the global best is the minimum across restarts with ties broken by the
    lowest restart index.  A slack below -tolerance in the result indicates
    an implementation bug, not a counterexample.
    """
    split = default_split(spec.dim) if spec.pair_kind is PairKind.DISJOINT_SUPPORT else None

    def objective(x: np.ndarray) -> float:
        try:
            return bound_slack(spec.bound_id, *parameterize(x, spec.dim, spec.pair_kind, split))
        except ZeroVectorError:
            # Degenerate projection; steer the simplex elsewhere.
            return float("inf")

    best_x = None
    best_slack = float("inf")
    traces: list[tuple[float, ...]] = []
    total_evaluations = 0
    for restart in range(spec.restarts):
        gen = make_generator(subseed(spec.seed, restart))
        x0 = standard_normals(gen, parameter_count(spec.dim))
        x, value, trace, evaluations = _nelder_mead(objective, x0, spec.iterations)
        traces.append(tuple(trace))
        total_evaluations += evaluations
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
        trace=tuple(traces),
        evaluations=total_evaluations,
    )
