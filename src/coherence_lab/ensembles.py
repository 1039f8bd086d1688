"""Seeded random generation of states, pairs, and coefficients.

Every trial of an ensemble owns its own Philox generator keyed by a sub-seed
derived from the master seed and the trial index (see ``rng``), so runs are
bit-for-bit reproducible and each trial is independent of every other.
Within a trial the draw order is fixed: first state, second state (including
any resampling), then coefficients.

``run_ensemble`` runs trials one at a time and is the reference.
``summarize_ensemble`` computes the same summary from chunks of trials held
in (trials, dim) arrays, and hands back to the scalar path every trial whose
batched values come near a threshold at which the scalar path would resample,
raise, or give another verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import (
    BOUNDS,
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T3_UPPER,
    T4_LOWER_A,
    T4_LOWER_B,
    BoundReport,
    evaluate_all,
)
from .errors import BadSplitError, CoherenceLabError, DegeneratePairError
from .linalg import StateVector, norm, normalize
from .rng import complex_normals, make_generator, philox_uniforms, subseed, subseeds
from .superpose import PairKind, SuperpositionCoefficients, classify_pair
from .tolerances import TOLERANCES

_MAX_RESAMPLES = 8
# Projected-norm floor below which an orthogonalization attempt is discarded.
_PROJECTION_FLOOR = 1e-6
# A summary keeps the records of this many violating trials and this many
# error strings, the first ones in trial-index order.
_MAX_RECORDED_VIOLATIONS = 20
_MAX_ERROR_SAMPLES = 5
# Trials per batched chunk times the dimension stays at or below this, which
# bounds the kernel's memory whatever the trial count.
_CHUNK_ELEMENTS = 2**14
# Batched sums and norms round differently from the scalar path (by ~1e-15
# here). A batched value within this factor of a sampling or classification
# threshold, or a slack within _VERDICT_GUARD of its verdict threshold, sends
# the trial to the scalar path, so no decision can differ between the two.
_GUARD = 2.0
_VERDICT_GUARD = 1e-12


@dataclass(frozen=True)
class EnsembleConfig:
    """Specification of one randomized verification ensemble.

    ``permute`` scatters the contiguous disjoint-support blocks over random
    basis indices; coherence is invariant under index permutation, so it is
    off by default and exists only to decouple results from block placement.
    """

    dim: int
    trials: int
    pair_kind: PairKind
    seed: int
    split: Optional[tuple[int, int]] = None
    permute: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"ensemble dimension must be >= 2, got {self.dim}")
        if self.trials < 0:
            raise ValueError(f"trial count must be >= 0, got {self.trials}")
        if self.pair_kind is PairKind.DISJOINT_SUPPORT:
            split = self.split if self.split is not None else default_split(self.dim)
            d1, d2 = split
            if d1 < 1 or d2 < 1 or d1 + d2 > self.dim:
                raise BadSplitError(
                    f"split {split} is invalid for dimension {self.dim}"
                )
            object.__setattr__(self, "split", (int(d1), int(d2)))


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: sub-seed, classification, and all reports.

    Sampling or evaluation errors are captured per trial instead of aborting
    the run; a failed trial has an ``error`` string and no reports.
    """

    index: int
    seed: int
    pair_class: Optional[str]
    reports: tuple[BoundReport, ...]
    error: Optional[str]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "pair_class": self.pair_class,
            "reports": [r.to_dict() for r in self.reports],
            "error": self.error,
        }


def default_split(dim: int) -> tuple[int, int]:
    """Even contiguous index partition used when none is configured."""
    return dim // 2, dim - dim // 2


def _haar_state(gen: np.random.Generator, dim: int) -> StateVector:
    for _ in range(_MAX_RESAMPLES):
        raw = complex_normals(gen, dim)
        if norm(raw) > TOLERANCES.zero_vector:
            return normalize(raw)
    raise DegeneratePairError("Gaussian sampling produced only degenerate vectors")


def haar_random_state(dim: int, seed: int) -> StateVector:
    """Uniform (unitarily invariant) random pure state.

    Independent standard complex Gaussian amplitudes, then normalization.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _haar_state(make_generator(seed), dim)


def _orthogonal_pair(
    gen: np.random.Generator, dim: int
) -> tuple[StateVector, StateVector]:
    phi = _haar_state(gen, dim)
    for _ in range(_MAX_RESAMPLES):
        raw = complex_normals(gen, dim)
        projected = raw - np.vdot(phi.amps, raw) * phi.amps
        if norm(projected) <= _PROJECTION_FLOOR:
            continue
        # One re-orthogonalization pass scrubs the first projection's round-off.
        projected = projected - np.vdot(phi.amps, projected) * phi.amps
        psi = normalize(projected)
        return phi, psi
    raise DegeneratePairError(
        f"could not orthogonalize against the first state in {_MAX_RESAMPLES} attempts"
    )


def random_orthogonal_pair(dim: int, seed: int) -> tuple[StateVector, StateVector]:
    """Two random states with |<phi|psi>| below the support tolerance.

    Gram-Schmidt with one re-orthogonalization pass; the second raw sample is
    redrawn (up to a small cap) if it is nearly parallel to the first.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return _orthogonal_pair(make_generator(seed), dim)


def _disjoint_pair(
    gen: np.random.Generator, dim: int, split: tuple[int, int], permute: bool = False
) -> tuple[StateVector, StateVector]:
    d1, d2 = split
    phi_block = _haar_state(gen, d1)
    psi_block = _haar_state(gen, d2)
    phi = np.zeros(dim, dtype=np.complex128)
    psi = np.zeros(dim, dtype=np.complex128)
    phi[:d1] = phi_block.amps
    psi[d1 : d1 + d2] = psi_block.amps
    if permute:
        # Drawn after both blocks; keeps the unpermuted stream unchanged.
        order = gen.permutation(dim)
        phi = phi[order]
        psi = psi[order]
    return StateVector(phi), StateVector(psi)


def random_disjoint_support_pair(config: EnsembleConfig) -> tuple[StateVector, StateVector]:
    """Pair supported on the two contiguous index blocks of ``config.split``.

    Out-of-block amplitudes are exactly zero.
    """
    if config.pair_kind is not PairKind.DISJOINT_SUPPORT:
        raise BadSplitError(
            f"config.pair_kind is {config.pair_kind.value}, not DisjointSupport"
        )
    return _disjoint_pair(
        make_generator(config.seed), config.dim, config.split, config.permute
    )


def _coefficients(gen: np.random.Generator) -> SuperpositionCoefficients:
    theta = 0.5 * np.pi * gen.random()
    phase_angle = 2.0 * np.pi * gen.random()
    alpha = complex(np.cos(theta))
    beta = complex(np.sin(theta)) * np.exp(1j * phase_angle)
    return SuperpositionCoefficients(alpha=alpha, beta=beta)


def random_coefficients(seed: int) -> SuperpositionCoefficients:
    """alpha = cos(theta), beta = sin(theta) e^{i phase}; theta uniform on
    [0, pi/2], phase uniform on [0, 2 pi)."""
    return _coefficients(make_generator(seed))


def sample_pair(
    gen: np.random.Generator, config: EnsembleConfig
) -> tuple[StateVector, StateVector]:
    """Draw one pair of ``config.pair_kind`` from ``gen``, as a trial does."""
    kind = config.pair_kind
    if kind is PairKind.DISJOINT_SUPPORT:
        return _disjoint_pair(gen, config.dim, config.split, config.permute)
    if kind is PairKind.ORTHOGONAL_SAME_SPACE:
        return _orthogonal_pair(gen, config.dim)
    if kind is PairKind.NON_ORTHOGONAL:
        phi = _haar_state(gen, config.dim)
        for _ in range(_MAX_RESAMPLES):
            psi = _haar_state(gen, config.dim)
            if abs(np.vdot(phi.amps, psi.amps)) > TOLERANCES.overlap:
                return phi, psi
        raise DegeneratePairError("every resample was accidentally orthogonal")
    return _haar_state(gen, config.dim), _haar_state(gen, config.dim)


def _run_trial(config: EnsembleConfig, index: int, tolerance: float) -> TrialRecord:
    trial_seed = subseed(config.seed, index)
    gen = make_generator(trial_seed)
    try:
        phi, psi = sample_pair(gen, config)
        coeffs = _coefficients(gen)
        pair_class = classify_pair(phi, psi)
        reports = evaluate_all(coeffs, phi, psi, tolerance=tolerance)
    except CoherenceLabError as exc:
        return TrialRecord(
            index=index,
            seed=trial_seed,
            pair_class=None,
            reports=(),
            error=f"{type(exc).__name__}: {exc}",
        )
    return TrialRecord(
        index=index,
        seed=trial_seed,
        pair_class=pair_class.tag.value,
        reports=tuple(reports),
        error=None,
    )


def run_ensemble(
    config: EnsembleConfig, *, tolerance: float = TOLERANCES.bound_slack
) -> list[TrialRecord]:
    """Run all trials of an ensemble, ordered by trial index.

    The result is a pure function of ``config`` and ``tolerance``: each trial
    derives its own generator from (master seed, index).
    """
    return [_run_trial(config, k, tolerance) for k in range(config.trials)]


# ---------------------------------------------------------------------------
# batched path


def _class_routes() -> dict[PairKind, tuple[str, ...]]:
    """Bound ids ``evaluate_all`` reports for each pair class when s > 0.

    Read off the scalar path with one exemplar pair per class, so that the
    routing is written only in ``bounds``.
    """
    r = math.sqrt(0.5)
    e0, e1 = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
    plus, minus = StateVector([r, r]), StateVector([r, -r])
    coeffs = SuperpositionCoefficients(r, r)
    exemplars = {
        PairKind.DISJOINT_SUPPORT: (e0, e1),
        PairKind.ORTHOGONAL_SAME_SPACE: (plus, minus),
        PairKind.NON_ORTHOGONAL: (e0, plus),
    }
    return {
        kind: tuple(rep.bound_id for rep in evaluate_all(coeffs, phi, psi))
        for kind, (phi, psi) in exemplars.items()
    }


_ROUTES = _class_routes()


class _Rows:
    """Pre-drawn uniforms, one trial per row, read like a trial's generator.

    ``random(n)`` returns the next n columns and ``random()`` the next one,
    so the scalar draw helpers consume them in a trial's draw order.
    """

    def __init__(self, uniforms: np.ndarray):
        self.uniforms = uniforms
        self.pos = 0

    def random(self, n: Optional[int] = None) -> np.ndarray:
        start = self.pos
        self.pos += 1 if n is None else n
        return self.uniforms[:, start] if n is None else self.uniforms[:, start:self.pos]


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x.real ** 2 + x.imag ** 2).sum(axis=1))


def _row_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.conj() * b).sum(axis=1)


def _near(x: np.ndarray, threshold: float) -> np.ndarray:
    """Values that may fall on either side of ``threshold`` (NaN included)."""
    return ~((x <= threshold / _GUARD) | (x > threshold * _GUARD))


def _unit_rows(raw: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and the rows to redo: a norm near or below
    ``floor``, or a result that could fail the ``StateVector`` norm check."""
    norms = _row_norms(raw)
    amps = raw / norms[:, None]
    redo = ~(norms > _GUARD * floor)
    redo |= ~(np.abs(_row_norms(amps) - 1.0) <= TOLERANCES.norm / _GUARD)
    return amps, redo


def _clamped(value: np.ndarray, slop: float) -> tuple[np.ndarray, np.ndarray]:
    """Round-off below 0 clamped as the scalar entropies do; rows to redo
    are those it could raise on."""
    return np.where(value < 0.0, 0.0, value) + 0.0, ~(value >= -slop / _GUARD)


def _entropy_terms(p: np.ndarray) -> np.ndarray:
    """p log2 p, with 0 for p at or below ``TOLERANCES.prob_floor``."""
    keep = p > TOLERANCES.prob_floor
    return np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0)


def _coherence(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``pure_state_coherence``."""
    return _clamped(-_entropy_terms(np.abs(amps) ** 2).sum(axis=1), TOLERANCES.entropy_slop)


def _binary_entropy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``binary_entropy``; rows to redo are those it could raise on."""
    slop = TOLERANCES.entropy_slop / _GUARD
    redo = ~((x >= -slop) & (x <= 1.0 + slop))
    x = np.clip(x, 0.0, 1.0)
    value, clamp_redo = _clamped(0.0 - _entropy_terms(x) - _entropy_terms(1.0 - x),
                                 TOLERANCES.entropy_slop)
    return value, redo | clamp_redo


def _verdicts(direction: str, lhs, rhs, tolerance: float):
    """Slack, verdict and nearness to the verdict threshold, as ``bounds``
    computes them for one report."""
    if direction == "equality":
        slack = np.abs(lhs - rhs)
        satisfied, threshold = slack <= tolerance, tolerance
    else:
        slack = rhs - lhs if direction == "upper" else lhs - rhs
        satisfied, threshold = slack >= -tolerance, -tolerance
    return slack, satisfied, ~(np.abs(slack - threshold) > _VERDICT_GUARD)


def _batch(config: EnsembleConfig, indices: np.ndarray, tolerance: float):
    """Evaluate trials ``indices`` of an ensemble on (trials, dim) arrays.

    Returns the mask of trials the scalar path must recompute, and for each
    bound id the mask of trials it applies to with their slacks and verdicts.
    """
    kind, dim, n = config.pair_kind, config.dim, indices.size
    blocks = config.split if kind is PairKind.DISJOINT_SUPPORT else (dim, dim)
    stream = _Rows(philox_uniforms(subseeds(config.seed, indices), 2 * sum(blocks) + 2))

    phi, redo = _unit_rows(complex_normals(stream, blocks[0]), TOLERANCES.zero_vector)
    if kind is PairKind.ORTHOGONAL_SAME_SPACE:
        raw = complex_normals(stream, dim)
        projected = raw - _row_vdot(phi, raw)[:, None] * phi
        redo |= ~(_row_norms(projected) > _GUARD * _PROJECTION_FLOOR)
        projected = projected - _row_vdot(phi, projected)[:, None] * phi
        psi, psi_redo = _unit_rows(projected, TOLERANCES.zero_vector)
    else:
        psi, psi_redo = _unit_rows(complex_normals(stream, blocks[1]), TOLERANCES.zero_vector)
    redo |= psi_redo
    if kind is PairKind.DISJOINT_SUPPORT:
        d1, d2 = blocks
        phi = np.concatenate([phi, np.zeros((n, dim - d1))], axis=1)
        psi = np.concatenate([np.zeros((n, d1)), psi, np.zeros((n, dim - d1 - d2))], axis=1)
    overlap = np.abs(_row_vdot(phi, psi))
    if kind is PairKind.NON_ORTHOGONAL:
        redo |= ~(overlap > _GUARD * TOLERANCES.overlap)

    theta = 0.5 * np.pi * stream.random()
    phase_angle = 2.0 * np.pi * stream.random()
    alpha = np.cos(theta)
    beta = np.sin(theta) * np.exp(1j * phase_angle)
    a, b = alpha ** 2, np.abs(beta) ** 2
    redo |= ~(np.abs(a + b - 1.0) <= TOLERANCES.norm / _GUARD)

    shared = np.minimum(np.abs(phi), np.abs(psi)).max(axis=1)
    disjoint = shared <= TOLERANCES.support
    orthogonal = ~disjoint & (overlap <= TOLERANCES.overlap)
    redo |= _near(shared, TOLERANCES.support) | (~disjoint & _near(overlap, TOLERANCES.overlap))
    # T2's hypothesis, which a disjoint pair meets unless its overlap is large.
    redo |= disjoint & ~(overlap <= TOLERANCES.overlap / _GUARD)
    classes = {
        PairKind.DISJOINT_SUPPORT: disjoint,
        PairKind.ORTHOGONAL_SAME_SPACE: orthogonal,
        PairKind.NON_ORTHOGONAL: ~disjoint & ~orthogonal,
    }

    raw = alpha[:, None] * phi + beta[:, None] * psi
    s = _row_norms(raw)
    omega, omega_redo = _unit_rows(raw, TOLERANCES.zero_vector)
    c_phi, c_phi_redo = _coherence(phi)
    c_psi, c_psi_redo = _coherence(psi)
    c_omega, c_omega_redo = _coherence(omega)
    h_a, h_a_redo = _binary_entropy(a)
    redo |= omega_redo | c_phi_redo | c_psi_redo | c_omega_redo | h_a_redo
    mix = a * c_phi + b * c_psi + h_a
    s_sq = s ** 2

    def t4_rhs(w_own, c_own, w_other, c_other):
        h, h_redo = _binary_entropy(w_other / (s_sq + w_other))
        return 0.5 * w_own * c_own - w_other * c_other - (s_sq + w_other) * h, h_redo

    rhs_a, rhs_a_redo = t4_rhs(a, c_phi, b, c_psi)
    rhs_b, rhs_b_redo = t4_rhs(b, c_psi, a, c_phi)
    redo |= rhs_a_redo | rhs_b_redo
    sides = {
        T1_EQUALITY: (c_omega, mix),
        GAIN_LE_1: (c_omega - a * c_phi - b * c_psi, 1.0),
        T2_UPPER: (c_omega, 2.0 * mix),
        T3_UPPER: (s_sq * c_omega, 2.0 * mix),
        T4_LOWER_A: (s_sq * c_omega, rhs_a),
        T4_LOWER_B: (s_sq * c_omega, rhs_b),
    }

    applies = {}
    for pair_class, members in classes.items():
        for bound_id in _ROUTES[pair_class]:
            applies[bound_id] = applies.get(bound_id, False) | members
    results = {}
    for bound_id, members in applies.items():
        slack, satisfied, near = _verdicts(BOUNDS[bound_id].direction, *sides[bound_id], tolerance)
        redo |= members & near
        results[bound_id] = (members, slack, satisfied)
    return redo, results


def _fold(summary: dict, bound_id: str, count: int, violations: int,
          low: float, high: float) -> None:
    stats = summary["bounds"].setdefault(
        bound_id, {"count": 0, "violations": 0, "min_slack": math.inf, "max_slack": -math.inf}
    )
    stats["count"] += count
    stats["violations"] += violations
    stats["min_slack"] = min(stats["min_slack"], low)
    stats["max_slack"] = max(stats["max_slack"], high)
    summary["violations"] += violations


def _fold_chunk(summary: dict, config: EnsembleConfig, indices: np.ndarray,
                tolerance: float) -> None:
    if config.permute:
        # gen.permutation is not reproduced in the batched kernel.
        redo, results = np.ones(indices.size, dtype=bool), {}
    else:
        with np.errstate(all="ignore"):  # rows that overflow or divide by 0 are redone
            redo, results = _batch(config, indices, tolerance)
    violated = np.zeros(indices.size, dtype=bool)
    for bound_id, (members, slack, satisfied) in results.items():
        members = members & ~redo
        if members.any():
            unsatisfied = members & ~satisfied
            _fold(summary, bound_id, int(members.sum()), int(unsatisfied.sum()),
                  float(slack[members].min()), float(slack[members].max()))
            violated |= unsatisfied
    records = {}
    for position in np.flatnonzero(redo):
        record = records[position] = _run_trial(config, int(indices[position]), tolerance)
        if record.error is not None:
            summary["errors"] += 1
            if len(summary["error_samples"]) < _MAX_ERROR_SAMPLES:
                summary["error_samples"].append(record.error)
        for rep in record.reports:
            _fold(summary, rep.bound_id, 1, int(not rep.satisfied), rep.slack, rep.slack)
            violated[position] |= not rep.satisfied
    kept = summary["violating_trials"]
    for position in np.flatnonzero(violated)[: _MAX_RECORDED_VIOLATIONS - len(kept)]:
        record = records.get(position) or _run_trial(config, int(indices[position]), tolerance)
        kept.append(record.to_dict())


def summarize_ensemble(
    config: EnsembleConfig, *, tolerance: float = TOLERANCES.bound_slack
) -> dict:
    """The verify report's summary of an ensemble, streamed over trial chunks.

    Per-bound report counts, violations and slack extremes, the error count,
    the first error strings and the records of the first violating trials,
    all as a fold over ``run_ensemble(config, tolerance=tolerance)`` gives
    them. Only kept trials get a record. Slack extremes of batched trials
    may differ from the scalar path in the last digits.
    """
    summary = {
        "pair_kind": config.pair_kind.value,
        "dim": config.dim,
        "seed": config.seed,
        "trials": config.trials,
        "errors": 0,
        "error_samples": [],
        "violations": 0,
        "bounds": {},
        "violating_trials": [],
    }
    step = max(1, _CHUNK_ELEMENTS // config.dim)
    for start in range(0, config.trials, step):
        indices = np.arange(start, min(start + step, config.trials))
        _fold_chunk(summary, config, indices, tolerance)
    return summary
