"""Seeded random generation of states, pairs, and coefficients.

Every trial of an ensemble owns its own Philox generator keyed by a sub-seed
derived from the master seed and the trial index (see ``rng``), so runs are
bit-for-bit reproducible and each trial is independent of every other.
Within a trial the draw order is fixed: first state, second state (including
any resampling), then coefficients.

``run_ensemble`` runs trials one at a time and is the reference.
``summarize_ensemble`` computes the same summary from chunks of trials held
in (trials, dim) arrays.  The batched values are the scalar path's floats bit
for bit (the row forms in ``linalg``, ``superpose``, ``entropy`` and
``bounds.evaluate_rows``), so every comparison comes out as it does there, and
exactly the trials at which the scalar path would resample or raise are
handed back to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundReport, evaluate_all, evaluate_rows
from .entropy import row_coherences
from .errors import BadSplitError, CoherenceLabError, DegeneratePairError
from .linalg import StateVector, moduli, norm, normalize, normalize_rows, row_norms, row_vdot
from .rng import complex_normals, make_generator, philox_uniforms, subseed, subseeds
from .superpose import (
    PairKind,
    SuperpositionCoefficients,
    class_masks,
    classify_pair,
    coefficient_map,
    coefficient_weights,
    superpose_rows,
)
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


def _coefficient_pair(gen):
    """alpha and beta from the next two uniforms: floats from a generator,
    (trials,) arrays from ``_Rows``."""
    theta = 0.5 * np.pi * gen.random()
    return coefficient_map(theta, 2.0 * np.pi * gen.random())


def _coefficients(gen: np.random.Generator) -> SuperpositionCoefficients:
    alpha, beta = _coefficient_pair(gen)
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


def _batch(config: EnsembleConfig, indices: np.ndarray, tolerance: float):
    """Evaluate trials ``indices`` of an ensemble on (trials, dim) arrays.

    Returns the mask of trials at which the scalar path resamples or raises,
    which it must run, and for the others, per class and bound id, the
    trials' positions, slacks and verdicts: the scalar path's, bit for bit.
    """
    kind, dim, n = config.pair_kind, config.dim, indices.size
    blocks = config.split if kind is PairKind.DISJOINT_SUPPORT else (dim, dim)
    stream = _Rows(philox_uniforms(subseeds(config.seed, indices), 2 * sum(blocks) + 2))

    phi, _, ok = normalize_rows(complex_normals(stream, blocks[0]))
    raw = complex_normals(stream, blocks[1])
    if kind is PairKind.ORTHOGONAL_SAME_SPACE:
        raw = raw - row_vdot(phi, raw)[:, None] * phi
        ok &= row_norms(raw) > _PROJECTION_FLOOR
        raw = raw - row_vdot(phi, raw)[:, None] * phi
    psi, _, psi_ok = normalize_rows(raw)
    ok &= psi_ok
    if kind is PairKind.DISJOINT_SUPPORT:
        d1, d2 = blocks
        phi = np.concatenate([phi, np.zeros((n, dim - d1))], axis=1)
        psi = np.concatenate([np.zeros((n, d1)), psi, np.zeros((n, dim - d1 - d2))], axis=1)
    classes, overlap = class_masks(phi, psi)
    if kind is PairKind.NON_ORTHOGONAL:
        ok &= moduli(overlap) > TOLERANCES.overlap

    alpha, beta = _coefficient_pair(stream)
    alpha_sq, beta_sq, weights_ok = coefficient_weights(alpha, beta)
    s, omega, superposed = superpose_rows(alpha, beta, phi, psi)
    ok &= weights_ok & superposed
    values = {"alpha_sq": alpha_sq, "beta_sq": beta_sq, "s": s}
    for name, state in (("phi", phi), ("psi", psi), ("t1", omega)):
        coherence, vouched = row_coherences(state[:, None])
        values["coherence_" + name] = coherence[:, 0]
        ok &= vouched

    results = []
    for pair_class, members in classes.items():
        rows = np.flatnonzero(members & ok)
        if rows.size:
            verdicts, vouched = evaluate_rows(
                pair_class, overlap[rows], {k: v[rows] for k, v in values.items()}, tolerance
            )
            ok[rows] = vouched
            results += [(bound_id, rows[vouched], slack[vouched], satisfied[vouched])
                        for bound_id, (slack, satisfied) in verdicts.items()]
    return ~ok, results


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
        redo, results = np.ones(indices.size, dtype=bool), []
    else:
        with np.errstate(all="ignore"):  # rows that overflow or divide by 0 are redone
            redo, results = _batch(config, indices, tolerance)
    violated = np.zeros(indices.size, dtype=bool)
    for bound_id, rows, slack, satisfied in results:
        if rows.size:
            unsatisfied = rows[~satisfied]
            _fold(summary, bound_id, rows.size, unsatisfied.size,
                  float(slack.min()), float(slack.max()))
            violated[unsatisfied] = True
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
    all equal to what a fold over ``run_ensemble(config, tolerance=tolerance)``
    gives. Only kept trials get a record.
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
