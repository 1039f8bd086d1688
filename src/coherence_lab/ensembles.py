"""Seeded random generation of states, pairs, and coefficients.

Every trial of an ensemble owns its own Philox generator keyed by a sub-seed
derived from the master seed and the trial index (see ``rng``), so runs are
bit-for-bit reproducible and each trial is independent of every other.
Within a trial the draw order is fixed: first state, second state (including
any resampling), then coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundReport, evaluate_all
from .errors import BadSplitError, CoherenceLabError, DegeneratePairError
from .linalg import StateVector, normalize
from .rng import complex_normals, make_generator, subseed
from .superpose import PairKind, SuperpositionCoefficients, classify_pair
from .tolerances import TOLERANCES

_MAX_RESAMPLES = 8
# Projected-norm floor below which an orthogonalization attempt is discarded.
_PROJECTION_FLOOR = 1e-6


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
        if float(np.linalg.norm(raw)) > TOLERANCES.zero_vector:
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
        if float(np.linalg.norm(projected)) <= _PROJECTION_FLOOR:
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
