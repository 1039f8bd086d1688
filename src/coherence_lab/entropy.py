"""Entropy functionals and the relative entropy of coherence.

All entropies are in bits (logarithm base 2); with that convention the binary
entropy peaks at exactly 1, which is what makes the dimension-independent
coherence-gain ceiling come out as 1.  The 0*log(0) = 0 convention is applied
pointwise, and probabilities below ``TOLERANCES.prob_floor`` are treated as
exactly zero so round-off dust cannot inject -inf terms.

Every logarithm is ``np.log2``, on a scalar as on an array (``math.log2``
rounds differently), and this is the only module that takes one.  The row
forms ``row_coherences`` and ``binary_entropy_rows`` therefore give the scalar
functions' floats bit for bit, and say where the scalar function would raise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, DomainError
from .linalg import DensityMatrix, DiagonalDistribution, StateVector, dephase_mixed
from .tolerances import TOLERANCES


def _clamped_nonnegative(value: float, slop: float, what: str) -> float:
    """Clamp tiny negative round-off to 0; fail loudly on anything worse."""
    if value < -slop:
        raise ConsistencyError(f"{what} = {value!r} is below the -{slop:g} slop window")
    # value + 0.0 folds -0.0 into +0.0.
    return 0.0 if value < 0.0 else value + 0.0


def _clamped_rows(value: np.ndarray, slop: float) -> tuple[np.ndarray, np.ndarray]:
    """``_clamped_nonnegative`` on an array: (values, ok); it raises where not ok."""
    return np.maximum(value + 0.0, 0.0), value >= -slop


def _entropy_of_probs(probs: np.ndarray) -> float:
    p = probs[probs > TOLERANCES.prob_floor]
    if p.size == 0:
        return 0.0
    value = float(-(p * np.log2(p)).sum())
    return _clamped_nonnegative(value, TOLERANCES.entropy_slop, "entropy")


def shannon_entropy(dist: DiagonalDistribution) -> float:
    """H(p) = -sum_i p_i log2 p_i, in [0, log2 d]."""
    return _entropy_of_probs(dist.probs)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1].

    Symmetric about 1/2, where it attains its maximum value 1.
    """
    x = float(x)
    if not math.isfinite(x) or x < -TOLERANCES.entropy_slop or x > 1.0 + TOLERANCES.entropy_slop:
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    value = 0.0
    for p in (x, 1.0 - x):
        if p > TOLERANCES.prob_floor:
            value -= p * float(np.log2(p))
    return _clamped_nonnegative(value, TOLERANCES.entropy_slop, "binary entropy")


def binary_entropy_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``binary_entropy`` of each entry of a float array: (values, ok).

    Where ``ok`` holds, values[i] is ``binary_entropy(x[i])`` bit for bit;
    elsewhere ``binary_entropy`` raises (a non-finite or out-of-domain
    argument).
    """
    slop = TOLERANCES.entropy_slop
    inside = (x >= -slop) & (x <= 1.0 + slop)
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    value = 0.0
    for p in (x, 1.0 - x):
        keep = p > TOLERANCES.prob_floor
        # Subtracting 0.0 leaves any value as it is, so a dropped term is skipped.
        value = value - np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0)
    value, ok = _clamped_rows(value, slop)
    return value, inside & ok


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho): Shannon entropy of the eigenvalue spectrum, in bits."""
    eigs = np.clip(rho.eigenvalues(), 0.0, None)
    return _entropy_of_probs(eigs)


def relative_entropy_coherence(rho: DensityMatrix) -> float:
    """C(rho) = S(rho_diag) - S(rho), the relative entropy of coherence.

    Non-negative for every valid density matrix; values inside the
    ``coherence_slop`` round-off window are clamped to 0.
    """
    s_diag = _entropy_of_probs(dephase_mixed(rho).probs)
    s_full = von_neumann_entropy(rho)
    return _clamped_nonnegative(
        s_diag - s_full, TOLERANCES.coherence_slop, "relative entropy of coherence"
    )


def pure_state_coherence(state: StateVector) -> float:
    """Coherence of a pure state: Shannon entropy of its squared amplitudes.

    Equals ``relative_entropy_coherence`` on the corresponding projector, but
    needs no eigensolver.
    """
    return _entropy_of_probs(np.abs(state.amps) ** 2)


def row_coherences(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pure_state_coherence`` of each (R, k, d) row state: (values (R, k), ok (R,)).

    A column of one of the k states that is exactly zero in all R rows lies
    outside that state's support and is left out, as the scalar path leaves
    out p = 0.  Where ``ok`` holds, every other probability of the row is
    above ``prob_floor``, so each value sums the terms the scalar path sums,
    in the same order, to the same float.  Elsewhere the row has a
    probability inside a support that the floor drops, or an entropy below
    the clamp window.  Such rows may make numpy warn.
    """
    p = np.abs(amps) ** 2
    small = p <= TOLERANCES.prob_floor
    supported = True  # no probability inside a support that the floor drops
    if not np.count_nonzero(small):  # every column is in every support
        value = -np.add.reduce(p * np.log2(p), axis=-1)
    else:
        support = np.logical_or.reduce(p, axis=0)
        value = np.empty(p.shape[:2])
        inside = np.empty(p.shape[:2], dtype=bool)  # a dropped probability in the support
        for j, columns in enumerate(support):
            # compress keeps rows contiguous (a boolean index would not), so
            # each row sums in the scalar path's pairwise order.
            block = p[:, j].compress(columns, axis=1)
            value[:, j] = -np.add.reduce(block * np.log2(block), axis=-1)
            inside[:, j] = np.logical_or.reduce(small[:, j].compress(columns, axis=1), axis=-1)
        supported = ~np.logical_or.reduce(inside, axis=1)
    value, clamp_ok = _clamped_rows(value, TOLERANCES.entropy_slop)
    return value, supported & np.logical_and.reduce(clamp_ok, axis=1)
